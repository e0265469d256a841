from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epgtool import (
    BoundQuery,
    DegenerateDiscriminant,
    EpgState,
    ModelParams,
    OutOfRange,
    certify_trajectory,
    default_grid,
    endemic_state,
    epidemic_storage,
    lyapunov_value,
    peak_bound,
    peak_ratio_at,
    simulate,
)
from epgtool import bounds
from epgtool.config import apply_overrides, load_config, resolve
from epgtool.params import usable_gain
from helpers import dense_grid_peak, peak_ratio_per_rate

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example1.json"


def _query(scenario, alpha, grid_size=30, upsilon=None, grid=None):
    return BoundQuery(
        alloc=scenario.alloc,
        params=scenario.params,
        upsilon=scenario.policy.upsilon if upsilon is None else upsilon,
        alpha=alpha,
        grid=default_grid(scenario.strategies, grid_size) if grid is None else grid,
    )


def test_storage_zero_exactly_at_target(example1):
    eq = example1.alloc.endemic
    val = epidemic_storage(
        eq.I_hat, eq.R_hat, eq.B, example1.alloc, example1.params, 2.0
    )
    assert val == 0.0


def test_storage_on_endemic_curve_reduces_to_rate_term(example1):
    for B in (0.152, 0.17, 0.186):
        eq = endemic_state(B, example1.params)
        val = epidemic_storage(
            eq.I_hat, eq.R_hat, B, example1.alloc, example1.params, 2.0
        )
        expected = 0.5 * 4.0 * (B - example1.alloc.betastar) ** 2
        assert val == pytest.approx(expected, abs=1e-15)


def test_stacked_storage_is_the_float_evaluation_bit_for_bit(example1):
    rng = np.random.default_rng(12)
    m, ups = 5000, 2.7
    B = rng.uniform(0.15, 0.19, m)
    I = rng.uniform(1e-4, 0.5, m)
    R = rng.uniform(0.0, 1.0, m) * (1.0 - I)
    stacked = epidemic_storage(I, R, B, example1.alloc, example1.params, ups)
    for k in range(m):
        b, i, r = float(B[k]), float(I[k]), float(R[k])
        eq = endemic_state(b, example1.params)
        r_dev, b_dev = eq.R_hat - r, b - example1.alloc.betastar
        expected = (eq.I_hat * math.log(eq.I_hat / i) - (eq.I_hat - i)
                    + 0.5 * eq.a * (r_dev * r_dev) + 0.5 * (ups * ups) * (b_dev * b_dev))
        assert stacked[k] == expected, k


def test_storage_at_baseline_start(example1):
    init = example1.initial
    val = epidemic_storage(
        init.I, init.R, 0.15, example1.alloc, example1.params, 2.0
    )
    assert val == pytest.approx(0.0008, abs=1e-12)


def test_storage_positive_away_from_target(example1):
    rng = np.random.default_rng(5)
    for _ in range(200):
        B = rng.uniform(0.15, 0.19)
        I = rng.uniform(1e-3, 0.9)
        R = rng.uniform(0.0, 1.0 - I)
        val = epidemic_storage(I, R, B, example1.alloc, example1.params, 2.0)
        assert val >= 0.0
        eq = example1.alloc.endemic
        off_target = (
            abs(I - eq.I_hat) > 1e-6
            or abs(R - eq.R_hat) > 1e-6
            or abs(B - eq.B) > 1e-6
        )
        if off_target:
            assert val > 0.0


def test_storage_rejects_nonpositive_infection(example1):
    with pytest.raises(ValueError):
        epidemic_storage(0.0, 0.3, 0.17, example1.alloc, example1.params, 2.0)


def test_storage_rejects_a_nan_infection(example1):
    for I in (math.nan, np.array([0.03, math.nan])):
        with pytest.raises(ValueError, match="I must be positive"):
            epidemic_storage(I, 0.3, 0.17, example1.alloc, example1.params, 2.0)


def test_ratio_at_target_rate_is_at_least_one(example1):
    for alpha in (0.0, 1e-6, 0.0008, 0.01, 1.0):
        q = _query(example1, alpha)
        ratio = peak_ratio_at(q, example1.alloc.betastar)
        assert ratio is not None and ratio >= 1.0


def test_zero_level_at_target_rate_collapses_to_one(example1):
    q = _query(example1, 0.0)
    assert peak_ratio_at(q, example1.alloc.betastar) == 1.0


def test_ratio_is_monotone_in_level(example1):
    q_small = _query(example1, 0.0004)
    q_big = _query(example1, 0.0008)
    for B in default_grid(example1.strategies, 8):
        small = peak_ratio_at(q_small, float(B))
        big = peak_ratio_at(q_big, float(B))
        if small is None:
            continue
        assert big is not None and big >= small - 1e-12


@settings(max_examples=60, deadline=None)
@given(
    alpha1=st.floats(1e-6, 0.01),
    alpha2=st.floats(1e-6, 0.01),
    k=st.integers(0, 29),
)
def test_ratio_monotonicity_property(example1, alpha1, alpha2, k):
    lo, hi = sorted((alpha1, alpha2))
    B = float(default_grid(example1.strategies, 30)[k])
    r_lo = peak_ratio_at(_query(example1, lo), B)
    r_hi = peak_ratio_at(_query(example1, hi), B)
    if r_lo is not None:
        assert r_hi is not None and r_hi >= r_lo - 1e-12


def test_baseline_peak_ratio_value(example1):
    result = peak_bound(_query(example1, 0.0008))
    # frozen from the one-dimensional reduction, cross-checked against the
    # dense-grid oracle below
    assert result.peak_ratio == pytest.approx(1.287612, abs=1e-4)
    assert 0.15 <= result.argmax_B <= 0.19
    assert result.certified_peak == pytest.approx(
        result.peak_ratio * example1.alloc.endemic.I_hat, rel=1e-12
    )


def test_reduction_agrees_with_dense_grid_oracle(example1):
    grid = default_grid(example1.strategies, 30)
    q = _query(example1, 0.0008)
    I_star = example1.alloc.endemic.I_hat
    for k in (5, 12, 18, 24):
        B = float(grid[k])
        ratio = peak_ratio_at(q, B)
        brute_I, quantum = dense_grid_peak(
            B, 0.0008, example1.alloc, example1.params, 2.0, resolution=500
        )
        assert ratio is not None and brute_I is not None
        # the grid maximum under-shoots the supremum by at most one cell
        assert ratio >= brute_I / I_star - 1e-9
        assert ratio - brute_I / I_star <= quantum / I_star + 1e-3


def test_peak_bound_max_over_grid(example1):
    result = peak_bound(_query(example1, 0.0008))
    feasible = [r for _, r in result.per_B if r is not None]
    assert result.peak_ratio == max(feasible)
    assert len(result.per_B) == 30


def test_grid_refinement_changes_little(example1):
    coarse = peak_bound(_query(example1, 0.0008, grid_size=30))
    fine = peak_bound(_query(example1, 0.0008, grid_size=60))
    assert abs(fine.peak_ratio - coarse.peak_ratio) < 1e-3


def test_nested_refinement_is_monotone(example1):
    # 59 equidistant points contain the 30-point grid, so the max can only grow
    coarse = peak_bound(_query(example1, 0.0008, grid_size=30))
    nested = peak_bound(_query(example1, 0.0008, grid_size=59))
    assert nested.peak_ratio >= coarse.peak_ratio - 1e-15


def test_vanishing_gain_limit(example1):
    """With the level taken from an endemic start, gain and level scale
    together: the feasible rate window is gain-independent and the ratio
    tends to the largest endemic share over that window, not to 1."""
    grid = default_grid(example1.strategies, 30)
    # the top rate itself sits exactly on the level-set boundary and drops
    # out to rounding, so the limit lands on the next grid point's share
    cap = (
        endemic_state(float(grid[-2]), example1.params).I_hat
        / example1.alloc.endemic.I_hat
    )
    prev = None
    for ups in (2.0, 1.0, 0.5, 0.1, 0.02):
        alpha = 0.5 * ups ** 2 * (0.15 - example1.alloc.betastar) ** 2
        ratio = peak_bound(_query(example1, alpha, upsilon=ups)).peak_ratio
        assert ratio > 1.0
        if prev is not None:
            assert ratio <= prev + 1e-12  # nondecreasing in the gain
        prev = ratio
    assert prev == pytest.approx(cap, abs=1e-3)


def test_level_below_every_grid_penalty_is_bounded_at_the_target_rate(example1):
    grid = np.array([0.15, 0.1505])  # far from the target rate
    res = peak_bound(_query(example1, 1e-7, grid=grid))
    assert [r for _, r in res.per_B] == [None, None]
    assert res.argmax_B == example1.alloc.betastar
    assert res.peak_ratio > 1.0
    assert res.certified_peak == res.peak_ratio * example1.alloc.endemic.I_hat


@settings(max_examples=60, deadline=None)
@given(
    rates=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6),
    alpha=st.floats(0.0, 0.05),
)
def test_bound_exists_and_a_grid_rate_wins_ties(example1, rates, alpha):
    lo, hi = example1.strategies.betas[0], example1.strategies.betas[-1]
    grid = np.array([min(hi, lo + u * (hi - lo)) for u in rates])
    query = _query(example1, alpha, grid=grid)
    res = peak_bound(query)
    assert res.peak_ratio >= 1.0
    grid_ratios = [r for _, r in res.per_B if r is not None]
    at_target = peak_ratio_at(query, example1.alloc.betastar)
    if grid_ratios and max(grid_ratios) >= at_target:
        assert res.peak_ratio == max(grid_ratios)
        assert res.argmax_B in grid
    else:
        assert (res.argmax_B, res.peak_ratio) == (example1.alloc.betastar, at_target)


def _hex(ratio):
    """A ratio as ``float.hex``, with NaN and ``None`` (infeasible) as None."""
    return None if ratio is None or math.isnan(ratio) else float(ratio).hex()


def _outcome(query, B, ratio):
    """Which of the four outcomes of the per-rate bisection gave ``ratio``."""
    I_star = query.alloc.endemic.I_hat
    if ratio is None:
        return "infeasible"
    if ratio == endemic_state(B, query.params).I_hat / I_star:
        return "minimum"
    return "cap" if ratio == 1.0 / I_star else "bisected"


# (alpha, upsilon, rates): level 0 is infeasible off the target rate and
# exactly the minimum at it; level 60 reaches the cap 1/I_star
OUTCOME_EXAMPLES = [(0.0, 2.0, [0.0, 1.0]), (60.0, 10.0, [0.0, 0.5]),
                    (0.0008, 2.0, [0.25, 0.75])]


def _lockstep_query(scenario, alpha, upsilon, rates):
    lo, hi = scenario.strategies.betas[0], scenario.strategies.betas[-1]
    grid = np.array([min(hi, lo + u * (hi - lo)) for u in rates])
    return _query(scenario, alpha, upsilon=upsilon, grid=grid)


def test_outcome_examples_reach_every_outcome(example1):
    seen = set()
    for args in OUTCOME_EXAMPLES:
        query = _lockstep_query(example1, *args)
        for B in [*query.grid.tolist(), example1.alloc.betastar]:
            seen.add(_outcome(query, B, peak_ratio_per_rate(query, B)))
    assert seen == {"infeasible", "minimum", "cap", "bisected"}


@settings(max_examples=80, deadline=None)
@given(
    alpha=st.one_of(st.just(0.0), st.floats(1e-9, 1e-2), st.floats(0.0, 60.0)),
    upsilon=st.floats(0.25, 10.0),
    rates=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=40),
)
@example(*OUTCOME_EXAMPLES[0])
@example(*OUTCOME_EXAMPLES[1])
@example(*OUTCOME_EXAMPLES[2])
def test_lockstep_ratios_are_the_per_rate_bisection_bit_for_bit(
        example1, alpha, upsilon, rates):
    query = _lockstep_query(example1, alpha, upsilon, rates)
    betastar = example1.alloc.betastar
    rates = [*query.grid.tolist(), betastar]
    oracle = [peak_ratio_per_rate(query, B) for B in rates]
    lockstep = peak_ratio_at(query, np.array(rates))
    assert [_hex(r) for r in lockstep] == [_hex(r) for r in oracle]
    assert [_hex(peak_ratio_at(query, B)) for B in rates] == [_hex(r) for r in oracle]
    # the oracle's maximum, a grid rate winning a tie and betastar last
    feasible = [(B, r) for B, r in zip(rates, oracle) if r is not None]
    argmax_B, ratio = max(feasible, key=lambda br: br[1])
    res = peak_bound(query)
    assert res.per_B == tuple(zip(rates[:-1], oracle[:-1]))
    assert (res.argmax_B, res.peak_ratio.hex()) == (argmax_B, ratio.hex())
    assert res.certified_peak == ratio * example1.alloc.endemic.I_hat


def test_rates_that_take_different_numbers_of_halvings(example1):
    # fast waning spreads I_hat over (0.04, 0.87), so the brackets
    # [I_hat, 1] need 31 to 34 halvings: a rate that is done must stay put
    params = ModelParams(gamma=0.1, delta=0.005, psi=1.0)
    rates = np.linspace(0.11, 2.0, 40)
    cap = 1.0 / example1.alloc.endemic.I_hat
    for alpha in (0.01, 0.03):
        query = BoundQuery(alloc=example1.alloc, params=params, upsilon=0.1,
                           alpha=alpha, grid=rates)
        oracle = [peak_ratio_per_rate(query, B) for B in rates.tolist()]
        assert sum(r is not None and r != cap for r in oracle) >= 30  # bisected
        lockstep = peak_ratio_at(query, rates)
        assert [_hex(r) for r in lockstep] == [_hex(r) for r in oracle]
        # any shape of rates, elementwise
        assert np.array_equal(peak_ratio_at(query, rates.reshape(5, 8)),
                              lockstep.reshape(5, 8), equal_nan=True)


@pytest.mark.parametrize("rates, first_bad", [
    ([0.17, 0.05, float("nan")], 0.05),
    ([0.17, float("nan"), 0.05], float("nan")),
    ([0.17, 0.16, 0.0], 0.0),
])
def test_a_rate_not_above_sigma_raises_as_endemic_state(example1, rates, first_bad):
    with pytest.raises(OutOfRange) as expected:
        endemic_state(first_bad, example1.params)
    query = _query(example1, 0.0008, grid=np.array(rates))
    for solve in (lambda: peak_ratio_at(query, query.grid), lambda: peak_bound(query)):
        with pytest.raises(OutOfRange) as raised:
            solve()
        assert str(raised.value) == str(expected.value)


def test_a_degenerate_discriminant_raises_as_endemic_state(example1):
    # powers of two make the discriminant exactly zero at B = 0.25, and
    # B = 0.05 is below sigma: the first of the two decides the error
    params = ModelParams(gamma=0.0, delta=0.125, zeta=0.0, theta=0.0, psi=0.125)
    with pytest.raises(DegenerateDiscriminant) as expected:
        endemic_state(0.25, params)
    query = BoundQuery(alloc=example1.alloc, params=params, upsilon=2.0,
                       alpha=0.0008, grid=np.array([0.25, 0.05]))
    with pytest.raises(DegenerateDiscriminant) as raised:
        peak_ratio_at(query, query.grid)
    assert str(raised.value) == str(expected.value)
    with pytest.raises(OutOfRange):
        peak_ratio_at(query, query.grid[::-1])


@pytest.mark.parametrize("rates, first_bad", [
    ([0.17, math.inf], math.inf),
    ([0.17, -math.inf, math.inf], -math.inf),
])
def test_an_infinite_rate_raises_as_endemic_state(example1, rates, first_bad):
    with pytest.raises((OutOfRange, DegenerateDiscriminant)) as expected:
        endemic_state(first_bad, example1.params)
    query = _query(example1, 0.0008, grid=np.array(rates))
    with pytest.raises(type(expected.value)) as raised:
        peak_ratio_at(query, query.grid)
    assert str(raised.value) == str(expected.value)


def test_epidemic_storage_rejects_a_rate_not_above_sigma(example1):
    # used to fail on a bare math domain error inside the log
    with pytest.raises(OutOfRange, match=r"^B=0\.05 must exceed sigma"):
        epidemic_storage(0.04, 0.3, 0.05, example1.alloc, example1.params, 2.0)
    with pytest.raises(OutOfRange, match=r"^B=0\.05 must exceed sigma"):
        epidemic_storage(np.array([0.04, 0.04]), np.array([0.3, 0.3]),
                         np.array([0.17, 0.05]), example1.alloc, example1.params, 2.0)


# the levels of the bit-for-bit checks: the workload's, the corners, and
# ROADMAP item 1's counterexample start
_LEVELS = (0.0008, 0.0, 1e-9, 3e-4, 7.03e-7)


@pytest.mark.parametrize("grid_size", [30, 3000])
def test_a_log_anywhere_inside_half_the_room_decides_as_math_log(
        example1, grid_size, monkeypatch):
    # numpy's log nudged by half the room (2**-40 relative, 2**-1000
    # absolute), up or down at random: the guard must still take every
    # decision as math.log does
    rng = np.random.default_rng(grid_size)

    def nudged(x):
        L = np.log(x)
        half_room = 2.0 ** -41 * np.abs(L) + 2.0 ** -1001
        return L + rng.choice([-1.0, 1.0], size=L.shape) * half_room

    monkeypatch.setattr(bounds, "_fast_log", nudged)
    for alpha in _LEVELS:
        query = _query(example1, alpha, grid_size=grid_size)
        rates = [*query.grid.tolist(), example1.alloc.betastar]
        oracle = [peak_ratio_per_rate(query, B) for B in rates]
        lockstep = peak_ratio_at(query, np.array(rates))
        assert [_hex(r) for r in lockstep] == [_hex(r) for r in oracle]


@pytest.mark.parametrize("index", [0, 14, 29])
def test_a_halving_the_room_cannot_decide_falls_back_to_math_log(
        example1, index, monkeypatch):
    # the level at the first midpoint of one rate's bracket, taken as alpha:
    # numpy's log widened by the room lands on both sides of it
    grid = default_grid(example1.strategies, 30)
    eq = endemic_state(float(grid[index]), example1.params)
    ups, b_dev = example1.policy.upsilon, eq.B - example1.alloc.betastar
    terms = [np.array([v]) for v in
             (eq.I_hat, eq.R_hat, eq.a, 0.5 * (ups * ups) * (b_dev * b_dev))]
    mid = 0.5 * (eq.I_hat + 1.0)
    alpha = float(bounds._level(np.array([mid]), *terms)[0])
    query = _query(example1, alpha, grid=grid)

    seen = []
    level = bounds._level

    def counted(I, *rest):
        seen.append(np.ravel(I).tolist())
        return level(I, *rest)

    monkeypatch.setattr(bounds, "_level", counted)
    rates = [*grid.tolist(), example1.alloc.betastar]
    lockstep = peak_ratio_at(query, np.array(rates))
    # slack and capped are the first two calls; any further one is a fallback
    assert len(seen) > 2 and [mid] in seen[2:]
    oracle = [peak_ratio_per_rate(query, B) for B in rates]
    assert oracle[index] not in (None, 1.0 / example1.alloc.endemic.I_hat)
    assert [_hex(r) for r in lockstep] == [_hex(r) for r in oracle]


def test_numpy_log_stays_far_inside_the_room():
    # the guard's assumption, checked where the suite runs: numpy's log is
    # within a quarter of the room of math.log on the arguments a bisection
    # takes
    rng = np.random.default_rng(18)
    x = np.concatenate([
        np.exp(rng.uniform(math.log(1e-6), 0.0, 90_000)),
        rng.uniform(0.99, 1.0, 9_000),
        1.0 - np.arange(1_000) * 2.0 ** -53,  # 1 and the floats just below
    ])
    fast = bounds._fast_log(x)
    exact = np.array([math.log(v) for v in x.tolist()])
    room = bounds._LOG_ROOM * np.abs(fast) + bounds._LOG_FLOOR
    assert np.all(np.abs(fast - exact) <= room / 4)


@pytest.mark.parametrize("upsilon", [math.nan, math.inf, 1e200, 0.0, -2.0])
def test_a_gain_usable_gain_rejects_is_rejected(example1, upsilon):
    # each of these used to certify a ratio (NaN: 1.1666 against 1.2876)
    assert not usable_gain(upsilon)
    with pytest.raises(ValueError, match="upsilon must be a usable gain"):
        _query(example1, 0.0008, upsilon=upsilon)


def test_large_level_caps_at_total_infection(example1):
    q = _query(example1, 50.0)
    ratio = peak_ratio_at(q, example1.alloc.betastar)
    assert ratio == pytest.approx(1.0 / example1.alloc.endemic.I_hat, rel=1e-12)


def test_query_validation(example1):
    with pytest.raises(ValueError):
        _query(example1, -0.1)
    with pytest.raises(ValueError):
        _query(example1, 0.0008, grid=np.array([0.17]))


def test_certification_report_on_short_run(example1):
    traj = simulate(example1.initial, 60.0, example1.mech, example1.proto)
    result = peak_bound(_query(example1, 0.0008))
    report = certify_trajectory(traj, result)
    assert report.observed_peak == traj.observed_peak
    assert report.certified_peak == result.certified_peak
    assert report.margin == pytest.approx(
        result.certified_peak - traj.observed_peak, rel=1e-12
    )
    assert report.passed
    assert "PASS" in report.summary()


def test_soundness_on_other_endemic_starts(example1):
    # endemic start at the riskiest strategy, with the level taken from the
    # initial Lyapunov value
    eq0 = endemic_state(0.19, example1.params, example1.strategies)
    init = EpgState(I=eq0.I_hat, R=eq0.R_hat, x=(0.0, 1.0), q=0.0)
    traj = simulate(init, 300.0, example1.mech, example1.proto)
    alpha = lyapunov_value(init, example1.mech, example1.proto)
    result = peak_bound(_query(example1, alpha))
    assert traj.observed_peak <= result.certified_peak + 1e-6


def test_ratio_is_an_upper_end_of_the_level_set(example1):
    """The returned ratio sits at or beyond the level-set boundary: the
    storage, minimized over R at that infection level, is at least alpha
    (up to the oracle's own rounding), unless the ratio is the cap 1/I*."""
    I_star = example1.alloc.endemic.I_hat
    for alpha in (0.0004, 0.0008, 0.0225034, 0.05):
        q = _query(example1, alpha)
        for B in default_grid(example1.strategies, 30):
            ratio = peak_ratio_at(q, float(B))
            if ratio is None or ratio == 1.0 / I_star:
                continue
            I = ratio * I_star
            R = min(endemic_state(float(B), example1.params).R_hat, 1.0 - I)
            stored = epidemic_storage(
                I, R, float(B), example1.alloc, example1.params, q.upsilon
            )
            assert stored >= alpha - 1e-15


def test_query_rejects_an_undefined_level(example1):
    with pytest.raises(ValueError, match="nonnegative"):
        _query(example1, float("nan"))


def test_grid_that_is_not_one_dimensional_is_rejected(example1):
    # a 2-D grid used to be zipped row by row against the flat ratios, so
    # the maximum missed half of the rates
    rates = [[0.15, 0.16], [0.1705, 0.19]]
    with pytest.raises(ValueError, match="one-dimensional"):
        _query(example1, 8e-4, grid=np.array(rates))
    flat = peak_bound(_query(example1, 8e-4, grid=np.ravel(rates)))
    assert [B for B, _ in flat.per_B] == [0.15, 0.16, 0.1705, 0.19]
    assert flat.peak_ratio == pytest.approx(1.22634, abs=1e-5)


# example1's state at t = 1030 d, taken as the start (ROADMAP item 1)
_RESTART = ["initial.I=0.03771212157199002", "initial.R=0.347402600465981",
            "initial.x=[0.48914177555305044,0.5108582244469496]",
            "initial.q=0.03478462779315343"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the grid bound is a lower estimate of "
                          "the supremum over B, not an upper bound")
def test_the_bound_covers_its_own_start_at_grid_30():
    run = resolve(apply_overrides(load_config(CONFIG), _RESTART))
    level = lyapunov_value(run.initial, run.mech, run.proto)
    if level != 7.030753273408278e-07:  # not an AssertionError: no xfail
        pytest.fail(f"the start's level moved to {level!r}")
    result = peak_bound(BoundQuery(
        alloc=run.alloc, params=run.bundle.params, upsilon=run.bundle.policy.upsilon,
        alpha=level, grid=default_grid(run.bundle.strategies, 30),
    ))
    # the start lies in its own level set, so the supremum is at least its I;
    # grid 30 certifies 0.03764651221384317 (grid 300 covers it by +1.12e-5)
    assert result.certified_peak >= run.initial.I
