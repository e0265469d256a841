from __future__ import annotations

import gc
import hashlib
import json
import math
import re
from decimal import Decimal, localcontext
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
    PolicyConfig,
    StrategySpec,
    certify_trajectory,
    default_grid,
    endemic_state,
    epidemic_storage,
    lyapunov_value,
    optimal_allocation,
    peak_bound,
    peak_ratio_at,
    simulate,
    validate,
)
from epgtool import bounds
from epgtool.config import apply_overrides, load_config, resolve
from epgtool.params import usable_gain
from helpers import (DECIMAL, decimal_level, decimal_sup_level, dense_grid_peak,
                     peak_ratio_per_rate, random_bundle, sup_level_per_term)

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "example1.json"
README = ROOT / "README.md"


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


def _assert_the_level_is_the_storage_at_its_minimizing_R(alloc, params, upsilon,
                                                         rates, rng):
    """``_level`` at ``I`` in ``[I_hat, 1]`` (both ends and 14 draws per
    rate) is ``epidemic_storage`` bit for bit at the R that minimizes it:
    ``1 - I`` where ``R_hat`` exceeds that room, ``R_hat`` elsewhere.
    Returns the share of points at ``R = 1 - I``."""
    query = BoundQuery(alloc=alloc, params=params, upsilon=upsilon, alpha=0.0,
                       grid=rates)
    terms = [t[:, None] for t in _rate_terms(query, rates)]
    I_hat, R_hat = terms[0], terms[1]
    u = np.column_stack([np.zeros(rates.size), rng.random((rates.size, 14)),
                         np.ones(rates.size)])
    I = np.minimum(I_hat + (1.0 - I_hat) * u, 1.0)
    at_the_room = R_hat - (1.0 - I) > 0.0
    R = np.where(at_the_room, 1.0 - I, R_hat)
    storage = epidemic_storage(I, R, rates[:, None], alloc, params, upsilon)
    level = bounds._level(I, *terms)
    assert np.array_equal(level.view(np.uint64), storage.view(np.uint64))
    return at_the_room.mean()


def test_the_level_is_the_storage_at_its_minimizing_R(example1):
    share = _assert_the_level_is_the_storage_at_its_minimizing_R(
        example1.alloc, example1.params, example1.policy.upsilon,
        default_grid(example1.strategies, 3000), np.random.default_rng(32))
    assert 0.0 < share < 1.0  # both minimizing Rs


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_the_level_is_the_storage_at_its_minimizing_R_on_random_bundles(seed):
    rng = np.random.default_rng(seed)
    params, strategies, policy = random_bundle(rng)
    alloc = optimal_allocation(strategies, policy, params)
    _assert_the_level_is_the_storage_at_its_minimizing_R(
        alloc, params, policy.upsilon, default_grid(strategies, 41), rng)


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
    feasible = [r for r in result.ratios.tolist() if not math.isnan(r)]
    assert result.peak_ratio == max(feasible)
    assert len(result.grid) == len(result.ratios) == 30


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
    assert np.isnan(res.ratios).tolist() == [True, True]
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
    grid_ratios = [r for r in res.ratios.tolist() if not math.isnan(r)]
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


def _term_outcome(I_hat, sup):
    """Which of the four outcomes of the per-rate bisection gave ``sup``."""
    if sup is None or math.isnan(sup):
        return "infeasible"
    return "minimum" if sup == I_hat else "cap" if sup == 1.0 else "bisected"


def _level_error(I_hat, R_hat, a, base):
    """``E`` of ``bounds._band``'s docstring: how far the float level may
    lie from the exact one on ``[I_hat, 1]``."""
    hl, A = I_hat * abs(math.log(I_hat)), a * (1.0 + abs(R_hat)) ** 2
    return 2.0 ** -42 * hl + 2.0 ** -50 * (1.0 + I_hat + hl + A + base)


def _in_the_decimal_bracket(sup, terms, alpha, by_band):
    """Whether ``root < sup <= root + BISECTION_TOL`` for the root of the
    decimal level where the band gave ``sup``, and where ``math.log``
    bisected, the same for the roots at ``alpha -/+ E``: the float level
    decides within ``E`` only.  The level strictly increases past
    ``I_hat``, so its values at ``sup`` and ``sup - BISECTION_TOL`` decide
    each side without the root."""
    with localcontext(DECIMAL):
        s, alpha = Decimal(sup), Decimal(alpha)
        E = Decimal(0) if by_band else Decimal(_level_error(*terms))
        low = s - Decimal(bounds.BISECTION_TOL)
        return decimal_level(s, *terms) > alpha - E and (
            low <= Decimal(terms[0]) or decimal_level(low, *terms) <= alpha + E)


def _assert_near_the_per_rate_bisection(query, rates):
    """``peak_ratio_at``'s ratios at ``rates``, checked rate by rate: the
    per-rate bisection's outcome, and for a bisected rate an ``I`` in the
    decimal bracket, at most ``BISECTION_TOL`` from the per-rate
    bisection's, and the band's upper end wherever that is the answer.
    Returns the ratios, and ``(terms, I, by_band)`` of each bisected rate."""
    rates = np.asarray(rates, dtype=float)
    terms = _rate_terms(query, rates)
    sup = bounds._sup_level(*terms, query.alpha)
    ratios = peak_ratio_at(query, rates)
    assert np.array_equal(ratios, sup / query.alloc.endemic.I_hat, equal_nan=True)
    lo, hi = bounds._band(*terms, query.alpha)
    by_band = (lo > -np.inf) & (hi - lo <= bounds.BISECTION_TOL)
    bisected = []
    for k, t in enumerate(zip(*(v.tolist() for v in terms))):
        oracle = sup_level_per_term(*t, query.alpha)
        outcome = _term_outcome(t[0], float(sup[k]))
        assert outcome == _term_outcome(t[0], oracle)
        if outcome == "bisected":
            assert sup[k] == hi[k] or not by_band[k]
            assert _in_the_decimal_bracket(float(sup[k]), t, query.alpha, by_band[k])
            # where rounding blurs the float level over more than the
            # tolerance, the per-rate answer lies in the bracket too
            assert abs(sup[k] - oracle) <= bounds.BISECTION_TOL or (
                _in_the_decimal_bracket(oracle, t, query.alpha, False))
            bisected.append((t, float(sup[k]), bool(by_band[k])))
    return ratios, bisected


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
def test_lockstep_ratios_are_within_the_tolerance_of_the_per_rate_bisection(
        example1, alpha, upsilon, rates):
    query = _lockstep_query(example1, alpha, upsilon, rates)
    betastar = example1.alloc.betastar
    rates = [*query.grid.tolist(), betastar]
    lockstep, _ = _assert_near_the_per_rate_bisection(query, rates)
    lockstep = [None if math.isnan(r) else r for r in lockstep.tolist()]
    # elementwise: a rate alone gets its ratio in the array
    assert [_hex(peak_ratio_at(query, B)) for B in rates] == [_hex(r) for r in lockstep]
    # the largest ratio, a grid rate winning a tie and betastar last
    feasible = [(B, r) for B, r in zip(rates, lockstep) if r is not None]
    argmax_B, ratio = max(feasible, key=lambda br: br[1])
    res = peak_bound(query)
    assert res.grid.tolist() == rates[:-1]
    assert [None if math.isnan(r) else r for r in res.ratios.tolist()] == lockstep[:-1]
    assert (res.argmax_B, res.peak_ratio.hex()) == (argmax_B, ratio.hex())
    assert res.certified_peak == ratio * example1.alloc.endemic.I_hat


def test_rates_that_take_different_numbers_of_halvings(example1):
    # fast waning spreads I_hat over (0.04, 0.87), so the brackets
    # [I_hat, 1] of a bisection need 31 to 34 halvings
    params = ModelParams(gamma=0.1, delta=0.005, psi=1.0)
    rates = np.linspace(0.11, 2.0, 40)
    cap = 1.0 / example1.alloc.endemic.I_hat
    for alpha in (0.01, 0.03):
        query = BoundQuery(alloc=example1.alloc, params=params, upsilon=0.1,
                           alpha=alpha, grid=rates)
        oracle = [peak_ratio_per_rate(query, B) for B in rates.tolist()]
        assert sum(r is not None and r != cap for r in oracle) >= 30  # bisected
        lockstep, _ = _assert_near_the_per_rate_bisection(query, rates)
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
    with pytest.raises(OutOfRange) as expected:
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


# the levels of the checks against the oracles: the workload's, the
# corners, and ROADMAP item 1's counterexample start
_LEVELS = (0.0008, 0.0, 1e-9, 3e-4, 7.03e-7)


@pytest.mark.parametrize("grid_size", [30, 3000])
def test_a_log_anywhere_inside_half_the_room_decides_as_math_log(
        example1, grid_size, monkeypatch):
    # numpy's log nudged by 2**-41 relative and 2**-1001 absolute, up or
    # down by two bits of the argument: twice the error that _band assumes
    # of numpy's log, and half the room 2**-40*|L| + 2**-1000 of this
    # test's name.  Every rate must still take math.log's outcome, and an
    # answer of the band must still lie above the exact root
    def nudged(x):
        x = np.asarray(x, dtype=float)
        bits = x.view(np.uint64)
        up = ((bits ^ (bits >> np.uint64(grid_size % 40 + 1))) & np.uint64(1)) == 1
        L = np.log(x)
        half_room = 2.0 ** -41 * np.abs(L) + 2.0 ** -1001
        return L + np.where(up, 1.0, -1.0) * half_room

    monkeypatch.setattr(bounds, "_fast_log", nudged)
    for alpha in _LEVELS:
        query = _query(example1, alpha, grid_size=grid_size)
        _assert_near_the_per_rate_bisection(
            query, [*query.grid.tolist(), example1.alloc.betastar])


def _math_log_calls(monkeypatch):
    """A list that collects the arguments of every later ``_level`` call
    on ``math.log``, one list per call."""
    seen = []
    level = bounds._level

    def counted(I, *rest, log=bounds._log):
        if log is bounds._log:
            seen.append(np.ravel(I).tolist())
        return level(I, *rest, log=log)

    monkeypatch.setattr(bounds, "_level", counted)
    return seen


def _unverified_band(I_hat, *rest):
    """A band that never verifies."""
    return np.full(I_hat.shape, -np.inf), np.full(I_hat.shape, np.inf)


def _rate_terms(query, rates):
    """``(I_hat, R_hat, a, base)`` of the rates, as ``peak_ratio_at``
    builds them."""
    eq = endemic_state(rates, query.params)
    ups, b_dev = query.upsilon, rates - query.alloc.betastar
    return eq.I_hat, eq.R_hat, eq.a, 0.5 * (ups * ups) * (b_dev * b_dev)


def _banded_terms(query, rates):
    """``(I_hat, R_hat, a, base)`` of the rates ``peak_ratio_at`` places a
    band for: neither infeasible nor at the minimum, capped or not."""
    terms = _rate_terms(query, rates)
    slack = query.alpha - bounds._level(terms[0], *terms)
    return [t[~(slack <= 0.0)] for t in terms]


def _assert_the_band_holds(query, rng):
    """Every float sampled in ``[I_hat, lo]`` has a level at most alpha by
    ``math.log``, and every one in ``[hi, 1]`` above it: each end itself,
    the 8 floats next to it inside its interval, the interval's far end
    and 16 uniform draws.  Returns the count of ends checked."""
    terms = _banded_terms(query, query.grid)
    I_hat = terms[0]
    lo, hi = bounds._band(*terms, query.alpha)
    # each end lies in the bracket [I_hat, 1], or is infinite
    assert np.all((lo == -np.inf) | ((I_hat <= lo) & (lo <= 1.0) & (lo < hi)))
    assert np.all((hi == np.inf) | (hi <= 1.0))
    checked = 0
    for end, far, side in ((lo, I_hat, -1.0), (hi, np.ones(I_hat.shape), 1.0)):
        ok = np.isfinite(end)
        t, f = end[ok], far[ok]
        steps = [t]
        for _ in range(8):
            steps.append(np.nextafter(steps[-1], side))
        draws = t[:, None] + (f - t)[:, None] * rng.random((t.size, 16))
        I = np.column_stack([*steps, f, draws])
        # keep rounding inside [t, f], and the steps inside [I_hat, 1]
        I = np.minimum(np.maximum(I, t[:, None]), 1.0) if side > 0 else (
            np.maximum(np.minimum(I, t[:, None]), I_hat[ok][:, None]))
        level = bounds._level(I, *(v[ok][:, None] for v in terms))
        assert np.all(level > query.alpha if side > 0 else level <= query.alpha)
        checked += t.size
    return checked


def test_the_band_holds_its_claim_on_example1(example1):
    rng = np.random.default_rng(24)
    for alpha in _LEVELS:
        query = _query(example1, alpha, grid_size=3000)
        terms = _banded_terms(query, query.grid)
        bisected = np.count_nonzero(
            bounds._level(np.ones(terms[0].shape), *terms) > alpha)
        # nearly every end verifies
        assert _assert_the_band_holds(query, rng) >= 1.99 * bisected


def test_the_band_holds_its_claim_on_random_bundles():
    # levels over 12 decades, 0, and levels so small that the root is
    # within rounding of I_hat, on draws of every model parameter
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        params, strategies, policy = random_bundle(rng)
        alloc = optimal_allocation(strategies, policy, params)
        alpha = rng.choice([0.0, 10.0 ** rng.uniform(-80.0, -12.0),
                            *10.0 ** rng.uniform(-12.0, 0.0, 8)])
        query = BoundQuery(alloc=alloc, params=params, upsilon=policy.upsilon,
                           alpha=alpha, grid=default_grid(strategies, 41))
        checked += _assert_the_band_holds(query, rng)
        _assert_near_the_per_rate_bisection(query, [*query.grid.tolist(), alloc.betastar])
    assert checked > 1000


def test_the_ratio_is_unimodal_in_the_rate_on_random_bundles():
    # a finding, not a claim of the paper at delta > 0: on 300 draws x 3
    # levels, log-uniform over seven decades, the feasible rates are one
    # run, and the ratio rises to its largest value and then falls, with no
    # dip of even one ulp
    rng = np.random.default_rng(18)
    for _ in range(300):
        params, strategies, policy = random_bundle(rng)
        alloc = optimal_allocation(strategies, policy, params)
        grid = default_grid(strategies, 2001)
        for alpha in 10.0 ** rng.uniform(-8.0, -1.0, 3):
            ratios = peak_bound(BoundQuery(alloc=alloc, params=params, upsilon=policy.upsilon,
                                           alpha=alpha, grid=grid)).ratios
            feasible = np.flatnonzero(~np.isnan(ratios))
            if not feasible.size:
                continue
            first, last = feasible[0], feasible[-1]
            assert last - first + 1 == feasible.size, (params, strategies, policy, alpha)
            k = int(np.nanargmax(ratios))
            assert np.all(np.diff(ratios[first:k + 1]) >= 0.0), (params, strategies, policy, alpha)
            assert np.all(np.diff(ratios[k:last + 1]) <= 0.0), (params, strategies, policy, alpha)


def test_a_level_that_caps_some_rates_gives_the_per_rate_ratios(
        example1, monkeypatch):
    # the median of the levels at 1 over the grid: about half of the rates
    # are capped and the others bisected.  The band decides each cap, at
    # a lower end of 1 or at a verified upper end; math.log decides them
    # where the band does not verify
    grid = default_grid(example1.strategies, 3000)
    terms = _banded_terms(_query(example1, 1.0, grid=grid), grid)
    alpha = float(np.median(bounds._level(np.ones(terms[0].shape), *terms)))
    query = _query(example1, alpha, grid=grid)
    terms = _banded_terms(query, grid)
    capped = np.count_nonzero(
        bounds._level(np.ones(terms[0].shape), *terms) <= alpha)
    # a capped rate's lower end verifies at 1, and nearly every other rate
    # verifies both ends
    checked = _assert_the_band_holds(query, np.random.default_rng(25))
    assert checked >= capped + 1.99 * (terms[0].size - capped)
    rates = [*grid.tolist(), example1.alloc.betastar]
    oracle = [peak_ratio_per_rate(query, B) for B in rates]
    assert {_outcome(query, B, r) for B, r in zip(rates, oracle)} >= {"cap", "bisected"}
    _assert_near_the_per_rate_bisection(query, rates)
    # with no band, the first math.log call takes the level at 1 of every
    # banded rate
    seen = _math_log_calls(monkeypatch)
    monkeypatch.setattr(bounds, "_band", _unverified_band)
    _assert_near_the_per_rate_bisection(query, rates)
    assert seen[0] == [1.0] * _banded_terms(query, np.array(rates))[0].size


def test_an_unverified_band_evaluates_every_halving(example1, monkeypatch):
    # a band that never verifies leaves every decision to math.log: the
    # path each rate takes where its band fails
    calls = _math_log_calls(monkeypatch)
    monkeypatch.setattr(bounds, "_band", _unverified_band)
    for alpha in _LEVELS:
        query = _query(example1, alpha)
        rates = [*query.grid.tolist(), example1.alloc.betastar]
        oracle = [peak_ratio_per_rate(query, B) for B in rates]
        calls.clear()
        lockstep = peak_ratio_at(query, np.array(rates))
        assert [_hex(r) for r in lockstep] == [_hex(r) for r in oracle]
        outcomes = {_outcome(query, B, r) for B, r in zip(rates, oracle)}
        # the call that decides the cap, then one per halving
        if "bisected" in outcomes:
            assert len(calls) > 30
        else:
            assert len(calls) == ("cap" in outcomes)


def test_sup_level_gives_each_outcome_of_the_per_rate_bisection(example1):
    # at a gain of 100 the level equals the rate term of 0.156 at its
    # minimum: 0.15 lies above it, 0.171 and betastar reach the cap at 1,
    # and 0.175 is bisected
    ups, betastar = 100.0, example1.alloc.betastar
    b_dev = 0.156 - betastar
    rates = np.array([0.15, 0.156, 0.171, 0.175, betastar])
    query = _query(example1, 0.5 * (ups * ups) * (b_dev * b_dev),
                   upsilon=ups, grid=rates[:-1])
    I_hat, *rest = _rate_terms(query, rates)
    sup = bounds._sup_level(I_hat, *rest, query.alpha)
    assert math.isnan(sup[0]) and sup[1] == I_hat[1]
    assert sup[2] == sup[4] == 1.0 and I_hat[3] < sup[3] < 1.0
    _assert_near_the_per_rate_bisection(query, rates)


def test_an_unverified_band_takes_the_cap_then_one_call_per_halving(
        example1, monkeypatch):
    # the median of the levels at 1 over the grid caps about half of the
    # rates.  With no band, math.log takes the level at 1 of every term
    # first, then in each call the midpoint of every term's bracket, [1, 1]
    # for a capped one; that bisection is the per-rate one, bit for bit
    grid = default_grid(example1.strategies, 30)
    terms = _rate_terms(_query(example1, 1.0, grid=grid), grid)
    alpha = float(np.median(bounds._level(np.ones(grid.size), *terms)))
    query = _query(example1, alpha, grid=grid)
    seen = _math_log_calls(monkeypatch)
    monkeypatch.setattr(bounds, "_band", _unverified_band)
    sup = bounds._sup_level(*terms, alpha)
    oracle = [peak_ratio_per_rate(query, B) for B in grid.tolist()]
    assert ([_hex(r) for r in sup / example1.alloc.endemic.I_hat]
            == [_hex(r) for r in oracle])
    assert seen[0] == [1.0] * grid.size
    bisected = sup < 1.0
    assert 0 < np.count_nonzero(bisected) < grid.size
    assert seen[1] == np.where(bisected, 0.5 * (terms[0] + 1.0), 1.0).tolist()
    assert len(seen) > 30 and all(len(I) == grid.size for I in seen)


def test_a_lower_end_newton_did_not_reach_is_rejected(example1, monkeypatch):
    # with no Newton step the band sits around the start, above the root,
    # so the level check must reject every lower end; math.log then
    # bisects from I_hat to the upper end
    monkeypatch.setattr(bounds, "_NEWTON_STEPS", 0)
    for alpha in (0.0008, 7.03e-7, 1e-2, 0.3):
        query = _query(example1, alpha)
        rates = np.append(query.grid, example1.alloc.betastar)
        terms = _banded_terms(query, rates)
        lo, _ = bounds._band(*terms, alpha)
        assert terms[0].size > 0 and np.all(lo == -np.inf)
        _assert_near_the_per_rate_bisection(query, rates)


def test_a_level_that_caps_every_rate_takes_no_newton_step(example1, monkeypatch):
    # at level 60 every rate's start is capped at 1 and its level at 1
    # verifies: the band takes numpy's log twice, for eps and for the level
    # at 1, and no Newton step
    calls = []
    fast_log = bounds._fast_log

    def counted(x):
        calls.append(np.size(x))
        return fast_log(x)

    monkeypatch.setattr(bounds, "_fast_log", counted)
    query = _query(example1, 60.0, grid_size=3000)
    rates = np.append(query.grid, example1.alloc.betastar)
    lockstep = peak_ratio_at(query, rates)
    assert calls == [rates.size, rates.size]
    oracle = [peak_ratio_per_rate(query, B) for B in rates.tolist()]
    assert {_outcome(query, B, r) for B, r in zip(rates.tolist(), oracle)} == {"cap"}
    assert [_hex(r) for r in lockstep] == [_hex(r) for r in oracle]


@pytest.mark.parametrize("newton_steps", [7, 0])
def test_terms_end_their_bisection_where_the_per_term_bisection_does(
        monkeypatch, newton_steps):
    # brackets [I_hat, 1] from 0.5 to 40 BISECTION_TOL wide next to terms
    # that take 34 halvings: each term the band leaves open must end where
    # a scalar bisection from its own bracket ends, however many halvings
    # the others still take.  With no Newton step no lower end verifies,
    # so every term is bisected from I_hat to its band's upper end
    monkeypatch.setattr(bounds, "_NEWTON_STEPS", newton_steps)
    rng = np.random.default_rng(29)
    alpha = 1e-6
    narrow = 1.0 - np.arange(1, 81) / 2.0 * bounds.BISECTION_TOL
    I_hat = np.concatenate([narrow, np.linspace(0.02, 0.3, 40)])
    # a steep R-penalty from I_hat on lifts a narrow term's level across
    # its bracket far above rounding; its root lies at a random share of it
    R_hat = np.concatenate([1.0 - narrow, np.full(40, 0.5)])
    a = np.concatenate([np.full(80, 1e10), np.ones(40)])
    rise = bounds._level(np.ones(80), narrow, R_hat[:80], a[:80], 0.0)
    base = np.concatenate([alpha - rng.uniform(0.1, 0.9, 80) * rise,
                           alpha * rng.uniform(0.0, 0.5, 40)])
    # no term is infeasible or capped
    assert np.all(bounds._level(I_hat, I_hat, R_hat, a, base) < alpha)
    assert np.all(bounds._level(np.ones(120), I_hat, R_hat, a, base) > alpha)
    lo, hi = bounds._band(I_hat, R_hat, a, base, alpha)
    by_band = (lo > -np.inf) & (hi - lo <= bounds.BISECTION_TOL)
    assert newton_steps > 0 or not by_band.any()
    terms = list(zip(I_hat.tolist(), R_hat.tolist(), a.tolist(), base.tolist()))
    expected = [h if band else sup_level_per_term(*t, alpha, hi=min(h, 1.0))
                for t, band, h in zip(terms, by_band.tolist(), hi.tolist())]
    sup = bounds._sup_level(I_hat, R_hat, a, base, alpha)
    assert [s.hex() for s in sup.tolist()] == [s.hex() for s in expected]
    # and within the tolerance of the bisection from [I_hat, 1]
    oracle = np.array([sup_level_per_term(*t, alpha) for t in terms])
    assert np.all(np.abs(sup - oracle) <= bounds.BISECTION_TOL)


def _random_query(rng, size):
    """A random bundle at a level log-uniform in ``[1e-8, 1e-1]``, and
    ``size`` rates within the level's reach of ``betastar``, where the
    rate term alone stays below the level."""
    params, strategies, policy = random_bundle(rng)
    alloc = optimal_allocation(strategies, policy, params)
    alpha = 10.0 ** rng.uniform(-8.0, -1.0)
    reach = math.sqrt(2.0 * alpha) / policy.upsilon
    rates = np.clip(alloc.betastar + reach * rng.uniform(-1.0, 1.0, size),
                    strategies.betas[0], strategies.betas[-1])
    return BoundQuery(alloc=alloc, params=params, upsilon=policy.upsilon,
                      alpha=alpha, grid=rates)


@settings(max_examples=300, deadline=None)
@given(I_hat=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       u=st.floats(0.0, 1.0), R_hat=st.floats(0.0, 1.0),
       a=st.floats(0.0, 1e3), base=st.floats(0.0, 1e3))
@example(I_hat=0.03, u=0.9, R_hat=0.6, a=1.5, base=1e-4)  # R at the room 1 - I
@example(I_hat=5e-324, u=0.5, R_hat=0.0, a=0.0, base=0.0)  # a subnormal I_hat/I
def test_the_float_level_lies_within_E_of_the_decimal_level(I_hat, u, R_hat, a, base):
    # the premise of _band's proof: with math.log and with numpy's log, the
    # float level is within E of the exact one at every I in [I_hat, 1]
    I = min(I_hat + (1.0 - I_hat) * u, 1.0)
    terms = I_hat, R_hat, a, base
    exact = decimal_level(I, *terms)
    for log in (bounds._log, bounds._fast_log):
        level = bounds._level(np.array([I]), *(np.array([t]) for t in terms), log=log)
        with localcontext(DECIMAL):
            assert abs(Decimal(float(level[0])) - exact) <= Decimal(_level_error(*terms))


def test_the_decimal_root_is_the_per_term_bisections_within_the_tolerance():
    # the oracle against the scalar bisection it replaces as the reference,
    # on the terms of random rates of random bundles; a few start from
    # [I_hat, 1] and must find the root that the narrowed start finds
    rng = np.random.default_rng(31)
    compared = 0
    for draw in range(10):
        query = _random_query(rng, 6)
        for t in zip(*(v.tolist() for v in _rate_terms(query, query.grid))):
            sup = sup_level_per_term(*t, query.alpha)
            if _term_outcome(t[0], sup) != "bisected":
                continue
            root = decimal_sup_level(*t, query.alpha, near=sup)
            assert abs(float(root) - sup) <= bounds.BISECTION_TOL
            if draw < 2:
                assert abs(decimal_sup_level(*t, query.alpha) - root) <= Decimal("2e-20")
            compared += 1
    assert compared >= 30


def test_answers_lie_within_the_tolerance_above_the_decimal_root(example1):
    # every bisected rate of example1 at the levels of _LEVELS, on grid 30
    # and on 60 rates drawn from grid 3000, and of 100 random bundles at a
    # level each, 5 rates a bundle: root*(1 - 1e-14) <= I <= root +
    # BISECTION_TOL, and root < I exactly where the band's end is the
    # answer.  One rate breaks the upper side: example1's at betas[0] and
    # level 8e-4, whose level at I_hat is within 1e-18 of alpha.  Its
    # slope at the root is 8e-9, so the level's rounding, some 3e-18,
    # blurs the root over 4e-10; the per-rate bisection ends 1.1e-10
    # above it, and math.log's bisection here 1.6e-10
    rng = np.random.default_rng(32)
    queries = []
    for alpha in _LEVELS:
        query = _query(example1, alpha)
        queries.append((query, np.append(query.grid, example1.alloc.betastar)))
        query = _query(example1, alpha, grid_size=3000)
        queries.append((query, rng.choice(query.grid, 60, replace=False)))
    for _ in range(100):
        query = _random_query(rng, 5)
        queries.append((query, query.grid))
    by_band = bisected = flat = 0
    for query, rates in queries:
        for t, sup, band in _assert_near_the_per_rate_bisection(query, rates)[1]:
            root = decimal_sup_level(*t, query.alpha, near=sup)
            with localcontext(DECIMAL):
                assert root * (1 - Decimal("1e-14")) <= Decimal(sup)
                above = Decimal(sup) - root > Decimal(bounds.BISECTION_TOL)
            # the band's end lies above the root (checked in the helper),
            # within the tolerance; a bisection's end may lie further only
            # where the level is too flat at the root for math.log's
            # rounding, and then within the tolerance of the root at alpha + E
            assert not (band and above)
            by_band += band
            flat += above
            bisected += 1
    assert by_band >= bisected / 2 and bisected >= 300 and flat <= 1


def test_numpy_log_stays_far_inside_the_room():
    # the band's assumption, checked where the suite runs: numpy's log is
    # within 2**-42*|L| + 2**-1002 of math.log (a quarter of the room
    # 2**-40*|L| + 2**-1000 of this test's name) on the arguments a
    # bisection takes, and on those the band takes: I_hat alone and I_hat/I
    # near the root
    rng = np.random.default_rng(18)
    scenario = resolve(load_config(CONFIG))
    query = BoundQuery(alloc=scenario.alloc, params=scenario.bundle.params,
                       upsilon=scenario.bundle.policy.upsilon, alpha=0.0008,
                       grid=default_grid(scenario.bundle.strategies, 3000))
    I_hat, *terms = _banded_terms(query, query.grid)
    lo, hi = bounds._band(I_hat, *terms, query.alpha)
    ok = np.isfinite(lo) & np.isfinite(hi)
    lo, hi = lo[ok], hi[ok]
    x = np.concatenate([
        np.exp(rng.uniform(math.log(1e-6), 0.0, 90_000)),
        rng.uniform(0.99, 1.0, 9_000),
        1.0 - np.arange(1_000) * 2.0 ** -53,  # 1 and the floats just below
        I_hat,
        I_hat[ok] / lo, I_hat[ok] / hi, I_hat[ok] / (0.5 * (lo + hi)),
    ])
    fast = bounds._fast_log(x)
    exact = np.array([math.log(v) for v in x.tolist()])
    assert np.all(np.abs(fast - exact) <= 2.0 ** -42 * np.abs(fast) + 2.0 ** -1002)


def test_the_certification_sweep_keeps_every_ratio_bit_for_bit():
    # float.hex of every grid ratio, peak_ratio and argmax_B over the 5 x 24
    # points of the certification sweep (the ratio-vs-gain figure's
    # scenario) at grid size 3000, pinned from the solver that returns the
    # band's upper end where it is no wider than BISECTION_TOL, with the
    # level in the epidemic storage's operation order (before that order,
    # 33d1881f...; before the band, db40bdc0... from the per-rate
    # bisection's bits)
    strategies = StrategySpec(betas=(0.15, 0.19), costs=(0.2, 0.0))
    grid = default_grid(strategies, 3000)
    digest = hashlib.sha256()
    for cstar, delta in [(0.10, 0.005), (0.10, 0.002), (0.10, 0.008),
                         (0.05, 0.005), (0.15, 0.005)]:
        params = ModelParams(gamma=0.1, delta=delta, zeta=0.0, theta=0.0, psi=0.011)
        for ups in np.linspace(0.25, 6.0, 24).tolist():
            policy = PolicyConfig(cstar=cstar, upsilon=ups)
            validate(params, strategies, policy)
            alloc = optimal_allocation(strategies, policy, params)
            res = peak_bound(BoundQuery(
                alloc=alloc, params=params, upsilon=ups,
                alpha=0.5 * ups ** 2 * (0.15 - alloc.betastar) ** 2, grid=grid))
            for r in res.ratios.tolist():
                digest.update(b"None" if math.isnan(r) else r.hex().encode())
            digest.update(f"{res.peak_ratio.hex()} {res.argmax_B.hex()};".encode())
    assert digest.hexdigest() == (
        "9b1f371e906d619d39f6303b58b65db308de24e22139bd2574793881b0628e70")


def test_peak_bound_calls_each_traced_layer_once(example1, monkeypatch):
    # the benchmark's traced run wraps bounds.peak_ratio_at and
    # bounds.endemic_state: peak_bound must reach both through these names
    calls = []
    for name in ("peak_ratio_at", "endemic_state"):
        def counted(*args, _f=getattr(bounds, name), _name=name, **kwargs):
            calls.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(bounds, name, counted)
    peak_bound(_query(example1, 0.0008, grid_size=3000))
    assert sorted(calls) == ["endemic_state", "peak_ratio_at"]


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
    assert flat.grid.tolist() == [0.15, 0.16, 0.1705, 0.19]
    assert flat.ratios.shape == (4,)
    assert flat.peak_ratio == pytest.approx(1.22634, abs=1e-5)


def test_a_write_to_the_callers_grid_changes_neither_the_query_nor_its_bound(example1):
    grid = default_grid(example1.strategies, 30)
    query = _query(example1, 8e-4, grid=grid)
    before = peak_bound(query)
    grid[:] = grid[0]  # through an alias, the ratio would read 1.2212818502104374
    assert np.array_equal(query.grid, default_grid(example1.strategies, 30))
    assert not np.shares_memory(query.grid, grid)
    after = peak_bound(query)
    assert after.peak_ratio == before.peak_ratio == 1.2876121573981711
    assert np.array_equal(after.grid, before.grid)
    assert np.array_equal(after.ratios, before.ratios, equal_nan=True)
    with pytest.raises(ValueError, match="read-only"):
        query.grid[0] = 0.17


def test_one_bound_makes_no_object_per_rate(example1):
    # a (B, ratio) pair per rate would add 3,000 tuples here
    query = _query(example1, 8e-4, grid_size=3000)
    peak_bound(query)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = peak_bound(query)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert result.ratios.size == 3000
    assert added < 10


def test_as_dict_writes_each_rate_once_with_null_where_infeasible(example1):
    res = peak_bound(_query(example1, 1e-4))
    infeasible = np.isnan(res.ratios)
    assert infeasible.any() and not infeasible.all()
    record = res.as_dict()
    assert not hasattr(res, "per_B") and "per_B" not in record
    assert len(record["grid"]) == len(record["ratios"]) == res.grid.size
    assert [r is None for r in record["ratios"]] == infeasible.tolist()
    back = json.loads(json.dumps(record))
    assert back["grid"] == res.grid.tolist()
    ratios = np.array([math.nan if r is None else r for r in back["ratios"]])
    assert np.array_equal(ratios, res.ratios, equal_nan=True)


@pytest.mark.parametrize("alpha, grid", [(8e-4, None), (1e-7, np.array([0.15, 0.1505]))],
                         ids=["example1", "infeasible"])
def test_as_dict_is_the_dict_built_from_the_per_rate_pairs(example1, alpha, grid):
    query = _query(example1, alpha, grid=grid)
    res = peak_bound(query)
    # the reference: the dict from the solver's own array, null at NaN
    ratios = peak_ratio_at(query, np.append(query.grid, example1.alloc.betastar))
    expected = {
        "upsilon": query.upsilon, "alpha": query.alpha,
        "grid": query.grid.tolist(),
        "ratios": [None if math.isnan(r) else r for r in ratios[:-1].tolist()],
        "peak_ratio": res.peak_ratio, "argmax_B": res.argmax_B,
        "certified_peak": res.certified_peak,
    }
    assert res.as_dict() == expected
    assert json.dumps(res.as_dict()) == json.dumps(expected)


def test_the_readme_library_sketch_runs(capsys):
    (sketch,) = re.findall(r"## Library sketch\n\n```python\n(.*?)```",
                           README.read_text(), flags=re.S)
    names = {}
    exec(compile(sketch, "README.md", "exec"), names)
    assert "PASS" in capsys.readouterr().out
    assert names["ratios"].shape == (3000,)


def test_the_bound_arrays_refuse_writes(example1):
    res = peak_bound(_query(example1, 8e-4))
    for values in (res.grid, res.ratios):
        assert values.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


def test_bound_results_compare_and_hash_by_their_scalar_fields(example1):
    a, b = (peak_bound(_query(example1, 8e-4, grid_size=3000)) for _ in range(2))
    assert a == b and hash(a) == hash(b)
    assert a != peak_bound(_query(example1, 9e-4, grid_size=3000))
    assert len(repr(a)) < 1000  # numpy summarizes the 3,000 rates


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
