from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epgtool import (
    BoundQuery,
    EpgState,
    certify_trajectory,
    default_grid,
    endemic_state,
    epidemic_storage,
    lyapunov_value,
    peak_bound,
    peak_ratio_at,
    simulate,
)
from helpers import dense_grid_peak


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
