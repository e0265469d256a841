from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epgtool import (
    BudgetAtBreakpoint,
    DegenerateDiscriminant,
    ModelParams,
    OutOfRange,
    PolicyConfig,
    StrategySpec,
    check_assumptions,
    endemic_state,
    optimal_allocation,
)
from epgtool import equilibrium
from helpers import (
    DECIMAL,
    brute_force_allocation,
    decimal_endemic,
    endemic_by_root_finder,
    endemic_infection_floor,
    equilibrium_residuals,
    random_bundle,
)


def test_endemic_pair_at_safest_strategy_matches_published_percentages(example1):
    eq = endemic_state(0.15, example1.params, example1.strategies)
    # published to two decimals in percent: (2.94%, 27.15%)
    assert abs(eq.I_hat - 0.0294) <= 1e-4
    assert abs(eq.R_hat - 0.2715) <= 1e-4


@pytest.mark.parametrize("B", [0.15, 0.17, 0.19])
def test_endemic_pair_matches_independent_root_finder(example1, B):
    eq = endemic_state(B, example1.params, example1.strategies)
    I_ref, R_ref = endemic_by_root_finder(B, example1.params)
    assert abs(eq.I_hat - I_ref) < 1e-12
    assert abs(eq.R_hat - R_ref) < 1e-12


@pytest.mark.parametrize("B", [0.15, 0.163, 0.17, 0.185, 0.19])
def test_balance_residuals_below_tolerance(example1, B):
    eq = endemic_state(B, example1.params, example1.strategies)
    r1, r2 = equilibrium_residuals(eq.I_hat, eq.R_hat, B, example1.params)
    assert abs(r1) < 1e-10
    assert abs(r2) < 1e-10


def test_endemic_pair_stays_in_admissible_region(example1):
    for B in np.linspace(0.15, 0.19, 100):
        eq = endemic_state(float(B), example1.params, example1.strategies)
        assert 0.0 < eq.I_hat <= 1.0
        assert 0.0 <= eq.R_hat <= 1.0 - eq.I_hat
        assert eq.disc > 0.0
        assert eq.b > math.sqrt(eq.disc)


def test_infectious_share_increases_with_transmission_rate(example1):
    grid = np.linspace(0.15, 0.19, 100)
    I_hats = endemic_state(grid, example1.params).I_hat
    assert np.all(np.diff(I_hats) > 0)


def test_rate_out_of_strategy_range_is_rejected(example1):
    with pytest.raises(OutOfRange):
        endemic_state(0.14, example1.params, example1.strategies)
    with pytest.raises(OutOfRange):
        endemic_state(0.20, example1.params, example1.strategies)
    with pytest.raises(OutOfRange):
        endemic_state(0.05, example1.params)  # below sigma even without a menu
    with pytest.raises(OutOfRange):
        endemic_state(np.array([0.15, 0.05]), example1.params)


def test_degenerate_discriminant_is_detected():
    # powers of two make the discriminant exactly zero in floating point
    params = ModelParams(gamma=0.0, delta=0.125, zeta=0.0, theta=0.0, psi=0.125)
    with pytest.raises(DegenerateDiscriminant):
        endemic_state(0.25, params)


@pytest.mark.parametrize("B", [0.152, 0.17, 0.188])
def test_sensitivities_match_central_differences(example1, B):
    params = example1.params
    eq = endemic_state(B, params)
    h = 1e-6
    hi = endemic_state(B + h, params)
    lo = endemic_state(B - h, params)
    fd_I = (hi.I_hat - lo.I_hat) / (2 * h)
    fd_R = (hi.R_hat - lo.R_hat) / (2 * h)
    fd_a = (hi.a - lo.a) / (2 * h)
    assert abs(eq.dI_dB - fd_I) <= 1e-5 * abs(fd_I)
    assert abs(eq.dR_dB - fd_R) <= 1e-5 * abs(fd_R)
    assert abs(eq.da_dB - fd_a) <= 1e-5 * max(abs(fd_a), 1e-6)


def test_sensitivity_determinant_is_negative_across_grid(example1):
    d, w, gam = (
        example1.params.delta, example1.params.omega, example1.params.gamma,
    )
    for B in np.linspace(0.15, 0.19, 50):
        eq = endemic_state(float(B), example1.params)
        det = -(B - d) * (w - d * eq.I_hat) - B * (gam + d * eq.R_hat)
        assert det < 0.0


def test_weight_sensitivity_collapses_without_disease_deaths():
    # with delta = 0 the weight is B/gamma and its slope exactly 1/gamma
    params = ModelParams(gamma=0.1, delta=0.0, zeta=0.0, theta=0.0, psi=0.011)
    eq = endemic_state(0.17, params)
    assert eq.a == pytest.approx(0.17 / 0.1, rel=1e-14)
    assert eq.da_dB == pytest.approx(1.0 / 0.1, rel=1e-14)


def test_two_strategy_allocation_is_exact(example1):
    alloc = optimal_allocation(
        example1.strategies, example1.policy, example1.params
    )
    assert alloc.xstar == (0.5, 0.5)
    assert alloc.istar == 0
    assert abs(alloc.betastar - 0.17) <= math.ulp(0.17)
    assert alloc.endemic.dI_dB is not None


def test_three_strategy_allocation_matches_brute_force(example1):
    strategies = StrategySpec(betas=(0.12, 0.15, 0.19), costs=(0.4, 0.2, 0.0))
    policy = PolicyConfig(cstar=0.3, upsilon=2.0)
    alloc = optimal_allocation(strategies, policy, example1.params)
    assert alloc.istar == 0
    assert alloc.xstar == pytest.approx((0.5, 0.5, 0.0), abs=1e-15)
    assert alloc.betastar == pytest.approx(0.135, abs=1e-15)
    x_ref, B_ref = brute_force_allocation(strategies, policy.cstar, steps=400)
    assert np.allclose(alloc.xstar, x_ref, atol=1.5 / 400)
    assert alloc.betastar <= B_ref + 1e-12


def test_allocation_budget_and_simplex_invariants(three_strategy):
    alloc = three_strategy.alloc
    ctilde = np.asarray(three_strategy.strategies.ctilde)
    assert abs(float(ctilde @ alloc.xstar) - three_strategy.policy.cstar) <= 1e-12
    assert abs(sum(alloc.xstar) - 1.0) <= 1e-12
    assert all(0.0 <= v <= 1.0 for v in alloc.xstar)
    nonzero = [k for k, v in enumerate(alloc.xstar) if v > 0.0]
    assert nonzero in ([alloc.istar], [alloc.istar, alloc.istar + 1])


def test_allocation_limit_toward_lower_breakpoint(example1):
    strategies = StrategySpec(betas=(0.12, 0.15, 0.19), costs=(0.4, 0.2, 0.0))
    eps = 1e-9
    alloc = optimal_allocation(
        strategies, PolicyConfig(cstar=0.2 + eps, upsilon=2.0), example1.params
    )
    assert alloc.istar == 0
    assert alloc.xstar[0] == pytest.approx(eps / 0.2, rel=1e-6)
    assert alloc.betastar == pytest.approx(0.15, abs=1e-9)


def test_allocation_rejects_breakpoint_budget(example1):
    with pytest.raises(BudgetAtBreakpoint):
        optimal_allocation(
            example1.strategies,
            PolicyConfig(cstar=0.2, upsilon=2.0),
            example1.params,
        )
    with pytest.raises(BudgetAtBreakpoint):  # the last offset, ctilde[-1] = 0
        optimal_allocation(
            example1.strategies,
            PolicyConfig(cstar=0.0, upsilon=2.0),
            example1.params,
        )
    # just inside the first pair's bracket, but within the tolerance of the
    # middle offset: used to return the degenerate mix (5e-13, 1 - 5e-13, 0)
    three = StrategySpec(betas=(0.12, 0.15, 0.19), costs=(0.45, 0.25, 0.05))
    with pytest.raises(BudgetAtBreakpoint) as err:
        optimal_allocation(
            three,
            PolicyConfig(cstar=three.ctilde[1] + 1e-13, upsilon=2.0),
            example1.params,
        )
    assert err.value.index == 1


@pytest.mark.parametrize("cstar", [-0.1, 0.3])
def test_allocation_rejects_budget_outside_the_offsets(example1, cstar):
    with pytest.raises(OutOfRange, match="no interior mix"):
        optimal_allocation(
            example1.strategies,
            PolicyConfig(cstar=cstar, upsilon=2.0),
            example1.params,
        )


def test_infection_floor_bounds_grid_minimum(example1):
    floor = endemic_infection_floor(example1.strategies, example1.params)
    assert floor > 0.0
    grid_min = min(
        endemic_state(float(B), example1.params).I_hat
        for B in np.linspace(0.15, 0.19, 100)
    )
    assert floor <= grid_min
    assert floor <= endemic_state(0.15, example1.params).I_hat


def test_random_bundles_keep_equilibrium_well_posed():
    rng = np.random.default_rng(8271)
    for _ in range(200):
        params, strategies, _ = random_bundle(rng)
        for B in rng.uniform(strategies.betas[0], strategies.betas[-1], size=3):
            eq = endemic_state(float(B), params, strategies)
            r1, r2 = equilibrium_residuals(eq.I_hat, eq.R_hat, B, params)
            assert abs(r1) < 1e-10 and abs(r2) < 1e-10
            assert 0.0 < eq.I_hat < 1.0
            assert 0.0 <= eq.R_hat <= 1.0 - eq.I_hat
            assert eq.disc > 0.0


def test_second_quadratic_root_is_outside_unit_interval():
    rng = np.random.default_rng(515)
    for _ in range(200):
        params, strategies, _ = random_bundle(rng)
        B = float(rng.uniform(strategies.betas[0], strategies.betas[-1]))
        eq = endemic_state(B, params, strategies)
        # gamma*B > (delta-omega)*(sigma-delta) holds for validated bundles,
        # so the larger root cannot correspond to an admissible state
        assert params.gamma * B > (params.delta - params.omega) * (
            params.sigma - params.delta
        )
        second = (eq.b + math.sqrt(eq.disc)) / (
            2.0 * params.delta * (B - params.delta)
        )
        assert second >= 1.0


CURVE_FIELDS = ("I_hat", "R_hat", "a", "dI_dB", "dR_dB", "da_dB")


@pytest.mark.parametrize("B", [0.15, 0.163, 0.17, 0.185, 0.19])
def test_scalar_entry_points_return_floats_equal_to_the_curve(example1, B):
    # a float rate runs the array form on a float64: its fields are Python
    # floats with the bits of the same rate in an array
    params = example1.params
    eq = endemic_state(B, params)
    curve = endemic_state(np.array([B]), params)
    for name in CURVE_FIELDS:
        values = getattr(curve, name)
        value = getattr(eq, name)
        assert type(value) is float, name
        assert value == float(values[0]), name
    for name in ("B", "b", "disc"):
        assert type(getattr(eq, name)) is float, name


def test_degenerate_discriminant_keeps_its_message():
    # an array raises what a float raises for its first bad rate
    params = ModelParams(gamma=0.0, delta=0.125, zeta=0.0, theta=0.0, psi=0.125)
    with pytest.raises(DegenerateDiscriminant, match=r"^disc=0\.0, B=0\.25$"):
        endemic_state(0.25, params)
    with pytest.raises(DegenerateDiscriminant, match=r"^disc=0\.0, B=0\.25$"):
        endemic_state(np.array([0.25]), params)
    # B = 0.05 is below sigma: the first bad rate decides the error
    with pytest.raises(OutOfRange, match=r"^B=0\.05 must exceed sigma"):
        endemic_state(np.array([[0.05], [0.25]]), params)
    with pytest.raises(DegenerateDiscriminant):
        endemic_state(np.array([[0.25], [0.05]]), params)


def test_a_rate_or_point_that_is_not_finite_raises(example1):
    # an infinite rate used to raise DegenerateDiscriminant (disc=nan)
    for B in (math.inf, np.array([0.17, math.inf])):
        with pytest.raises(OutOfRange, match=r"^B=inf is not finite$"):
            endemic_state(B, example1.params)
    # disc=inf used to pass its check and give I_hat = NaN
    params = ModelParams(gamma=0.1, delta=0.005, psi=1e308)
    for B in (0.17, np.array([0.17])):
        with pytest.raises(DegenerateDiscriminant, match=r"^disc=inf, B=0\.17$"):
            endemic_state(B, params)


# zero, or a magnitude from 1e-320 (subnormal) to 1.78e308
_ANY_RATE = st.one_of(st.just(0.0), st.floats(-320.0, 308.25).map(lambda e: 10.0 ** e))


@settings(max_examples=300, deadline=None)
@given(gamma=_ANY_RATE, delta=_ANY_RATE, zeta=_ANY_RATE, theta=_ANY_RATE,
       psi=_ANY_RATE, excess=_ANY_RATE)
# a = B/denom is infinite at a huge rate while da_dB is finite: a is checked itself
@example(gamma=5.468496791969872e-158, delta=1.79441065209692e-238,
         zeta=1.0843499469549842e+275, theta=0.0, psi=0.0, excess=2.4954986659159183e+200)
def test_a_point_is_degenerate_exactly_where_a_field_is_not_finite(
        gamma, delta, zeta, theta, psi, excess):
    # endemic_state checks disc, a, dI_dB and da_dB; b, I_hat, R_hat and
    # dR_dB follow
    params = ModelParams(gamma=gamma, delta=delta, zeta=zeta, theta=theta, psi=psi)
    B = params.sigma + excess
    assume(params.sigma < B < math.inf)
    with np.errstate(all="ignore"):
        fields = equilibrium._endemic_array(
            np.float64(B), **equilibrium._endemic_constants(params))
    if fields[5] > 0.0 and all(math.isfinite(v) for v in fields):
        endemic_state(B, params)
    else:
        with pytest.raises(DegenerateDiscriminant):
            endemic_state(B, params)


def test_an_array_with_strategies_names_its_first_rate_out_of_range(example1):
    rates = np.array([0.15, 0.17, 0.205, 0.14, 0.05])
    with pytest.raises(OutOfRange, match=r"^B=0\.205 outside strategy range \[0\.15, 0\.19\]$"):
        endemic_state(rates, example1.params, example1.strategies)
    # the range is checked before sigma, as for a float
    with pytest.raises(OutOfRange, match=r"^B=0\.05 outside strategy range"):
        endemic_state(rates[::-1], example1.params, example1.strategies)
    with pytest.raises(OutOfRange, match=r"^B=nan outside strategy range"):
        endemic_state(np.array([0.16, np.nan]), example1.params, example1.strategies)


def test_an_array_of_rates_gives_arrays_of_its_shape(example1):
    grid = np.linspace(0.15, 0.19, 6).reshape(2, 3)
    eq = endemic_state(grid, example1.params, example1.strategies)
    for name in ("B", "b", "disc", *CURVE_FIELDS):
        value = getattr(eq, name)
        assert isinstance(value, np.ndarray) and value.shape == (2, 3), name


def test_sensitivity_determinant_is_minus_the_root_of_the_discriminant():
    # so the discriminant check is the determinant check: disc > 0 makes
    # the linearized system regular, at any scale of the rates
    rng = np.random.default_rng(4242)
    for _ in range(300):
        params, strategies, _ = random_bundle(rng)
        d, w, gam = params.delta, params.omega, params.gamma
        for B in rng.uniform(strategies.betas[0], strategies.betas[-1], size=10):
            eq = endemic_state(float(B), params, strategies)
            det = -(B - d) * (w - d * eq.I_hat) - B * (gam + d * eq.R_hat)
            root = math.sqrt(eq.disc)
            assert abs(det + root) <= 1e-15 * root


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), share=st.floats(0.0, 1.0))
def test_the_susceptible_share_and_the_slopes_of_the_endemic_pair(seed, share):
    # the infection balance, solved for the susceptibles: 1 - I_hat - R_hat
    # = (sigma - delta*I_hat)/B; and I_hat and R_hat increase in B, over the
    # strategy range and at a drawn rate in it
    params, strategies, _ = random_bundle(np.random.default_rng(seed))
    lo, hi = strategies.betas[0], strategies.betas[-1]
    rates = np.append(np.linspace(lo, hi, 41), min(hi, lo + share * (hi - lo)))
    eq = endemic_state(rates, params, strategies)
    susceptible = (params.sigma - params.delta * eq.I_hat) / rates
    assert np.all(np.abs(1.0 - eq.I_hat - eq.R_hat - susceptible) <= 1e-13 * susceptible)
    assert np.all(eq.dI_dB > 0.0) and np.all(eq.dR_dB > 0.0)


# a magnitude from 1e-300 to 1e200, and a ratio's excess over 1 from
# 1e-15 to 1e100
_MAGNITUDE = st.floats(-300.0, 200.0).map(lambda e: 10.0 ** e)
_EXCESS = st.floats(-15.0, 100.0).map(lambda e: 10.0 ** e)


# about a fifth of the draws have finite ends, up to rates near 1e170
@settings(max_examples=1000, deadline=None)
@given(delta=_MAGNITUDE, vital=st.one_of(st.just(0.0), _MAGNITUDE),
       gamma_over=_EXCESS, psi_over=_EXCESS, lo_over=_EXCESS, hi_over=_EXCESS)
def test_an_algebra_finite_at_both_ends_of_a_range_is_finite_inside_it(
        delta, vital, gamma_over, psi_over, lo_over, hi_over):
    # config.resolve checks the endemic algebra at the strategy range's two
    # ends only: every rate a run evaluates lies in that range.  A valid
    # model by construction: gamma and psi above delta, equal birth and
    # death rates, and sigma < lo < hi
    params = ModelParams(gamma=delta * (1.0 + gamma_over), delta=delta, zeta=vital,
                         theta=vital, psi=delta * (1.0 + psi_over))
    lo = params.sigma * (1.0 + lo_over)
    hi = lo * (1.0 + hi_over)
    assume(hi < math.inf)
    strategies = StrategySpec(betas=(lo, hi), costs=(1.0, 0.0))
    assert not check_assumptions(params, strategies, PolicyConfig(cstar=0.5, upsilon=1.0))
    try:
        endemic_state(np.array([lo, hi]), params)
    except DegenerateDiscriminant:
        return  # resolve rejects the range
    inside = np.concatenate([np.linspace(lo, hi, 3001), np.geomspace(lo, hi, 3001)])
    endemic_state(np.clip(inside, lo, hi), params, strategies)


# u = 2**-53, and the bounds on endemic_state's errors in units of it,
# about twice the worst errors over 625,000 random_bundle rates (25 rates
# in each of 25,000 bundles): 5.17u for I_hat and 2.76u for a, relative,
# and 1.92u for R_hat against the sum of its terms' magnitudes (178u
# relative, where R_hat is small)
_U = 2.0 ** -53
ENDEMIC_ERROR_BOUNDS = {"I_hat": 10.0, "R_hat": 4.0, "a": 5.0}


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_the_endemic_state_lies_within_its_error_bounds_of_the_decimal_oracle(seed):
    # R_hat = (1 - sigma/B) - (1 - delta/B)*I_hat cancels where R_hat is
    # small, so its error is measured against the magnitudes it sums:
    # 1 + sigma/B + (1 + delta/B)*I_hat
    rng = np.random.default_rng(seed)
    params, strategies, _ = random_bundle(rng)
    lo, hi = strategies.betas[0], strategies.betas[-1]
    rates = np.append(np.linspace(lo, hi, 24), rng.uniform(lo, hi))
    eq = endemic_state(rates, params)
    for k, B in enumerate(rates):
        I_hat, R_hat, a = decimal_endemic(float(B), params)
        with localcontext(DECIMAL):
            B = Decimal(float(B))
            d, gam, s, w = (Decimal(v) for v in
                            (params.delta, params.gamma, params.sigma, params.omega))
            # the oracle solves both balance equations to its digits
            assert abs((B - s) - (B * (I_hat + R_hat) - d * I_hat)) < Decimal("1e-45")
            assert abs(gam * I_hat - w * R_hat + d * R_hat * I_hat) < Decimal("1e-45")
            terms = 1 + s / B + (1 + d / B) * I_hat
            errors = {
                "I_hat": abs(Decimal(float(eq.I_hat[k])) - I_hat) / I_hat,
                "R_hat": abs(Decimal(float(eq.R_hat[k])) - R_hat) / terms,
                "a": abs(Decimal(float(eq.a[k])) - a) / a,
            }
        for name, error in errors.items():
            assert float(error) <= ENDEMIC_ERROR_BOUNDS[name] * _U, (name, float(B))
