from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epgtool import (
    ModelParams,
    PolicyConfig,
    StrategySpec,
    ValidationError,
    check_assumptions,
    validate,
)


def _names(violations):
    return {v.name for v in violations}


def test_baseline_scenario_is_valid(example1):
    assert check_assumptions(
        example1.params, example1.strategies, example1.policy
    ) == []
    bundle = validate(example1.params, example1.strategies, example1.policy)
    assert bundle.params is example1.params


def test_death_rate_above_omega_is_rejected(example1):
    bad = ModelParams(gamma=0.1, delta=0.02, zeta=0.0, theta=0.0, psi=0.011)
    names = _names(check_assumptions(bad, example1.strategies, example1.policy))
    assert "delta<omega" in names
    with pytest.raises(ValidationError) as err:
        validate(bad, example1.strategies, example1.policy)
    assert "delta<omega" in str(err.value)


def test_death_rate_above_gamma_is_rejected(example1):
    bad = ModelParams(gamma=0.004, delta=0.005, zeta=0.0, theta=0.0, psi=0.2)
    names = _names(check_assumptions(bad, example1.strategies, example1.policy))
    assert "delta<gamma" in names


def test_zero_death_rate_is_rejected(example1):
    bad = ModelParams(gamma=0.1, delta=0.0, zeta=0.0, theta=0.0, psi=0.011)
    names = _names(check_assumptions(bad, example1.strategies, example1.policy))
    assert "delta>0" in names


def test_three_strategy_slope_condition_accepts_decreasing_slopes(example1):
    # slopes: 0.2/0.03 = 6.67 then 0.2/0.04 = 5.0, strictly decreasing
    s = StrategySpec(betas=(0.12, 0.15, 0.19), costs=(0.4, 0.2, 0.0))
    assert check_assumptions(example1.params, s, PolicyConfig(0.3, 2.0)) == []


def test_three_strategy_slope_condition_rejects_increasing_slopes(example1):
    # slopes: 0.1/0.03 = 3.33 then 0.3/0.04 = 7.5, increasing -> rejected
    s = StrategySpec(betas=(0.12, 0.15, 0.19), costs=(0.4, 0.3, 0.0))
    names = _names(check_assumptions(example1.params, s, PolicyConfig(0.2, 2.0)))
    assert "marginal_cost_decreasing" in names


def test_unsustainable_safest_strategy_is_rejected(example1):
    s = StrategySpec(betas=(0.1, 0.19), costs=(0.2, 0.0))  # betas[0] < sigma
    names = _names(check_assumptions(example1.params, s, example1.policy))
    assert "sigma<beta_1" in names


def test_misordered_menus_are_rejected(example1):
    s = StrategySpec(betas=(0.19, 0.15), costs=(0.2, 0.0))
    names = _names(check_assumptions(example1.params, s, example1.policy))
    assert "betas_increasing" in names
    s = StrategySpec(betas=(0.15, 0.19), costs=(0.0, 0.2))
    names = _names(check_assumptions(example1.params, s, example1.policy))
    assert "costs_decreasing" in names
    # the marginal cost of a misordered menu is not also reported
    s = StrategySpec(betas=(0.19, 0.15, 0.12), costs=(0.4, 0.3, 0.0))
    names = _names(check_assumptions(example1.params, s, PolicyConfig(0.2, 2.0)))
    assert "betas_increasing" in names
    assert "marginal_cost_decreasing" not in names


def test_budget_at_breakpoint_is_flagged(example1):
    for cstar in (0.2, 0.2 + 5e-13, 0.0):
        names = _names(
            check_assumptions(
                example1.params, example1.strategies,
                PolicyConfig(cstar=cstar, upsilon=2.0),
            )
        )
        assert "BudgetAtBreakpoint" in names


def test_budget_and_gain_ranges(example1):
    names = _names(
        check_assumptions(
            example1.params, example1.strategies, PolicyConfig(0.3, 2.0)
        )
    )
    assert "0<cstar<ctilde_1" in names
    names = _names(
        check_assumptions(
            example1.params, example1.strategies, PolicyConfig(0.1, 0.0)
        )
    )
    assert "upsilon>0" in names
    names = _names(
        check_assumptions(
            example1.params, example1.strategies, PolicyConfig(0.1, 2.0, 0.0)
        )
    )
    assert "offsupport_margin>0" in names


def test_cost_offsets_decrease_to_zero(three_strategy):
    ct = three_strategy.strategies.ctilde
    assert ct[-1] == 0.0
    assert all(ct[i] > ct[i + 1] for i in range(len(ct) - 1))
    assert all(v >= 0.0 for v in ct)


def test_strategy_spec_rejects_malformed_input():
    with pytest.raises(ValueError):
        StrategySpec(betas=(0.15,), costs=(0.2,))
    with pytest.raises(ValueError):
        StrategySpec(betas=(0.15, 0.19), costs=(0.2,))
    with pytest.raises(ValueError):
        StrategySpec(betas=(0.15, float("nan")), costs=(0.2, 0.0))
    with pytest.raises(ValueError):
        ModelParams(gamma=float("inf"), delta=0.005)


finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-10.0, max_value=10.0
)


@settings(max_examples=200, deadline=None)
@given(
    gamma=finite, delta=finite, zeta=finite, theta=finite, psi=finite,
    b1=finite, b2=finite, c1=finite, c2=finite, cstar=finite, upsilon=finite,
)
def test_checking_is_total_and_idempotent(
    gamma, delta, zeta, theta, psi, b1, b2, c1, c2, cstar, upsilon
):
    """Any well-formed finite input yields a violation list, never an error,
    and validate() succeeds exactly when that list is empty."""
    params = ModelParams(gamma=gamma, delta=delta, zeta=zeta, theta=theta, psi=psi)
    strategies = StrategySpec(betas=(b1, b2), costs=(c1, c2))
    policy = PolicyConfig(cstar=cstar, upsilon=upsilon)
    first = check_assumptions(params, strategies, policy)
    second = check_assumptions(params, strategies, policy)
    assert [str(v) for v in first] == [str(v) for v in second]
    if first:
        with pytest.raises(ValidationError):
            validate(params, strategies, policy)
    else:
        assert validate(params, strategies, policy).policy is policy


def test_derived_rates_match_definitions():
    p = ModelParams(gamma=0.1, delta=0.005, zeta=0.003, theta=0.007, psi=0.011)
    assert math.isclose(p.g, 0.004)
    assert math.isclose(p.sigma_bar, 0.108)
    assert math.isclose(p.sigma, 0.112)
    assert math.isclose(p.omega_bar, 0.014)
    assert math.isclose(p.omega, 0.018)


_EXAMPLE1 = ModelParams(gamma=0.1, delta=0.005, zeta=0.0, theta=0.0, psi=0.011)
_TWO = StrategySpec(betas=(0.15, 0.19), costs=(0.2, 0.0))
_SUSTAINS = "; the safest strategy could not sustain an endemic state"


# crafted triples that together fail every rule at least once, with the
# exact ordered (name, detail) list that each gives
@pytest.mark.parametrize("params, strategies, policy, expected", [
    pytest.param(
        ModelParams(gamma=-1.0, delta=-0.5, zeta=-0.25, theta=-2.0, psi=-0.125),
        _TWO, PolicyConfig(0.1, 2.0), [
            ("gamma>=0", "gamma=-1.0 is negative"),
            ("delta>=0", "delta=-0.5 is negative"),
            ("zeta>=0", "zeta=-0.25 is negative"),
            ("theta>=0", "theta=-2.0 is negative"),
            ("psi>=0", "psi=-0.125 is negative"),
            ("delta>0", "delta=-0.5; this toolkit targets the positive "
                        "disease-death-rate regime"),
            ("delta<omega", "delta=-0.5 >= omega=-2.125"),
            ("delta<gamma", "delta=-0.5 >= gamma=-1.0"),
            ("omega>0", "omega=-2.125"),
            ("sigma>0", "sigma=-3.5"),
            ("sigma>delta", "sigma=-3.5 <= delta=-0.5"),
        ], id="negative-rates"),
    pytest.param(
        ModelParams(gamma=0.1, delta=-0.0, zeta=0.0, theta=0.0, psi=0.011),
        _TWO, PolicyConfig(0.1, 2.0), [
            ("delta>0", "delta=-0.0; this toolkit targets the positive "
                        "disease-death-rate regime"),
        ], id="negative-zero-rate"),
    pytest.param(
        ModelParams(gamma=0.1, delta=0.2, zeta=0.0, theta=0.0, psi=0.1),
        StrategySpec(betas=(0.1, 0.19), costs=(0.2, 0.0)), PolicyConfig(0.1, 2.0), [
            ("delta<omega", "delta=0.2 >= omega=0.1"),
            ("delta<gamma", "delta=0.2 >= gamma=0.1"),
            ("sigma<beta_1", "sigma=0.30000000000000004 >= betas[0]=0.1" + _SUSTAINS),
        ], id="unsustainable"),
    pytest.param(
        _EXAMPLE1, StrategySpec(betas=(0.2, 0.19, 0.25, 0.24), costs=(0.3, 0.4, 0.1, 0.2)),
        PolicyConfig(0.15, 2.0), [
            ("betas_increasing", "betas[0]=0.2 >= betas[1]=0.19"),
            ("costs_decreasing", "costs[0]=0.3 <= costs[1]=0.4"),
            ("betas_increasing", "betas[2]=0.25 >= betas[3]=0.24"),
            ("costs_decreasing", "costs[2]=0.1 <= costs[3]=0.2"),
            ("0<cstar<ctilde_1", "cstar=0.15 outside (0, 0.09999999999999998)"),
        ], id="misordered-n4"),
    pytest.param(
        _EXAMPLE1, StrategySpec(betas=(0.25, 0.5, 0.75, 1.0), costs=(1.0, 0.75, 0.5, 0.0)),
        PolicyConfig(0.3, 2.0), [
            ("marginal_cost_decreasing",
             "cost/transmission slope at 0 is 1.0 <= next slope 1.0"),
            ("marginal_cost_decreasing",
             "cost/transmission slope at 1 is 1.0 <= next slope 2.0"),
        ], id="non-decreasing-slopes"),
    pytest.param(
        _EXAMPLE1,
        StrategySpec(betas=(-1e308, 1e308, 1.5e308), costs=(1e308, -1e308, -1.5e308)),
        PolicyConfig(1.0, 2.0), [
            ("sigma<beta_1", "sigma=0.10500000000000001 >= betas[0]=-1e+308" + _SUSTAINS),
            ("marginal_cost_decreasing",
             "cost/transmission slope at 0 is nan <= next slope 1.0"),
        ], id="nan-slope"),
    pytest.param(
        _EXAMPLE1, _TWO, PolicyConfig(0.2, 2.0, 0.0), [
            ("0<cstar<ctilde_1", "cstar=0.2 outside (0, 0.2)"),
            ("BudgetAtBreakpoint", "cstar=0.2 equals ctilde[0]=0.2 within 1e-12"),
            ("offsupport_margin>0", "offsupport_margin=0.0"),
        ], id="cstar-at-first-breakpoint"),
    pytest.param(
        _EXAMPLE1, _TWO, PolicyConfig(0.0, 1.3407807929942597e+154, -1.0), [
            ("0<cstar<ctilde_1", "cstar=0.0 outside (0, 0.2)"),
            ("BudgetAtBreakpoint", "cstar=0.0 equals ctilde[1]=0.0 within 1e-12"),
            ("upsilon>0", "upsilon=1.3407807929942597e+154 must be positive with a "
                          "finite square"),
            ("offsupport_margin>0", "offsupport_margin=-1.0"),
        ], id="cstar-at-last-breakpoint"),
    pytest.param(
        _EXAMPLE1, _TWO, PolicyConfig(0.2 - 1e-13, 0.0), [
            ("BudgetAtBreakpoint",
             "cstar=0.1999999999999 equals ctilde[0]=0.2 within 1e-12"),
            ("upsilon>0", "upsilon=0.0 must be positive with a finite square"),
        ], id="cstar-near-breakpoint"),
])
def test_violations_are_listed_in_order_with_their_details(
    params, strategies, policy, expected
):
    violations = check_assumptions(params, strategies, policy)
    assert [(v.name, v.detail) for v in violations] == expected
