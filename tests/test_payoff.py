from __future__ import annotations

import math

import numpy as np
import pytest

from epgtool import (
    EpgState,
    EpidemicStateOutOfDomain,
    IntegratorOptions,
    OutOfRange,
    endemic_state,
    epidemic_storage,
    simulate,
    state_derivative,
)
from helpers import endemic_infection_floor


def test_two_strategy_rewards_equal_cost_offsets(example1):
    mech = example1.mech
    assert mech.rstar == example1.strategies.ctilde == (0.2, 0.0)
    assert mech.r_o == (0.0, 0.0)


def test_offsupport_reward_sits_below_offset(three_strategy):
    mech = three_strategy.mech
    ct = three_strategy.strategies.ctilde
    assert three_strategy.alloc.xstar[2] == 0.0
    assert mech.rstar[0] == ct[0] and mech.rstar[1] == ct[1]
    assert mech.rstar[2] == pytest.approx(ct[2] - 0.01, abs=1e-15)
    # supported strategies all net the same payoff -costs[-1] at q = 0
    cn = three_strategy.strategies.costs[-1]
    assert mech.r_o[0] == pytest.approx(-cn, abs=1e-15)
    assert mech.r_o[1] == pytest.approx(-cn, abs=1e-15)


@pytest.mark.parametrize("x", [(1.0,), (0.5, 0.3, 0.2)])
def test_qdot_rejects_the_wrong_number_of_shares(example1, x):
    # one share used to give a rate; three were reported as a rate outside
    # the strategy range
    with pytest.raises(ValueError,
                       match=rf"^initial state has {len(x)} shares for 2 strategies$"):
        example1.mech.qdot(0.04, 0.3, x)


def test_payoffs_at_zero_mechanism_state(example1):
    p = example1.mech.payoffs(0.0)
    assert np.all(p == np.asarray(example1.mech.r_o))


def test_payoffs_scale_with_mechanism_state(example1):
    p = example1.mech.payoffs(1.0)
    assert p == pytest.approx([0.15, 0.19], abs=1e-15)


def test_payoff_linearity(example1):
    mech = example1.mech
    betas = np.asarray(example1.strategies.betas)
    for q1, q2 in [(0.3, -1.2), (2.0, 0.7), (-0.5, -0.1)]:
        lhs = mech.payoffs(q1 + q2) - mech.payoffs(q2)
        assert lhs == pytest.approx(q1 * betas, abs=1e-12)


def test_feedback_vanishes_at_target_equilibrium(example1):
    eq, xstar = example1.alloc.endemic, example1.alloc.xstar
    assert example1.mech.qdot(eq.I_hat, eq.R_hat, xstar) == 0.0
    # and the kernel's dq vanishes there whatever the mechanism state
    for q in (-3.0, 0.0, 5.0):
        state = EpgState(I=eq.I_hat, R=eq.R_hat, x=xstar, q=q)
        assert state_derivative(state, example1.mech, example1.proto)[-1] == 0.0


def test_feedback_terms_vanish_individually_at_target(example1):
    # at (I*, R*, beta*) the log ratio, rate deviation, and recovered
    # deviation are each exactly zero, so the value is an exact 0.0
    eq = example1.alloc.endemic
    val = example1.mech.qdot_at_B(eq.I_hat, eq.R_hat, eq.B)
    assert val == 0.0


def test_feedback_matches_negative_storage_slope(example1):
    rng = np.random.default_rng(42)
    mech, params, alloc = example1.mech, example1.params, example1.alloc
    h = 1e-6
    for _ in range(200):
        B = rng.uniform(0.15 + h, 0.19 - h)
        I = rng.uniform(0.005, 0.6)
        R = rng.uniform(0.0, 1.0 - I)
        g = mech.qdot_at_B(I, R, B)
        fd = -(
            epidemic_storage(I, R, B + h, alloc, params, mech.upsilon)
            - epidemic_storage(I, R, B - h, alloc, params, mech.upsilon)
        ) / (2 * h)
        assert abs(g - fd) <= 1e-5 * max(1.0, abs(g))


def test_feedback_sign_at_baseline_start(example1):
    # endemic start on the safest strategy: the mechanism pushes q upward
    init = example1.initial
    val = example1.mech.qdot(init.I, init.R, init.x)
    ups2 = example1.policy.upsilon ** 2
    expected = -ups2 * (0.15 - example1.alloc.betastar)
    assert val == pytest.approx(expected, rel=1e-12)
    assert val > 0.0


def test_feedback_rejects_degenerate_epidemic_state(example1):
    mech = example1.mech
    with pytest.raises(EpidemicStateOutOfDomain):
        mech.qdot_at_B(0.0, 0.3, 0.17)
    with pytest.raises(EpidemicStateOutOfDomain):
        mech.qdot_at_B(-0.1, 0.3, 0.17)
    with pytest.raises(EpidemicStateOutOfDomain):
        mech.qdot_at_B(0.5, 1.2, 0.17)
    for I, R in ((0.05, math.nan), (math.nan, 0.17)):  # every comparison of NaN is false
        with pytest.raises(EpidemicStateOutOfDomain):
            mech.qdot_at_B(I, R, 0.17)
    with pytest.raises(OutOfRange):
        mech.qdot_at_B(0.05, 0.3, 0.21)


def test_feedback_difference_quotients_stay_bounded(example1):
    """Coarse Lipschitz probe on a compact chunk of the domain."""
    rng = np.random.default_rng(3)
    mech = example1.mech
    worst = 0.0
    for _ in range(300):
        B1, B2 = rng.uniform(0.15, 0.19, size=2)
        I1, I2 = rng.uniform(0.01, 0.9, size=2)
        R1 = rng.uniform(0.0, 1.0 - I1)
        R2 = rng.uniform(0.0, 1.0 - I2)
        dist = max(abs(I1 - I2), abs(R1 - R2), abs(B1 - B2))
        if dist < 1e-9:
            continue
        quot = abs(
            mech.qdot_at_B(I1, R1, B1) - mech.qdot_at_B(I2, R2, B2)
        ) / dist
        worst = max(worst, quot)
    assert worst < 1e3


def test_log_equilibrium_share_is_uniformly_bounded(example1):
    floor = endemic_infection_floor(example1.strategies, example1.params)
    cap = abs(math.log(floor))
    for B in np.linspace(0.15, 0.19, 50):
        eq = endemic_state(float(B), example1.params)
        assert abs(math.log(eq.I_hat)) <= cap


def test_mechanism_state_does_not_enter_feedback(example1):
    # the closed loop's dq depends on (I, R, B) only: bit-identical over q
    mech, x = example1.mech, (0.75, 0.25)
    dq = {state_derivative(EpgState(I=0.05, R=0.3, x=x, q=q), mech, example1.proto)[-1].hex()
          for q in (-2.0, 0.0, 7.5)}
    assert dq == {mech.qdot(0.05, 0.3, x).hex()}


def test_payoffs_of_a_stack_equal_per_state(three_strategy):
    mech = three_strategy.mech
    q = np.linspace(-2.0, 3.0, 41)
    stacked = mech.payoffs(q)
    assert stacked.shape == (q.size, three_strategy.strategies.n)
    assert np.array_equal(stacked, np.array([mech.payoffs(float(v)) for v in q]))


def test_trajectory_payoffs_come_from_the_mechanism(example1):
    traj = simulate(example1.initial, 20.0, example1.mech, example1.proto,
                    IntegratorOptions(output_stride=100))
    mech, betas = example1.mech, np.asarray(example1.strategies.betas)
    assert np.array_equal(traj.p, np.outer(traj.q, betas) + np.asarray(mech.r_o))
