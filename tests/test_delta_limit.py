"""The paper's generalization at its limit: disease death rate delta -> 0.

``validate`` rejects delta = 0 (the package targets delta > 0), but the
library runs there, and there the model is the plain SIRS one with its
closed forms.  As delta falls to 0, the endemic point, its slopes, the
``qdot`` law, the Lyapunov value and the peak bound tend to those closed
forms at rate O(delta).  Each rate constant below is pinned about 15% above
its largest value on example1's menu (measured at delta 1e-8, 1e-6 and
1e-4, which agree to 3 digits).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from epgtool import (
    BoundQuery,
    EpgState,
    ModelParams,
    PolicyConfig,
    SmithProtocol,
    StrategySpec,
    build_mechanism,
    default_grid,
    endemic_state,
    lyapunov_value,
    optimal_allocation,
    peak_bound,
)
from epgtool import edm

STRATEGIES = StrategySpec(betas=(0.15, 0.19), costs=(0.2, 0.0))
POLICY = PolicyConfig(cstar=0.1, upsilon=2.0)
PROTO = SmithProtocol(rate_gain=0.1, cap=0.1)
RATES = np.linspace(0.15, 0.19, 201)
DELTAS = (1e-8, 1e-6, 1e-4)


def _example1(delta):
    """Example1's parameters, allocation and mechanism at ``delta``,
    built without ``validate``, which rejects delta = 0."""
    params = ModelParams(gamma=0.1, delta=delta, zeta=0.0, theta=0.0, psi=0.011)
    alloc = optimal_allocation(STRATEGIES, POLICY, params)
    return params, alloc, build_mechanism(alloc, STRATEGIES, POLICY, params)


def _sirs(B, params):
    """The delta = 0 endemic point and its B-slopes, in closed form."""
    w, gam, sig = params.omega, params.gamma, params.sigma
    I_hat = w * (B - sig) / (B * (w + gam))
    dI_dB = w * sig / (B * B * (w + gam))
    return dict(I_hat=I_hat, R_hat=gam * I_hat / w, a=B / gam,
                dI_dB=dI_dB, dR_dB=gam * dI_dB / w, da_dB=np.full_like(B, 1.0 / gam))


def _states():
    """Fixed closed-loop states spread over example1's range."""
    rng = np.random.default_rng(0)
    I, R, x, q = (rng.uniform(0.01, 0.3, 50), rng.uniform(0.0, 0.6, 50),
                  rng.uniform(0.0, 1.0, 50), rng.uniform(-0.05, 0.05, 50))
    return [EpgState(I=float(i), R=float(r), x=(float(s), 1.0 - float(s)), q=float(qq))
            for i, r, s, qq in zip(I, R, x, q)]


def test_the_endemic_point_at_delta_zero_is_the_sirs_closed_form():
    params = _example1(0.0)[0]
    eq = endemic_state(RATES, params)
    closed = _sirs(RATES, params)
    assert np.array_equal(eq.a, RATES / params.gamma)
    # within 2 ulps for the point and 4 for its slopes (measured 2 and 3)
    for name, ulps in dict(I_hat=2, R_hat=2, dI_dB=4, dR_dB=4, da_dB=4).items():
        dev = np.max(np.abs(getattr(eq, name) / closed[name] - 1.0))
        assert dev <= ulps * 2.0 ** -52, (name, dev)


# largest relative deviation from delta = 0, over delta: measured 22.04,
# 19.04, 4.27, 4.93, 10.93 and 9.01
_ENDEMIC_RATE = dict(I_hat=25.0, R_hat=22.0, a=5.0, dI_dB=5.7, dR_dB=12.6, da_dB=10.4)


@pytest.mark.parametrize("delta", DELTAS)
def test_the_endemic_point_and_its_slopes_deviate_by_o_delta(delta):
    at_zero = endemic_state(RATES, _example1(0.0)[0])
    eq = endemic_state(RATES, _example1(delta)[0])
    for name, rate in _ENDEMIC_RATE.items():
        dev = np.max(np.abs(getattr(eq, name) / getattr(at_zero, name) - 1.0))
        assert dev <= rate * delta, (name, dev / delta)


def _sirs_qdot(I, R, B, mech):
    """``qdot`` on the delta = 0 closed forms, as ``payoff._QDOT`` writes it."""
    c = _sirs(B, mech.params)
    r_dev = c["R_hat"] - R
    return (math.log(I / c["I_hat"]) * c["dI_dB"]
            - mech.upsilon ** 2 * (B - mech.alloc.betastar)
            - 0.5 * (2.0 * c["a"] * c["dR_dB"] + r_dev * c["da_dB"]) * r_dev)


def _sirs_lyapunov(state, mech):
    """The Lyapunov value on the delta = 0 closed forms."""
    B = mech.rate(state.x)
    c = _sirs(B, mech.params)
    epi = (c["I_hat"] * math.log(c["I_hat"] / state.I) - (c["I_hat"] - state.I)
           + 0.5 * c["a"] * (c["R_hat"] - state.R) ** 2
           + 0.5 * mech.upsilon ** 2 * (B - mech.alloc.betastar) ** 2)
    return epi + edm.storage(PROTO, state.x, mech.payoffs(state.q))


def test_qdot_and_the_lyapunov_value_at_delta_zero_are_the_closed_forms():
    mech = _example1(0.0)[2]
    for s in _states():
        B = mech.rate(s.x)
        assert mech.qdot_at_B(s.I, s.R, B) == pytest.approx(
            _sirs_qdot(s.I, s.R, B, mech), rel=1e-12, abs=1e-15)
        assert lyapunov_value(s, mech, PROTO) == pytest.approx(
            _sirs_lyapunov(s, mech), rel=1e-12)


@pytest.mark.parametrize("delta", DELTAS)
def test_qdot_and_the_lyapunov_value_deviate_by_o_delta(delta):
    at_zero, mech = _example1(0.0)[2], _example1(delta)[2]
    for s in _states():
        B = mech.rate(s.x)
        # qdot passes through 0, so its deviation is absolute: measured 49.99
        dq = abs(mech.qdot_at_B(s.I, s.R, B) - at_zero.qdot_at_B(s.I, s.R, B))
        assert dq <= 57.0 * delta
        # the value is positive off the target: measured 103.96
        L0 = lyapunov_value(s, at_zero, PROTO)
        assert abs(lyapunov_value(s, mech, PROTO) / L0 - 1.0) <= 120.0 * delta


def _bound(delta):
    """Grid-3000 bound of example1's start, the delta = 0.005 endemic point
    at B = 0.15 on the safest strategy, under the model at ``delta``: the
    start is off every target, so its level moves with delta too."""
    params, alloc, mech = _example1(delta)
    e0 = endemic_state(0.15, ModelParams(gamma=0.1, delta=0.005, psi=0.011))
    start = EpgState(I=e0.I_hat, R=e0.R_hat, x=(1.0, 0.0), q=0.0)
    return peak_bound(BoundQuery(alloc=alloc, params=params, upsilon=POLICY.upsilon,
                                 alpha=lyapunov_value(start, mech, PROTO),
                                 grid=default_grid(STRATEGIES, 3000)))


def test_the_peak_bound_is_continuous_as_delta_falls_to_zero():
    at_zero = _bound(0.0)
    assert at_zero.alpha == pytest.approx(1.629e-3, rel=1e-3)
    assert at_zero.peak_ratio == pytest.approx(1.3894959, abs=1e-7)
    for delta in DELTAS:
        res = _bound(delta)
        # per unit delta, measured 36.8 in the ratio and 2.47 in the peak
        assert abs(res.peak_ratio - at_zero.peak_ratio) <= 42.0 * delta
        assert abs(res.certified_peak - at_zero.certified_peak) <= 2.9 * delta
