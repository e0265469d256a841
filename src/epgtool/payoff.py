"""The dynamic payoff mechanism: reward offsets and the stabilizing feedback.

The planner pays reward ``r = q*betas + rstar``; net of intrinsic costs the
payoff vector is ``p = q*betas + r_o`` with ``r_o = rstar - costs``.  The
scalar mechanism state ``q`` evolves as ``qdot(I, R, x)``, chosen as the
negative sensitivity of the epidemic storage (see :mod:`epgtool.bounds`)
with respect to the average transmission rate, which makes the combined
storage a Lyapunov function of the closed loop.
The law is written once, as the source text ``_QDOT``, which
:mod:`epgtool.dynamics` inlines in its RK4 kernel; :func:`_qdot_constants`
computes its constants for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import OptimalAllocation, endemic_state
from .equilibrium import _compile_text, _sum_products
from .params import ModelParams, PolicyConfig, StrategySpec

__all__ = [
    "PayoffMechanism",
    "EpidemicStateOutOfDomain",
    "build_mechanism",
]


class EpidemicStateOutOfDomain(ValueError):
    """Epidemic state outside (0, 1] x [0, 1]; the feedback is undefined."""


# Minus the B-sensitivity of the epidemic storage.  ``{i}`` suffixes (I, R),
# ``{_}`` the values at rate B (``equilibrium._ENDEMIC``); see :func:`_qdot_constants`.
_QDOT = """\
r_dev{_} = R_hat{_} - R{i}
dq{_} = (log(I{i} / I_hat{_}) * dI_dB{_} - ups2 * (B{_} - bstar)
      - 0.5 * (2.0 * a{_} * dR_dB{_} + r_dev{_} * da_dB{_}) * r_dev{_})
"""
_qdot = _compile_text(
    "qdot", "I, R, B, I_hat, R_hat, a, dI_dB, dR_dB, da_dB, ups2, bstar",
    _QDOT, "dq", {"log": math.log})


def _qdot_constants(mech: PayoffMechanism) -> dict:
    """``_QDOT``'s constants: ``upsilon * upsilon`` and the optimal rate."""
    return dict(ups2=mech.upsilon * mech.upsilon, bstar=mech.alloc.betastar)


@dataclass(frozen=True)
class PayoffMechanism:
    """Reward schedule plus the feedback law for the mechanism state ``q``.

    On the support of the optimal mix (and everywhere when n = 2) the reward
    equals the cost offset ``ctilde``, so every supported strategy nets the
    same payoff ``-costs[-1]`` at q = 0; off-support rewards sit strictly
    below their offsets by the policy margin.
    """

    rstar: tuple[float, ...]
    r_o: tuple[float, ...]
    upsilon: float
    alloc: OptimalAllocation
    params: ModelParams
    strategies: StrategySpec

    def payoffs(self, q) -> np.ndarray:
        """Net payoffs ``q*betas + r_o``; shape ``(m, n)`` for ``m`` q's."""
        return np.multiply.outer(q, self.strategies.betas) + np.asarray(self.r_o)

    def qdot_at_B(self, I: float, R: float, B: float) -> float:
        """Feedback rate ``_QDOT`` for ``q`` at the average transmission
        rate ``B``, which must lie in the strategy range."""
        if not I > 0.0:
            raise EpidemicStateOutOfDomain(f"I={I!r} must be positive")
        if not (I <= 1.0 and 0.0 <= R <= 1.0):  # negated: a NaN fails it
            raise EpidemicStateOutOfDomain(f"(I, R)=({I!r}, {R!r}) outside domain")
        eq = endemic_state(B, self.params, self.strategies)
        return _qdot(I, R, eq.B, eq.I_hat, eq.R_hat, eq.a, eq.dI_dB, eq.dR_dB, eq.da_dB,
                     **_qdot_constants(self))

    def qdot(self, I: float, R: float, x) -> float:
        """Feedback rate for ``q`` at population state ``x``, whose rate
        ``B`` is summed as the kernel sums it; raises ``ValueError`` unless
        ``x`` has one share per strategy."""
        return self.qdot_at_B(I, R, self.rate(x))

    def rate(self, x) -> float:
        """Average transmission rate of the shares ``x``, summed as the
        kernel sums it; raises ``ValueError`` unless ``x`` has one share per
        strategy."""
        n = len(self.strategies.betas)
        if len(x) != n:
            raise ValueError(f"initial state has {len(x)} shares for {n} strategies")
        return float(_sum_products(zip(self.strategies.betas, x)))


def build_mechanism(
    alloc: OptimalAllocation,
    strategies: StrategySpec,
    policy: PolicyConfig,
    params: ModelParams,
) -> PayoffMechanism:
    """Construct the reward schedule for a validated configuration.

    Supported strategies (and all strategies when n = 2) receive reward
    equal to their cost offset; unsupported ones are offset-minus-margin so
    adopting them is strictly unattractive at equilibrium.
    """
    ctilde = strategies.ctilde
    n = strategies.n
    margin = policy.offsupport_margin
    rstar = []
    for i in range(n):
        if n == 2 or alloc.xstar[i] > 0.0:
            rstar.append(ctilde[i])
        else:
            rstar.append(ctilde[i] - margin)
    r_o = tuple(rs - c for rs, c in zip(rstar, strategies.costs))
    return PayoffMechanism(
        rstar=tuple(rstar),
        r_o=r_o,
        upsilon=policy.upsilon,
        alloc=alloc,
        params=params,
        strategies=strategies,
    )
