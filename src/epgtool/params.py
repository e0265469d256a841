"""Model parameters, strategy menu, and policy design knobs.

All rates are per day; the time unit throughout the package is one day.
Constructors only reject malformed input (wrong lengths, non-finite numbers);
the standing model assumptions are checked by :func:`check_assumptions` /
:func:`validate`, which report *every* violated condition rather than
stopping at the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ModelParams",
    "StrategySpec",
    "PolicyConfig",
    "ValidatedBundle",
    "AssumptionViolated",
    "ValidationError",
    "BudgetAtBreakpoint",
    "check_assumptions",
    "usable_gain",
    "validate",
    "BREAKPOINT_TOL",
]

# absolute tolerance for the "budget not at a cost breakpoint" test
BREAKPOINT_TOL = 1e-12


@dataclass(frozen=True)
class AssumptionViolated:
    """One violated validation condition: a short name plus detail."""

    name: str
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {self.detail}"


class ValidationError(ValueError):
    """Raised by :func:`validate`; carries the full list of violations."""

    def __init__(self, violations: list[AssumptionViolated]):
        self.violations = list(violations)
        super().__init__(
            "invalid configuration: " + "; ".join(str(v) for v in self.violations)
        )


class BudgetAtBreakpoint(ValidationError):
    """The budget coincides with a strategy cost offset (within tolerance)."""

    def __init__(self, cstar: float, index: int):
        self.cstar = cstar
        self.index = index
        ValueError.__init__(
            self,
            f"budget {cstar!r} sits at cost breakpoint index {index} "
            f"(within {BREAKPOINT_TOL:g}); the optimal mix is not unique there",
        )
        self.violations = [
            AssumptionViolated("BudgetAtBreakpoint", str(self))
        ]


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name} must be finite, got {v!r}")


@dataclass(frozen=True)
class ModelParams:
    """Epidemiological rates (per day) of the normalized SIRS model.

    Parameters
    ----------
    gamma : recovery rate.
    delta : disease death rate (this package targets the delta > 0 regime).
    zeta : natural death rate.
    theta : birth rate.
    psi : immunity-waning rate.

    Derived quantities: ``g = theta - zeta``, ``sigma_bar = gamma + zeta +
    delta`` (reciprocal of the mean infectious period), ``sigma = g +
    sigma_bar``, ``omega_bar = psi + zeta``, ``omega = g + omega_bar``.
    """

    gamma: float
    delta: float
    zeta: float = 0.0
    theta: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        _require_finite(
            "rate", self.gamma, self.delta, self.zeta, self.theta, self.psi
        )

    @property
    def g(self) -> float:
        return self.theta - self.zeta

    @property
    def sigma_bar(self) -> float:
        return self.gamma + self.zeta + self.delta

    @property
    def sigma(self) -> float:
        return self.g + self.sigma_bar

    @property
    def omega_bar(self) -> float:
        return self.psi + self.zeta

    @property
    def omega(self) -> float:
        return self.g + self.omega_bar


@dataclass(frozen=True)
class StrategySpec:
    """Menu of n >= 2 strategies: transmission rates and intrinsic daily costs.

    ``betas`` must be strictly increasing and ``costs`` strictly decreasing
    (cheaper strategies transmit more); both orderings are reported by
    :func:`check_assumptions` rather than enforced here.  ``ctilde`` is the
    cost vector shifted so its last entry is zero.
    """

    betas: tuple[float, ...]
    costs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "costs", tuple(float(c) for c in self.costs))
        if len(self.betas) != len(self.costs):
            raise ValueError(
                f"betas and costs must have equal length, got "
                f"{len(self.betas)} and {len(self.costs)}"
            )
        if len(self.betas) < 2:
            raise ValueError("at least two strategies are required")
        _require_finite("beta", *self.betas)
        _require_finite("cost", *self.costs)

    @property
    def n(self) -> int:
        return len(self.betas)

    @property
    def ctilde(self) -> tuple[float, ...]:
        cn = self.costs[-1]
        return tuple(c - cn for c in self.costs)


@dataclass(frozen=True)
class PolicyConfig:
    """Planner design knobs: daily budget ``cstar`` and gain ``upsilon``.

    ``offsupport_margin`` is the positive amount by which rewards of
    strategies outside the optimal mix are lowered below their cost offset
    (only relevant for n >= 3).
    """

    cstar: float
    upsilon: float
    offsupport_margin: float = 0.01

    def __post_init__(self):
        _require_finite(
            "policy value", self.cstar, self.upsilon, self.offsupport_margin
        )


def usable_gain(upsilon: float) -> bool:
    """Whether ``upsilon`` can be the feedback gain: positive, with
    ``upsilon * upsilon`` finite (the storage and ``qdot`` weigh by it)."""
    return upsilon > 0 and math.isfinite(upsilon * upsilon)


@dataclass(frozen=True)
class ValidatedBundle:
    """A (params, strategies, policy) triple that passed every assumption."""

    params: ModelParams
    strategies: StrategySpec
    policy: PolicyConfig


def check_assumptions(
    params: ModelParams, strategies: StrategySpec, policy: PolicyConfig
) -> list[AssumptionViolated]:
    """Check every standing assumption; return the complete violation list.

    An empty list means the triple is valid.  The checks cover:

    * nonnegativity of the base rates and strict positivity of ``delta``;
    * ``delta < omega`` and ``delta < gamma`` (death rate moderate);
    * ``omega > 0``, ``sigma > 0`` and ``sigma > delta`` (well-posed
      endemic-equilibrium algebra);
    * strict orderings of ``betas`` (increasing) and ``costs`` (decreasing);
    * ``sigma < betas[0]`` (every strategy can sustain the disease);
    * for n >= 3, strictly decreasing marginal cost of transmission
      reduction: ``(c_i - c_{i+1})/(b_{i+1} - b_i)`` strictly decreasing;
    * ``0 < cstar < ctilde[0]`` with ``cstar`` away from every cost
      breakpoint (tolerance ``BREAKPOINT_TOL``), and a gain ``upsilon``
      that is :func:`usable_gain`.
    """
    p, s, pol = params, strategies, policy
    delta, omega, sigma = p.delta, p.omega, p.sigma
    b, c, ctilde = s.betas, s.costs, s.ctilde
    # slope of interval i, None where the betas are not increasing there (the
    # ordering check reports it, so the marginal-cost check skips it)
    slope = [(c0 - c1) / (b1 - b0) if b1 - b0 > 0 else None
             for b0, b1, c0, c1 in zip(b, b[1:], c, c[1:])]
    # (name, holds, detail format, values), in the order of the report
    rows = [
        *((f"{name}>=0", value >= 0, "{}={!r} is negative", (name, value))
          for name, value in (("gamma", p.gamma), ("delta", delta),
                              ("zeta", p.zeta), ("theta", p.theta), ("psi", p.psi))),
        ("delta>0", delta > 0, "delta={!r}; this toolkit targets the positive "
         "disease-death-rate regime", (delta,)),
        ("delta<omega", delta < omega, "delta={!r} >= omega={!r}", (delta, omega)),
        ("delta<gamma", delta < p.gamma, "delta={!r} >= gamma={!r}", (delta, p.gamma)),
        ("omega>0", omega > 0, "omega={!r}", (omega,)),
        ("sigma>0", sigma > 0, "sigma={!r}", (sigma,)),
        ("sigma>delta", sigma > delta, "sigma={!r} <= delta={!r}", (sigma, delta)),
        *(row for i in range(s.n - 1) for row in (
            ("betas_increasing", b[i] < b[i + 1], "betas[{}]={!r} >= betas[{}]={!r}",
             (i, b[i], i + 1, b[i + 1])),
            ("costs_decreasing", c[i] > c[i + 1], "costs[{}]={!r} <= costs[{}]={!r}",
             (i, c[i], i + 1, c[i + 1])))),
        ("sigma<beta_1", sigma < b[0], "sigma={!r} >= betas[0]={!r}; the safest "
         "strategy could not sustain an endemic state", (sigma, b[0])),
        *(("marginal_cost_decreasing", slope[i] > slope[i + 1],
           "cost/transmission slope at {} is {!r} <= next slope {!r}",
           (i, slope[i], slope[i + 1]))
          for i in range(s.n - 2) if None not in slope[i:i + 2]),
        ("0<cstar<ctilde_1", 0.0 < pol.cstar < ctilde[0], "cstar={!r} outside (0, {!r})",
         (pol.cstar, ctilde[0])),
        *(("BudgetAtBreakpoint", abs(pol.cstar - ct) > BREAKPOINT_TOL,
           "cstar={!r} equals ctilde[{}]={!r} within {:g}", (pol.cstar, i, ct, BREAKPOINT_TOL))
          for i, ct in enumerate(ctilde)),
        ("upsilon>0", usable_gain(pol.upsilon),
         "upsilon={!r} must be positive with a finite square", (pol.upsilon,)),
        ("offsupport_margin>0", pol.offsupport_margin > 0, "offsupport_margin={!r}",
         (pol.offsupport_margin,)),
    ]
    return [AssumptionViolated(name, detail.format(*values))
            for name, holds, detail, values in rows if not holds]


def validate(
    params: ModelParams, strategies: StrategySpec, policy: PolicyConfig
) -> ValidatedBundle:
    """Return a :class:`ValidatedBundle` or raise :class:`ValidationError`.

    The raised error carries every violated condition, so a caller can
    report them all at once.
    """
    violations = check_assumptions(params, strategies, policy)
    if violations:
        raise ValidationError(violations)
    return ValidatedBundle(params=params, strategies=strategies, policy=policy)
