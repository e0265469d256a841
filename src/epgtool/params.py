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
    out: list[AssumptionViolated] = []

    for name, value in (
        ("gamma", p.gamma),
        ("delta", p.delta),
        ("zeta", p.zeta),
        ("theta", p.theta),
        ("psi", p.psi),
    ):
        if value < 0:
            out.append(
                AssumptionViolated(f"{name}>=0", f"{name}={value!r} is negative")
            )
    if p.delta <= 0:
        out.append(
            AssumptionViolated(
                "delta>0",
                f"delta={p.delta!r}; this toolkit targets the positive "
                "disease-death-rate regime",
            )
        )
    if not p.delta < p.omega:
        out.append(
            AssumptionViolated(
                "delta<omega", f"delta={p.delta!r} >= omega={p.omega!r}"
            )
        )
    if not p.delta < p.gamma:
        out.append(
            AssumptionViolated(
                "delta<gamma", f"delta={p.delta!r} >= gamma={p.gamma!r}"
            )
        )
    if not p.omega > 0:
        out.append(AssumptionViolated("omega>0", f"omega={p.omega!r}"))
    if not p.sigma > 0:
        out.append(AssumptionViolated("sigma>0", f"sigma={p.sigma!r}"))
    if not p.sigma > p.delta:
        out.append(
            AssumptionViolated(
                "sigma>delta", f"sigma={p.sigma!r} <= delta={p.delta!r}"
            )
        )

    for i in range(s.n - 1):
        if not s.betas[i] < s.betas[i + 1]:
            out.append(
                AssumptionViolated(
                    "betas_increasing",
                    f"betas[{i}]={s.betas[i]!r} >= betas[{i + 1}]={s.betas[i + 1]!r}",
                )
            )
        if not s.costs[i] > s.costs[i + 1]:
            out.append(
                AssumptionViolated(
                    "costs_decreasing",
                    f"costs[{i}]={s.costs[i]!r} <= costs[{i + 1}]={s.costs[i + 1]!r}",
                )
            )
    if not p.sigma < s.betas[0]:
        out.append(
            AssumptionViolated(
                "sigma<beta_1",
                f"sigma={p.sigma!r} >= betas[0]={s.betas[0]!r}; the safest "
                "strategy could not sustain an endemic state",
            )
        )
    for i in range(s.n - 2):
        db1 = s.betas[i + 1] - s.betas[i]
        db2 = s.betas[i + 2] - s.betas[i + 1]
        if db1 <= 0 or db2 <= 0:
            continue  # already reported by the ordering check
        slope1 = (s.costs[i] - s.costs[i + 1]) / db1
        slope2 = (s.costs[i + 1] - s.costs[i + 2]) / db2
        if not slope1 > slope2:
            out.append(
                AssumptionViolated(
                    "marginal_cost_decreasing",
                    f"cost/transmission slope at {i} is {slope1!r} <= "
                    f"next slope {slope2!r}",
                )
            )

    ctilde = s.ctilde
    if not 0.0 < pol.cstar < ctilde[0]:
        out.append(
            AssumptionViolated(
                "0<cstar<ctilde_1",
                f"cstar={pol.cstar!r} outside (0, {ctilde[0]!r})",
            )
        )
    for i, ct in enumerate(ctilde):
        if abs(pol.cstar - ct) <= BREAKPOINT_TOL:
            out.append(
                AssumptionViolated(
                    "BudgetAtBreakpoint",
                    f"cstar={pol.cstar!r} equals ctilde[{i}]={ct!r} within "
                    f"{BREAKPOINT_TOL:g}",
                )
            )
    if not usable_gain(pol.upsilon):
        out.append(
            AssumptionViolated(
                "upsilon>0",
                f"upsilon={pol.upsilon!r} must be positive with a finite square",
            )
        )
    if not pol.offsupport_margin > 0:
        out.append(
            AssumptionViolated(
                "offsupport_margin>0",
                f"offsupport_margin={pol.offsupport_margin!r}",
            )
        )
    return out


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
