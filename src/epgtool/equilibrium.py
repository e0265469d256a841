"""Endemic-equilibrium algebra of the normalized SIRS model.

For a transmission rate B the endemic pair (I_hat, R_hat) solves

    B - sigma = B*(I_hat + R_hat) - delta*I_hat
    0         = gamma*I_hat - omega*R_hat + delta*R_hat*I_hat

which reduces to a quadratic in I_hat.  The smaller quadratic root is the
valid one; it is evaluated in the cancellation-free form
``2*omega*(B - sigma) / (b + sqrt(disc))`` so the delta -> 0 limit is exact.
This algebra and its B-derivatives are written once, as the source text
``_ENDEMIC`` (the point, then the slopes).  It is compiled here once,
elementwise on numpy arrays, and run by :func:`endemic_state` alone, on a
rate or an array of rates, whose fields are then floats or arrays.  It
checks each rate and its discriminant once; that check covers the slopes
too: at the smaller root the determinant of the linearized equations is
``-sqrt(disc)``.  :mod:`epgtool.dynamics` inlines the text in every stage of
its RK4 kernel.  The module also provides the budget-optimal strategy mix.
"""

from __future__ import annotations

import linecache
from dataclasses import dataclass

import numpy as np

from .params import (
    BudgetAtBreakpoint,
    BREAKPOINT_TOL,
    ModelParams,
    PolicyConfig,
    StrategySpec,
)

__all__ = [
    "EquilibriumPoint",
    "OptimalAllocation",
    "OutOfRange",
    "DegenerateDiscriminant",
    "endemic_state",
    "optimal_allocation",
]


class OutOfRange(ValueError):
    """Transmission rate outside the domain where the algebra is valid."""


class DegenerateDiscriminant(ArithmeticError):
    """Quadratic discriminant <= 0; signals corrupted parameters."""


@dataclass(frozen=True)
class EquilibriumPoint:
    """Endemic equilibrium at transmission rate ``B``: every field is a float,
    or for an array of rates an array of ``B``'s shape.

    ``a`` is the recovered-deviation weight ``B / (gamma + delta*R_hat)``;
    ``b`` and ``disc`` are the quadratic coefficient and discriminant, and
    ``dI_dB``, ``dR_dB``, ``da_dB`` the B-derivatives of the pair and weight.
    """

    B: float
    I_hat: float
    R_hat: float
    a: float
    b: float
    disc: float
    dI_dB: float
    dR_dB: float
    da_dB: float


def _compile_source(source: str, filename: str):
    """Compile generated ``source``; tracebacks show its lines."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return compile(source, filename, "exec")


def _compile_text(name, args, text, returns, namespace):
    """``def name(args): text; return returns``, with the ``{i}``/``{_}``
    suffixes of ``text`` left empty."""
    lines = [f"def {name}({args}):"]
    lines += [f"    {line}" for line in text.format(i="", _="").splitlines()]
    lines.append(f"    return {returns}")
    exec(_compile_source("\n".join(lines) + "\n", f"<epgtool {name}>"), namespace)
    return namespace[name]


def _sum_products(pairs):
    """``0.0 + a_0 * b_0 + a_1 * b_1 + ...``, left to right: every sum over
    strategies is rounded this way, as the generated kernel writes it.  The
    factors may be floats or numpy arrays (elementwise, one sum per entry)."""
    total = 0.0
    for a, b in pairs:
        total = total + a * b
    return total


# The endemic pair at rate B with its weight ``a``, and their B-derivatives.
# ``{_}`` suffixes every name (the stage in the RK4 kernel); d, w, gam, sig
# are delta, omega, gamma, sigma.  (dI_dB, dR_dB) solves the equilibrium
# equations linearized in B; their determinant ``det`` is -sq at the smaller
# root, so ``disc > 0`` makes it negative.
_ENDEMIC = """\
b{_} = gam * B{_} + w * (B{_} - d) + d * (B{_} - sig)
disc{_} = b{_} * b{_} - 4.0 * d * w * (B{_} - d) * (B{_} - sig)
sq{_} = sqrt(disc{_})
I_hat{_} = 2.0 * w * (B{_} - sig) / (b{_} + sq{_})
R_hat{_} = (1.0 - sig / B{_}) - (1.0 - d / B{_}) * I_hat{_}
denom{_} = gam + d * R_hat{_}
a{_} = B{_} / denom{_}
det{_} = -(B{_} - d) * (w - d * I_hat{_}) - B{_} * denom{_}
free{_} = 1.0 - I_hat{_} - R_hat{_}
dI_dB{_} = -(w - d * I_hat{_}) * free{_} / det{_}
dR_dB{_} = -denom{_} * free{_} / det{_}
da_dB{_} = (gam + d * (R_hat{_} - B{_} * dR_dB{_})) / (denom{_} * denom{_})
"""
# its one compiled form, elementwise on numpy arrays, returning the fields
# of EquilibriumPoint in order; endemic_state alone runs it, and checks ``disc``
_endemic_array = _compile_text("endemic_array", "B, d, w, gam, sig", _ENDEMIC,
                               "B, I_hat, R_hat, a, b, disc, dI_dB, dR_dB, da_dB",
                               {"sqrt": np.sqrt})


def endemic_state(
    B,
    params: ModelParams,
    strategies: StrategySpec | None = None,
) -> EquilibriumPoint:
    """Closed-form endemic equilibrium at transmission rate ``B``, with its
    B-derivatives; elementwise in ``B``.

    A float ``B`` gives a point of Python floats; an array of rates gives a
    point whose fields are arrays of ``B``'s shape.  Every rate must exceed
    ``params.sigma``; when ``strategies`` is given, every rate must also lie
    in ``[betas[0], betas[-1]]``.  The first rate in flat order that fails a
    check raises, for the first check it fails: the strategy range, then
    ``sigma``, then the discriminant.

    Raises
    ------
    OutOfRange
        If a rate is outside the admissible range.
    DegenerateDiscriminant
        If the quadratic discriminant is not positive (cannot happen for
        validated parameters).
    """
    # a float64 scalar for a float, else an array: float64 rates make every
    # division IEEE (inf or NaN, not an exception), so the checks see every value
    B = np.asarray(B, dtype=float)[()]
    with np.errstate(all="ignore"):
        values = _endemic_array(B, params.delta, params.omega, params.gamma, params.sigma)
    disc = values[5]
    # each check: which rates pass it, and the error for a rate that fails it
    checks = []
    if strategies is not None:
        lo, hi = strategies.betas[0], strategies.betas[-1]
        checks.append(((lo <= B) & (B <= hi), lambda B, disc: OutOfRange(
            f"B={B!r} outside strategy range [{lo!r}, {hi!r}]")))
    checks.append((B > params.sigma, lambda B, disc: OutOfRange(
        f"B={B!r} must exceed sigma={params.sigma!r}")))
    checks.append((disc > 0.0, lambda B, disc: DegenerateDiscriminant(f"{disc=!r}, {B=!r}")))
    valid = np.logical_and.reduce([passed for passed, _ in checks])
    if not valid.all():  # NaN rates included
        k = np.flatnonzero(~valid)[0]
        first = float(np.ravel(B)[k]), float(np.ravel(disc)[k])
        raise next(error(*first) for passed, error in checks if not np.ravel(passed)[k])
    return EquilibriumPoint(*(map(float, values) if B.ndim == 0 else values))


@dataclass(frozen=True)
class OptimalAllocation:
    """Budget-optimal strategy mix and the endemic state it induces.

    ``xstar`` has at most two nonzero entries, at adjacent (0-based) indices
    ``istar`` and ``istar + 1``; ``betastar`` is the induced average
    transmission rate, and ``endemic`` the equilibrium point at ``betastar``.
    """

    xstar: tuple[float, ...]
    betastar: float
    istar: int
    endemic: EquilibriumPoint


def _pair_mix(values, target: float) -> tuple[int, tuple[float, ...]] | None:
    """``i`` and the shares that mix ``values[i]`` and ``values[i + 1]`` to
    ``target``, for the first such pair that brackets it; else ``None``."""
    for i in range(len(values) - 1):
        left, right = values[i], values[i + 1]
        if min(left, right) <= target <= max(left, right):
            weight = (target - right) / (left - right)
            x = [0.0] * len(values)
            x[i], x[i + 1] = weight, 1.0 - weight
            return i, tuple(x)
    return None


def optimal_allocation(
    strategies: StrategySpec,
    policy: PolicyConfig,
    params: ModelParams,
) -> OptimalAllocation:
    """Cheapest-transmission mix meeting the budget, and its endemic state.

    Rejects a budget at any cost offset ``ctilde[i]``, then locates the
    adjacent pair with ``ctilde[istar+1] < cstar < ctilde[istar]`` and
    interpolates: the minimizer of average transmission subject to the
    cost budget puts all mass on that pair.
    """
    ctilde, cstar = strategies.ctilde, policy.cstar
    for i, offset in enumerate(ctilde):
        if abs(cstar - offset) <= BREAKPOINT_TOL:
            raise BudgetAtBreakpoint(cstar, i)
    mix = _pair_mix(ctilde, cstar)
    if mix is None:
        raise OutOfRange(
            f"cstar={cstar!r} outside (0, {ctilde[0]!r}); no interior mix"
        )
    istar, x = mix
    betastar = _sum_products(zip(strategies.betas, x))
    eq = endemic_state(betastar, params, strategies)
    return OptimalAllocation(xstar=x, betastar=betastar, istar=istar, endemic=eq)
