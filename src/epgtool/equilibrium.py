"""Endemic-equilibrium algebra of the normalized SIRS model.

For a transmission rate B the endemic pair (I_hat, R_hat) solves

    B - sigma = B*(I_hat + R_hat) - delta*I_hat
    0         = gamma*I_hat - omega*R_hat + delta*R_hat*I_hat

which reduces to a quadratic in I_hat.  The smaller quadratic root is the
valid one; it is evaluated in the cancellation-free form
``2*omega*(B - sigma) / (b + sqrt(disc))`` so the delta -> 0 limit is exact.
This algebra and its B-derivatives are written once, as the source text
``_ENDEMIC`` (the point, then the slopes), compiled here for Python floats
and for numpy arrays and inlined by :mod:`epgtool.dynamics` in every stage
of its RK4 kernel.  The
module also provides the budget-optimal strategy mix.
"""

from __future__ import annotations

import linecache
import math
from dataclasses import dataclass, replace

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
    "SingularSystem",
    "endemic_state",
    "endemic_derivatives",
    "endemic_curve",
    "optimal_allocation",
]

SINGULAR_DET_TOL = 1e-14


class OutOfRange(ValueError):
    """Transmission rate outside the domain where the algebra is valid."""


class DegenerateDiscriminant(ArithmeticError):
    """Quadratic discriminant <= 0; signals corrupted parameters."""


class SingularSystem(ArithmeticError):
    """The 2x2 sensitivity system is numerically singular."""


@dataclass(frozen=True)
class EquilibriumPoint:
    """Endemic equilibrium at transmission rate ``B``.

    ``a`` is the recovered-deviation weight ``B / (gamma + delta*R_hat)``;
    ``b`` and ``disc`` are the quadratic coefficient and discriminant. The
    B-derivatives are ``None`` until filled by :func:`endemic_derivatives`.
    """

    B: float
    I_hat: float
    R_hat: float
    a: float
    b: float
    disc: float
    dI_dB: float | None = None
    dR_dB: float | None = None
    da_dB: float | None = None


def _compile_source(source: str, filename: str):
    """Compile generated ``source``; tracebacks show its lines."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return compile(source, filename, "exec")


def _compile_text(name, args, text, returns, namespace, checks=None):
    """``def name(args): text; return returns``, with the ``{i}``/``{_}``
    suffixes of ``text`` left empty and ``checks[v]`` run right after the
    line that assigns ``v``."""
    lines = [f"def {name}({args}):"]
    for line in text.format(i="", _="").splitlines():
        lines.append(f"    {line}")
        check = (checks or {}).get(line.split(" = ", 1)[0])
        if check:
            lines.append(f"    {check}")
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
# equations linearized in B.
_ENDEMIC_PAIR = """\
b{_} = gam * B{_} + w * (B{_} - d) + d * (B{_} - sig)
disc{_} = b{_} * b{_} - 4.0 * d * w * (B{_} - d) * (B{_} - sig)
sq{_} = sqrt(disc{_})
I_hat{_} = 2.0 * w * (B{_} - sig) / (b{_} + sq{_})
R_hat{_} = (1.0 - sig / B{_}) - (1.0 - d / B{_}) * I_hat{_}
"""
_DENOM = "denom{_} = gam + d * R_hat{_}\n"
_ENDEMIC_SLOPES = """\
det{_} = -(B{_} - d) * (w - d * I_hat{_}) - B{_} * denom{_}
free{_} = 1.0 - I_hat{_} - R_hat{_}
dI_dB{_} = -(w - d * I_hat{_}) * free{_} / det{_}
dR_dB{_} = -denom{_} * free{_} / det{_}
da_dB{_} = (gam + d * (R_hat{_} - B{_} * dR_dB{_})) / (denom{_} * denom{_})
"""
_ENDEMIC_POINT = _ENDEMIC_PAIR + _DENOM + "a{_} = B{_} / denom{_}\n"
_ENDEMIC = _ENDEMIC_POINT + _ENDEMIC_SLOPES
_CONSTANTS = "d, w, gam, sig = params.delta, params.omega, params.gamma, params.sigma\n"
# the float forms check these where they are computed; the array forms and
# the kernel do not
_CHECKS = {
    "disc": "if not disc > 0.0: raise DegenerateDiscriminant(f'{disc=!r}, {B=!r}')",
    "det": "if abs(det) < SINGULAR_DET_TOL: raise SingularSystem(f'{det=!r}, {B=!r}')",
}


def _float_and_array(name, args, text, returns):
    """``text`` compiled for Python floats (checked) and for numpy arrays."""
    text, floats = _CONSTANTS + text, dict(globals(), sqrt=math.sqrt)
    return (_compile_text(f"{name}_float", args, text, returns, floats, _CHECKS),
            _compile_text(f"{name}_array", args, text, returns, {"sqrt": np.sqrt}))


_point_float, _point_array = _float_and_array(
    "endemic_point", "B, params", _ENDEMIC_POINT, "b, disc, I_hat, R_hat, a")
_slopes_float, _slopes_array = _float_and_array(
    "endemic_slopes", "B, I_hat, R_hat, params", _DENOM + _ENDEMIC_SLOPES,
    "dI_dB, dR_dB, da_dB")


def endemic_state(
    B: float,
    params: ModelParams,
    strategies: StrategySpec | None = None,
) -> EquilibriumPoint:
    """Closed-form endemic equilibrium at transmission rate ``B``.

    ``B`` must exceed ``params.sigma``; when ``strategies`` is given, ``B``
    must additionally lie in ``[betas[0], betas[-1]]``.

    Raises
    ------
    OutOfRange
        If ``B`` is outside the admissible range.
    DegenerateDiscriminant
        If the quadratic discriminant is not positive (cannot happen for
        validated parameters).
    """
    B = float(B)
    if strategies is not None:
        lo, hi = strategies.betas[0], strategies.betas[-1]
        if not lo <= B <= hi:
            raise OutOfRange(f"B={B!r} outside strategy range [{lo!r}, {hi!r}]")
    if not B > params.sigma:
        raise OutOfRange(f"B={B!r} must exceed sigma={params.sigma!r}")
    b, disc, I_hat, R_hat, a = _point_float(B, params)
    return EquilibriumPoint(B=B, I_hat=I_hat, R_hat=R_hat, a=a, b=b, disc=disc)


def endemic_derivatives(
    eq: EquilibriumPoint, params: ModelParams
) -> EquilibriumPoint:
    """Fill the B-derivatives of an equilibrium point from its ``B``,
    ``I_hat`` and ``R_hat``; raises :class:`SingularSystem` when the
    sensitivity determinant is below ``SINGULAR_DET_TOL`` in magnitude."""
    dI, dR, da = _slopes_float(eq.B, eq.I_hat, eq.R_hat, params)
    return replace(eq, dI_dB=dI, dR_dB=dR, da_dB=da)


def endemic_curve(B: np.ndarray, params: ModelParams) -> dict[str, np.ndarray]:
    """Vectorized endemic quantities over an array of transmission rates.

    Returns arrays ``I_hat``, ``R_hat``, ``a``, ``dI_dB``, ``dR_dB``,
    ``da_dB`` (same shape as ``B``), equal to the per-rate results of
    :func:`endemic_derivatives` bit for bit.  No range checks beyond
    ``B > sigma``.
    """
    B = np.asarray(B, dtype=float)
    if np.any(B <= params.sigma):
        raise OutOfRange("every B must exceed sigma")
    _, _, I_hat, R_hat, a = _point_array(B, params)
    dI, dR, da = _slopes_array(B, I_hat, R_hat, params)
    return dict(I_hat=I_hat, R_hat=R_hat, a=a, dI_dB=dI, dR_dB=dR, da_dB=da)


@dataclass(frozen=True)
class OptimalAllocation:
    """Budget-optimal strategy mix and the endemic state it induces.

    ``xstar`` has at most two nonzero entries, at adjacent (0-based) indices
    ``istar`` and ``istar + 1``; ``betastar`` is the induced average
    transmission rate, and ``endemic`` the equilibrium point at ``betastar``
    (with derivatives filled).
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
    eq = endemic_derivatives(
        endemic_state(betastar, params, strategies), params
    )
    return OptimalAllocation(xstar=x, betastar=betastar, istar=istar, endemic=eq)
