"""Anytime peak-infection certification.

The epidemic storage

    I_hat*log(I_hat/I) - (I_hat - I) + (a/2)*(R_hat - R)^2
        + (upsilon^2/2)*(B - betastar)^2

(endemic quantities taken at B) never exceeds the closed-loop Lyapunov
value, which itself never exceeds its initial level ``alpha``.  The largest
infectious fraction compatible with ``storage <= alpha`` therefore bounds
the trajectory peak.  For fixed B the level-set supremum reduces to a
convex problem in I alone, whose level is the storage at the R minimizing
it: :func:`_storage`'s one expression, the audit's too.  Maximizing over a
transmission-rate grid and the target rate ``betastar`` yields the
certified peak ratio: one bisection on I for all rates at once.
:func:`_decide` is the one comparison of a level with ``alpha``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .equilibrium import OptimalAllocation, endemic_state
from .params import ModelParams, usable_gain

__all__ = [
    "BoundQuery",
    "BoundResult",
    "CertificationReport",
    "epidemic_storage",
    "peak_ratio_at",
    "peak_bound",
    "certify_trajectory",
    "default_grid",
]

# the width of the last cell of a bisection of [0, 1], whose upper end is
# the answer; where the level is flat at the root, the margin of a proven
# decision moves the answer further: example1's at B = 0.15 and level 8e-4
# (its level at I_hat within 1e-18 of alpha) ends 1.95e-9 above the root
BISECTION_TOL = 1e-10
DEFAULT_GRID_SIZE = 30

# math.log elementwise: the kernel's log, not numpy's SIMD one
_log = np.vectorize(math.log, otypes=[float])


def _rate_penalty(B, betastar: float, upsilon: float):
    """The storage's rate term ``0.5 * upsilon^2 * (B - betastar)^2``."""
    b_dev = B - betastar
    return 0.5 * (upsilon * upsilon) * (b_dev * b_dev)


def epidemic_storage(I, R, B, alloc: OptimalAllocation,
                     params: ModelParams, upsilon: float):
    """Epidemic part of the Lyapunov function; elementwise on arrays.

    Nonnegative on the state space, and zero exactly at the target
    equilibrium ``(I_hat_betastar, R_hat_betastar, betastar)``.  Every
    element is evaluated as a Python float would be: ``math.log`` and
    squares as products.  A rate that :func:`endemic_state` rejects raises
    what it raises.
    """
    I = np.asarray(I, dtype=float)
    if not np.all(I > 0.0):  # NaN included
        raise ValueError("I must be positive")
    eq = endemic_state(B, params)
    val = _storage(eq.I_hat / I, eq.R_hat - np.asarray(R, dtype=float), I, eq.I_hat,
                   eq.a, _rate_penalty(eq.B, alloc.betastar, upsilon), _log)
    return val if val.ndim else float(val)


def _storage(q, r_dev, I, I_hat, a, base, log):
    """The epidemic storage at ``I`` from ``q = I_hat/I`` and ``r_dev =
    R_hat - R``, elementwise: the one text of its expression."""
    return I_hat * log(q) - (I_hat - I) + 0.5 * a * (r_dev * r_dev) + base


@dataclass(frozen=True)
class BoundQuery:
    """Inputs of a peak-bound computation.

    ``alpha`` is the storage level (typically the Lyapunov value of the
    initial state); ``grid`` the transmission rates at which the per-rate
    convex problems are solved (such as :func:`default_grid`'s), kept as a
    read-only copy.  ``upsilon`` is the feedback gain, which
    :func:`epgtool.params.usable_gain` must accept.
    """

    alloc: OptimalAllocation
    params: ModelParams
    upsilon: float
    alpha: float
    grid: np.ndarray

    def __post_init__(self):
        grid = np.array(self.grid, dtype=float)
        grid.flags.writeable = False
        if grid.ndim != 1:
            raise ValueError(f"grid must be one-dimensional, got shape {grid.shape}")
        if grid.size < 2:
            raise ValueError("grid must contain at least two points")
        object.__setattr__(self, "grid", grid)
        if not self.alpha >= 0.0:  # NaN included
            raise ValueError(f"alpha must be nonnegative, got {self.alpha!r}")
        if not usable_gain(self.upsilon):
            raise ValueError(f"upsilon must be a usable gain, got {self.upsilon!r}")


def default_grid(strategies, grid_size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Equidistant grid spanning ``[betas[0], betas[-1]]``."""
    return np.linspace(strategies.betas[0], strategies.betas[-1], grid_size)


@dataclass(frozen=True)
class BoundResult:
    """Outcome of :func:`peak_bound`.

    ``grid`` holds the query's rates as a read-only array, which ``==``
    and ``hash`` do not read; ``peak_ratio_at(query, result.grid)`` gives
    their ratios.  ``peak_ratio`` is the largest value over the grid and
    ``betastar``, attained at ``argmax_B`` (possibly ``betastar``), and
    ``certified_peak`` the absolute bound it gives on I.
    """

    grid: np.ndarray = field(compare=False)
    peak_ratio: float
    argmax_B: float
    certified_peak: float
    alpha: float
    upsilon: float

    def as_dict(self) -> dict:
        """JSON-ready mapping: the grid, the largest ratio and the certified peak."""
        return {
            "upsilon": self.upsilon,
            "alpha": self.alpha,
            "grid": self.grid.tolist(),
            "peak_ratio": self.peak_ratio,
            "argmax_B": self.argmax_B,
            "certified_peak": self.certified_peak,
        }


def _level(I, I_hat, R_hat, a, base, log=_log):
    """Storage minimized over R at infection level ``I``, elementwise: at
    ``R = 1 - I`` where ``R_hat`` exceeds that room, else at ``R_hat``.
    ``log`` is ``math.log`` elementwise unless a caller passes another."""
    pen = R_hat - (1.0 - I)
    return _storage(I_hat / I, np.maximum(pen, 0.0), I, I_hat, a, base, log)


def _terms(query: BoundQuery, B: np.ndarray):
    """``(I_hat, R_hat, a, base, eps)`` of the rates ``B``; ``eps`` is
    :func:`_decide`'s room."""
    eq = endemic_state(B, query.params)
    I_hat, R_hat, a = eq.I_hat, eq.R_hat, eq.a
    base = _rate_penalty(B, query.alloc.betastar, query.upsilon)
    hl = I_hat * np.abs(np.log(I_hat))
    eps = (2.0 ** -39 * hl + 2.0 ** -47 * (1.0 + I_hat + hl + a * (1.0 + np.abs(R_hat)) ** 2 + base)
           + 2.0 ** -47 * query.alpha)
    return I_hat, R_hat, a, base, eps


def _start(I_hat, base, alpha):
    """``I_hat*(1 + s + sqrt(s*s + 2*s))``, ``s = d/I_hat``, ``d = alpha -
    base`` clipped to ``[0, 1]`` (1 already puts it past 1), capped at 1:
    above the exact root, as ``x - 1 - ln x >= (x - 1)**2/(2*x)``, ``x >= 1``."""
    d = np.clip(alpha - base, 0.0, 1.0)
    return np.minimum(I_hat + d + np.sqrt(d * (d + 2.0 * I_hat)), 1.0)


def _margin(I, R_hat, a, level, alpha):
    """How far :func:`_level` with ``math.log`` at ``I`` in ``[I_hat, 1]``,
    compared with ``alpha``, may lie from the exact level: see :func:`_decide`."""
    return 2.0 ** -49 * (I * (1.0 + a * R_hat) + np.abs(level)) + 2.0 ** -52 * alpha + 2.0 ** -1070


def _decide(I, I_hat, R_hat, a, base, eps, alpha):
    """Whether each term is inside at ``I``, and its level: outside only
    where the exact level exceeds ``alpha``.  The level is numpy's log's,
    or ``math.log``'s where that lies within ``eps`` of ``alpha``, and
    there a point is inside where ``base`` and the level less
    :func:`_margin` are at most ``alpha``.

    With ``u = 2**-53``, ``math.log``'s level at ``I`` in ``[I_hat, 1]`` is
    within ``5.02*u*I + 2.01*u*a*R_hat*I + 4.01*u*g`` of the exact ``g``
    (``2**-1071`` more if subnormal): rounding ``I_hat/I`` adds
    ``1.01*u*I_hat``; the log (an ulp) and the product ``3.02*u*(I -
    I_hat)``, a bound on ``|I_hat*ln(I_hat/I)|``; ``I_hat - I`` and its sum
    ``2*u*(I - I_hat)``; the penalty ``2.01*u*a*R_hat*I``, as ``pen <= I``
    is off by ``2.01*u*R_hat``; its products and the last two sums
    ``4.01*u*g``, as each part of ``g`` is nonnegative.
    :func:`_margin` adds ``u*alpha`` for the comparison.  With ``l = |ln
    I_hat|`` and ``A = a*(1 + |R_hat|)**2``, so that ``g <= 1 + A/2 +
    base``, and numpy's log within ``2**-42*l + 2**-1002`` of ``math.log``
    (the one assumption made of it, 1024 times their largest
    disagreement), either level is within ``E = 2**-42*I_hat*l + 8*u*(1 +
    I_hat + I_hat*l + A + base)`` of ``g``.  ``eps >= 8*E +
    2**-47*alpha``, computed to ``2**-41`` relative, exceeds twice that
    with the margin and the roundings: outside ``eps`` of ``alpha`` both
    levels decide alike.
    """
    level = _level(I, I_hat, R_hat, a, base, log=np.log)
    inside = level <= alpha
    near = np.abs(level - alpha) <= eps
    if np.count_nonzero(near):
        I_near = np.broadcast_to(I, level.shape)[near]
        terms = [t[near] for t in (I_hat, R_hat, a, base)]
        level[near] = at = _level(I_near, *terms)
        margin = _margin(I_near, *terms[1:3], at, alpha)
        inside[near] = (at - margin <= alpha) & (terms[3] <= alpha)
    return inside, level


def peak_ratio_at(query: BoundQuery,
                  B: float | np.ndarray) -> float | None | np.ndarray:
    """Largest ``I / I_star`` on the storage level set at fixed ``B``;
    elementwise in ``B``.

    The storage is least over R at the clamp of ``R_hat`` into ``[0, 1 -
    I]``: :func:`_level`, convex in I and least at ``I_hat``.  The rates
    bisect ``[0, 1]`` in lockstep around their brackets, from ``I_hat`` to
    the :func:`_start`, or on to 1 where a rate is inside there: midpoints
    at or below a bracket are inside, at or above it outside, and
    :func:`_decide` says between.  A bracket of width 0, as at a cap of 1,
    is the answer.  Up to the rounding of the terms the answer lies above
    the exact root, by at most ``BISECTION_TOL`` unless the level is flat
    there.  A float ``B`` gives a float, or ``None`` when even the minimum
    exceeds ``alpha``; an array gives an array with NaN there.  A rate that
    :func:`endemic_state` rejects raises what it raises.
    """
    terms = _terms(query, np.asarray(B, dtype=float).ravel())
    I_hat, base = terms[0], terms[3]
    feasible = _decide(I_hat, *terms, query.alpha)[0]
    # an infeasible rate's bracket has width 0: it takes no halving
    hi = np.where(feasible, _start(I_hat, base, query.alpha), I_hat)
    # inside at the start, which lies past I_hat but where it rounds there
    up = (base < query.alpha) & _decide(hi, *terms, query.alpha)[0]
    lo, hi = np.where(up, hi, I_hat), np.where(up, 1.0, hi)
    # a bracket of width 0 is its answer; the others' cells start at [0, 1]
    # and halve together
    right = hi.copy()
    k = np.flatnonzero(lo < hi)
    lo, hi, terms = lo[k], hi[k], [t[k] for t in terms]
    left, cell = np.zeros(k.size), np.ones(k.size)
    while np.any(cell - left > BISECTION_TOL):
        mid = 0.5 * (left + cell)
        inside = (mid <= lo) | ((mid < hi) & _decide(mid, *terms, query.alpha)[0])
        left, cell = np.where(inside, mid, left), np.where(inside, cell, mid)
    right[k] = cell
    ratio = np.where(feasible, right, np.nan) / query.alloc.endemic.I_hat
    if np.ndim(B):
        return ratio.reshape(np.shape(B))
    r = float(ratio[0])
    return None if math.isnan(r) else r


def peak_bound(query: BoundQuery) -> BoundResult:
    """The largest peak ratio over the grid and ``betastar``: one bisection
    on the envelope ``f(I) = min over B of level_B(max(I, I_hat(B)))``.

    Each level's slope ``1 - I_hat/I + a*pen`` is nonnegative on ``[I_hat,
    1]``, so ``f`` is nondecreasing, and a rate above ``alpha`` stays above
    it at larger I: each new lower end drops the rates above it.  The
    bracket runs from the largest feasible ``I_hat`` to the largest
    :func:`_start`, or on to 1, and is bisected as in :func:`peak_ratio_at`,
    on the points each rate meets alone: the bound is the largest of its
    ratios, and more rates never lower it.  ``argmax_B`` is the rate with
    the least level at the last lower end, the first in grid order, with
    ``betastar``, feasible at every ``alpha >= 0``, last.
    """
    rates = np.append(query.grid, query.alloc.betastar)
    terms = _terms(query, rates)
    live = np.flatnonzero(_decide(terms[0], *terms, query.alpha)[0])
    terms = [t[live] for t in terms]
    lo, hi = float(terms[0].max()), float(_start(terms[0], terms[3], query.alpha).max())
    inside, level = _decide(hi, *terms, query.alpha)
    if np.any(inside & (terms[3] < query.alpha)):  # a rate inside at the start
        lo, hi = hi, 1.0
    elif lo < hi:
        inside, level = _decide(lo, *terms, query.alpha)
    live, terms, level = live[inside], [t[inside] for t in terms], level[inside]
    left, right = (0.0, 1.0) if lo < hi else (hi, hi)
    while right - left > BISECTION_TOL:
        mid = 0.5 * (left + right)
        if lo < mid < hi:
            inside, at_mid = _decide(mid, *terms, query.alpha)
            kept = np.count_nonzero(inside)
            if kept:
                lo, level = mid, at_mid[inside]
                if kept < live.size:
                    live, terms = live[inside], [t[inside] for t in terms]
            else:
                hi = mid
        left, right = (mid, right) if mid <= lo else (left, mid)
    peak_ratio = right / query.alloc.endemic.I_hat
    return BoundResult(
        grid=query.grid,
        peak_ratio=peak_ratio,
        argmax_B=float(rates[live[np.argmin(level)]]),
        certified_peak=peak_ratio * query.alloc.endemic.I_hat,
        alpha=query.alpha,
        upsilon=query.upsilon,
    )


@dataclass(frozen=True)
class CertificationReport:
    """Observed trajectory peak versus the certified bound."""

    observed_peak: float
    peak_time: float
    certified_peak: float
    margin: float
    passed: bool
    peak_ratio: float
    alpha: float

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"peak I(t) = {self.observed_peak:.6g} at t = {self.peak_time:.6g} d; "
            f"certified bound {self.certified_peak:.6g} "
            f"(ratio {self.peak_ratio:.4f}, level {self.alpha:.6g}); "
            f"margin {self.margin:+.3g}: {verdict}"
        )


def certify_trajectory(traj, result: BoundResult) -> CertificationReport:
    """Compare a simulated peak against a bound from the same configuration.

    Uses the full-resolution peak tracked during integration, not the
    sampled maximum.
    """
    margin = result.certified_peak - traj.observed_peak
    return CertificationReport(
        observed_peak=traj.observed_peak,
        peak_time=traj.observed_peak_time,
        certified_peak=result.certified_peak,
        margin=margin,
        passed=margin >= 0.0,
        peak_ratio=result.peak_ratio,
        alpha=result.alpha,
    )
