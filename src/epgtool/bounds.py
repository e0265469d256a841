"""Anytime peak-infection certification.

The epidemic storage

    I_hat*log(I_hat/I) - (I_hat - I) + (a/2)*(R_hat - R)^2
        + (upsilon^2/2)*(B - betastar)^2

(endemic quantities taken at B) never exceeds the closed-loop Lyapunov
value, which itself never exceeds its initial level ``alpha``.  The largest
infectious fraction compatible with ``storage <= alpha`` therefore bounds
the trajectory peak.  For fixed B the level-set supremum reduces to a
one-dimensional convex problem solved by bisection; maximizing over a
transmission-rate grid and the target rate ``betastar``, whose level set
holds the target state at every ``alpha >= 0``, yields the certified peak
ratio.  The per-rate problems are independent, so :func:`peak_ratio_at` is
elementwise and bisects every rate in lockstep on numpy arrays; each rate
takes the float operations of a per-rate bisection, in the same order, so
the ratios are that bisection's bit for bit.

Every value is computed with ``math.log``.  numpy's log, faster on arrays
but free to differ in the last bit, is used for decisions only: each
halving asks whether the level lies below ``alpha``, and
:func:`_level_below` answers from numpy's log widened by a room far larger
than that last bit, calling ``math.log`` only where the room cannot tell.
The answers, and so the ratios, are ``math.log``'s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

BISECTION_TOL = 1e-10
DEFAULT_GRID_SIZE = 30

# math.log elementwise: the kernel's log, not numpy's SIMD one
_log = np.vectorize(math.log, otypes=[float])
# numpy's log, for the decisions of _level_below only
_fast_log = np.log
# math.log's value lies within this of _fast_log's: 2**-40 relative, about
# 4096 times their largest disagreement (1 ulp), and an absolute floor so
# that a log of 0 has room too
_LOG_ROOM = 2.0 ** -40
_LOG_FLOOR = 2.0 ** -1000


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
    r_dev = eq.R_hat - np.asarray(R, dtype=float)
    b_dev = eq.B - alloc.betastar
    val = (
        eq.I_hat * _log(eq.I_hat / I)
        - (eq.I_hat - I)
        + 0.5 * eq.a * (r_dev * r_dev)
        + 0.5 * (upsilon * upsilon) * (b_dev * b_dev)
    )
    return val if val.ndim else float(val)


@dataclass(frozen=True)
class BoundQuery:
    """Inputs of a peak-bound computation.

    ``alpha`` is the storage level (typically the Lyapunov value of the
    initial state); ``grid`` the transmission rates at which the per-rate
    convex problems are solved (defaults to ``grid_size`` equidistant points
    spanning the strategy range).  ``upsilon`` is the feedback gain, which
    :func:`epgtool.params.usable_gain` must accept.
    """

    alloc: OptimalAllocation
    params: ModelParams
    upsilon: float
    alpha: float
    grid: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
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

    ``per_B`` pairs each grid rate with its peak ratio or ``None`` when the
    level is infeasible there; ``peak_ratio`` is the largest value over the
    grid and ``betastar``, attained at ``argmax_B`` (possibly ``betastar``),
    and ``certified_peak`` the corresponding absolute bound on the infectious
    fraction.
    """

    per_B: tuple[tuple[float, float | None], ...]
    peak_ratio: float
    argmax_B: float
    certified_peak: float
    alpha: float
    upsilon: float

    def as_dict(self) -> dict:
        """JSON-ready mapping: grid, per-rate ratios (null = infeasible),
        the aggregated ratio, and the certified peak."""
        return {
            "upsilon": self.upsilon,
            "alpha": self.alpha,
            "grid": [B for B, _ in self.per_B],
            "per_B": [[B, r] for B, r in self.per_B],
            "peak_ratio": self.peak_ratio,
            "argmax_B": self.argmax_B,
            "certified_peak": self.certified_peak,
        }


def _level(I, I_hat, R_hat, a, base):
    """Storage minimized over R at infection level ``I``, elementwise: the
    R-penalty applies only where ``R_hat`` exceeds the room ``1 - I``."""
    pen = R_hat - (1.0 - I)
    pen = np.where(pen > 0.0, pen, 0.0)
    return I_hat * _log(I_hat / I) + I - I_hat + 0.5 * a * pen * pen + base


def _level_below(I, I_hat, R_hat, a, base, alpha):
    """``_level(I, ...) <= alpha`` elementwise, decided as ``math.log``
    decides it but mostly on numpy's log; arrays of one shape.

    For ``I > 0``, as every midpoint is, a finite log means ``I_hat > 0``,
    so every float operation of the level after the log is nondecreasing
    in the log's value.  The level is evaluated at numpy's log minus and
    plus ``room``, which holds ``math.log``'s value between them: where
    both ends lie below ``alpha``, or both above, so does the level at
    ``math.log``'s value.  An element whose ends disagree, or whose log is
    not finite, goes to :func:`_level`, which takes ``math.log`` and raises
    where it raises.
    """
    with np.errstate(all="ignore"):
        L = _fast_log(I_hat / I)
        room = _LOG_ROOM * np.abs(L) + _LOG_FLOOR
        pen = R_hat - (1.0 - I)
        pen = np.where(pen > 0.0, pen, 0.0)
        quad = 0.5 * a * pen * pen
        # _level's operations after its log, in its order, at each end
        below = I_hat * (L + room) + I - I_hat + quad + base <= alpha
        above = I_hat * (L - room) + I - I_hat + quad + base > alpha
    k = np.flatnonzero(~((below | above) & np.isfinite(L)))
    if k.size:
        below[k] = _level(I[k], I_hat[k], R_hat[k], a[k], base[k]) <= alpha
    return below


def peak_ratio_at(query: BoundQuery,
                  B: float | np.ndarray) -> float | None | np.ndarray:
    """Largest ``I / I_star`` on the storage level set at fixed ``B``;
    elementwise in ``B``.

    For fixed (I, B) the storage is quadratic in R, minimized at the clamp
    of ``R_hat`` into ``[0, 1 - I]``; substituting gives a convex function
    of I alone, minimized at ``I_hat``.  The supremum is the largest
    ``I in [I_hat, 1]`` keeping that function below ``alpha``, found by
    bisection to ``BISECTION_TOL``.  The upper end of the final bracket is
    returned, so the ratio never understates the supremum (the minimized
    storage is at least ``alpha`` there).  A float ``B`` gives a float, or
    ``None`` when even the minimum exceeds ``alpha``; an array of rates
    gives an array with NaN there.  All rates are bisected in lockstep,
    each with the float operations of a per-rate bisection in the same
    order, so every ratio equals that bisection's bit for bit.  The two
    end values (``I_hat`` and 1) are evaluated with ``math.log``; each
    halving's decision comes from :func:`_level_below`, whose answers are
    ``math.log``'s, so the brackets are those of a ``math.log`` bisection
    and numpy's log never enters a value.  A rate that
    :func:`endemic_state` rejects raises what it raises.
    """
    Bs = np.asarray(B, dtype=float).ravel()
    eq = endemic_state(Bs, query.params)
    I_hat, R_hat, a = eq.I_hat, eq.R_hat, eq.a
    ups, b_dev = query.upsilon, Bs - query.alloc.betastar
    base = 0.5 * (ups * ups) * (b_dev * b_dev)
    alpha = query.alpha
    I_star = query.alloc.endemic.I_hat

    slack = alpha - _level(I_hat, I_hat, R_hat, a, base)
    capped = _level(1.0, I_hat, R_hat, a, base) <= alpha
    k = np.flatnonzero(~(slack <= 0.0) & ~capped)  # NaN slack is bisected
    terms = I_hat[k], R_hat[k], a[k], base[k]
    lo, hi = terms[0], np.ones(k.size)
    active = hi - lo > BISECTION_TOL
    while active.any():
        mid = 0.5 * (lo + hi)
        below = _level_below(mid, *terms, alpha)
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)
        active = hi - lo > BISECTION_TOL
    top = np.ones(Bs.shape)
    top[k] = hi
    # the first true condition decides, as the branches of one rate do
    ratio = np.select([slack < 0.0, slack == 0.0, capped],
                      [np.nan, I_hat / I_star, 1.0 / I_star], top / I_star)
    if np.ndim(B):
        return ratio.reshape(np.shape(B))
    r = float(ratio[0])
    return None if math.isnan(r) else r


def peak_bound(query: BoundQuery) -> BoundResult:
    """Maximize the per-rate peak ratios over the grid and ``betastar``.

    One :func:`peak_ratio_at` call solves all of them, and ``nanargmax``
    picks the first largest ratio of its array.  ``betastar`` is taken
    last, so a grid rate wins a tie; its ratio is never NaN, since its
    level set holds the target state at every ``alpha >= 0``.
    """
    rates = np.append(query.grid, query.alloc.betastar)
    ratios = peak_ratio_at(query, rates)
    k = int(np.nanargmax(ratios))
    per_B = tuple((B, None if math.isnan(r) else r)
                  for B, r in zip(query.grid.tolist(), ratios[:-1].tolist()))
    peak_ratio = float(ratios[k])
    return BoundResult(
        per_B=per_B,
        peak_ratio=peak_ratio,
        argmax_B=float(rates[k]),
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
