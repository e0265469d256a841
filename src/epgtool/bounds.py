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
transmission-rate grid and the target rate ``betastar``, whose level set
holds the target state at every ``alpha >= 0``, yields the certified peak
ratio.
:func:`peak_ratio_at` builds each rate's terms and :func:`_sup_level`, the
one solver, finds the largest I whose level is at most ``alpha`` for all
rates at once: the upper end of the band around the root that
:func:`_band` places with numpy's log and Newton steps and verifies with a
proven error bound, where it is no wider than ``BISECTION_TOL``, and
otherwise the end of a bisection with ``math.log``.
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

BISECTION_TOL = 1e-10
DEFAULT_GRID_SIZE = 30
# the Newton steps that place _band's ends; a name for tests, not a setting
_NEWTON_STEPS = 7

# math.log elementwise: the kernel's log, not numpy's SIMD one
_log = np.vectorize(math.log, otypes=[float])
# numpy's log, for the band of _band only
_fast_log = np.log


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
    convex problems are solved (defaults to ``grid_size`` equidistant points
    spanning the strategy range), kept as a read-only copy.  ``upsilon`` is
    the feedback gain, which :func:`epgtool.params.usable_gain` must accept.
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

    ``grid`` holds the query's rates and ``ratios`` their peak ratios, NaN
    where infeasible, as read-only arrays that ``per_B`` pairs; ``==`` and
    ``hash`` read the other fields only.  ``peak_ratio`` is the largest value
    over the grid and ``betastar``, attained at ``argmax_B`` (possibly
    ``betastar``), and ``certified_peak`` the absolute bound it gives on I.
    """

    grid: np.ndarray = field(compare=False)
    ratios: np.ndarray = field(compare=False)
    peak_ratio: float
    argmax_B: float
    certified_peak: float
    alpha: float
    upsilon: float

    @property
    def per_B(self) -> tuple[tuple[float, float | None], ...]:
        """Each ``(B, ratio)``, ``None`` where infeasible, built per read."""
        return tuple(self._pairs())

    def _pairs(self):
        return zip(self.grid.tolist(), [None if math.isnan(r) else r for r in self.ratios.tolist()])

    def as_dict(self) -> dict:
        """JSON-ready mapping: grid, per-rate ratios (null = infeasible),
        the aggregated ratio, and the certified peak."""
        return {
            "upsilon": self.upsilon,
            "alpha": self.alpha,
            "grid": self.grid.tolist(),
            "per_B": list(map(list, self._pairs())),
            "peak_ratio": self.peak_ratio,
            "argmax_B": self.argmax_B,
            "certified_peak": self.certified_peak,
        }


def _level(I, I_hat, R_hat, a, base, log=_log):
    """Storage minimized over R at infection level ``I``, elementwise: at
    ``R = 1 - I`` where ``R_hat`` exceeds that room, else at ``R_hat``.
    ``log`` is ``math.log`` elementwise unless a caller passes another."""
    pen = R_hat - (1.0 - I)
    return _storage(I_hat / I, np.where(pen > 0.0, pen, 0.0), I, I_hat, a, base, log)


def _band(I_hat, R_hat, a, base, alpha):
    """Floats ``lo < hi`` per rate: every float ``I`` in ``[I_hat, lo]``
    has ``_level(I) <= alpha`` and every one in ``[hi, 1]`` has
    ``_level(I) > alpha``.  An end that fails to verify is ``-/+inf``.

    The exact level ``g`` is nondecreasing on ``[I_hat, 1]``: its slope
    ``1 - I_hat/I + a*pen`` is nonnegative there.  With ``u = 2**-53``,
    ``l = |ln I_hat| >= |ln(I_hat/I)|`` and ``A = a*(1 + |R_hat|)**2``, the
    float level there, with ``math.log`` or ``_fast_log``, is within
    ``E = 2**-42*I_hat*l + 8*u*(1 + I_hat + I_hat*l + A + base)`` of ``g``.
    Rounding ``I_hat/I`` (``u`` relative, or ``2**-1075`` if subnormal)
    moves ``I_hat*log`` by ``1.01*u*I_hat + 2**-1074``; ``math.log`` is
    within ``2*u*l`` of the exact log, and ``_fast_log`` within
    ``2**-42*l + 2**-1002`` of ``math.log`` by the one assumption made of
    numpy's log: that it lies within ``2**-42*|ln x| + 2**-1002`` of
    ``math.log`` at every ``x``, some 1024 times their largest
    disagreement (1 ulp).  In :func:`_storage`, the product ``I_hat*log``
    adds ``u*I_hat*l``; ``pen`` is off by ``2.01*u*(1 + |R_hat|)`` and the
    penalty by ``3.03*u*A``; the four sums, ``I_hat - I`` (at most 1)
    first, add ``4.01*u*(I_hat*l + 1 + A/2 + base)``.  ``eps`` is at least
    ``4*E + 2**-48*alpha``, computed to ``2**-41`` relative.  An end is
    kept only in ``[I_hat, 1]`` and where its level with ``_fast_log`` is
    ``<= alpha - 2*eps`` (``lo``) or ``> alpha + 2*eps`` (``hi``), each
    right side rounded by at most ``u*(alpha + 2*eps)``.  So for a float
    ``I`` in ``[I_hat, lo]``, ``_level(I) <= g(I) + E <= g(lo) + E <=
    level(lo) + 2*E <= alpha - 2*eps + u*(alpha + 2*eps) + 2*E <= alpha``,
    and mirrored, strictly, on ``[hi, 1]``.  A NaN fails both checks.

    Where the ends land needs no proof.  The start
    ``I_hat*(1 + s + sqrt(s*s + 2*s))``, ``s = (alpha - base)/I_hat``,
    capped at 1, is above the root, as ``x - 1 - ln x >= (x - 1)**2/(2*x)``
    for ``x >= 1``, unless the root lies past 1.  So only a capped start
    can be capped: where its level at 1 passes the ``lo`` check, the band
    is ``[1, inf]``.  The other terms, in a call of their own, take
    ``_NEWTON_STEPS`` (7) Newton steps ``r`` on the level with
    ``_fast_log``, which stay above the root of a convex level.  ``lo`` is
    ``r - delta``, or 1 where that lies past 1.  ``delta`` solves
    ``g'(r)*delta + I_hat*delta**2/2 = 4*eps``: ``g'' >= I_hat`` on
    ``(0, 1]``, so ``g`` gains ``4*eps`` over ``delta`` even where flat.
    """
    terms = I_hat, R_hat, a, base
    with np.errstate(all="ignore"):
        def slope(I):  # with I_hat/I and the R-penalty, which the level shares
            q, pen = I_hat / I, np.maximum(R_hat - (1.0 - I), 0.0)
            return q, pen, 1.0 - q + a * pen

        hl = I_hat * np.abs(_fast_log(I_hat))
        eps = 2.0 ** -40 * hl + 2.0 ** -48 * (
            1.0 + I_hat + hl + a * (1.0 + np.abs(R_hat)) ** 2 + base + alpha)
        s = (alpha - base) / I_hat
        r = np.minimum(I_hat * (1.0 + s + np.sqrt(s * s + 2.0 * s)), 1.0)
        cap = r == 1.0
        if cap.any():
            cap[cap] = _level(1.0, *(t[cap] for t in terms), log=_fast_log) <= alpha - 2.0 * eps[cap]
            if cap.any():
                lo, hi = np.ones(r.shape), np.full(r.shape, np.inf)
                if not cap.all():
                    lo[~cap], hi[~cap] = _band(*(t[~cap] for t in terms), alpha)
                return lo, hi
        for _ in range(_NEWTON_STEPS):
            q, pen, g1 = slope(r)
            r = r - (_storage(q, pen, r, I_hat, a, base, _fast_log) - alpha) / g1
        g1 = slope(r)[2]
        delta = 8.0 * eps / (g1 + np.sqrt(g1 * g1 + 8.0 * I_hat * eps))
        lo, hi = np.minimum(r - delta, 1.0), r + delta
        lo = np.where((lo >= I_hat)
                      & (_level(lo, *terms, log=_fast_log) <= alpha - 2.0 * eps),
                      lo, -np.inf)
        hi = np.where((hi <= 1.0)
                      & (_level(hi, *terms, log=_fast_log) > alpha + 2.0 * eps),
                      hi, np.inf)
    return lo, hi


def _sup_level(I_hat, R_hat, a, base, alpha):
    """Largest ``I in [I_hat, 1]`` with ``_level(I) <= alpha``, per term of
    :func:`_band`'s arguments: NaN where the level at ``I_hat`` exceeds
    ``alpha``, ``I_hat`` where it equals it, 1 where the level at 1 is at
    most ``alpha``, and otherwise the upper end of a bracket around the
    root no wider than ``BISECTION_TOL``.  A NaN level at ``I_hat`` is
    bisected.

    The bracket is :func:`_band`'s where its ends verified within
    ``BISECTION_TOL``, and a lower end of 1 is the cap.  For the rest,
    ``math.log`` decides the cap and bisects from ``I_hat`` to the verified
    upper end or 1, testing the width at every halving; not from the lower
    end, which would make the first midpoint the Newton iterate, within
    rounding of the root, where rounding decides on which side it lies.
    There the bracket is around the float level's root, which can lie more
    than ``BISECTION_TOL`` above the exact one where the level is flat:
    example1 at ``B = 0.15`` and level 8e-4 ends 1.56e-10 above it.
    """
    # _level at I_hat, whose log is of 1.0 and so exactly 0.0
    slack = alpha - _level(I_hat, I_hat, R_hat, a, base, log=np.zeros_like)
    sup = np.where(slack < 0.0, np.nan, I_hat)
    k = np.flatnonzero(~(slack <= 0.0))  # NaN slack is bisected
    terms = [t[k] for t in (I_hat, R_hat, a, base)]
    lo, hi = _band(*terms, alpha)
    sup[k] = np.where(lo == 1.0, 1.0, hi)
    j = np.flatnonzero((lo < 1.0) & (hi - lo > BISECTION_TOL))
    if j.size:
        terms = [t[j] for t in terms]
        hi = np.minimum(hi[j], 1.0)
        # a capped term's bracket is [1, 1]
        lo = np.where(_level(np.ones(j.size), *terms) <= alpha, 1.0, terms[0])
        wide = hi - lo > BISECTION_TOL
        while wide.any():
            mid = 0.5 * (lo + hi)
            b = _level(mid, *terms) <= alpha
            lo, hi = np.where(wide & b, mid, lo), np.where(wide & ~b, mid, hi)
            wide = hi - lo > BISECTION_TOL
        sup[k[j]] = hi
    return sup


def peak_ratio_at(query: BoundQuery,
                  B: float | np.ndarray) -> float | None | np.ndarray:
    """Largest ``I / I_star`` on the storage level set at fixed ``B``;
    elementwise in ``B``.

    For fixed (I, B) the storage is quadratic in R, minimized at the clamp
    of ``R_hat`` into ``[0, 1 - I]``; substituting gives a convex function
    of I alone, minimized at ``I_hat``: :func:`_level` on the terms
    ``(I_hat, R_hat, a, base)`` of the rate.  :func:`_sup_level` finds the
    largest ``I`` keeping it below ``alpha``, up to the level's rounding
    never understating it and overstating it by at most ``BISECTION_TOL``,
    or by more where the level is flat at the root (see :func:`_sup_level`).
    A float ``B`` gives a float, or ``None`` when even the minimum exceeds
    ``alpha``; an array of rates gives an array with NaN there.  A rate
    that :func:`endemic_state` rejects raises what it raises.
    """
    Bs = np.asarray(B, dtype=float).ravel()
    eq = endemic_state(Bs, query.params)
    terms = eq.I_hat, eq.R_hat, eq.a, _rate_penalty(Bs, query.alloc.betastar, query.upsilon)
    ratio = _sup_level(*terms, query.alpha) / query.alloc.endemic.I_hat
    if np.ndim(B):
        return ratio.reshape(np.shape(B))
    r = float(ratio[0])
    return None if math.isnan(r) else r


def peak_bound(query: BoundQuery) -> BoundResult:
    """Maximize the per-rate peak ratios over the grid and ``betastar``.

    One :func:`peak_ratio_at` call solves all of them, and ``nanargmax``
    picks the first largest ratio of its array.  ``betastar`` is taken
    last, so a grid rate wins a tie; its ratio is never NaN, since its
    level set holds the target state at every ``alpha >= 0``.  The result
    keeps the grid's ratios as an array: no per-rate pair is built here.
    """
    rates = np.append(query.grid, query.alloc.betastar)
    ratios = peak_ratio_at(query, rates)
    ratios.flags.writeable = False
    k = int(np.nanargmax(ratios))
    peak_ratio = float(ratios[k])
    return BoundResult(
        grid=query.grid,
        ratios=ratios[:-1],
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
