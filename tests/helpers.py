"""Shared oracles and random generators for the test suite.

Everything here is deliberately independent of the package's own closed
forms: equilibria come from a 1-D root bracket on the raw balance
equations, allocations from a brute-force simplex scan, and peak ratios
from a dense feasibility grid, from a scalar bisection run one rate at a
time, or from a bisection of the level in 50-digit decimal arithmetic;
the endemic pair also from the balance equations in that arithmetic.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext

import numpy as np
from scipy.optimize import brentq

from epgtool import (
    ModelParams,
    PolicyConfig,
    StrategySpec,
    check_assumptions,
)


def endemic_by_root_finder(B, params, xtol=1e-14):
    """Solve the endemic balance equations directly, bypassing the quadratic.

    Substitutes the recovered-balance relation R = gamma*I / (omega - delta*I)
    into the infection balance and brackets the root in I on (0, 1).
    """
    gam, d, w, s = params.gamma, params.delta, params.omega, params.sigma

    def residual(I):
        R = gam * I / (w - d * I)
        return (B - s) - (B * (I + R) - d * I)

    I = brentq(residual, 1e-12, 1.0 - 1e-12, xtol=xtol)
    R = gam * I / (w - d * I)
    return I, R


def endemic_infection_floor(strategies, params):
    """Uniform positive lower bound on I_hat over the strategy range.

    Evaluates the smaller quadratic root with the coefficient taken at the
    largest transmission rate and the discriminant deficit at the smallest,
    which under the standing assumptions under-estimates I_hat for every B
    in ``[betas[0], betas[-1]]``.
    """
    gam, d, w, s = params.gamma, params.delta, params.omega, params.sigma
    b_lo, b_hi = strategies.betas[0], strategies.betas[-1]
    b = gam * b_hi + w * (b_hi - d) + d * (b_hi - s)
    delta_star = b - math.sqrt(b * b - 4.0 * d * w * (b_lo - d) * (b_lo - s))
    return delta_star / (2.0 * d * (b_hi - d))


def equilibrium_residuals(I, R, B, params):
    """Residuals of the two endemic balance equations (elementwise)."""
    gam, d, w, s = params.gamma, params.delta, params.omega, params.sigma
    r1 = (B - s) - (B * (I + R) - d * I)
    r2 = gam * I - w * R + d * R * I
    return r1, r2


def brute_force_allocation(strategies, cstar, steps=400):
    """Scan a fine simplex grid for the cheapest-transmission feasible mix.

    The budget constraint carries a 1e-12 slack so grid points that meet it
    exactly in real arithmetic are not dropped to rounding.
    """
    n = strategies.n
    betas = np.asarray(strategies.betas)
    ctilde = np.asarray(strategies.ctilde)
    budget = cstar + 1e-12
    best_x, best_B = None, np.inf
    if n == 2:
        for k in range(steps + 1):
            x = np.array([k / steps, 1.0 - k / steps])
            if ctilde @ x <= budget and betas @ x < best_B:
                best_x, best_B = x, betas @ x
    elif n == 3:
        for i in range(steps + 1):
            x1 = i / steps
            for j in range(steps + 1 - i):
                x2 = j / steps
                x = np.array([x1, x2, 1.0 - x1 - x2])
                if ctilde @ x <= budget and betas @ x < best_B:
                    best_x, best_B = x, betas @ x
    else:
        raise NotImplementedError("oracle covers n in {2, 3}")
    return best_x, best_B


BEST_RESPONSE_TOL = 1e-12


def switch_rates(proto, x, p):
    """n-by-n matrix of revision rates; entry (i, j) is the i -> j rate.

    Diagonal entries are zero.  ``x`` is accepted for signature uniformity
    with state-dependent protocol families but unused by pairwise
    comparison protocols.
    """
    p = np.asarray(p, dtype=float)
    n = p.size
    T = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                T[i, j] = proto.phi(j, p[j] - p[i])
    return T


def best_response(p, tol=BEST_RESPONSE_TOL):
    """Indices of maximal payoff entries (ties included within ``tol``)."""
    p = np.asarray(p, dtype=float)
    top = float(p.max())
    return tuple(int(i) for i in np.flatnonzero(p >= top - tol))


def dense_grid_peak(B, alpha, alloc, params, upsilon, resolution=2000):
    """Largest grid-feasible I on the storage level set at fixed B.

    Feasibility of every (I, R) pair on a resolution x resolution grid over
    (0, 1] x [0, 1 - I] is checked directly against the storage value.
    Returns (I_max, quantum) where quantum is the I-grid spacing, or
    (None, quantum) if no grid point is feasible.
    """
    from epgtool import endemic_state

    eq = endemic_state(float(B), params)
    I_hat, R_hat, a = eq.I_hat, eq.R_hat, eq.a
    base = 0.5 * upsilon ** 2 * (B - alloc.betastar) ** 2
    Is = np.linspace(1.0 / resolution, 1.0, resolution)
    best = None
    for I in Is[::-1]:  # scan from the top; first feasible I is the max
        Rs = np.linspace(0.0, 1.0 - I, resolution)
        val = (
            I_hat * np.log(I_hat / I) - (I_hat - I)
            + 0.5 * a * (R_hat - Rs) ** 2 + base
        )
        if np.any(val <= alpha):
            best = float(I)
            break
    quantum = float(Is[1] - Is[0])
    return best, quantum


def peak_ratio_per_rate(query, B):
    """The peak ratio at one rate: :func:`sup_level_per_term` on the rate's
    terms, over ``I_star``."""
    from epgtool import endemic_state

    eq = endemic_state(float(B), query.params)
    ups, b_dev = query.upsilon, eq.B - query.alloc.betastar
    base = 0.5 * (ups * ups) * (b_dev * b_dev)
    sup = sup_level_per_term(eq.I_hat, eq.R_hat, eq.a, base, query.alpha)
    return None if sup is None else sup / query.alloc.endemic.I_hat


def sup_level_per_term(I_hat, R_hat, a, base, alpha, hi=1.0):
    """The largest ``I`` whose level is at most ``alpha``, for one term, by
    a scalar bisection in Python floats (``None`` where the level at
    ``I_hat`` exceeds ``alpha``): the per-rate body that the package's
    array solvers replaced, kept as their oracle but for the division by
    ``I_star``, with the level in the epidemic storage's operation order.
    ``hi`` is the upper end the bisection starts from, above the root and
    at most 1."""
    from epgtool.bounds import BISECTION_TOL

    def g(I: float) -> float:
        pen = R_hat - (1.0 - I)
        pen = pen if pen > 0.0 else 0.0
        return I_hat * math.log(I_hat / I) - (I_hat - I) + 0.5 * a * (pen * pen) + base

    slack = alpha - g(I_hat)
    if slack < 0.0:
        return None
    if slack == 0.0:
        return I_hat
    if g(1.0) <= alpha:
        return 1.0
    lo = I_hat
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) <= alpha:
            lo = mid
        else:
            hi = mid
    return hi


# the digits of the decimal oracle; every operation in it, Decimal.ln
# included, is correctly rounded to them
DECIMAL = Context(prec=50)


def decimal_level(I, I_hat, R_hat, a, base):
    """The level of ``epgtool.bounds._level`` at ``I``, evaluated on the same
    float terms (``I`` a float or a ``Decimal``) in 50-digit decimal
    arithmetic: exact but for a rounding of about 1e-49 per operation."""
    with localcontext(DECIMAL):
        I, I_hat, R_hat, a, base = (Decimal(v) for v in (I, I_hat, R_hat, a, base))
        pen = max(R_hat - (1 - I), Decimal(0))
        return I_hat * (I_hat / I).ln() + I - I_hat + a * pen * pen / 2 + base


def decimal_sup_level(I_hat, R_hat, a, base, alpha, near=None):
    """The root of ``decimal_level(I) == alpha`` in ``(I_hat, 1)`` for a term
    whose level lies below ``alpha`` at ``I_hat`` and above it at 1: the
    upper end of a decimal bisection to a width of 1e-20.  It starts from
    ``near -/+ 4*BISECTION_TOL`` where that brackets the root, so that a
    float answer ``near`` costs some 36 halvings, and from ``[I_hat, 1]``
    otherwise."""
    from epgtool.bounds import BISECTION_TOL

    def below(I):
        return decimal_level(I, I_hat, R_hat, a, base) <= Decimal(alpha)

    with localcontext(DECIMAL):
        lo, hi = Decimal(I_hat), Decimal(1)
        if near is not None:
            room = 4 * Decimal(BISECTION_TOL)
            n_lo, n_hi = max(Decimal(near) - room, lo), min(Decimal(near) + room, hi)
            if below(n_lo) and not below(n_hi):
                lo, hi = n_lo, n_hi
        while hi - lo > Decimal("1e-20"):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        return hi


def decimal_endemic(B, params):
    """The endemic pair ``(I_hat, R_hat)`` and the weight ``a`` at rate ``B``,
    from the two balance equations on the same float inputs (``B`` and
    ``params``' delta, gamma, sigma and omega), in 50-digit decimal
    arithmetic.

    The recovered balance gives ``R = gamma*I/(omega - delta*I)``, which
    turns the infection balance into a quadratic in ``I``; the textbook
    formula gives its smaller root, and one Newton step on the quadratic
    restores the digits that its subtraction cancels where ``delta*omega``
    is small against the linear coefficient.
    """
    with localcontext(DECIMAL):
        B, d, gam, s, w = (Decimal(v) for v in
                           (B, params.delta, params.gamma, params.sigma, params.omega))
        # (B - d)*d*I^2 - lin*I + w*(B - s) = 0
        quad, lin, const = (B - d) * d, (B - d) * w + B * gam + (B - s) * d, w * (B - s)
        I = (lin - (lin * lin - 4 * quad * const).sqrt()) / (2 * quad)
        I -= (quad * I * I - lin * I + const) / (2 * quad * I - lin)
        R = gam * I / (w - d * I)
        return I, R, B / (gam + d * R)


def random_bundle(rng, n_choices=(2, 3)):
    """Draw one parameter/strategy/policy triple satisfying every assumption.

    Rates are sampled near plausible per-day magnitudes and the strategy
    costs are built from strictly decreasing marginal slopes, so rejection
    is rare; resampling continues until the bundle validates.
    """
    while True:
        delta = rng.uniform(1e-4, 0.04)
        gamma = rng.uniform(delta * 1.5, 0.5)
        zeta = rng.uniform(0.0, 0.01)
        theta = rng.uniform(0.0, 0.01)
        psi = rng.uniform(delta * 1.2, 0.15)
        params = ModelParams(
            gamma=gamma, delta=delta, zeta=zeta, theta=theta, psi=psi
        )
        n = int(rng.choice(n_choices))
        b1 = params.sigma + rng.uniform(0.02, 0.2)
        gaps = rng.uniform(0.02, 0.1, size=n - 1)
        betas = tuple(np.concatenate([[b1], b1 + np.cumsum(gaps)]))
        # strictly decreasing marginal cost per unit of transmission cut
        slope_steps = rng.uniform(0.2, 2.0, size=n - 1)
        slopes = np.cumsum(slope_steps[::-1])[::-1]  # decreasing, positive
        cn = rng.uniform(0.0, 0.5)
        costs = [cn]
        for i in range(n - 2, -1, -1):
            costs.insert(0, costs[0] + slopes[i] * gaps[i])
        strategies = StrategySpec(betas=betas, costs=tuple(costs))
        ctilde1 = strategies.ctilde[0]
        cstar = rng.uniform(0.05, 0.95) * ctilde1
        if min(abs(cstar - ct) for ct in strategies.ctilde) < 1e-9:
            continue
        policy = PolicyConfig(cstar=cstar, upsilon=rng.uniform(0.2, 8.0))
        if not check_assumptions(params, strategies, policy):
            return params, strategies, policy


def random_simplex(rng, n):
    """Uniform Dirichlet(1) point on the n-simplex."""
    raw = rng.exponential(scale=1.0, size=n)
    return raw / raw.sum()


def kernel_sum(pairs) -> float:
    """``0.0 + a_0 * b_0 + a_1 * b_1 + ...`` in Python floats, left to right:
    a sum over strategies as the generated kernel writes it."""
    total = 0.0
    for a, b in pairs:
        total = total + float(a) * float(b)
    return total
