"""Evolutionary dynamics: revision protocols, mean dynamics, and the
storage/dissipation pair used in the stability analysis.

Agents revise strategies at pairwise-comparison rates that depend only on
positive payoff gaps: ``rate(i -> j) = phi_j(max(p_j - p_i, 0))`` with each
``phi_j`` nondecreasing, zero at zero, and capped at ``cap``.  For this
protocol class the mean dynamics admit the storage function

    S(x, p) = sum_i x_i sum_j Phi_j(max(p_j - p_i, 0)),

with ``Phi_j`` the antiderivative of ``phi_j``, whose payoff gradient equals
the mean vector field and whose decay rate along the flow (at frozen
payoffs) is the dissipation returned by :func:`dissipation`.

:func:`mean_field`, :func:`storage` and :func:`dissipation` take one sample
(``x``, ``p`` of shape ``(n,)``) or a stack of samples (shape ``(m, n)``),
e.g. every recorded sample of a trajectory at once.  They loop over the
n(n-1) ordered strategy pairs, never over the samples, and evaluate the
rates ``phi(j, gap)`` / ``phi_integral(j, gap)`` on each pair's column of
gaps.  Sums over strategies run left to right from 0.0, as the kernel's do
(``equilibrium._sum_products``).  Stacked values equal the per-sample
values bit for bit.  The mean field is one source text, :func:`_flow_text`,
which :mod:`epgtool.dynamics` inlines in every stage of its RK4 kernel.

Smith's capped-linear law is written once more as a spec, ``_SMITH_PHI``
and ``_SMITH_PHI_INTEGRAL``, in the operation order of
:meth:`SmithProtocol.phi` and :meth:`SmithProtocol.phi_integral`.  For a
:class:`SmithProtocol` it is rendered as conditional expressions inside the
kernel's flow and with ``np.where`` on whole gap columns, so no rate is a
Python call.  Every other protocol, a subclass of :class:`SmithProtocol`
included, is called through its scalar methods, once per gap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .equilibrium import _compile_text, _sum_products

__all__ = [
    "SmithProtocol",
    "GeneralIPCProtocol",
    "NotIPC",
    "mean_field",
    "storage",
    "dissipation",
]

QUADRATURE_PANELS = 256  # Simpson panels of GeneralIPCProtocol's storage


class NotIPC(TypeError):
    """Protocol does not expose the pairwise-comparison storage interface."""


@dataclass(frozen=True)
class SmithProtocol:
    """Capped-linear pairwise comparison: ``phi(g) = min(rate_gain*g, cap)``.

    The integrator and the storage layers run this law from its spec
    (``_SMITH_PHI``, ``_SMITH_PHI_INTEGRAL``) for this class itself, bit for
    bit as these methods; a subclass's methods are called instead.
    """

    rate_gain: float = 0.1
    cap: float = 0.1

    def __post_init__(self):
        if not self.rate_gain > 0:
            raise ValueError(f"rate_gain must be positive, got {self.rate_gain!r}")
        if not self.cap > 0:
            raise ValueError(f"cap must be positive, got {self.cap!r}")

    def phi(self, j: int, gap: float) -> float:
        if gap <= 0.0:
            return 0.0
        return min(self.rate_gain * gap, self.cap)

    def phi_integral(self, j: int, gap: float) -> float:
        """Closed-form antiderivative of the capped-linear rate at ``gap``."""
        if gap <= 0.0:
            return 0.0
        knee = self.cap / self.rate_gain
        if gap <= knee:
            return 0.5 * self.rate_gain * gap * gap
        return self.cap * gap - self.cap * self.cap / (2.0 * self.rate_gain)


@dataclass(frozen=True)
class GeneralIPCProtocol:
    """Pairwise comparison with user-supplied rate maps ``phis[j]``.

    Each map must satisfy ``phi(0) = 0``, ``phi(g) > 0`` for ``g > 0``, be
    nondecreasing, and take values in ``[0, cap]``; only the first condition
    is checked here.  Storage antiderivatives are computed by composite
    Simpson quadrature on ``QUADRATURE_PANELS`` panels: deterministic.
    """

    phis: tuple[Callable[[float], float], ...]
    cap: float

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(self.phis))
        if not self.cap > 0:
            raise ValueError(f"cap must be positive, got {self.cap!r}")
        for j, phi in enumerate(self.phis):
            if phi(0.0) != 0.0:
                raise ValueError(f"phis[{j}](0) must be 0, got {phi(0.0)!r}")

    def phi(self, j: int, gap: float) -> float:
        if gap <= 0.0:
            return 0.0
        return self.phis[j](gap)

    def phi_integral(self, j: int, gap: float) -> float:
        if gap <= 0.0:
            return 0.0
        m = QUADRATURE_PANELS
        xs = np.linspace(0.0, gap, 2 * m + 1)
        ys = np.array([self.phis[j](x) for x in xs])
        h = gap / (2 * m)
        return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum()
                                + 2.0 * ys[2:-1:2].sum()))


# Smith's rate at gap {g} and its antiderivative, each a selection
# (condition, value if true, value if false), with the temporary
# ``_SMITH_V`` and knee = cap / rg.  ``cap < v`` picks as ``min(v, cap)``
# does, so a NaN gap gives NaN, as the scalar methods do.
_SMITH_V = "{v} = rg * {g}"
_SMITH_PHI = ("{g} <= 0.0", "0.0", ("cap < {v}", "cap", "{v}"))
_SMITH_PHI_INTEGRAL = ("{g} <= 0.0", "0.0", ("{g} <= knee", "0.5 * rg * {g} * {g}",
                                             "cap * {g} - cap * cap / (2.0 * rg)"))


def _render(law, form: str) -> str:
    """``law`` with each selection written as ``form.format(condition, then,
    otherwise)``."""
    if isinstance(law, str):
        return law
    condition, then, otherwise = law
    return form.format(condition, _render(then, form), _render(otherwise, form))


_KERNEL_SELECT = "({1} if {0} else {2})"
_SMITH_COLUMNS = {
    name: _compile_text(f"smith_{name}_array", "g, rg, cap, knee",
                        temporaries.format(g="g", v="v"),
                        _render(law, "where({0}, {1}, {2})").format(g="g", v="v"),
                        {"where": np.where})
    for name, temporaries, law in (("phi", _SMITH_V + "\n", _SMITH_PHI),
                                   ("phi_integral", "", _SMITH_PHI_INTEGRAL))
}


def _smith_spec(proto):
    """``(rg, cap, knee)``, the rate spec of a :class:`SmithProtocol`, or
    None for any other protocol.  A subclass gets None: it may override
    ``phi``, so its rates are called, never inlined."""
    if type(proto) is not SmithProtocol:
        return None
    return proto.rate_gain, proto.cap, proto.cap / proto.rate_gain


def _rates(proto, name: str, j: int, gaps: np.ndarray) -> np.ndarray:
    """The rate method ``name`` (``phi`` or ``phi_integral``) of ``proto`` at
    each entry ``g`` of the gap column ``gaps``, bit for bit as
    ``getattr(proto, name)(j, g)``.

    Smith's law runs on the whole column with ``np.where``; both branches
    are evaluated, so an overflow in the one not taken is silenced.  Any
    other protocol's scalar method is mapped over the column.
    """
    spec = _smith_spec(proto)
    if spec is None:
        rate = getattr(proto, name)
        return np.fromiter((rate(j, g) for g in gaps.tolist()), float, gaps.size)
    with np.errstate(over="ignore"):
        return _SMITH_COLUMNS[name](gaps, *spec)


def _stack(x, p) -> tuple[np.ndarray, np.ndarray, bool]:
    """``x`` and ``p`` as ``(m, n)`` stacks, and whether both were one sample."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    return np.atleast_2d(x), np.atleast_2d(p), x.ndim == 1 and p.ndim == 1


def _flow_text(n: int, smith: bool = False) -> str:
    """The mean dynamics of ``n`` strategies as source text: the flow
    ``f_i_j = x_i * phi(j, p_j - p_i)`` of each ordered pair, and ``dx_i``,
    the sum of ``f_j_i - f_i_j`` over ``j != i`` from ``0.0``, left to right.
    ``{i}`` suffixes the shares and ``{_}`` the values computed from them.

    With ``smith``, the rate is ``_SMITH_PHI`` inlined as a conditional
    expression on the constants ``rg`` and ``cap``, with the gap ``g_i_j``
    and ``v_i_j = rg * g_i_j`` as temporaries, in place of the call."""
    lines = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            gap = f"p_{j}{{_}} - p_{i}{{_}}"
            if smith:
                g, v = f"g_{i}_{j}{{_}}", f"v_{i}_{j}{{_}}"
                lines += [f"{g} = {gap}", _SMITH_V.format(g=g, v=v)]
                rate = _render(_SMITH_PHI, _KERNEL_SELECT).format(g=g, v=v)
            else:
                rate = f"phi({j}, {gap})"
            lines.append(f"f_{i}_{j}{{_}} = x_{i}{{i}} * {rate}")
    lines += [f"dx_{i}{{_}} = 0.0" + "".join(f" + (f_{j}_{i}{{_}} - f_{i}_{j}{{_}})"
                                        for j in range(n) if j != i) for i in range(n)]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _flow(n: int):
    """``_flow_text(n)`` compiled as ``flow(x_0.., p_0.., phi) -> (dx_0, ..)``."""
    x, p, dx = ([f"{v}_{k}" for k in range(n)] for v in ("x", "p", "dx"))
    return _compile_text(f"flow_n{n}", ", ".join(x + p + ["phi"]), _flow_text(n),
                         ", ".join(dx), {})


def mean_field(proto, x, p) -> np.ndarray:
    """Mean dynamics of the strategy shares: inflow minus outflow per strategy.

    Takes one sample (``x``, ``p`` of shape ``(n,)``, returns ``(n,)``) or a
    stack of samples (shape ``(m, n)``, returns ``(m, n)``).  Runs
    :func:`_flow_text` on the columns of the stacks.  The total of the
    components is exactly zero for n = 2 and carries only the roundings of
    the per-component sums otherwise.
    """
    X, P, single = _stack(x, p)
    v = np.stack(_flow(P.shape[1])(*X.T, *P.T, functools.partial(_rates, proto, "phi")),
                 axis=1)
    return v[0] if single else v


def _storage_per_strategy(proto, P: np.ndarray) -> np.ndarray:
    """``(m, n)`` stack of ``sum_j Phi_j(max(p_j - p_k, 0))`` in column ``k``.

    This is the gradient of :func:`storage` with respect to the population
    state.  Each column is accumulated in ``j`` order from ``0.0``, the
    rounding of a per-sample ``sum``.
    """
    if not hasattr(proto, "phi_integral"):
        raise NotIPC(
            f"{type(proto).__name__} has no storage antiderivative; only "
            "pairwise-comparison protocols are supported"
        )
    n = P.shape[1]
    psi = np.zeros(P.shape)
    for k in range(n):
        for j in range(n):
            if j != k:
                psi[:, k] += _rates(proto, "phi_integral", j, P[:, j] - P[:, k])
    return psi


def storage(proto, x, p):
    """Nonnegative storage of the mean dynamics; zero iff the field is zero.

    A ``float`` for one sample, an ``(m,)`` array for a stack of samples.
    """
    X, P, single = _stack(x, p)
    S = _sum_products(zip(X.T, _storage_per_strategy(proto, P).T))
    return float(S[0]) if single else S


def dissipation(proto, x, p):
    """Decay rate of the storage along the mean dynamics at frozen payoffs.

    Equals ``-grad_x storage . mean_field``; nonnegative, and zero exactly
    where the mean field vanishes.  A ``float`` for one sample, an ``(m,)``
    array for a stack of samples.
    """
    X, P, single = _stack(x, p)
    psi = _storage_per_strategy(proto, P)
    D = -_sum_products(zip(psi.T, mean_field(proto, X, P).T))
    return float(D[0]) if single else D
