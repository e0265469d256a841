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
strategy pairs, never over the samples, and evaluate the rates
``phi(j, gap)`` / ``phi_integral(j, gap)`` on each pair's column of gaps.
Sums over strategies run left to right from 0.0, as the kernel's do
(``equilibrium._sum_products``).  Stacked values equal the per-sample
values bit for bit.  The mean field is one source text, :func:`_flow_text`,
run on columns here and in every RK4 stage of :mod:`epgtool.dynamics`.

Smith's capped-linear law is written once more as a spec, ``_SMITH_PHI``
and ``_SMITH_PHI_INTEGRAL``, in the operation order of
:meth:`SmithProtocol.phi` and :meth:`SmithProtocol.phi_integral`.  For a
:class:`SmithProtocol` the flow text writes the rate as conditional
expressions in the kernel and with ``np.where`` on gap columns, and the
antiderivative runs with ``np.where`` too, so no rate is a Python call.
Every other protocol, a subclass of :class:`SmithProtocol` included, is
called through its scalar methods, once per gap.
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
# (condition, value if true, value if false) on the constants ``rg`` and
# ``cap``, with ``v = rg * g`` bound in the inner condition (the kernel
# multiplies only past the zero branch) and the knee written as ``cap / rg``.
# ``cap < v`` picks as ``min(v, cap)`` does, so a NaN gap gives NaN, as the
# scalar methods do.
_SMITH_PHI = ("{g} <= 0.0", "0.0", ("cap < ({v} := rg * {g})", "cap", "{v}"))
_SMITH_PHI_INTEGRAL = ("{g} <= 0.0", "0.0", ("{g} <= cap / rg", "0.5 * rg * {g} * {g}",
                                             "cap * {g} - cap * cap / (2.0 * rg)"))


def _render(law, form: str) -> str:
    """``law`` with each selection written as ``form.format(condition, then,
    otherwise)``."""
    if isinstance(law, str):
        return law
    condition, then, otherwise = law
    return form.format(condition, _render(then, form), _render(otherwise, form))


_KERNEL_SELECT = "({1} if {0} else {2})"
_COLUMN_SELECT = "where({0}, {1}, {2})"
# Smith's antiderivative on a gap column (its rate runs in the flow text)
_smith_integral = _compile_text(
    "smith_phi_integral_array", "g, rg, cap", "",
    _render(_SMITH_PHI_INTEGRAL, _COLUMN_SELECT).format(g="g"), {"where": np.where})


def _rate_constants(proto) -> dict:
    """The constants that :func:`_flow_text` reads ``proto``'s rate from:
    ``rg`` and ``cap`` of Smith's law for an exact :class:`SmithProtocol`,
    or ``phi``, called as ``phi(j, gap)``, for any other protocol.  A
    subclass gets ``phi``: it may override it, so its rates are called,
    never inlined."""
    if type(proto) is SmithProtocol:
        return {"rg": proto.rate_gain, "cap": proto.cap}
    return {"phi": proto.phi}


def _rates(proto, name: str, j: int, gaps: np.ndarray) -> np.ndarray:
    """The rate method ``name`` (``phi`` or ``phi_integral``) of ``proto`` at
    each entry ``g`` of the gap column ``gaps``, bit for bit as
    ``getattr(proto, name)(j, g)``.

    Smith's antiderivative runs on the whole column with ``np.where``; both
    branches are evaluated, so an overflow in the one not taken is silenced.
    Any other method is mapped over the column.
    """
    if name == "phi_integral" and type(proto) is SmithProtocol:
        with np.errstate(over="ignore"):
            return _smith_integral(gaps, proto.rate_gain, proto.cap)
    rate = getattr(proto, name)
    return np.fromiter((rate(j, g) for g in gaps.tolist()), float, gaps.size)


def _stack(x, p) -> tuple[np.ndarray, np.ndarray, bool]:
    """``x`` and ``p`` as ``(m, n)`` stacks, and whether both were one sample;
    raises ``ValueError`` unless each is one sample or a stack, both have the
    same number of strategies, and two stacks have the same number of
    samples."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    for name, v in (("x", x), ("p", p)):
        if v.ndim > 2:
            raise ValueError(f"{name} has {v.ndim} dimensions, more than a stack")
    X, P = np.atleast_2d(x), np.atleast_2d(p)
    if X.shape[-1] != P.shape[-1]:
        raise ValueError(f"x has {X.shape[-1]} shares but p has {P.shape[-1]} payoffs")
    if x.ndim == p.ndim == 2 and len(X) != len(P):
        raise ValueError(f"x has {len(X)} samples but p has {len(P)}")
    return X, P, x.ndim == 1 and p.ndim == 1


def _flow_text(n: int, select: str | None) -> str:
    """The mean dynamics of ``n`` strategies as source text: ``dx_i``, the
    sum over ``j != i`` of ``f_j_i - f_i_j`` from ``0.0``, left to right, of
    the flows ``f_i_j = x_i * phi(j, p_j - p_i)``.  ``{i}`` suffixes the
    shares and ``{_}`` the values computed from them.  The pairs ``i < j``
    come in order, each adding ``net = f_ji - f_ij`` to ``dx_i`` and taking
    it from ``dx_j`` at once, so one pair's temporaries are live at a time;
    ``dx_j - net`` rounds as ``dx_j + (f_ij - f_ji)``: no running sum is -0.0.

    With a ``select`` form, ``_KERNEL_SELECT`` or ``_COLUMN_SELECT``, the
    rate is ``_SMITH_PHI`` in that form on ``rg`` and ``cap``, with the
    temporaries ``g`` (the gap) and ``v = rg * g``; with ``None`` it is the
    call ``phi(j, gap)``."""
    lines, started = [], set()
    for i in range(n):
        for j in range(i + 1, n):
            for flow, src, dst in (("f_ij", i, j), ("f_ji", j, i)):
                gap = f"p_{dst}{{_}} - p_{src}{{_}}"
                if select is None:
                    rate = f"phi({dst}, {gap})"
                else:
                    lines.append(f"g{{_}} = {gap}")
                    rate = _render(_SMITH_PHI, select).format(g="g{_}", v="v{_}")
                lines.append(f"{flow}{{_}} = x_{src}{{i}} * {rate}")
            lines.append("net{_} = f_ji{_} - f_ij{_}")
            for k, sign in ((i, "+"), (j, "-")):
                total = f"dx_{k}{{_}}" if k in started else "0.0"
                lines.append(f"dx_{k}{{_}} = {total} {sign} net{{_}}")
                started.add(k)
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _flow(n: int, select: str | None):
    """``_flow_text(n, select)`` compiled as ``flow(x_0.., p_0.., *constants)
    -> (dx_0, ..)``: the constants are ``rg, cap``, or ``phi`` for ``None``."""
    x, p, dx = ([f"{v}_{k}" for k in range(n)] for v in ("x", "p", "dx"))
    constants, called = (["phi"], "_phi") if select is None else (["rg", "cap"], "")
    return _compile_text(f"flow_n{n}{called}", ", ".join(x + p + constants),
                         _flow_text(n, select), ", ".join(dx), {"where": np.where})


def mean_field(proto, x, p) -> np.ndarray:
    """Mean dynamics of the strategy shares: inflow minus outflow per strategy.

    Takes one sample (``x``, ``p`` of shape ``(n,)``, returns ``(n,)``) or a
    stack of samples (shape ``(m, n)``, returns ``(m, n)``).  Runs
    :func:`_flow_text` on the columns of the stacks, with Smith's law in
    ``np.where`` form or ``phi`` mapped over each gap column.  The total of
    the components is exactly zero for n = 2 and carries only the roundings
    of the per-component sums otherwise.
    """
    X, P, single = _stack(x, p)
    constants, select = _rate_constants(proto), _COLUMN_SELECT
    if "phi" in constants:
        constants, select = {"phi": functools.partial(_rates, proto, "phi")}, None
    with np.errstate(over="ignore"):  # in the branch of a selection not taken
        v = np.stack(_flow(P.shape[1], select)(*X.T, *P.T, **constants), axis=1)
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
