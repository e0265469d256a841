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
e.g. every recorded sample of a trajectory at once.  They run source
texts on one gap column per strategy pair, never loop over the samples,
and sum over strategies left to right from 0.0, as the kernel does
(``equilibrium._sum_products``), so stacked values equal the per-sample
values bit for bit.  The mean field is :func:`_flow_text`, run on columns
here and in every RK4 stage of :mod:`epgtool.dynamics`, and the storage's
gradient is :func:`_gradient_text`.

:func:`_law` alone chooses how a protocol's rate is written; every text
renders what it returns.  Smith's law is one spec, which the kernel, the
columns and :class:`SmithProtocol`'s methods all run: conditional
expressions in the kernel and in the methods, ``np.where`` on columns, so
for an exact :class:`SmithProtocol` no rate is a Python call.  Every other
protocol, a subclass of :class:`SmithProtocol` included, is called through
its methods, once per gap: any object with ``phi(j, gap)`` and
``phi_integral(j, gap)``, the latter the exact antiderivative of the former
in ``gap``.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .equilibrium import _compile_text, _sum_products

__all__ = [
    "SmithProtocol",
    "NotIPC",
    "mean_field",
    "storage",
    "dissipation",
]


class NotIPC(TypeError):
    """Protocol does not expose the pairwise-comparison storage interface."""


@dataclass(frozen=True)
class SmithProtocol:
    """Capped-linear pairwise comparison: ``phi(g) = min(rate_gain*g, cap)``.

    The integrator, the storage layers and these methods run one spec of
    this law; for a subclass, the layers call its methods instead.
    """

    rate_gain: float = 0.1
    cap: float = 0.1

    def __post_init__(self):
        if not self.rate_gain > 0:
            raise ValueError(f"rate_gain must be positive, got {self.rate_gain!r}")
        if not self.cap > 0:
            raise ValueError(f"cap must be positive, got {self.cap!r}")

    def phi(self, j: int, gap: float) -> float:
        return _SMITH_METHODS["phi"](gap, self.rate_gain, self.cap)

    def phi_integral(self, j: int, gap: float) -> float:
        """Closed-form antiderivative of the capped-linear rate at ``gap``."""
        return _SMITH_METHODS["phi_integral"](gap, self.rate_gain, self.cap)


# Smith's rate at gap {g} and its antiderivative, by method name, each a
# selection (condition, value if true, value if false) on the constants
# ``rg`` and ``cap``, with ``v = rg * g`` bound in the inner condition (the
# kernel multiplies only past the zero branch) and the knee written as ``cap / rg``.
_SMITH = {"phi": ("{g} <= 0.0", "0.0", ("cap < ({v} := rg * {g})", "cap", "{v}")),
          "phi_integral": ("{g} <= 0.0", "0.0", ("{g} <= cap / rg", "0.5 * rg * {g} * {g}",
                                                  "cap * {g} - cap * cap / (2.0 * rg)"))}


def _render(law, form: str) -> str:
    """``law`` with each selection written as ``form.format(condition, then,
    otherwise)``."""
    if isinstance(law, str):
        return law
    condition, then, otherwise = law
    return form.format(condition, _render(then, form), _render(otherwise, form))


_KERNEL_SELECT = "({1} if {0} else {2})"
_COLUMN_SELECT = "where({0}, {1}, {2})"

# each spec compiled as the kernel renders it, for one gap: SmithProtocol's methods
_SMITH_METHODS = {name: _compile_text(f"smith_{name}", "gap, rg, cap", "",
                                      _render(spec, _KERNEL_SELECT).format(g="gap", v="v"), {})
                  for name, spec in _SMITH.items()}


def _law(proto, name: str, columns: bool) -> tuple[str, dict]:
    """The rate method ``name`` (``phi`` or ``phi_integral``) of ``proto`` as
    a law, text on the target ``{j}``, the gap ``{g}`` and a temporary
    ``{v}`` written for the kernel or, with ``columns``, for gap columns;
    and the constants it reads, by name.

    An exact :class:`SmithProtocol` gives its spec on ``rg`` and ``cap``.
    Any other protocol, a subclass included (it may override the method),
    gives the call ``name({j}, {g})``, mapped over the gap column on
    columns.  Raises :class:`NotIPC` unless ``proto`` has both methods."""
    for method in ("phi", "phi_integral"):
        if not hasattr(proto, method):
            raise NotIPC(f"{type(proto).__name__} has no {method}; only "
                         "pairwise-comparison protocols are supported")
    if type(proto) is SmithProtocol:
        law = _render(_SMITH[name], _COLUMN_SELECT if columns else _KERNEL_SELECT)
        return law, {"rg": proto.rate_gain, "cap": proto.cap}
    rate = getattr(proto, name)

    def mapped(j: int, gaps: np.ndarray) -> np.ndarray:
        return np.fromiter((rate(j, g) for g in gaps.tolist()), float, gaps.size)
    return f"{name}({{j}}, {{g}})", {name: mapped if columns else rate}


def _tag(law: str) -> str:
    """``_`` and the name of each method ``law`` calls: the sources of a
    callback law and of a spec get different names, and :mod:`linecache`
    keeps both."""
    return "".join(f"_{name}" for name in re.findall(r"(\w+)\(\{j\}", law))


def _stack(x, p) -> tuple[np.ndarray, np.ndarray, bool]:
    """``x`` and ``p`` as ``(m, n)`` stacks, and whether both were one sample;
    raises ``ValueError`` unless each is one sample or a stack, both have the
    same number of strategies, at least two, and two stacks have the same
    number of samples."""
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    for name, v in (("x", x), ("p", p)):
        if v.ndim > 2:
            raise ValueError(f"{name} has {v.ndim} dimensions, more than a stack")
    X, P = np.atleast_2d(x), np.atleast_2d(p)
    if X.shape[-1] != P.shape[-1]:
        raise ValueError(f"x has {X.shape[-1]} shares but p has {P.shape[-1]} payoffs")
    if X.shape[-1] < 2:
        raise ValueError(f"at least two strategies are required, got {X.shape[-1]}")
    if x.ndim == p.ndim == 2 and len(X) != len(P):
        raise ValueError(f"x has {len(X)} samples but p has {len(P)}")
    return X, P, x.ndim == 1 and p.ndim == 1


def _flow_text(n: int, law: str) -> str:
    """The mean dynamics of ``n`` strategies as source text: ``dx_i``, the
    sum over ``j != i`` of ``f_j_i - f_i_j`` from ``0.0``, left to right, of
    the flows ``f_i_j = x_i * phi(j, p_j - p_i)``, with the rate written by
    ``law`` (:func:`_law`) on the temporaries ``g`` (the gap) and ``v``.
    ``{i}`` suffixes the shares and ``{_}`` the values computed from them.
    The pairs ``i < j`` come in order, each adding ``net = f_ji - f_ij`` to
    ``dx_i`` and taking it from ``dx_j`` at once, so one pair's temporaries
    are live at a time; ``dx_j - net`` rounds as ``dx_j + (f_ij - f_ji)``:
    no running sum is -0.0."""
    lines, started = [], set()
    for i in range(n):
        for j in range(i + 1, n):
            for flow, src, dst in (("f_ij", i, j), ("f_ji", j, i)):
                lines.append(f"g{{_}} = p_{dst}{{_}} - p_{src}{{_}}")
                rate = law.format(j=dst, g="g{_}", v="v{_}")
                lines.append(f"{flow}{{_}} = x_{src}{{i}} * {rate}")
            lines.append("net{_} = f_ji{_} - f_ij{_}")
            for k, sign in ((i, "+"), (j, "-")):
                total = f"dx_{k}{{_}}" if k in started else "0.0"
                lines.append(f"dx_{k}{{_}} = {total} {sign} net{{_}}")
                started.add(k)
    return "\n".join(lines) + "\n"


def _gradient_text(n: int, law: str) -> str:
    """The gradient of the storage in the shares as source text:
    ``psi_k = 0.0 + Phi(j, p_j - p_k) + ...`` over ``j != k`` in ``j``
    order, with the antiderivative written by ``law`` (:func:`_law`) on the
    temporary gap ``g``."""
    lines = []
    for k in range(n):
        lines.append(f"psi_{k} = 0.0")
        for j in range(n):
            if j != k:
                lines.append(f"g = p_{j} - p_{k}")
                lines.append(f"psi_{k} = psi_{k} + {law.format(j=j, g='g', v='v')}")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _compiled(text, out: str, n: int, law: str, constants: tuple[str, ...]):
    """``text(n, law)`` compiled as ``f(x_0.., p_0.., *constants) -> (out_0,
    ..)``, with the names ``constants`` of the law's constants."""
    x, p = ([f"{v}_{k}" for k in range(n)] for v in ("x", "p"))
    return _compile_text(f"{out}_n{n}{_tag(law)}", ", ".join(x + p + list(constants)),
                         text(n, law), ", ".join(f"{out}_{k}" for k in range(n)) + ",",
                         {"where": np.where})


def _run(proto, name: str, text, out: str, X: np.ndarray, P: np.ndarray) -> tuple:
    """The columns ``out_k`` of ``text`` run on the columns of the stacks
    ``X`` and ``P``, with ``proto``'s method ``name`` as :func:`_law` writes
    it for columns."""
    law, constants = _law(proto, name, columns=True)
    # overflow and inf - inf arise in the branch of a selection not taken; a
    # NaN in the branch taken still shows in the result
    with np.errstate(over="ignore", invalid="ignore"):
        f = _compiled(text, out, P.shape[1], law, tuple(constants))
        return f(*X.T, *P.T, *constants.values())


def mean_field(proto, x, p) -> np.ndarray:
    """Mean dynamics of the strategy shares: inflow minus outflow per strategy.

    Takes one sample (``x``, ``p`` of shape ``(n,)``, returns ``(n,)``) or a
    stack of samples (shape ``(m, n)``, returns ``(m, n)``).  Runs
    :func:`_flow_text` on the columns of the stacks.  The total of the
    components is exactly zero for n = 2 and carries only the roundings of
    the per-component sums otherwise.
    """
    X, P, single = _stack(x, p)
    v = np.stack(_run(proto, "phi", _flow_text, "dx", X, P), axis=1)
    return v[0] if single else v


def storage(proto, x, p):
    """Nonnegative storage of the mean dynamics; zero iff the field is zero.

    A ``float`` for one sample, an ``(m,)`` array for a stack of samples.
    """
    X, P, single = _stack(x, p)
    S = _sum_products(zip(X.T, _run(proto, "phi_integral", _gradient_text, "psi", X, P)))
    return float(S[0]) if single else S


def dissipation(proto, x, p):
    """Decay rate of the storage along the mean dynamics at frozen payoffs.

    Equals ``-grad_x storage . mean_field``; nonnegative, and zero exactly
    where the mean field vanishes.  A ``float`` for one sample, an ``(m,)``
    array for a stack of samples.
    """
    X, P, single = _stack(x, p)
    psi = _run(proto, "phi_integral", _gradient_text, "psi", X, P)
    D = -_sum_products(zip(psi, mean_field(proto, X, P).T))
    return float(D[0]) if single else D
