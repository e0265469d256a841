"""Closed-loop integration of the epidemic population game.

State ``Y = (I, R, x, q)``: infectious and recovered fractions, strategy
shares, and the payoff-mechanism state.  The vector field couples the
normalized SIRS flow (written in deviations from the endemic pair at the
current average transmission rate ``B``), the mean revision dynamics driven
by payoffs ``q*betas + r_o``, and the designed feedback for ``q``.

Integration is fixed-step explicit RK4 so reruns are bit-identical.  The
vector field is written once, as the source template ``_FIELD``, which
inlines the texts of the endemic algebra (``equilibrium._ENDEMIC``), of
the feedback law (``payoff._QDOT``) and of the pairwise flow, which
:func:`epgtool.edm.mean_field` runs too (``edm._flow_text``).  For a given
strategy count ``n`` it is expanded, once, into two straight-line Python
functions: ``rhs``, used by :func:`state_derivative`, and ``integrate``,
the whole loop of :func:`simulate`.  ``integrate`` holds

- the step loop with the four RK4 stages inlined and the sums over ``n``
  unrolled, and the RK4 combination;
- the projection after each step: shares clipped at 0 and renormalized
  onto the simplex (rounding noise only), the infectious fraction floored
  away from zero, R clipped at 0 and ``I + R <= 1`` checked; violations
  beyond ``PROJECTION_TOL`` abort with :class:`StepRejected`;
- the peak of I at every step, the cost ``r . x`` and its trapezoid
  integral;
- a sample every ``output_stride`` steps, packed as doubles into one
  buffer, and the counts of :class:`RunStats`.

Both take the rate, the model constants and the step sizes as one tuple
``K`` and unpack it into locals.  This removes the interpreter's call,
list and global-lookup overhead but keeps every float operation of the
loop form, in the same order.  One call, :func:`_kernel_for`, returns a
run's pair with its ``K``: the constants of each text, named by the module
that writes it, the strategies' and the steps.  The rate law comes from
``edm._law``, which alone chooses how a protocol's rate is written:
Smith's capped-linear law is inlined for every ordered pair as a
conditional expression on ``rg`` and ``cap``, so the kernel makes no
Python call for it, and every other protocol is called as ``phi(j, gap)``.

Where a C compiler ``cc`` is on ``PATH``, :func:`simulate` runs a second
build of ``integrate``, from the same step text (:func:`_rk4_lines`):
:func:`_c` translates each of its operations into one C operation on
doubles, ``_C_LOOP`` holds the same projection, peak, cost and samples in
the same order, and ``cc`` compiles it with ``-ffp-contract=off``, once
per strategy count and law in a process (:func:`_native`).  ``log`` is the
same libm function in both, so the two loops give the same bits: the
samples, the peak and its time, and the counts; ``RunStats.kernel`` names
the loop that ran.  The C loop carries no messages: at any rejection it
stops, and the Python loop reruns the run to raise the
:class:`StepRejected`.  So the Python loop stays the reference and the
fallback: for a rate law called back in Python, which :func:`_c` refuses,
on hosts without ``cc`` or whose ``cc`` evaluates doubles in a wider format
(x87; the build refuses), for runs shorter than ``NATIVE_MIN_STEPS`` steps
and for more than ``NATIVE_MAX_STRATEGIES`` strategies.  Measured on a
shared 2-core x86-64 host (gcc 12.2, Python 3.11, ``-O1``): a compile costs
as much time as 11k to 21k Python steps at every n from 2 to 32 (0.11 s at
n = 2, 1.2 s at n = 16, 4.5 s at n = 32), and the compiler's peak RSS is
34 MB at n = 2, 101 MB at n = 16 and 255 MB at n = 24.  Example1's 150k
steps take 0.026 s in C against 0.79 to 0.85 s in Python.

The series derived from the samples afterwards (``B``, the payoffs, the
storages and the Lyapunov value) follow the kernel's evaluation rule:
sums over strategies left to right from ``0.0``
(``equilibrium._sum_products``), squares as products, and ``math.log``.
So they are the numbers the kernel itself would compute, whatever BLAS or
SIMD code numpy dispatches to on the host, and :func:`lyapunov_value` of a
sample equals its ``lyapunov`` entry.
"""

from __future__ import annotations

import ast
import ctypes
import functools
import math
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import bounds as _bounds
from . import edm as _edm
from .equilibrium import (_ENDEMIC, _compile_source, _compile_text, _endemic_constants,
                          _sum_products, endemic_state)
from .payoff import _QDOT, PayoffMechanism, _qdot_constants

__all__ = [
    "EpgState",
    "IntegratorOptions",
    "Trajectory",
    "RunStats",
    "LyapunovSeries",
    "StepRejected",
    "state_derivative",
    "simulate",
    "step_count",
    "lyapunov_value",
    "lyapunov_series",
    "write_csv",
    "write_table",
    "CSV_FLOAT_FORMAT",
]

PROJECTION_TOL = 1e-9
I_FLOOR = 1e-12
NATIVE_MAX_STRATEGIES = 16
NATIVE_MIN_STEPS = 25_000
_CFLAGS = ("-O1", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC")
_CC_TIMEOUT_S = 120
CSV_FLOAT_FORMAT = "%.17g"
_CSV_BLOCK_ROWS = 4096


class StepRejected(RuntimeError):
    """A step left the admissible state space beyond projection tolerances."""

    def __init__(self, t: float, detail: str):
        self.t = t
        super().__init__(f"step rejected at t={t:.6g} d: {detail}; reduce the step size")


@dataclass(frozen=True)
class EpgState:
    """Closed-loop state: fractions (I, R), shares x, mechanism state q.

    I, R and the shares x are fractions of the living population; its
    absolute size enters no equation of the normalized model.
    """

    I: float
    R: float
    x: tuple[float, ...]
    q: float

    def __post_init__(self):
        # ``+ 0.0`` turns a -0.0 into 0.0 and keeps every other value's bits,
        # so a start of -0.0 is written as 0
        object.__setattr__(self, "R", self.R + 0.0)
        object.__setattr__(self, "x", tuple(float(v) + 0.0 for v in self.x))
        object.__setattr__(self, "q", self.q + 0.0)
        if not all(math.isfinite(v) for v in (self.I, self.R, *self.x, self.q)):
            raise ValueError(
                f"state (I={self.I!r}, R={self.R!r}, x={self.x!r}, q={self.q!r}) "
                "is not finite"
            )
        if not self.I > 0.0:
            raise ValueError(f"I={self.I!r} must be positive")
        if self.I + self.R > 1.0 + PROJECTION_TOL or self.R < -PROJECTION_TOL:
            raise ValueError(f"(I, R)=({self.I!r}, {self.R!r}) not in the state space")
        x = np.asarray(self.x)
        if np.any(x < -PROJECTION_TOL) or np.any(x > 1.0 + PROJECTION_TOL):
            raise ValueError(f"population state {x!r} has entries outside [0, 1]")
        if abs(float(x.sum()) - 1.0) > PROJECTION_TOL:
            raise ValueError(f"population state {x!r} does not sum to 1")


@dataclass(frozen=True)
class IntegratorOptions:
    """Fixed-step RK4 settings.

    ``step`` is the step size in days and ``output_stride`` the number of
    steps between recorded samples.
    """

    step: float = 0.01
    output_stride: int = 10

    def __post_init__(self):
        if not 0 < self.step < math.inf:  # NaN included
            raise ValueError(f"step must be positive and finite, got {self.step!r}")
        # an int is whole, and may be too large for a float
        if not (isinstance(self.output_stride, int)
                or float(self.output_stride).is_integer()):
            raise ValueError(
                f"output_stride must be a whole number, got {self.output_stride!r}")
        if self.output_stride < 1:
            raise ValueError("output_stride must be at least 1")


# One evaluation of the closed-loop vector field, written once.  ``{i}``
# suffixes the stage's inputs (I, R, x_k, q) and ``{_}`` every value the
# stage computes.  ``{endemic}`` and ``{qdot}`` are the texts of the
# endemic algebra and of the feedback law, on their smooth extension:
# invalid stage states surface as math-domain errors that :func:`simulate`
# turns into :class:`StepRejected`.  ``{B}`` and ``{flow}`` (the payoffs and
# the pairwise flow) are filled by :func:`_field_template`.
_FIELD = """\
B{_} = {B}
{endemic}
i_dev{_} = I_hat{_} - I{i}
{qdot}
dI{_} = (B{_} * r_dev{_} + Bd{_} * i_dev{_}) * I{i}
dR{_} = (w - d * I{i}) * r_dev{_} - denom{_} * i_dev{_}
{flow}
"""


def _field_template(n: int, law: str) -> str:
    """``_FIELD`` with the sums over the ``n`` strategies unrolled: ``B``
    summed left to right from ``0.0``, the payoffs, and the pairwise flow
    ``edm._flow_text(n, law)``."""
    B = " + ".join(["0.0"] + [f"beta_{k} * x_{k}{{i}}" for k in range(n)])
    payoffs = "".join(f"p_{k}{{_}} = q{{i}} * beta_{k} + r_o_{k}\n" for k in range(n))
    # {i} and {_} stay placeholders; they are filled per stage
    return _FIELD.format(B=B, endemic=_ENDEMIC, qdot=_QDOT,
                         flow=payoffs + _edm._flow_text(n, law), i="{i}", _="{_}")


# ``integrate`` around the stages of ``_FIELD``.  The projection
# after each step is fixed by :func:`simulate`'s contract: shares clipped at
# 0 and renormalized, I floored, R clipped, I + R checked, in that order;
# only rounding noise is repaired, more is a :class:`StepRejected`.  Each
# check is written negated, ``not v >= lo``, so that a NaN, for which every
# comparison is false, fails it.  ``{{...!r}}`` fields are the f-strings of
# the generated rejections.
_LOOP = """\
def integrate({args}, n_steps, stride, K):
    {constants} = K
    c = {cost}
    samples = bytearray(pack(0.0, {args}, c, c))
    cost_integral = 0.0
    peak_I, peak_t = I, 0.0
    renormalizations = x_clips = i_floors = r_clips = 0
    worst = 0.0
    step = 0
    try:
        for step in range(1, n_steps + 1):
{rk4}
{clip}
            xsum = {xsum}
            if xsum != 1.0:
                if not abs(xsum - 1.0) <= {tol}:
                    raise StepRejected(step * h, f"sum(x)={{xsum!r}} drifted off 1")
{renormalize}
                renormalizations += 1
                worst = max(worst, abs(xsum - 1.0))
            if not I >= {floor}:
                if not I >= -{tol}:
                    raise StepRejected(step * h, f"I={{I!r}} went negative")
                I = {floor}
                i_floors += 1
            if not R >= 0.0:
                if not R >= -{tol}:
                    raise StepRejected(step * h, f"R={{R!r}} went negative")
                R = 0.0
                r_clips += 1
            if not I + R <= {ceiling}:
                raise StepRejected(step * h, f"I+R={{I + R!r}} exceeded 1")
            if I > peak_I:
                peak_I, peak_t = I, step * h
            prev_cost = c
            c = {cost}
            cost_integral += half_h * (prev_cost + c)
            if step % stride == 0:
                t = step * h
                samples += pack(t, {args}, c, cost_integral / t)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise StepRejected(step * h, f"stage evaluation failed ({{exc}})") from exc
    return (samples, peak_I, peak_t, renormalizations, worst,
            x_clips, i_floors, r_clips)
"""
_CLIP = """\
            if not x_{k} >= 0.0:
                if not x_{k} >= -{tol}:
                    raise StepRejected(step * h, f"x[{k}]={{x_{k}!r}} left the simplex")
                x_{k} = 0.0
                x_clips += 1"""


@functools.lru_cache(maxsize=None)
def _kernel(n: int, law: str, constants: tuple[str, ...]):
    """Compile ``rhs(*y, K) -> tuple``, one stage of ``_FIELD``, and
    ``integrate(*y, n_steps, stride, K)`` for the packed state
    ``y = (I, R, x_0..x_{n-1}, q)``; both unpack ``K`` into the names
    ``constants``, in the order :func:`_kernel_for` joins them.

    ``integrate`` runs the whole fixed-step loop of :func:`simulate`: the
    four inlined stages of ``_FIELD`` and their combination
    ``y + h/2*k``, ``y + h*k``, ``y + h/6*(k1 + 2*k2 + 2*k3 + k4)`` in the
    order of the classical RK4 loop, then the projection, the peak, the
    cost ``r . x`` and its trapezoid integral, and a sample
    ``(t, *y, cost, avg_cost)`` every ``stride`` steps.  The samples are
    packed as doubles into one ``bytearray``, so no float objects are kept
    per sample.  It returns the samples, the peak and its time, and the
    projection counts of :class:`RunStats`.  The source is registered with
    :mod:`linecache` so tracebacks show the generated lines.

    The pairwise rates are written by ``law``, the kernel form of the
    protocol's rate (``edm._law``), in the flow text ``edm._flow_text``.
    :func:`_native` builds ``integrate`` again, in C.
    """
    state = _state_names(n)
    tol = repr(PROJECTION_TOL)
    args, constants = ", ".join(state), ", ".join(constants)
    called = _edm._tag(law)  # a name apart, so linecache keeps each law's source
    namespace = {"log": math.log, "sqrt": math.sqrt, "StepRejected": StepRejected,
                 "pack": struct.Struct(f"{len(state) + 3}d").pack}
    rhs = _compile_text(f"rhs_n{n}{called}", f"{args}, K",
                        f"{constants} = K\n{_field_template(n, law)}",
                        ", ".join(f"d{y}" for y in state), namespace)
    source = _LOOP.format(
        rk4="\n".join(" " * 12 + line for line in _rk4_lines(n, law)),
        clip="\n".join(_CLIP.format(k=k, tol=tol) for k in range(n)),
        renormalize="\n".join(f"                x_{k} /= xsum" for k in range(n)),
        tol=tol, floor=repr(I_FLOOR), ceiling=repr(1.0 + PROJECTION_TOL),
        args=args, constants=constants, **_sums(n),
    )
    exec(_compile_source(source, f"<epgtool kernel n={n}{called}>"), namespace)
    return rhs, namespace["integrate"]


def _state_names(n: int) -> list[str]:
    """The names of the packed state ``(I, R, x_0..x_{n-1}, q)``; ``d``
    before a name is its derivative."""
    return ["I", "R", *(f"x_{k}" for k in range(n)), "q"]


def _rk4_lines(n: int, law: str) -> list[str]:
    """One RK4 step as straight-line source: the four stages of
    ``_field_template(n, law)``, each on the state ``y + coef * k`` of the
    stage before, and the combination into the new state."""
    template = _field_template(n, law)
    state = _state_names(n)

    def stage(inputs: str, suffix: str) -> list[str]:
        return [line for line in template.format(i=inputs, _=suffix).splitlines() if line]

    rk4 = stage("", "_1")
    for k, coef in ((2, "half_h"), (3, "half_h"), (4, "h")):
        rk4 += [f"{y}_{k} = {y} + {coef} * d{y}_{k - 1}" for y in state]
        rk4 += stage(f"_{k}", f"_{k}")
    rk4 += [f"{y} = {y} + sixth * (d{y}_1 + 2.0 * d{y}_2 + 2.0 * d{y}_3 + d{y}_4)"
            for y in state]
    return rk4


def _sums(n: int) -> dict[str, str]:
    """The loop's sums over the strategies, from ``0.0``: of the shares, and
    the cost ``r . x``."""
    return {"xsum": "0.0 + " + " + ".join(f"x_{k}" for k in range(n)),
            "cost": "0.0 + " + " + ".join(f"(q * beta_{k} + rstar_{k}) * x_{k}"
                                          for k in range(n))}


# ``integrate``'s native form: the same step, ``_rk4_lines`` translated by
# :func:`_c`, and the same projection, peak, cost and samples in the same
# order as ``_LOOP``.  ``div_``, ``log_`` and ``sqrt_`` set ``err`` exactly
# where Python raises; any rejection returns 1 and carries no message: the
# Python loop reruns the run to raise it.
_C_LOOP = """\
#include <float.h>
#include <math.h>
#include <stdint.h>
#if FLT_EVAL_METHOD != 0
#error "doubles are evaluated in a wider format, as on x87: Python's bits cannot be kept"
#endif

static double div_(double a, double b, int *err) {{ *err |= b == 0.0; return a / b; }}
static double log_(double a, int *err) {{ *err |= a <= 0.0; return log(a); }}
static double sqrt_(double a, int *err) {{ *err |= a < 0.0; return sqrt(a); }}

int integrate(const double *y, int64_t n_steps, int64_t stride, const double *K,
              double *samples, double *floats, int64_t *counts)
{{
    double {state};
    const double {constants};
    double {temporaries};
    double c = {cost}, prev_cost, xsum, t;
    double cost_integral = 0.0, peak_I = I, peak_t = 0.0, worst = 0.0;
    int64_t renormalizations = 0, x_clips = 0, i_floors = 0, r_clips = 0;
    int err = 0;
    {sample_start}
    for (int64_t step = 1; step <= n_steps; step++) {{
{rk4}
        if (err) return 1;
{clip}
        xsum = {xsum};
        if (xsum != 1.0) {{
            if (!(fabs(xsum - 1.0) <= {tol})) return 1;
{renormalize}
            renormalizations++;
            if (fabs(xsum - 1.0) > worst) worst = fabs(xsum - 1.0);
        }}
        if (!(I >= {floor})) {{
            if (!(I >= -{tol})) return 1;
            I = {floor};
            i_floors++;
        }}
        if (!(R >= 0.0)) {{
            if (!(R >= -{tol})) return 1;
            R = 0.0;
            r_clips++;
        }}
        if (!(I + R <= {ceiling})) return 1;
        if (I > peak_I) {{ peak_I = I; peak_t = step * h; }}
        prev_cost = c;
        c = {cost};
        cost_integral += half_h * (prev_cost + c);
        if (step % stride == 0) {{
            t = step * h;
            {sample}
        }}
    }}
    floats[0] = peak_I; floats[1] = peak_t; floats[2] = worst;
    counts[0] = renormalizations; counts[1] = x_clips;
    counts[2] = i_floors; counts[3] = r_clips;
    return 0;
}}
"""
_C_CLIP = """\
        if (!(x_{k} >= 0.0)) {{
            if (!(x_{k} >= -{tol})) return 1;
            x_{k} = 0.0;
            x_clips++;
        }}"""
_C_OPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Lt: "<", ast.LtE: "<="}


class _Untranslatable(ValueError):
    """A construct of a stage text that has no C form here."""


def _c(node: ast.AST) -> str:
    """An assignment or expression of a stage text as C on doubles, each
    operation parenthesized; ``/``, ``log`` and ``sqrt`` through the checked
    helpers of ``_C_LOOP``.  Raises :class:`_Untranslatable` on anything
    else, such as a callback law's ``phi(j, gap)``."""
    match node:
        case ast.Assign([ast.Name(name)], value):
            return f"{name} = {_c(value)};"
        case ast.BinOp(left, ast.Div(), right):
            return f"div_({_c(left)}, {_c(right)}, &err)"
        case ast.BinOp(left, op, right) | ast.Compare(left, [op], [right]) if (
                type(op) in _C_OPS):
            return f"({_c(left)} {_C_OPS[type(op)]} {_c(right)})"
        case ast.IfExp(test, body, orelse):
            return f"({_c(test)} ? {_c(body)} : {_c(orelse)})"
        case ast.NamedExpr(ast.Name(name), value):
            return f"({name} = {_c(value)})"
        case ast.Call(ast.Name("log" | "sqrt" as function), [argument], []):
            return f"{function}_({_c(argument)}, &err)"
        case ast.Name(name):
            return name
        case ast.Constant(float(value)):
            return value.hex()
    raise _Untranslatable(ast.unparse(node))


def _c_source(n: int, law: str, constants: tuple[str, ...]) -> str:
    """``_C_LOOP`` for ``n`` strategies under ``law``, with ``K`` unpacked
    into ``constants``; raises :class:`_Untranslatable` unless every
    construct of the step has a C form."""
    state = _state_names(n)
    step = ast.parse("\n".join(_rk4_lines(n, law)))
    assigned = {node.id for node in ast.walk(step)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
    tol = PROJECTION_TOL.hex()

    def sample(t: str, avg_cost: str) -> str:
        return " ".join(f"*samples++ = {v};" for v in (t, *state, "c", avg_cost))
    return _C_LOOP.format(
        state=", ".join(f"{y} = y[{k}]" for k, y in enumerate(state)),
        constants=", ".join(f"{name} = K[{k}]" for k, name in enumerate(constants)),
        temporaries=", ".join(sorted(assigned - set(state))),
        rk4="\n".join(" " * 8 + _c(line) for line in step.body),
        clip="\n".join(_C_CLIP.format(k=k, tol=tol) for k in range(n)),
        **{name: _c(ast.parse(text, mode="eval").body) for name, text in _sums(n).items()},
        renormalize="\n".join(f"            x_{k} /= xsum;" for k in range(n)),
        sample_start=sample("0.0", "c"), sample=sample("t", "cost_integral / t"),
        tol=tol, floor=I_FLOOR.hex(), ceiling=(1.0 + PROJECTION_TOL).hex(),
    )


def _compiler() -> str | None:
    """The system C compiler, or ``None``."""
    return shutil.which("cc")


@functools.lru_cache(maxsize=None)
def _native(n: int, law: str, constants: tuple[str, ...], cc: str):
    """``integrate`` of :func:`_kernel` built with ``cc`` from
    :func:`_c_source`, or ``None`` when the step does not translate or does
    not build.  It takes the same arguments and returns the same values, bit
    for bit, or ``None`` where ``integrate`` raises :class:`StepRejected`."""
    import subprocess  # here, so that importing the library does not load it

    try:
        source = _c_source(n, law, constants)
    except _Untranslatable:
        return None
    with tempfile.TemporaryDirectory() as tmp:
        c_file, library = os.path.join(tmp, "kernel.c"), os.path.join(tmp, "kernel.so")
        with open(c_file, "w") as fh:
            fh.write(source)
        try:
            subprocess.run([cc, *_CFLAGS, "-o", library, c_file, "-lm"],
                           check=True, capture_output=True, timeout=_CC_TIMEOUT_S)
            loop = ctypes.CDLL(library).integrate  # mapped, so the file may go
        except (OSError, subprocess.SubprocessError):
            return None
    loop.restype = ctypes.c_int
    loop.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p,
                     ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p]

    def integrate(*args):
        *y, n_steps, stride, K = args
        if (len(y), len(K)) != (n + 3, len(constants)):  # the C loop reads this many
            raise ValueError(f"{len(y)} state values and {len(K)} constants do not fit "
                             f"the loop of {n} strategies")
        stride = min(int(stride), n_steps + 1)  # one past the last step samples nothing more
        samples = bytearray(8 * (len(y) + 3) * (n_steps // stride + 1))
        floats, counts = (ctypes.c_double * 3)(), (ctypes.c_int64 * 4)()
        if loop((ctypes.c_double * len(y))(*y), n_steps, stride,
                (ctypes.c_double * len(K))(*K),
                (ctypes.c_char * len(samples)).from_buffer(samples), floats, counts):
            return None
        peak_I, peak_t, worst = floats
        renormalizations, x_clips, i_floors, r_clips = counts
        return (samples, peak_I, peak_t, renormalizations, worst,
                x_clips, i_floors, r_clips)
    return integrate


def _law_and_constants(state: EpgState, mech: PayoffMechanism, proto, h: float):
    """The kernel form of ``proto``'s rate and, by name, the ``K`` of
    :func:`_kernel` at step ``h``: the constants of the rate law, ``_ENDEMIC``
    and ``_QDOT``, the strategies', the steps; raises ``ValueError`` unless
    ``state`` has one share per strategy."""
    mech.rate(state.x)  # raises unless there is one share per strategy
    law, rate = _edm._law(proto, "phi", columns=False)
    return law, {**rate, **_endemic_constants(mech.params), **_qdot_constants(mech),
                 **{f"beta_{k}": v for k, v in enumerate(mech.strategies.betas)},
                 **{f"r_o_{k}": v for k, v in enumerate(mech.r_o)},
                 **{f"rstar_{k}": v for k, v in enumerate(mech.rstar)},
                 "h": h, "half_h": 0.5 * h, "sixth": h / 6.0}


def _kernel_for(state: EpgState, mech: PayoffMechanism, proto, h: float = 0.0):
    """``rhs`` and ``integrate`` of :func:`_kernel` for ``mech`` and ``proto``,
    if ``state`` has one share per strategy, and their ``K`` at step ``h``."""
    law, K = _law_and_constants(state, mech, proto, h)
    return (*_kernel(len(state.x), law, tuple(K)), tuple(K.values()))


def state_derivative(state: EpgState, mech: PayoffMechanism, proto) -> np.ndarray:
    """Time derivative of the packed state ``[I, R, x..., q]``; raises
    ``ValueError`` unless ``state`` has one share per strategy."""
    rhs, _, K = _kernel_for(state, mech, proto)
    return np.array(rhs(state.I, state.R, *state.x, state.q, K))


@dataclass(frozen=True)
class RunStats:
    """What the integration loop saw.

    ``steps`` fixed steps were taken.  After ``renormalizations`` of them the
    strategy shares did not sum to exactly 1 and were divided by their sum;
    ``worst_renormalization`` is the largest ``|sum(x) - 1|`` so repaired.
    ``x_clips`` counts shares clipped up to 0, ``i_floors`` steps whose
    infectious fraction was raised to ``I_FLOOR``, and ``r_clips`` steps
    whose recovered fraction was clipped up to 0.  ``kernel`` names the
    loop that ran: ``"native"``, the compiled C form, or ``"python"``; their
    numbers are the same.
    """

    steps: int
    renormalizations: int
    worst_renormalization: float
    x_clips: int
    i_floors: int
    r_clips: int
    kernel: str


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of a closed-loop run plus derived series.

    Derived per sample: average transmission rate ``B``, payoffs ``p``,
    the epidemic storage, the protocol storage, and their sum ``lyapunov``.
    The kernel records the instantaneous cost ``(q*betas + rstar) . x``
    and its running time average.
    ``observed_peak`` is the maximum infectious fraction at full step
    resolution (not just at samples), and ``stats`` what the integration
    loop saw.
    """

    times: np.ndarray
    I: np.ndarray
    R: np.ndarray
    x: np.ndarray
    q: np.ndarray
    B: np.ndarray
    p: np.ndarray
    cost: np.ndarray
    avg_cost: np.ndarray
    epi_storage: np.ndarray
    proto_storage: np.ndarray
    lyapunov: np.ndarray
    observed_peak: float
    observed_peak_time: float
    stats: RunStats
    mech: PayoffMechanism = field(repr=False)
    proto: object = field(repr=False)

    def __len__(self) -> int:
        return len(self.times)

    def state_at(self, k: int) -> EpgState:
        return EpgState(
            I=float(self.I[k]), R=float(self.R[k]), x=tuple(self.x[k]), q=float(self.q[k])
        )


def step_count(horizon: float, step: float) -> int:
    """Number of fixed steps of size ``step`` that make up ``horizon`` days.

    Raises ``ValueError`` unless ``horizon`` is positive and a whole number
    of steps (to 1e-9 relative), and that number is at least one.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    steps = horizon / step
    if not math.isfinite(steps):
        raise ValueError(f"horizon {horizon!r} over step {step!r} is not finite")
    n_steps = int(round(steps))
    # negated, so that a NaN (0 steps of an infinite step) fails it
    if not abs(n_steps * step - horizon) <= 1e-9 * max(1.0, horizon):
        raise ValueError(
            f"horizon {horizon!r} is not an integer number of steps of {step!r}"
        )
    if n_steps < 1:
        raise ValueError(f"horizon {horizon!r} is shorter than one step of {step!r}")
    return n_steps


def simulate(
    initial: EpgState,
    horizon: float,
    mech: PayoffMechanism,
    proto,
    options: IntegratorOptions = IntegratorOptions(),
) -> Trajectory:
    """Integrate the closed loop for ``horizon`` days.

    Deterministic for a fixed configuration: fixed-step RK4 with purely
    sequential float arithmetic.  Raises :class:`StepRejected` when a step
    violates the state-space invariants beyond projection tolerances (the
    projection itself only repairs rounding-level noise), and
    ``ValueError`` when ``initial`` has not one share per strategy.
    """
    h = options.step
    stride = options.output_stride
    n_steps = step_count(horizon, h)

    betas = mech.strategies.betas
    n = len(betas)
    law, constants = _law_and_constants(initial, mech, proto, h)
    _, integrate = _kernel(n, law, tuple(constants))
    y, K = (initial.I, initial.R, *initial.x, initial.q), tuple(constants.values())
    native = None
    # the native loop pays for its compile from NATIVE_MIN_STEPS on and counts
    # in int64.  It takes a float start, and constants that are floats or
    # ints a double holds exactly (a config's ``upsilon: 6``), which every
    # operation of the step meets with a float: there Python computes as C
    # does.  A numpy float would divide by zero without raising.
    if (n <= NATIVE_MAX_STRATEGIES and NATIVE_MIN_STEPS <= n_steps < 2 ** 62
            and all(type(v) is float for v in y)
            and all(type(v) is float or type(v) is int and abs(v) <= 2 ** 53 for v in K)
            and (cc := _compiler())):
        native = _native(n, law, tuple(constants), cc)
    # a rejection in the native loop is raised by the Python loop's rerun
    result = native and native(*y, n_steps, stride, K)
    samples, peak_I, peak_t, *counts = result or integrate(*y, n_steps, stride, K)

    # columns t, I, R, x_0..x_{n-1}, q, cost, avg_cost.  The derived series
    # (B, payoffs, storages) are evaluated as the kernel would evaluate them.
    Y = np.frombuffer(samples).reshape(-1, n + 6)
    times, I_s, R_s, q_s, cost, avg_cost = (Y[:, k] for k in (0, 1, 2, 3 + n, -2, -1))
    x_s = Y[:, 3:3 + n]
    B_s = _sum_products(zip(betas, x_s.T))
    p_s = mech.payoffs(q_s)
    epi = _bounds.epidemic_storage(I_s, R_s, B_s, mech.alloc, mech.params, mech.upsilon)
    proto_s = _edm.storage(proto, x_s, p_s)
    return Trajectory(
        times=times, I=I_s, R=R_s, x=x_s, q=q_s, B=B_s, p=p_s,
        cost=cost, avg_cost=avg_cost,
        epi_storage=np.asarray(epi), proto_storage=proto_s,
        lyapunov=np.asarray(epi) + proto_s,
        observed_peak=peak_I, observed_peak_time=peak_t,
        stats=RunStats(n_steps, *counts, kernel="native" if result else "python"),
        mech=mech, proto=proto,
    )


def lyapunov_value(state: EpgState, mech: PayoffMechanism, proto) -> float:
    """Closed-loop Lyapunov value: epidemic storage plus protocol storage,
    at the rate ``B`` summed as the kernel sums it; raises ``ValueError``
    unless ``state`` has one share per strategy."""
    epi = _bounds.epidemic_storage(
        state.I, state.R, mech.rate(state.x), mech.alloc, mech.params, mech.upsilon
    )
    return float(epi) + _edm.storage(proto, state.x, mech.payoffs(state.q))


@dataclass(frozen=True)
class LyapunovSeries:
    """Sampled Lyapunov value, its finite-difference slope, and the decrease
    bound ``-dissipation - (B - delta)*i_dev^2 - a*(omega - delta*I)*r_dev^2``.

    ``dvalue_dt`` holds central differences at interior samples (endpoints
    are NaN).  ``worst_excess`` is the largest excess of the slope over the
    bound at an interior sample (``None`` below three samples), and
    ``violations`` lists ``(index, time, excess)`` where the slope exceeds
    the bound by more than ``fd_tol``.
    """

    times: np.ndarray
    value: np.ndarray
    dvalue_dt: np.ndarray
    decrease_bound: np.ndarray
    fd_tol: float
    worst_excess: float | None
    violations: tuple[tuple[int, float, float], ...]


def lyapunov_series(traj: Trajectory) -> LyapunovSeries:
    """Differentiate the sampled Lyapunov value and check its decrease bound.

    Bound violations are reported, never raised.  The tolerance
    ``fd_tol = 1e-6 * max(1, |value[0]|)`` absorbs the central-difference
    error at the default sampling stride for runs that start near the
    endemic curve; steep transients sampled coarsely can exceed it by discretization alone,
    in which case record at a finer ``output_stride`` before reading
    anything into the findings.
    """
    L = traj.lyapunov
    t = traj.times
    fd_tol = 1e-6 * max(1.0, abs(float(L[0])))
    dL = np.full_like(L, np.nan)
    if len(L) >= 3:
        dL[1:-1] = (L[2:] - L[:-2]) / (t[2:] - t[:-2])

    params = traj.mech.params
    eq = endemic_state(traj.B, params)
    i_dev = eq.I_hat - traj.I
    r_dev = eq.R_hat - traj.R
    bound = (
        -_edm.dissipation(traj.proto, traj.x, traj.p)
        - (eq.B - params.delta) * (i_dev * i_dev)
        - eq.a * (params.omega - params.delta * traj.I) * (r_dev * r_dev)
    )
    excess = dL - bound
    interior = excess[1:-1]
    found = np.flatnonzero(interior > fd_tol) + 1
    violations = tuple((int(k), float(t[k]), float(excess[k])) for k in found)
    return LyapunovSeries(
        times=t, value=L, dvalue_dt=dL, decrease_bound=bound, fd_tol=fd_tol,
        worst_excess=float(interior.max()) if interior.size else None,
        violations=violations,
    )


def write_csv(traj: Trajectory, path) -> str:
    """Write the trajectory as CSV with :func:`write_table`; return its
    header line.

    Fixed column order: ``t, I, R, x1..xn, q, B, cost, avg_cost, L``.
    """
    columns = {
        "t": traj.times, "I": traj.I, "R": traj.R,
        **{f"x{k + 1}": x_k for k, x_k in enumerate(traj.x.T)},
        "q": traj.q, "B": traj.B, "cost": traj.cost, "avg_cost": traj.avg_cost,
        "L": traj.lyapunov,
    }
    return write_table(path, list(columns), list(columns.values()))


def write_table(path, header: list[str], cols: list[np.ndarray]) -> str:
    """Write the float columns ``cols`` under ``header`` as CSV, rendered
    with ``CSV_FLOAT_FORMAT`` so identical runs produce identical bytes;
    return the header line."""
    row_format = ",".join([CSV_FLOAT_FORMAT] * len(cols)) + "\n"
    header_line = ",".join(header)
    with open(path, "w", newline="") as fh:
        fh.write(header_line + "\n")
        # Python floats format faster than numpy scalars; converting a block
        # of rows at a time keeps the extra memory small
        for start in range(0, len(cols[0]), _CSV_BLOCK_ROWS):
            block = [col[start:start + _CSV_BLOCK_ROWS].tolist() for col in cols]
            fh.write("".join([row_format % row for row in zip(*block)]))
    return header_line
