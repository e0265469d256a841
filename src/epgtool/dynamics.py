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
loop form, in the same order.  ``K`` is the values of one ordered table,
:func:`_constants`, and the pair is compiled for ``n`` and the table's
names.  The rate law and its entries come from ``edm._law``, which alone
chooses how a protocol's rate is written: Smith's capped-linear law is
inlined for every ordered pair as a conditional expression on ``rg`` and
``cap``, so the kernel makes no Python call for it, and every other
protocol is called as ``phi(j, gap)``.

The series derived from the samples afterwards (``B``, the payoffs, the
storages and the Lyapunov value) follow the kernel's evaluation rule:
sums over strategies left to right from ``0.0``
(``equilibrium._sum_products``), squares as products, and ``math.log``.
So they are the numbers the kernel itself would compute, whatever BLAS or
SIMD code numpy dispatches to on the host, and :func:`lyapunov_value` of a
sample equals its ``lyapunov`` entry.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import bounds as _bounds
from . import edm as _edm
from .equilibrium import (_ENDEMIC, _compile_source, _compile_text, _endemic_constants,
                          _sum_products, endemic_state)
from .payoff import _QDOT, PayoffMechanism

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


def _constants(mech: PayoffMechanism, proto, h: float) -> dict:
    """``K`` by name, in the order the generated functions unpack it: the
    rate law's (``edm._law``), the endemic text's
    (``equilibrium._endemic_constants``), the others and the steps for ``h``."""
    _, rate = _edm._law(proto, "phi", len(mech.strategies.betas), columns=False)
    return {**rate, **_endemic_constants(mech.params),
            "ups2": mech.upsilon * mech.upsilon, "bstar": mech.alloc.betastar,
            **{f"beta_{k}": v for k, v in enumerate(mech.strategies.betas)},
            **{f"r_o_{k}": v for k, v in enumerate(mech.r_o)},
            **{f"rstar_{k}": v for k, v in enumerate(mech.rstar)},
            "h": h, "half_h": 0.5 * h, "sixth": h / 6.0}


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
            xsum = 0.0 + {xsum}
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
    ``constants``, the keys of :func:`_constants`.

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
    """
    template = _field_template(n, law)
    state = ["I", "R", *(f"x_{k}" for k in range(n)), "q"]
    deriv = ["dI", "dR", *(f"dx_{k}" for k in range(n)), "dq"]

    indent = " " * 12

    def stage(inputs: str, suffix: str) -> list[str]:
        text = template.format(i=inputs, _=suffix)
        return [indent + line for line in text.splitlines() if line]

    rk4 = stage("", "_1")
    for k, coef in ((2, "half_h"), (3, "half_h"), (4, "h")):
        rk4 += [f"{indent}{y}_{k} = {y} + {coef} * {dy}_{k - 1}"
                for y, dy in zip(state, deriv)]
        rk4 += stage(f"_{k}", f"_{k}")
    rk4 += [f"{indent}{y} = {y} + sixth * ({dy}_1 + 2.0 * {dy}_2 + 2.0 * {dy}_3 + {dy}_4)"
            for y, dy in zip(state, deriv)]
    tol = repr(PROJECTION_TOL)
    args, constants = ", ".join(state), ", ".join(constants)
    called = _edm._tag(law)  # a name apart, so linecache keeps each law's source
    namespace = {"log": math.log, "sqrt": math.sqrt, "StepRejected": StepRejected,
                 "pack": struct.Struct(f"{len(state) + 3}d").pack}
    rhs = _compile_text(f"rhs_n{n}{called}", f"{args}, K", f"{constants} = K\n{template}",
                        ", ".join(deriv), namespace)
    source = _LOOP.format(
        rk4="\n".join(rk4),
        clip="\n".join(_CLIP.format(k=k, tol=tol) for k in range(n)),
        xsum=" + ".join(f"x_{k}" for k in range(n)),
        renormalize="\n".join(f"                x_{k} /= xsum" for k in range(n)),
        cost="0.0 + " + " + ".join(
            f"(q * beta_{k} + rstar_{k}) * x_{k}" for k in range(n)),
        tol=tol, floor=repr(I_FLOOR), ceiling=repr(1.0 + PROJECTION_TOL),
        args=args, constants=constants,
    )
    exec(_compile_source(source, f"<epgtool kernel n={n}{called}>"), namespace)
    return rhs, namespace["integrate"]


def _kernel_for(state: EpgState, mech: PayoffMechanism, proto):
    """:func:`_kernel` for the rate law and the constants of ``mech`` and
    ``proto``, if ``state`` has one share per strategy."""
    mech.rate(state.x)  # raises unless there is one share per strategy
    law, _ = _edm._law(proto, "phi", len(state.x), columns=False)
    return _kernel(len(state.x), law, tuple(_constants(mech, proto, 0.0)))


def state_derivative(state: EpgState, mech: PayoffMechanism, proto) -> np.ndarray:
    """Time derivative of the packed state ``[I, R, x..., q]``; raises
    ``ValueError`` unless ``state`` has one share per strategy."""
    rhs, _ = _kernel_for(state, mech, proto)
    return np.array(rhs(state.I, state.R, *state.x, state.q,
                        tuple(_constants(mech, proto, 0.0).values())))


@dataclass(frozen=True)
class RunStats:
    """What the integration loop saw.

    ``steps`` fixed steps were taken.  After ``renormalizations`` of them the
    strategy shares did not sum to exactly 1 and were divided by their sum;
    ``worst_renormalization`` is the largest ``|sum(x) - 1|`` so repaired.
    ``x_clips`` counts shares clipped up to 0, ``i_floors`` steps whose
    infectious fraction was raised to ``I_FLOOR``, and ``r_clips`` steps
    whose recovered fraction was clipped up to 0.
    """

    steps: int
    renormalizations: int
    worst_renormalization: float
    x_clips: int
    i_floors: int
    r_clips: int


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of a closed-loop run plus derived series.

    Derived per sample: average transmission rate ``B``, payoffs ``p`` and
    rewards ``r``, instantaneous cost ``r . x``, its running time average,
    the epidemic storage, the protocol storage, and their sum ``lyapunov``.
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
    r: np.ndarray
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
    options: IntegratorOptions = field(repr=False)

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

    params = mech.params
    betas = mech.strategies.betas
    n = len(betas)
    _, integrate = _kernel_for(initial, mech, proto)
    samples, peak_I, peak_t, *counts = integrate(
        initial.I, initial.R, *initial.x, initial.q,
        n_steps, stride, tuple(_constants(mech, proto, h).values())
    )

    # columns t, I, R, x_0..x_{n-1}, q, cost, avg_cost.  The derived series
    # (B, payoffs, storages) are evaluated as the kernel would evaluate them.
    Y = np.frombuffer(samples).reshape(-1, n + 6)
    times, I_s, R_s, q_s, cost, avg_cost = (Y[:, k] for k in (0, 1, 2, 3 + n, -2, -1))
    x_s = Y[:, 3:3 + n]
    B_s = _sum_products(zip(betas, x_s.T))
    p_s = mech.payoffs(q_s)
    r_s = mech.rewards(q_s)
    epi = _bounds.epidemic_storage(
        I_s, R_s, B_s, mech.alloc, params, mech.upsilon
    )
    proto_s = _edm.storage(proto, x_s, p_s)
    return Trajectory(
        times=times, I=I_s, R=R_s, x=x_s, q=q_s, B=B_s, p=p_s, r=r_s,
        cost=cost, avg_cost=avg_cost,
        epi_storage=np.asarray(epi), proto_storage=proto_s,
        lyapunov=np.asarray(epi) + proto_s,
        observed_peak=peak_I, observed_peak_time=peak_t,
        stats=RunStats(n_steps, *counts),
        mech=mech, proto=proto, options=options,
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
    are NaN).  ``violations`` lists ``(index, time, excess)`` where the slope
    exceeds the bound by more than ``fd_tol``.
    """

    times: np.ndarray
    value: np.ndarray
    dvalue_dt: np.ndarray
    decrease_bound: np.ndarray
    fd_tol: float
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
    found = np.flatnonzero(excess[1:-1] > fd_tol) + 1
    violations = tuple((int(k), float(t[k]), float(excess[k])) for k in found)
    return LyapunovSeries(
        times=t, value=L, dvalue_dt=dL, decrease_bound=bound,
        fd_tol=fd_tol, violations=violations,
    )


def write_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as CSV with :func:`write_table`.

    Fixed column order: ``t, I, R, x1..xn, q, B, cost, avg_cost, L``.
    """
    n = traj.x.shape[1]
    header = ["t", "I", "R"] + [f"x{k + 1}" for k in range(n)] + [
        "q", "B", "cost", "avg_cost", "L",
    ]
    cols = [traj.times, traj.I, traj.R] + [traj.x[:, k] for k in range(n)] + [
        traj.q, traj.B, traj.cost, traj.avg_cost, traj.lyapunov,
    ]
    write_table(path, header, cols)


def write_table(path, header: list[str], cols: list[np.ndarray]) -> None:
    """Write the float columns ``cols`` under ``header`` as CSV, rendered
    with ``CSV_FLOAT_FORMAT`` so identical runs produce identical bytes."""
    row_format = ",".join([CSV_FLOAT_FORMAT] * len(cols)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        # Python floats format faster than numpy scalars; converting a block
        # of rows at a time keeps the extra memory small
        for start in range(0, len(cols[0]), _CSV_BLOCK_ROWS):
            block = [col[start:start + _CSV_BLOCK_ROWS].tolist() for col in cols]
            fh.write("".join([row_format % row for row in zip(*block)]))
