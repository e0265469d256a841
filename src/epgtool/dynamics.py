"""Closed-loop integration of the epidemic population game.

State ``Y = (I, R, x, q)``: infectious and recovered fractions, strategy
shares, and the payoff-mechanism state.  The vector field couples the
normalized SIRS flow (written in deviations from the endemic pair at the
current average transmission rate ``B``), the mean revision dynamics driven
by payoffs ``q*betas + r_o``, and the designed feedback for ``q``.

Integration is fixed-step explicit RK4 so reruns are bit-identical.  The
vector field is written once, as the source template ``_FIELD``, which
inlines the texts of the endemic algebra (``equilibrium._ENDEMIC``) and of
the feedback law (``payoff._QDOT``).  For a given strategy count ``n``
(and with or without the population column) it is expanded into
straight-line Python: ``rhs(*y)``, used by :func:`state_derivative`, and
an RK4 ``step(*y)`` with the four stages, the loops over ``n`` and the
n x n pairwise flow unrolled.  The code is compiled once per shape and run
with the model constants and ``proto.phi`` bound as globals, which removes
the interpreter's call and list overhead but keeps every float operation
of the loop form, in the same order.  After each step the strategy shares
are re-projected onto the simplex (clip-and-renormalize, rounding noise
only) and the infectious fraction is floored away from zero; violations
beyond ``PROJECTION_TOL`` abort with :class:`StepRejected`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bounds as _bounds
from . import edm as _edm
from .equilibrium import _ENDEMIC, _compile_source, _point_array
from .payoff import _QDOT, PayoffMechanism

__all__ = [
    "EpgState",
    "IntegratorOptions",
    "Trajectory",
    "LyapunovSeries",
    "StepRejected",
    "state_derivative",
    "simulate",
    "step_count",
    "lyapunov_value",
    "lyapunov_series",
    "write_csv",
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

    ``population`` optionally carries the absolute population size, which is
    tracked observationally (it does not feed back into the dynamics).
    """

    I: float
    R: float
    x: tuple[float, ...]
    q: float
    population: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if not all(math.isfinite(v) for v in (self.I, self.R, *self.x, self.q)):
            raise ValueError(
                f"state (I={self.I!r}, R={self.R!r}, x={self.x!r}, q={self.q!r}) "
                "is not finite"
            )
        if not self.I > 0.0:
            raise ValueError(f"I={self.I!r} must be positive")
        if self.I + self.R > 1.0 + PROJECTION_TOL or self.R < -PROJECTION_TOL:
            raise ValueError(f"(I, R)=({self.I!r}, {self.R!r}) not in the state space")
        _edm.check_simplex(self.x)
        if self.population is not None and not self.population > 0.0:
            raise ValueError(f"population={self.population!r} must be positive")


@dataclass(frozen=True)
class IntegratorOptions:
    """Fixed-step RK4 settings.

    ``step`` is the step size in days, ``output_stride`` the number of steps
    between recorded samples, and ``track_population`` enables the
    observational population-size equation.
    """

    step: float = 0.01
    output_stride: int = 10
    track_population: bool = False

    def __post_init__(self):
        if not self.step > 0:
            raise ValueError(f"step must be positive, got {self.step!r}")
        if self.output_stride < 1:
            raise ValueError("output_stride must be at least 1")


# One evaluation of the closed-loop vector field, written once.  ``{i}``
# suffixes the stage's inputs (I, R, x_k, q, N) and ``{_}`` every value the
# stage computes.  ``{endemic}`` and ``{qdot}`` are the texts of the
# endemic algebra and of the feedback law, on their smooth extension:
# invalid stage states surface as math-domain errors that :func:`simulate`
# turns into :class:`StepRejected`.  ``{B}``, ``{flow}`` and ``{population}``
# are filled by :func:`_field_template`.
_FIELD = """\
B{_} = {B}
{endemic}
i_dev{_} = I_hat{_} - I{i}
{qdot}
dI{_} = (B{_} * r_dev{_} + (B{_} - d) * i_dev{_}) * I{i}
dR{_} = (w - d * I{i}) * r_dev{_} - denom{_} * i_dev{_}
{flow}
{population}
"""


def _field_template(n: int, track_population: bool) -> str:
    """``_FIELD`` with the loops over the ``n`` strategies unrolled.

    Sums start from ``0.0`` and run left to right, with the zero ``i == j``
    term kept in each ``dx``, so every float operation matches the loop form
    ``dx[i] = sum_j flow[j][i] - flow[i][j]``.
    """
    B = " + ".join(["0.0"] + [f"beta_{k} * x_{k}{{i}}" for k in range(n)])
    flow = [f"p_{k}{{_}} = q{{i}} * beta_{k} + r_o_{k}" for k in range(n)]

    def f(i: int, j: int) -> str:
        return "0.0" if i == j else f"f_{i}_{j}{{_}}"

    for i in range(n):
        for j in range(n):
            if i != j:
                flow.append(f"g_{i}_{j}{{_}} = p_{j}{{_}} - p_{i}{{_}}")
                flow.append(
                    f"{f(i, j)} = x_{i}{{i}} * phi({j}, g_{i}_{j}{{_}}) "
                    f"if g_{i}_{j}{{_}} > 0.0 else 0.0"
                )
    for i in range(n):
        terms = " + ".join(f"({f(j, i)} - {f(i, j)})" for j in range(n))
        flow.append(f"dx_{i}{{_}} = 0.0 + {terms}")
    population = "dN{_} = (g_rate - d * I{i}) * N{i}" if track_population else ""
    # {i} and {_} stay placeholders; they are filled per stage
    return _FIELD.format(B=B, endemic=_ENDEMIC, qdot=_QDOT, flow="\n".join(flow),
                         population=population, i="{i}", _="{_}")


@functools.lru_cache(maxsize=None)
def _kernel_code(n: int, track_population: bool):
    """Compile ``rhs(*y) -> tuple`` and the RK4 ``step(*y) -> tuple`` for
    the packed state ``y = (I, R, x_0..x_{n-1}, q[, N])``.

    ``step`` inlines the four stages of ``_FIELD``; the combination
    ``y + h/2*k``, ``y + h*k`` and ``y + h/6*(k1 + 2*k2 + 2*k3 + k4)``
    keeps the order of the classical RK4 loop.  The source is registered
    with :mod:`linecache` so tracebacks show the generated lines.
    """
    template = _field_template(n, track_population)
    state = ["I", "R", *(f"x_{k}" for k in range(n)), "q"]
    deriv = ["dI", "dR", *(f"dx_{k}" for k in range(n)), "dq"]
    if track_population:
        state.append("N")
        deriv.append("dN")

    def stage(inputs: str, suffix: str) -> list[str]:
        text = template.format(i=inputs, _=suffix)
        return [f"    {line}" for line in text.splitlines() if line]

    args = ", ".join(state)
    lines = [f"def rhs({args}):", *stage("", ""),
             f"    return ({', '.join(deriv)},)", "",
             f"def step({args}):", *stage("", "_1")]
    for k, coef in ((2, "half_h"), (3, "half_h"), (4, "h")):
        lines += [f"    {y}_{k} = {y} + {coef} * {dy}_{k - 1}"
                  for y, dy in zip(state, deriv)]
        lines += stage(f"_{k}", f"_{k}")
    lines.append("    return (" + ", ".join(
        f"{y} + sixth * ({dy}_1 + 2.0 * {dy}_2 + 2.0 * {dy}_3 + {dy}_4)"
        for y, dy in zip(state, deriv)
    ) + ",)")
    filename = f"<epgtool kernel n={n} population={track_population}>"
    return _compile_source("\n".join(lines) + "\n", filename)


def _kernel(mech: PayoffMechanism, proto, track_population: bool, h: float = 0.0):
    """``(rhs, step)`` for ``mech`` and ``proto`` at step size ``h``.

    The model constants and ``proto.phi`` are bound as globals of the
    generated functions; the rate is always called as ``phi(j, gap)``.
    """
    params = mech.params
    n = len(mech.strategies.betas)
    namespace = {
        "log": math.log, "sqrt": math.sqrt, "phi": proto.phi,
        "d": params.delta, "w": params.omega, "gam": params.gamma,
        "sig": params.sigma, "g_rate": params.g,
        "ups2": mech.upsilon ** 2, "bstar": mech.alloc.betastar,
        "h": h, "half_h": 0.5 * h, "sixth": h / 6.0,
    }
    for k in range(n):
        namespace[f"beta_{k}"] = mech.strategies.betas[k]
        namespace[f"r_o_{k}"] = mech.r_o[k]
    exec(_kernel_code(n, track_population), namespace)
    return namespace["rhs"], namespace["step"]


def state_derivative(state: EpgState, mech: PayoffMechanism, proto) -> np.ndarray:
    """Time derivative of the packed state ``[I, R, x..., q(, N)]``."""
    track = state.population is not None
    y = [state.I, state.R, *state.x, state.q]
    if track:
        y.append(state.population)
    rhs, _ = _kernel(mech, proto, track)
    return np.array(rhs(*y))


@dataclass(frozen=True)
class Trajectory:
    """Recorded samples of a closed-loop run plus derived series.

    Derived per sample: average transmission rate ``B``, payoffs ``p`` and
    rewards ``r``, instantaneous cost ``r . x``, its running time average,
    the epidemic storage, the protocol storage, and their sum ``lyapunov``.
    ``observed_peak`` is the maximum infectious fraction at full step
    resolution (not just at samples).
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
    population: np.ndarray | None
    observed_peak: float
    observed_peak_time: float
    mech: PayoffMechanism = field(repr=False)
    proto: object = field(repr=False)
    options: IntegratorOptions = field(repr=False)

    def __len__(self) -> int:
        return len(self.times)

    def state_at(self, k: int) -> EpgState:
        return EpgState(
            I=float(self.I[k]),
            R=float(self.R[k]),
            x=tuple(self.x[k]),
            q=float(self.q[k]),
            population=None if self.population is None else float(self.population[k]),
        )


def step_count(horizon: float, step: float) -> int:
    """Number of fixed steps of size ``step`` that make up ``horizon`` days.

    Raises ``ValueError`` unless ``horizon`` is positive and a whole number
    of steps (to 1e-9 relative).
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon!r}")
    steps = horizon / step
    if not math.isfinite(steps):
        raise ValueError(f"horizon {horizon!r} over step {step!r} is not finite")
    n_steps = int(round(steps))
    if abs(n_steps * step - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(
            f"horizon {horizon!r} is not an integer number of steps of {step!r}"
        )
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
    projection itself only repairs rounding-level noise).
    """
    h = options.step
    stride = options.output_stride
    n_steps = step_count(horizon, h)
    track = options.track_population
    if track and initial.population is None:
        raise ValueError("track_population requires an initial population size")

    params = mech.params
    betas = mech.strategies.betas
    rstar = mech.rstar
    n = len(betas)
    _, rk4_step = _kernel(mech, proto, track, h)

    y = [initial.I, initial.R, *initial.x, initial.q]
    if track:
        y.append(initial.population)

    def cost_of(y: list[float]) -> float:
        c = 0.0
        for k in range(n):
            c += (y[2 + n] * betas[k] + rstar[k]) * y[2 + k]
        return c

    rec_t = [0.0]
    rec_y = [list(y)]
    rec_cost = [cost_of(y)]
    rec_avg = [cost_of(y)]  # running average at t=0 defaults to the spot cost
    cost_integral = 0.0
    prev_cost = rec_cost[0]
    peak_I, peak_t = y[0], 0.0

    for step in range(1, n_steps + 1):
        t_next = step * h
        try:
            y = list(rk4_step(*y))
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise StepRejected(t_next, f"stage evaluation failed ({exc})") from exc

        # project x back onto the simplex; only rounding noise is repaired
        xsum = 0.0
        for k in range(n):
            xk = y[2 + k]
            if xk < 0.0:
                if xk < -PROJECTION_TOL:
                    raise StepRejected(t_next, f"x[{k}]={xk!r} left the simplex")
                y[2 + k] = 0.0
                xk = 0.0
            xsum += xk
        if abs(xsum - 1.0) > PROJECTION_TOL:
            raise StepRejected(t_next, f"sum(x)={xsum!r} drifted off 1")
        if xsum != 1.0:
            for k in range(n):
                y[2 + k] /= xsum
        if y[0] < I_FLOOR:
            if y[0] < -PROJECTION_TOL:
                raise StepRejected(t_next, f"I={y[0]!r} went negative")
            y[0] = I_FLOOR
        if y[1] < 0.0:
            if y[1] < -PROJECTION_TOL:
                raise StepRejected(t_next, f"R={y[1]!r} went negative")
            y[1] = 0.0
        if y[0] + y[1] > 1.0 + PROJECTION_TOL:
            raise StepRejected(t_next, f"I+R={y[0] + y[1]!r} exceeded 1")

        if y[0] > peak_I:
            peak_I, peak_t = y[0], t_next
        c = cost_of(y)
        cost_integral += 0.5 * h * (prev_cost + c)
        prev_cost = c
        if step % stride == 0:
            rec_t.append(t_next)
            rec_y.append(list(y))
            rec_cost.append(c)
            rec_avg.append(cost_integral / t_next)

    times = np.array(rec_t)
    Y = np.array(rec_y)
    I_s, R_s, q_s = Y[:, 0], Y[:, 1], Y[:, 2 + n]
    x_s = Y[:, 2:2 + n]
    pop = Y[:, 3 + n] if track else None
    B_s = x_s @ np.asarray(betas)
    p_s = mech.payoffs(q_s)
    r_s = mech.rewards(q_s)
    epi = _bounds.epidemic_storage(
        I_s, R_s, B_s, mech.alloc, params, mech.upsilon
    )
    proto_s = _edm.storage(proto, x_s, p_s)
    return Trajectory(
        times=times, I=I_s, R=R_s, x=x_s, q=q_s, B=B_s, p=p_s, r=r_s,
        cost=np.array(rec_cost), avg_cost=np.array(rec_avg),
        epi_storage=np.asarray(epi), proto_storage=proto_s,
        lyapunov=np.asarray(epi) + proto_s,
        population=pop,
        observed_peak=peak_I, observed_peak_time=peak_t,
        mech=mech, proto=proto, options=options,
    )


def lyapunov_value(state: EpgState, mech: PayoffMechanism, proto) -> float:
    """Closed-loop Lyapunov value: epidemic storage plus protocol storage."""
    B = float(np.dot(state.x, mech.strategies.betas))
    epi = _bounds.epidemic_storage(
        state.I, state.R, B, mech.alloc, mech.params, mech.upsilon
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
    ``fd_tol = 1e-6 * max(1, value[0])`` absorbs the central-difference error at the
    default sampling stride for runs that start near the endemic curve;
    steep transients sampled coarsely can exceed it by discretization alone,
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
    curve = np.asarray(traj.B, dtype=float)
    _, _, I_hat, R_hat, a = _point_array(curve, params)
    i_dev = I_hat - traj.I
    r_dev = R_hat - traj.R
    bound = (
        -_edm.dissipation(traj.proto, traj.x, traj.p)
        - (curve - params.delta) * i_dev ** 2
        - a * (params.omega - params.delta * traj.I) * r_dev ** 2
    )
    excess = dL - bound
    found = np.flatnonzero(excess[1:-1] > fd_tol) + 1
    violations = tuple((int(k), float(t[k]), float(excess[k])) for k in found)
    return LyapunovSeries(
        times=t, value=L, dvalue_dt=dL, decrease_bound=bound,
        fd_tol=fd_tol, violations=violations,
    )


def write_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as CSV.

    Fixed column order: ``t, I, R, x1..xn, q, B, cost, avg_cost, L`` with a
    trailing ``N`` column when the population size was tracked.  Floats are
    rendered with ``CSV_FLOAT_FORMAT`` so identical runs produce identical
    bytes.
    """
    n = traj.x.shape[1]
    header = ["t", "I", "R"] + [f"x{k + 1}" for k in range(n)] + [
        "q", "B", "cost", "avg_cost", "L",
    ]
    cols = [traj.times, traj.I, traj.R] + [traj.x[:, k] for k in range(n)] + [
        traj.q, traj.B, traj.cost, traj.avg_cost, traj.lyapunov,
    ]
    if traj.population is not None:
        header.append("N")
        cols.append(traj.population)
    row_format = ",".join([CSV_FLOAT_FORMAT] * len(cols)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        # Python floats format faster than numpy scalars; converting a block
        # of rows at a time keeps the extra memory small
        for start in range(0, len(traj), _CSV_BLOCK_ROWS):
            block = [col[start:start + _CSV_BLOCK_ROWS].tolist() for col in cols]
            fh.write("".join([row_format % row for row in zip(*block)]))
