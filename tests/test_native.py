"""The native integration loop against the Python one it is generated beside.

``dynamics._native`` builds ``integrate`` again, as C, from the same stage
text (``dynamics._rk4_lines``).  These tests hold it to the Python loop bit
for bit: the samples, the peak and its time, and the counts of every run,
and a rejection wherever the Python loop raises.  They also check that the
native loop is built where a C compiler is on ``PATH``, so that a broken C
path cannot hide behind the fallback to Python.
"""

from __future__ import annotations

import shutil
import struct
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epgtool import (
    EpgState,
    IntegratorOptions,
    PolicyConfig,
    SmithProtocol,
    StepRejected,
    build_mechanism,
    optimal_allocation,
    simulate,
)
from epgtool import dynamics
from epgtool.config import apply_overrides, load_config, resolve
from epgtool.dynamics import step_count
from epgtool.equilibrium import _endemic_constants
from helpers import PerStrategyLaws

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "example1.json"
CC = dynamics._compiler()
needs_cc = pytest.mark.skipif(CC is None, reason="no C compiler on PATH")

# the three-strategy audit run: sampled at every step for 600 days
AUDIT_N3 = ["strategies.betas=[0.12,0.15,0.19]", "strategies.costs=[0.45,0.25,0.05]",
            "policy.cstar=0.3", "policy.upsilon=6", "integrator.horizon=600",
            "integrator.output_stride=1", "initial.x=[1,0,0]"]


def _loops(state, mech, proto, h):
    """The Python and the native ``integrate`` for a run, and its ``K``."""
    law, constants = dynamics._law_and_constants(state, mech, proto, h)
    n = len(state.x)
    _, python = dynamics._kernel(n, law, tuple(constants))
    return python, dynamics._native(n, law, tuple(constants), CC), tuple(constants.values())


def _bits(result) -> bytes:
    samples, *rest = result
    return bytes(samples) + struct.pack("=2dqd3q", *rest)


def _both(state, mech, proto, horizon, options):
    """Run both loops; the native one's bits, or ``None`` where both reject."""
    python, native, K = _loops(state, mech, proto, options.step)
    assert native is not None
    args = (state.I, state.R, *state.x, state.q,
            step_count(horizon, options.step), options.output_stride, K)
    got = native(*args)
    try:
        expected = python(*args)
    except StepRejected:
        assert got is None
        return None
    assert got is not None
    assert _bits(got) == _bits(expected)
    return got


def _run(overrides=()):
    return resolve(apply_overrides(load_config(CONFIG), list(overrides)))


def test_the_native_loop_is_built_for_example1_where_cc_is_on_path():
    # without this, a C path that no longer builds would fall back unseen
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    run = _run()
    traj = simulate(run.initial, run.horizon, run.mech, run.proto, run.integrator)
    assert traj.stats.kernel == "native"


@needs_cc
@pytest.mark.parametrize("overrides", [[], AUDIT_N3], ids=["example1", "audit_n3"])
def test_native_and_python_loops_agree_bit_for_bit(overrides):
    run = _run(overrides)
    assert _both(run.initial, run.mech, run.proto, run.horizon, run.integrator) is not None
    # audit_n3's upsilon is the int 6, so one constant of K is an int
    traj = simulate(run.initial, run.horizon, run.mech, run.proto, run.integrator)
    assert traj.stats.kernel == "native"


@needs_cc
def test_the_loops_agree_where_smiths_rates_cross_their_knee(three_strategy):
    policy = PolicyConfig(cstar=0.3, upsilon=6.0)
    s = three_strategy
    alloc = optimal_allocation(s.strategies, policy, s.params)
    mech = build_mechanism(alloc, s.strategies, policy, s.params)
    proto = SmithProtocol(rate_gain=4.0, cap=0.1)
    opts = IntegratorOptions(step=0.01, output_stride=1)
    assert _both(s.initial, mech, proto, 40.0, opts) is not None
    # the rates are capped somewhere in the window
    traj = simulate(s.initial, 40.0, mech, proto, opts)
    gaps = traj.p[:, :, None] - traj.p[:, None, :]
    assert gaps.max() > proto.cap / proto.rate_gain


def _simplex(n):
    corners = st.sampled_from([tuple(float(k == j) for k in range(n)) for j in range(n)])
    weights = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(
        lambda w: sum(w) > 1e-3)
    return st.one_of(corners, weights.map(lambda w: tuple(v / sum(w) for v in w)))


@st.composite
def _starts(draw):
    n = draw(st.sampled_from([2, 3]))
    I = draw(st.floats(1e-9, 0.9))
    R = draw(st.floats(0.0, 1.0 - I))
    x = draw(_simplex(n))
    return n, EpgState(I=I, R=R, x=x, q=draw(st.floats(-5.0, 5.0)))


@needs_cc
@settings(max_examples=150, deadline=None)
@given(start=_starts(), gain=st.floats(1e-3, 1e3), cap=st.floats(1e-3, 10.0),
       steps=st.integers(1, 400), h=st.sampled_from([0.01, 0.1, 1.0]),
       stride=st.integers(1, 50))
def test_the_loops_agree_on_drawn_starts_gains_and_horizons(
        example1, three_strategy, start, gain, cap, steps, h, stride):
    n, state = start
    scenario = example1 if n == 2 else three_strategy
    _both(state, scenario.mech, SmithProtocol(rate_gain=gain, cap=cap), steps * h,
          IntegratorOptions(step=h, output_stride=stride))


def test_a_callback_law_has_no_native_form(example1):
    law, constants = dynamics._law_and_constants(
        example1.initial, example1.mech, PerStrategyLaws(gains=(0.1, 0.1)), 0.01)
    with pytest.raises(dynamics._Untranslatable, match=r"^phi\(1, g_1\)$"):
        dynamics._c_source(2, law, tuple(constants))


def test_short_runs_and_callback_laws_run_the_python_loop(example1, monkeypatch):
    monkeypatch.setattr(dynamics, "_native", lambda *key: pytest.fail("built"))
    short = simulate(example1.initial, 1.0, example1.mech, example1.proto)
    assert short.stats.steps < dynamics.NATIVE_MIN_STEPS
    callback = simulate(example1.initial, 300.0, example1.mech,
                        PerStrategyLaws(gains=(0.1, 0.1)))
    assert short.stats.kernel == callback.stats.kernel == "python"


def _patch_endemic(monkeypatch, **changes):
    monkeypatch.setattr(dynamics, "_endemic_constants",
                        lambda params: {**_endemic_constants(params), **changes})


FROZEN = SmithProtocol(rate_gain=1e-12, cap=1e-12)

# each rejection of the loop, as (start, step, steps, protocol, patched
# endemic constants, a part of its message or of the generated line raising it)
REJECTIONS = {
    "log": ((0.9, 0.0, (1.0, 0.0), 0.0), 50.0, 4, FROZEN, {}, "(log(I_2 / I_hat_2)"),
    # the discriminant of the first stage is negative
    "sqrt": ((0.03, 0.3, (1.0, 0.0), 0.0), 0.01, 4, FROZEN, {"d4w": 1e3}, "sqrt(disc_1)"),
    # B = sigma gives I_hat = 0 and I / I_hat
    "division": ((0.03, 0.3, (1.0, 0.0), 0.0), 0.01, 4, FROZEN, {"sig": 0.15},
                 "(float division by zero)"),
    "x": ((0.01, 0.0, (0.0, 1.0), 5.0), 1.0, 2, SmithProtocol(1e3, 1e3), {}, ": x[1]=-"),
    "I": ((0.3, 0.2715, (1.0, 0.0), 0.0), 50.0, 4, FROZEN, {}, ": I=-"),
    "R": ((1e-6, 0.0, (1.0, 0.0), 0.0), 1.0, 1, FROZEN, {"w2": 0.044}, ": R=-"),
    "I+R": ((1e-6, 0.0, (0.0, 1.0), 0.0), 1000.0, 1, FROZEN, {}, "exceeded 1"),
    "nan": ((1e-300, 0.0, (0.0, 1.0), -1e300), 1e300, 4, SmithProtocol(0.1, 0.1), {},
            ": x[0]=nan"),
}


def _rejection(example1, monkeypatch, case, native):
    (I, R, x, q), h, steps, proto, changes, _ = REJECTIONS[case]
    _patch_endemic(monkeypatch, **changes)
    loops = []
    if native:
        monkeypatch.setattr(dynamics, "NATIVE_MIN_STEPS", 0)
        build = dynamics._native

        def recorded(*key):
            loop = build(*key)

            def run(*args):
                loops.append(loop(*args))
                return loops[-1]
            return run
        monkeypatch.setattr(dynamics, "_native", recorded)
    else:
        monkeypatch.setattr(dynamics, "_compiler", lambda: None)
    with pytest.raises(StepRejected) as err:
        simulate(EpgState(I=I, R=R, x=x, q=q), steps * h, example1.mech, proto,
                 IntegratorOptions(step=h, output_stride=1))
    assert loops == ([None] if native else [])
    cause = err.value.__cause__
    return (str(err.value), err.value.t,
            cause and "".join(traceback.format_exception(cause)))


@needs_cc
@pytest.mark.parametrize("case", list(REJECTIONS))
def test_each_rejection_is_the_same_with_the_native_loop(example1, monkeypatch, case):
    python = _rejection(example1, monkeypatch, case, native=False)
    monkeypatch.undo()
    native = _rejection(example1, monkeypatch, case, native=True)
    assert native == python
    message, _, cause = python
    assert REJECTIONS[case][-1] in message + (cause or "")
    # a stage's error is raised from the generated line
    assert (cause is None) == ("stage evaluation failed" not in message)
    assert cause is None or '"<epgtool kernel n=2>"' in cause

