"""Bit-level fingerprints of the closed-loop kernel.

The state values below were recorded from the hand-written RK4 loop that
the generated straight-line kernel replaced.  Any change to the order of
float operations in the vector field or the RK4 stages changes at least one
of them, so a faster kernel counts only while all of them still hold.  The
CSV hashes also cover the derived ``B`` and ``L`` columns, which follow the
kernel's rounding rule (sums left to right, squares as products,
``math.log``), so they are the same bytes whatever BLAS or SIMD code the
host's numpy runs.  The generated Smith sources themselves are pinned by
their sha256, so a change that is meant to keep the kernel keeps every byte
of its text.
"""

from __future__ import annotations

import hashlib
import linecache
import traceback

import pytest

from epgtool import (
    EpgState,
    IntegratorOptions,
    PolicyConfig,
    StepRejected,
    build_mechanism,
    endemic_state,
    optimal_allocation,
    simulate,
    state_derivative,
    write_csv,
)
from helpers import PerStrategyLaws


def _csv_sha256(traj, tmp_path) -> str:
    path = tmp_path / "trajectory.csv"
    write_csv(traj, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _knee_scenario(three_strategy):
    """n=3 at upsilon=6 with per-strategy capped-linear rates whose knees
    (gaps 0.05, 0.025 and 0.01) are all crossed within the first 40 days."""
    policy = PolicyConfig(cstar=0.3, upsilon=6.0)
    alloc = optimal_allocation(three_strategy.strategies, policy, three_strategy.params)
    mech = build_mechanism(alloc, three_strategy.strategies, policy, three_strategy.params)
    proto = PerStrategyLaws(gains=(2.0, 4.0, 10.0))
    return mech, proto


def test_example1_csv_fingerprint(example1, tmp_path):
    opts = IntegratorOptions(step=0.01, output_stride=1)
    traj = simulate(example1.initial, 30.0, example1.mech, example1.proto, opts)
    assert _csv_sha256(traj, tmp_path) == (
        "abbcfb5df3ec1f4813a4b8e74274a62428b7e69d60089f0eb86e8769e4f71e70"
    )
    assert traj.observed_peak == float.fromhex("0x1.f0dedaef5dc76p-6")


def test_three_strategy_knee_crossing_csv_fingerprint(three_strategy, tmp_path):
    mech, proto = _knee_scenario(three_strategy)
    opts = IntegratorOptions(step=0.01, output_stride=1)
    traj = simulate(three_strategy.initial, 40.0, mech, proto, opts)
    # every rate map is used past its knee somewhere in the window
    for j, knee in enumerate((0.05, 0.025, 0.01)):
        gap_to_j = (traj.p[:, j][:, None] - traj.p).max(axis=1)
        assert gap_to_j.max() > knee
    assert _csv_sha256(traj, tmp_path) == (
        "6aeb76fcc3698d1b07257f365102dd47aac40ce755e1a2b8d898dd611edbe939"
    )


def test_state_derivative_exact_values(example1, three_strategy):
    s1 = EpgState(I=0.08, R=0.3, x=(0.25, 0.75), q=0.4)
    assert list(state_derivative(s1, example1.mech, example1.proto)) == [
        0.0005599999999999993, 0.00482, -0.0004000000000000004,
        0.0004000000000000004, -0.25785201916899125,
    ]
    mech, proto = _knee_scenario(three_strategy)
    s2 = EpgState(I=0.05, R=0.4, x=(0.2, 0.5, 0.3), q=-1.5)
    assert list(state_derivative(s2, mech, proto)) == [
        -0.0009475000000000004, 0.0007000000000000012, 0.07499999999999998,
        -0.014999999999999986, -0.06, 0.002300143684527467,
    ]


def test_stage_failure_traceback_shows_generated_source(example1):
    eq0 = endemic_state(0.19, example1.params, example1.strategies)
    bad_start = EpgState(I=eq0.I_hat, R=eq0.R_hat, x=(0.0, 1.0), q=-50.0)
    with pytest.raises(StepRejected) as err:
        simulate(bad_start, 100.0, example1.mech, example1.proto,
                 IntegratorOptions(step=50.0, output_stride=1))
    lines = "".join(traceback.format_exception(err.value.__cause__)).splitlines()
    at = next(k for k, line in enumerate(lines)
              if '"<epgtool kernel n=2>"' in line)
    # the failing line of the generated step is printed, not just its number
    assert " = " in lines[at + 1]


@pytest.mark.parametrize("scenario, name, digest", [
    ("example1", "<epgtool rhs_n2>",
     "77ea9247133e34225b4a4fa33b8f9641fe674f596039efee7a959a8c1e9b97b5"),
    ("example1", "<epgtool kernel n=2>",
     "a613d98a0f005aae8bec1203a4dddc68192bb4a75a6bd11ca26a629d98ee85a1"),
    ("three_strategy", "<epgtool rhs_n3>",
     "6cd0ffea9565cb55d9996ff23a0b7fe87cb0983d7a59835b4191e4a70d11e7af"),
    ("three_strategy", "<epgtool kernel n=3>",
     "7b4cbd13f7198157566002b3ec8f849a8d10ee7526704b460fa0ae93d383a1dd"),
])
def test_smith_kernel_source_fingerprint(scenario, name, digest, request):
    """The generated Smith sources, byte for byte.  The model constants and
    the steps arrive in ``K``, not in the text, so the source is the same
    for every configuration of ``n`` strategies and on every host."""
    s = request.getfixturevalue(scenario)
    state_derivative(s.initial, s.mech, s.proto)  # compiles both functions
    source = "".join(linecache.getlines(name))
    assert hashlib.sha256(source.encode()).hexdigest() == digest
