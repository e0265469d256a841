from __future__ import annotations

import hashlib
import linecache
import math

import numpy as np
import pytest

from epgtool import (
    EpgState,
    IntegratorOptions,
    NotIPC,
    PolicyConfig,
    RunStats,
    SmithProtocol,
    StepRejected,
    StrategySpec,
    build_mechanism,
    endemic_state,
    lyapunov_series,
    lyapunov_value,
    mean_field,
    optimal_allocation,
    simulate,
    state_derivative,
    storage,
    validate,
    write_csv,
)
from epgtool.dynamics import _kernel_for, step_count
from epgtool.equilibrium import _endemic_constants
from epgtool.payoff import _qdot_constants
from conftest import make_scenario
from helpers import PerStrategyLaws, kernel_sum


def test_derivative_vanishes_at_target_equilibrium(example1):
    eq = example1.alloc.endemic
    state = EpgState(I=eq.I_hat, R=eq.R_hat, x=example1.alloc.xstar, q=0.0)
    deriv = state_derivative(state, example1.mech, example1.proto)
    assert np.all(deriv == 0.0)


def test_derivative_vanishes_at_three_strategy_target(three_strategy):
    eq = three_strategy.alloc.endemic
    state = EpgState(I=eq.I_hat, R=eq.R_hat, x=three_strategy.alloc.xstar, q=0.0)
    deriv = state_derivative(state, three_strategy.mech, three_strategy.proto)
    assert np.max(np.abs(deriv)) <= 1e-16


def test_infection_rate_forms_agree(example1):
    """The deviation form of the infection flow equals the susceptible-mass
    form, by the endemic balance relations."""
    rng = np.random.default_rng(17)
    params = example1.params
    d, s = params.delta, params.sigma
    for _ in range(300):
        B = rng.uniform(0.15, 0.19)
        I = rng.uniform(1e-3, 0.9)
        R = rng.uniform(0.0, 1.0 - I)
        eq = endemic_state(float(B), params)
        dev_form = (B * (eq.R_hat - R) + (B - d) * (eq.I_hat - I)) * I
        mass_form = (B * (1.0 - I - R) - s + d * I) * I
        assert abs(dev_form - mass_form) <= 1e-12


def test_initial_derivative_of_baseline_run(example1):
    deriv = state_derivative(example1.initial, example1.mech, example1.proto)
    n = example1.strategies.n
    assert np.all(deriv[2:2 + n] == 0.0)        # equal payoffs: shares frozen
    # mechanism pushes toward the cheaper target rate
    assert deriv[2 + n] == pytest.approx(0.08, rel=1e-12)
    assert deriv[0] == 0.0 and deriv[1] == pytest.approx(0.0, abs=1e-16)


def test_trajectory_shapes_and_sampling(example1):
    opts = IntegratorOptions(step=0.01, output_stride=10)
    traj = simulate(example1.initial, 20.0, example1.mech, example1.proto, opts)
    assert len(traj) == 201
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(20.0, abs=1e-9)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.x.shape == (201, 2)
    assert traj.p.shape == (201, 2)
    state = traj.state_at(200)
    assert state.I == traj.I[200]


def test_forward_invariance_along_trajectory(example1):
    traj = simulate(example1.initial, 200.0, example1.mech, example1.proto)
    assert np.min(traj.I) > 0.0
    assert np.max(traj.I + traj.R) <= 1.0 + 1e-9
    assert np.min(traj.x) >= 0.0
    assert np.max(np.abs(traj.x.sum(axis=1) - 1.0)) <= 1e-12


def test_running_average_cost_matches_trapezoid_oracle(example1):
    opts = IntegratorOptions(step=0.01, output_stride=1)
    traj = simulate(example1.initial, 20.0, example1.mech, example1.proto, opts)
    # with every step recorded, the internal accumulator must agree with a
    # trapezoid rule over the samples
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * np.diff(traj.times) * (traj.cost[1:] + traj.cost[:-1]))]
    )
    expected = np.where(traj.times > 0, integral / np.maximum(traj.times, 1e-300),
                        traj.cost)
    assert np.allclose(traj.avg_cost, expected, atol=1e-12)
    assert traj.cost[0] == pytest.approx(0.2, abs=1e-15)


def test_instantaneous_cost_decomposition(example1):
    traj = simulate(example1.initial, 30.0, example1.mech, example1.proto)
    recomputed = traj.q * traj.B + (
        np.asarray(example1.mech.rstar) * traj.x
    ).sum(axis=1)
    assert np.allclose(traj.cost, recomputed, atol=1e-12)


def test_peak_is_tracked_at_full_resolution(example1):
    opts = IntegratorOptions(step=0.01, output_stride=1000)
    traj = simulate(example1.initial, 400.0, example1.mech, example1.proto, opts)
    assert traj.observed_peak >= np.max(traj.I)
    assert 0.0 < traj.observed_peak_time <= 400.0


def test_peak_converges_under_step_halving(example1):
    coarse = simulate(
        example1.initial, 400.0, example1.mech, example1.proto,
        IntegratorOptions(step=0.01, output_stride=100),
    )
    fine = simulate(
        example1.initial, 400.0, example1.mech, example1.proto,
        IntegratorOptions(step=0.005, output_stride=200),
    )
    rel = abs(coarse.observed_peak - fine.observed_peak) / fine.observed_peak
    assert rel < 1e-6


def test_oversized_step_is_rejected(example1):
    eq0 = endemic_state(0.19, example1.params, example1.strategies)
    bad_start = EpgState(I=eq0.I_hat, R=eq0.R_hat, x=(0.0, 1.0), q=-50.0)
    with pytest.raises(StepRejected) as err:
        simulate(bad_start, 100.0, example1.mech, example1.proto,
                 IntegratorOptions(step=50.0, output_stride=1))
    assert err.value.t > 0.0


@pytest.mark.parametrize("make, match", [
    (lambda: IntegratorOptions(step=0.0), "step must be positive"),
    (lambda: IntegratorOptions(output_stride=0), "output_stride must be at least 1"),
    (lambda: step_count(0.0, 0.01), "horizon must be positive"),
    (lambda: step_count(math.inf, 0.01), "is not finite"),
    (lambda: step_count(1e300, 1e-300), "is not finite"),
])
def test_bad_integration_settings_are_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_horizon_must_be_step_multiple(example1):
    with pytest.raises(ValueError):
        simulate(example1.initial, 0.015, example1.mech, example1.proto,
                 IntegratorOptions(step=0.01))


def test_three_strategy_run_invariance_and_certification(three_strategy):
    """The n = 3 inner loop: simplex invariance, Lyapunov decrease, and the
    peak bound fed with the initial Lyapunov value stays sound."""
    from epgtool import BoundQuery, certify_trajectory, default_grid, peak_bound

    scen = three_strategy
    traj = simulate(scen.initial, 150.0, scen.mech, scen.proto)
    assert traj.x.shape[1] == 3
    assert np.min(traj.x) >= 0.0
    assert np.max(np.abs(traj.x.sum(axis=1) - 1.0)) <= 1e-12
    series = lyapunov_series(traj)
    assert series.violations == ()
    assert np.all(np.diff(series.value) <= 1e-6 * max(1.0, series.value[0]))
    alpha = lyapunov_value(scen.initial, scen.mech, scen.proto)
    result = peak_bound(
        BoundQuery(
            alloc=scen.alloc, params=scen.params, upsilon=scen.policy.upsilon,
            alpha=alpha, grid=default_grid(scen.strategies, 30),
        )
    )
    report = certify_trajectory(traj, result)
    assert report.passed


def test_custom_protocol_reproduces_builtin_states(example1):
    """A protocol of the caller's own whose methods write the capped-linear
    law drives the state through bit-identical steps, with a bit-identical
    storage series."""
    plug = PerStrategyLaws(gains=(0.1, 0.1), cap=0.1)
    opts = IntegratorOptions(step=0.01, output_stride=20)
    builtin = simulate(example1.initial, 40.0, example1.mech, example1.proto, opts)
    custom = simulate(example1.initial, 40.0, example1.mech, plug, opts)
    assert np.array_equal(builtin.I, custom.I)
    assert np.array_equal(builtin.x, custom.x)
    assert np.array_equal(builtin.q, custom.q)
    assert np.array_equal(builtin.lyapunov, custom.lyapunov)


@pytest.mark.parametrize("q", [25.0025, 625.0])
def test_a_method_law_has_smiths_lyapunov_value_past_the_knee(example1, q):
    """Gaps just past the knee and far past it, on the antiderivative's
    linear branch: the capped-linear law called through its methods gives
    Smith's value bit for bit."""
    state = EpgState(I=0.05, R=0.3, x=(0.5, 0.5), q=q)
    plug = PerStrategyLaws(gains=(0.1, 0.1), cap=0.1)
    assert lyapunov_value(state, example1.mech, plug) == lyapunov_value(
        state, example1.mech, example1.proto)


class _DoubledSmith(SmithProtocol):
    """Smith's law at twice the rate: a subclass whose rates must be called."""

    def phi(self, j, gap):
        return 2.0 * super().phi(j, gap)

    def phi_integral(self, j, gap):
        return 2.0 * super().phi_integral(j, gap)


def test_a_smith_subclass_gets_its_own_rates(example1, three_strategy):
    rng = np.random.default_rng(7)
    for scenario in (example1, three_strategy):
        mech, smith = scenario.mech, scenario.proto
        doubled = _DoubledSmith(rate_gain=smith.rate_gain, cap=smith.cap)
        n = len(mech.strategies.betas)
        for q in (-2.0, 0.7, 3.0):
            state = EpgState(I=0.05, R=0.3, x=tuple(rng.dirichlet(np.ones(n))), q=q)
            p = mech.payoffs(q)
            field = mean_field(doubled, state.x, p)
            assert np.any(field != 0.0)
            # doubling every rate doubles each flow and each sum exactly
            assert np.array_equal(field, 2.0 * mean_field(smith, state.x, p))
            assert np.array_equal(state_derivative(state, mech, doubled)[2:2 + n], field)
            assert storage(doubled, state.x, p) == 2.0 * storage(smith, state.x, p)


def test_smith_runs_make_no_rate_call(three_strategy, monkeypatch):
    """Smith's law is inlined in the kernel and run on whole columns by the
    storages: a run and its audit never call ``phi`` or ``phi_integral``."""
    s = three_strategy
    opts = IntegratorOptions(step=0.01, output_stride=1)
    expected = simulate(s.initial, 20.0, s.mech, s.proto, opts)
    expected_bound = lyapunov_series(expected).decrease_bound
    for compiled in _kernel_for(s.initial, s.mech, s.proto)[:2]:
        assert "phi(" not in "".join(linecache.getlines(compiled.__code__.co_filename))

    def refuse(self, j, gap):
        raise AssertionError("a Smith rate was called")

    monkeypatch.setattr(SmithProtocol, "phi", refuse)
    monkeypatch.setattr(SmithProtocol, "phi_integral", refuse)
    traj = simulate(s.initial, 20.0, s.mech, s.proto, opts)
    for name in ("I", "R", "x", "q", "B", "proto_storage", "lyapunov"):
        assert np.array_equal(getattr(traj, name), getattr(expected, name)), name
    assert np.array_equal(lyapunov_series(traj).decrease_bound, expected_bound)


def test_non_endemic_start_stays_admissible(example1):
    # steep early transient: sample densely enough that the central
    # difference of the Lyapunov value resolves the slope (at the default
    # stride the discretization alone exceeds the tolerance near t=14)
    opts = IntegratorOptions(step=0.01, output_stride=2)
    start = EpgState(I=0.01, R=0.1, x=(0.7, 0.3), q=0.2)
    traj = simulate(start, 200.0, example1.mech, example1.proto, opts)
    assert np.min(traj.I) > 0.0
    assert np.max(traj.I + traj.R) <= 1.0 + 1e-9
    series = lyapunov_series(traj)
    assert series.violations == ()
    assert np.all(np.diff(series.value) <= 1e-6 * max(1.0, series.value[0]))


def test_lyapunov_value_zero_only_at_equilibrium(example1):
    eq = example1.alloc.endemic
    target = EpgState(I=eq.I_hat, R=eq.R_hat, x=example1.alloc.xstar, q=0.0)
    assert lyapunov_value(target, example1.mech, example1.proto) == 0.0
    rng = np.random.default_rng(23)
    for _ in range(100):
        I = rng.uniform(1e-3, 0.8)
        state = EpgState(
            I=I,
            R=rng.uniform(0.0, 1.0 - I),
            x=(lambda w: (w, 1.0 - w))(rng.uniform(0, 1)),
            q=rng.uniform(-2, 2),
        )
        if (abs(state.I - eq.I_hat) > 1e-6 or abs(state.R - eq.R_hat) > 1e-6
                or abs(state.x[0] - 0.5) > 1e-6 or abs(state.q) > 1e-6):
            assert lyapunov_value(state, example1.mech, example1.proto) > 0.0


def test_lyapunov_decreases_along_run(example1):
    traj = simulate(example1.initial, 300.0, example1.mech, example1.proto)
    series = lyapunov_series(traj)
    tol = 1e-6 * max(1.0, abs(series.value[0]))
    assert np.all(np.diff(series.value) <= tol)
    assert series.violations == ()
    # sandwich: initial value dominates, epidemic part never exceeds the total
    assert np.all(series.value <= series.value[0] + tol)
    assert np.all(traj.epi_storage <= traj.lyapunov + 1e-15)
    assert np.all(traj.proto_storage >= 0.0)


def test_derived_series_are_the_kernels_numbers(example1):
    # a start with both shares nonzero, sampled at every step
    betas = example1.strategies.betas
    eq0 = endemic_state(kernel_sum(zip(betas, (0.3, 0.7))), example1.params)
    start = EpgState(I=eq0.I_hat, R=eq0.R_hat, x=(0.3, 0.7), q=0.0)
    traj = simulate(start, 100.0, example1.mech, example1.proto,
                    IntegratorOptions(step=0.01, output_stride=1))
    assert len(traj) == 10001
    for k in range(len(traj)):
        state = traj.state_at(k)
        assert traj.B[k] == kernel_sum(zip(betas, state.x)), k
        assert traj.lyapunov[k] == lyapunov_value(state, example1.mech, example1.proto), k


def test_lyapunov_slope_respects_decrease_bound(example1):
    traj = simulate(example1.initial, 300.0, example1.mech, example1.proto)
    series = lyapunov_series(traj)
    interior = slice(1, -1)
    assert np.all(
        series.dvalue_dt[interior]
        <= series.decrease_bound[interior] + series.fd_tol
    )


def test_matches_independent_zero_death_rate_model():
    """With a vanishing death rate the closed loop must match an
    independently coded model that sets the death rate to zero exactly."""
    scen = make_scenario(delta=1e-12)
    traj = simulate(scen.initial, 100.0, scen.mech, scen.proto,
                    IntegratorOptions(step=0.01, output_stride=100))

    # independent model: susceptible-mass SIRS with delta = 0, the matching
    # equilibrium parameterization, and the same capped-linear protocol
    gam, zeta, theta, psi = 0.1, 0.0, 0.0, 0.011
    g = theta - zeta
    sig0 = g + gam + zeta
    om0 = g + psi + zeta
    betas = (0.15, 0.19)
    lam, cap = 0.1, 0.1
    ups2 = 2.0 ** 2
    bstar = scen.alloc.betastar

    def ihat0(B):
        return (1.0 - sig0 / B) * om0 / (om0 + gam)

    def rhs0(y):
        I, R, x1, x2, q = y
        B = betas[0] * x1 + betas[1] * x2
        Ih = ihat0(B)
        Rh = gam * Ih / om0
        dIh = om0 * sig0 / ((om0 + gam) * B * B)
        dRh = gam * dIh / om0
        a = B / gam
        da = 1.0 / gam
        dI = (B * (1.0 - I - R) - sig0) * I
        dR = gam * I - om0 * R
        p1, p2 = q * betas[0], q * betas[1]
        gap = p2 - p1
        t12 = min(lam * gap, cap) if gap > 0 else 0.0
        t21 = min(-lam * gap, cap) if gap < 0 else 0.0
        v1 = x2 * t21 - x1 * t12
        dq = (
            math.log(I / Ih) * dIh
            - ups2 * (B - bstar)
            - 0.5 * (2.0 * a * dRh + (Rh - R) * da) * (Rh - R)
        )
        return [dI, dR, v1, -v1, dq]

    h = 0.01
    y = [scen.initial.I, scen.initial.R, 1.0, 0.0, 0.0]
    ref = [list(y)]
    for k in range(10000):
        k1 = rhs0(y)
        k2 = rhs0([y[i] + 0.5 * h * k1[i] for i in range(5)])
        k3 = rhs0([y[i] + 0.5 * h * k2[i] for i in range(5)])
        k4 = rhs0([y[i] + h * k3[i] for i in range(5)])
        y = [
            y[i] + h / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
            for i in range(5)
        ]
        if (k + 1) % 100 == 0:
            ref.append(list(y))
    ref = np.array(ref)
    assert np.max(np.abs(traj.I - ref[:, 0])) < 1e-6
    assert np.max(np.abs(traj.R - ref[:, 1])) < 1e-6
    assert np.max(np.abs(traj.x[:, 0] - ref[:, 2])) < 1e-6
    assert np.max(np.abs(traj.q - ref[:, 4])) < 1e-6


def test_csv_export_is_deterministic(example1, tmp_path):
    opts = IntegratorOptions(step=0.01, output_stride=10)
    digests = []
    for name in ("a.csv", "b.csv"):
        traj = simulate(example1.initial, 30.0, example1.mech, example1.proto, opts)
        path = tmp_path / name
        write_csv(traj, path)
        digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


def test_csv_schema_and_roundtrip(example1, tmp_path):
    opts = IntegratorOptions(step=0.01, output_stride=10)
    traj = simulate(example1.initial, 20.0, example1.mech, example1.proto, opts)
    path = tmp_path / "run.csv"
    write_csv(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,I,R,x1,x2,q,B,cost,avg_cost,L"
    assert len(lines) == len(traj) + 1
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1], traj.I)   # repr round-trip is exact
    assert np.array_equal(data[:, 9], traj.lyapunov)


def test_lyapunov_violation_found_at_a_coarse_stride(example1):
    """At stride 10 the steep transient of this start outruns the central
    difference once; the finding is reported with its index, time and
    excess (values recorded from the per-sample implementation)."""
    start = EpgState(I=0.01, R=0.1, x=(0.7, 0.3), q=0.2)
    opts = IntegratorOptions(step=0.01, output_stride=10)
    traj = simulate(start, 200.0, example1.mech, example1.proto, opts)
    series = lyapunov_series(traj)
    assert len(series.violations) == 1
    k, t, excess = series.violations[0]
    assert (k, t) == (143, 14.3)
    assert type(k) is int and type(t) is float and type(excess) is float
    assert excess == pytest.approx(1.112897387996973e-06, rel=1e-9)


@pytest.mark.parametrize("field", ["I", "R", "q", "x"])
def test_state_rejects_non_finite_entries(field):
    values = dict(I=0.02, R=0.3, x=(0.5, 0.5), q=0.1)
    values[field] = (math.nan, 1.0) if field == "x" else math.nan
    with pytest.raises(ValueError):
        EpgState(**values)


def test_state_stores_negative_zeros_as_zeros():
    state = EpgState(I=0.02, R=-0.0, x=(1.0, -0.0), q=-0.0)
    assert [math.copysign(1.0, v) for v in (state.R, *state.x, state.q)] == [1.0] * 4
    # every other value keeps its bits
    kept = EpgState(I=0.02, R=5e-324, x=(0.25, 0.75), q=-1e-300)
    assert (kept.R, kept.x, kept.q) == (5e-324, (0.25, 0.75), -1e-300)


def test_csv_rows_match_per_value_formatting_across_blocks(example1, tmp_path):
    """The block-wise writer gives the bytes of formatting every value of
    every row with ``CSV_FLOAT_FORMAT``, over several blocks of rows."""
    from epgtool.dynamics import CSV_FLOAT_FORMAT

    opts = IntegratorOptions(step=0.01, output_stride=1)
    traj = simulate(example1.initial, 100.0, example1.mech, example1.proto, opts)
    assert len(traj) > 2 * 4096
    path = tmp_path / "run.csv"
    write_csv(traj, path)
    cols = [traj.times, traj.I, traj.R, *traj.x.T, traj.q, traj.B, traj.cost,
            traj.avg_cost, traj.lyapunov]
    lines = path.read_text().splitlines()
    assert lines[0] == "t,I,R,x1,x2,q,B,cost,avg_cost,L"
    assert lines[1:] == [",".join(CSV_FLOAT_FORMAT % v for v in row)
                         for row in zip(*cols)]


def _four_strategy_mech(example1):
    strategies = StrategySpec(betas=(0.12, 0.14, 0.16, 0.19), costs=(0.5, 0.3, 0.15, 0.0))
    policy = PolicyConfig(cstar=0.1, upsilon=2.0)
    validate(example1.params, strategies, policy)
    alloc = optimal_allocation(strategies, policy, example1.params)
    return build_mechanism(alloc, strategies, policy, example1.params)


def _rejection_case(name, example1):
    """``(start, proto, mech, step, horizon)`` of a run that is rejected by
    one check of the step projection, from a start ``EpgState`` accepts."""
    tiny = SmithProtocol(rate_gain=1e-12, cap=1e-12)
    eq0 = endemic_state(0.19, example1.params, example1.strategies)
    return {
        "simplex": (EpgState(I=0.17, R=0.55, x=(0.25, 0.75), q=27.0),
                    SmithProtocol(rate_gain=50.0, cap=30.0), example1.mech, 0.375, 3.0),
        # the pairwise flow keeps sum(x) to rounding, so the drift comes from
        # clipping two start shares that lie inside the simplex tolerance
        "sum": (EpgState(I=0.03, R=0.3, x=(-6e-10, -6e-10, 0.5 + 6e-10, 0.5 + 6e-10),
                         q=0.0),
                example1.proto, _four_strategy_mech(example1), 0.01, 1.0),
        "I": (EpgState(I=0.18, R=0.21, x=(1.0, 0.0), q=-45.0),
              example1.proto, example1.mech, 150.0, 1500.0),
        # R starts inside the tolerance band below 0 and I is too small to
        # refill it, so the RK4 polynomial of R's decay (|.| > 1 at
        # omega*h = 6.6) pushes R further down
        "R": (EpgState(I=1e-300, R=-1e-9, x=(1.0, 0.0), q=0.0),
              tiny, example1.mech, 600.0, 6000.0),
        "I+R": (EpgState(I=5e-247, R=0.0009, x=(0.5, 0.5), q=-33.0),
                tiny, example1.mech, 1250.0, 12500.0),
        "stage": (EpgState(I=eq0.I_hat, R=eq0.R_hat, x=(0.0, 1.0), q=-50.0),
                  example1.proto, example1.mech, 50.0, 100.0),
        "stage, third step": (EpgState(I=0.05, R=0.3, x=(0.5, 0.5), q=25.0),
                              example1.proto, example1.mech, 33.3, 3330.0),
    }[name]


@pytest.mark.parametrize("name, t, detail", [
    ("simplex", 0.375, "x[1]=-119.7864990234375 left the simplex"),
    ("sum", 0.01, "sum(x)=1.0000000011999763 drifted off 1"),
    ("I", 150.0, "I=-21.437970081785313 went negative"),
    ("R", 600.0, "R=-4.732539980960193e-08 went negative"),
    ("I+R", 1250.0, "I+R=1.0240853027355439 exceeded 1"),
    ("stage", 50.0, "stage evaluation failed (math domain error)"),
    ("stage, third step", 3 * 33.3, "stage evaluation failed (math domain error)"),
])
def test_every_rejection_path_reports_its_step_time(example1, name, t, detail):
    start, proto, mech, step, horizon = _rejection_case(name, example1)
    with pytest.raises(StepRejected) as err:
        simulate(start, horizon, mech, proto, IntegratorOptions(step=step, output_stride=1))
    # the time is step * h, not a running sum of h
    assert err.value.t == t
    assert str(err.value) == f"step rejected at t={t:.6g} d: {detail}; reduce the step size"
    if name.startswith("stage"):
        assert isinstance(err.value.__cause__, ValueError)
    else:
        assert err.value.__cause__ is None


class _NaNPastSmallGap(PerStrategyLaws):
    """The capped-linear law, NaN at gaps past 1e-3."""

    def phi(self, j, gap):
        return math.nan if gap > 1e-3 else super().phi(j, gap)


def test_nan_state_is_rejected(example1):
    # the gap first exceeds 1e-3 in step 32, whose state is then NaN in x, I
    # and q; a NaN fails every projection check, x[0]'s first
    proto = _NaNPastSmallGap(gains=(0.1, 0.1), cap=0.1)
    with pytest.raises(StepRejected) as err:
        simulate(example1.initial, 5.0, example1.mech, proto,
                 IntegratorOptions(step=0.01, output_stride=1))
    assert err.value.t == 32 * 0.01
    assert str(err.value) == (
        "step rejected at t=0.32 d: x[0]=nan left the simplex; reduce the step size"
    )
    assert err.value.__cause__ is None


def test_start_with_the_wrong_number_of_shares_is_rejected(example1):
    # used to reach the kernel, which raised a TypeError on its argument count
    start = EpgState(I=0.05, R=0.3, x=(0.5, 0.25, 0.25), q=0.0)
    with pytest.raises(ValueError, match="3 shares for 2 strategies"):
        simulate(start, 1.0, example1.mech, example1.proto)
    with pytest.raises(ValueError, match="3 shares for 2 strategies"):
        state_derivative(start, example1.mech, example1.proto)


class _RateOnly:
    """A rate with no antiderivative: not a pairwise-comparison protocol."""

    def phi(self, j, gap):
        return 0.1 * max(gap, 0.0)


def test_a_protocol_without_phi_integral_is_rejected_before_the_kernel(example1, monkeypatch):
    # the kernel renders only phi, so a check of that method alone let a
    # 300-d run integrate to the end before the storage raised
    def refuse(*args, **kwargs):
        raise AssertionError("the kernel was reached")

    monkeypatch.setattr("epgtool.dynamics._kernel", refuse)
    for run in (lambda: simulate(example1.initial, 300.0, example1.mech, _RateOnly()),
                lambda: state_derivative(example1.initial, example1.mech, _RateOnly())):
        with pytest.raises(NotIPC, match="^_RateOnly has no phi_integral;"):
            run()


@pytest.mark.parametrize("x", [(1.0,), (0.5, 0.3, 0.2)])
def test_lyapunov_value_rejects_the_wrong_number_of_shares(example1, x):
    # one share used to give a value, summing the rate over the first
    # strategy alone
    start = EpgState(I=0.04, R=0.3, x=x, q=0.0)
    with pytest.raises(ValueError,
                       match=rf"^initial state has {len(x)} shares for 2 strategies$"):
        lyapunov_value(start, example1.mech, example1.proto)


def test_stride_that_does_not_divide_the_step_count(example1):
    opts = IntegratorOptions(step=0.01, output_stride=7)
    traj = simulate(example1.initial, 1.0, example1.mech, example1.proto, opts)
    # samples at steps 0, 7, ..., 98; the last step (100) is not recorded
    assert traj.times.tolist() == [k * 0.01 for k in range(0, 101, 7)]
    assert traj.I[-1] == float.fromhex("0x1.e2c85fd2f71aap-6")
    assert traj.q[-1] == float.fromhex("0x1.40d1f46fd4963p-4")
    assert traj.cost[-1] == float.fromhex("0x1.b1997eb62ab14p-3")
    assert traj.avg_cost[-1] == float.fromhex("0x1.a59da2d63a493p-3")
    # the peak is tracked at every step, past the last sample too
    assert traj.observed_peak == float.fromhex("0x1.e2c86297dbec2p-6")
    assert traj.observed_peak_time == 1.0


def test_stride_above_the_step_count_records_only_the_start(example1):
    # an int stride too large for a float is a whole number too
    for stride in (200, 10**400):
        opts = IntegratorOptions(step=0.01, output_stride=stride)
        traj = simulate(example1.initial, 1.0, example1.mech, example1.proto, opts)
        assert traj.times.tolist() == [0.0]
        assert traj.I.tolist() == [example1.initial.I]
        assert traj.q.tolist() == [0.0]
        assert traj.cost.tolist() == traj.avg_cost.tolist() == [0.2]
        assert traj.observed_peak == float.fromhex("0x1.e2c86297dbec2p-6")
        assert traj.observed_peak_time == 1.0


def test_peak_at_the_start(example1):
    eq = endemic_state(0.15, example1.params, example1.strategies)
    start = EpgState(I=2.0 * eq.I_hat, R=eq.R_hat, x=(1.0, 0.0), q=0.0)
    traj = simulate(start, 1.0, example1.mech, example1.proto,
                    IntegratorOptions(step=0.01, output_stride=10))
    assert traj.I[1] < traj.I[0]
    assert traj.observed_peak == start.I
    assert traj.observed_peak_time == 0.0


def test_run_stats_count_the_projection_repairs(example1):
    traj = simulate(example1.initial, 30.0, example1.mech, example1.proto)
    # rounding leaves sum(x) off 1 after some steps; nothing is clipped
    assert traj.stats == RunStats(
        steps=3000, renormalizations=400, worst_renormalization=2.0 ** -52,
        x_clips=0, i_floors=0, r_clips=0,
    )
    # x[0] and R start inside their tolerance bands below 0 and I below its
    # floor; each is repaired once, in the first step, and clipping x[0]
    # leaves sum(x) = 1 + 4e-10
    start = EpgState(I=1e-300, R=-5e-10, x=(-4e-10, 1.0 + 4e-10), q=0.0)
    frozen = SmithProtocol(rate_gain=1e-12, cap=1e-12)
    traj = simulate(start, 1.0, example1.mech, frozen)
    assert traj.stats == RunStats(
        steps=100, renormalizations=8, worst_renormalization=3.9999958900693855e-10,
        x_clips=1, i_floors=1, r_clips=1,
    )
    assert traj.I[1] > 1e-12 and traj.R[1] > 0.0 and traj.x[1, 0] > 0.0


@pytest.mark.parametrize("make, match", [
    (lambda: IntegratorOptions(step=math.inf), "step must be positive and finite"),
    (lambda: IntegratorOptions(step=math.nan), "step must be positive and finite"),
    (lambda: IntegratorOptions(output_stride=2.5), "output_stride must be a whole number"),
    (lambda: IntegratorOptions(output_stride=math.nan),
     "output_stride must be a whole number"),
    # 0 steps of an infinite step leave 0 * inf = NaN days unaccounted for
    (lambda: step_count(1500.0, math.inf), "not an integer number of steps"),
], ids=["inf_step", "nan_step", "fractional_stride", "nan_stride", "step_count_inf"])
def test_non_finite_step_and_fractional_stride_are_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_whole_float_stride_samples_as_its_integer(example1):
    runs = [simulate(example1.initial, 1.0, example1.mech, example1.proto,
                     IntegratorOptions(step=0.01, output_stride=stride))
            for stride in (25, 25.0)]
    assert len(runs[0]) == 5
    assert np.array_equal(runs[0].times, runs[1].times)
    assert np.array_equal(runs[0].I, runs[1].I)


@pytest.mark.parametrize("scenario", ["example1", "three_strategy"])
@pytest.mark.parametrize("smith", [True, False])
def test_constant_table_names_are_what_k_unpacks(scenario, smith, request):
    s = request.getfixturevalue(scenario)
    n = len(s.strategies.betas)
    proto = s.proto if smith else PerStrategyLaws(gains=(0.1,) * n, cap=0.1)
    names = [*(["rg", "cap"] if smith else ["phi"]), *_endemic_constants(s.params),
             *_qdot_constants(s.mech), *(f"{v}_{k}" for v in ("beta", "r_o", "rstar")
                                          for k in range(n)), "h", "half_h", "sixth"]
    *compiled, K = _kernel_for(s.initial, s.mech, proto, 0.01)
    table = dict(zip(names, K, strict=True))
    assert table["h"] == 0.01 and table["ups2"] == s.mech.upsilon * s.mech.upsilon
    for function in compiled:
        source = linecache.getlines(function.__code__.co_filename)
        unpack = [line.strip() for line in source if line.strip().endswith(" = K")]
        assert len(unpack) == 1
        assert unpack[0][:-len(" = K")].split(", ") == names


@pytest.mark.parametrize("horizon", [1e-12, 1e-9])
def test_horizon_shorter_than_one_step_is_rejected(horizon, example1):
    with pytest.raises(ValueError, match="shorter than one step"):
        step_count(horizon, 0.01)
    with pytest.raises(ValueError, match="shorter than one step"):
        simulate(example1.initial, horizon, example1.mech, example1.proto)
    assert step_count(0.01, 0.01) == 1
