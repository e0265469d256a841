from __future__ import annotations

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epgtool import (
    NotIPC,
    SmithProtocol,
    dissipation,
    mean_field,
    storage,
)
from epgtool import edm
from epgtool.equilibrium import _compile_text
from helpers import (
    PerStrategyLaws,
    best_response,
    kernel_sum,
    random_simplex,
    switch_rates,
)

SMITH = SmithProtocol(rate_gain=0.1, cap=0.1)


def test_equal_payoffs_give_zero_rates():
    T = switch_rates(SMITH, (0.5, 0.5), (-0.3, -0.3))
    assert np.all(T == 0.0)


def test_capped_linear_rate_values():
    T = switch_rates(SMITH, (1.0, 0.0), (0.0, 2.0))
    # gap 2 saturates the cap: min(0.1 * 2, 0.1) = 0.1
    assert T[0, 1] == 0.1
    assert T[1, 0] == 0.0
    assert T[0, 0] == 0.0 and T[1, 1] == 0.0
    T = switch_rates(SMITH, (1.0, 0.0), (0.0, 0.5))
    assert T[0, 1] == pytest.approx(0.05, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    p=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_rates_stay_within_cap(p, seed):
    rng = np.random.default_rng(seed)
    x = random_simplex(rng, len(p))
    T = switch_rates(SMITH, x, p)
    assert np.all(T >= 0.0)
    assert np.all(T <= SMITH.cap)


def test_mean_field_single_pair():
    v = mean_field(SMITH, (1.0, 0.0), (0.0, 2.0))
    assert v[0] == pytest.approx(-0.1, rel=1e-15)
    assert v[1] == pytest.approx(0.1, rel=1e-15)


def test_mean_field_zero_at_equal_payoffs():
    v = mean_field(SMITH, (0.3, 0.7), (1.0, 1.0))
    assert np.all(v == 0.0)


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_mean_field_conserves_mass(p, seed):
    rng = np.random.default_rng(seed)
    n = len(p)
    x = random_simplex(rng, n)
    v = mean_field(SMITH, x, p)
    # term-level conservation is exact: the signed flow terms cancel pairwise
    T = switch_rates(SMITH, x, p)
    flow = x[:, None] * T
    assert math.fsum((flow.T - flow).ravel()) == 0.0
    # component sums carry at most one rounding per strategy
    if n == 2:
        assert math.fsum(v) == 0.0
    else:
        assert abs(math.fsum(v)) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(
    p=st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_mean_field_points_inward_on_faces(p, seed):
    rng = np.random.default_rng(seed)
    n = len(p)
    x = random_simplex(rng, n)
    dead = int(rng.integers(0, n))
    x[dead] = 0.0
    x /= x.sum()
    v = mean_field(SMITH, x, p)
    assert v[dead] >= 0.0


def test_best_response_reports_ties():
    assert best_response((1.0, 1.0)) == (0, 1)
    assert best_response((0.0, 2.0)) == (1,)
    assert best_response((3.0, 3.0 - 1e-13, 0.0)) == (0, 1)


def test_mass_on_best_response_is_stationary():
    v = mean_field(SMITH, (0.0, 1.0), (0.0, 2.0))
    assert np.all(v == 0.0)


from hypothesis import assume


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=2, max_size=5, unique=True
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_stationarity_iff_support_on_best_response(p, seed):
    # payoffs separated beyond the tie tolerance: gaps inside it would leave
    # a sub-1e-13 residual rate, which is exactly what the tolerance absorbs
    gaps = np.abs(np.subtract.outer(p, p))
    assume(float(np.min(gaps[gaps > 0])) > 1e-6)
    rng = np.random.default_rng(seed)
    n = len(p)
    best = best_response(p)
    # support inside the best-response face -> stationary
    x = np.zeros(n)
    weights = random_simplex(rng, len(best))
    for w, k in zip(weights, best):
        x[k] = w
    assert np.max(np.abs(mean_field(SMITH, x, p))) < 1e-14
    # any mass off the face -> strictly moving
    if len(best) < n:
        x = random_simplex(rng, n)  # interior, so off-face mass exists
        assert np.max(np.abs(mean_field(SMITH, x, p))) > 0.0


def test_storage_equal_payoffs_is_zero():
    assert storage(SMITH, (0.4, 0.6), (1.0, 1.0)) == 0.0


def test_storage_closed_form_beyond_cap_knee():
    # gap 2 exceeds cap/gain = 1: integral is cap*gap - cap^2/(2*gain)
    val = storage(SMITH, (1.0, 0.0), (0.0, 2.0))
    assert val == pytest.approx(0.1 * 2 - 0.01 / 0.2, rel=1e-15)  # 0.15
    # gap below the knee: quadratic branch
    val = storage(SMITH, (1.0, 0.0), (0.0, 0.5))
    assert val == pytest.approx(0.5 * 0.1 * 0.25, rel=1e-15)


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_storage_vanishes_exactly_with_the_field(p, seed):
    rng = np.random.default_rng(seed)
    x = random_simplex(rng, len(p))
    S = storage(SMITH, x, p)
    v = mean_field(SMITH, x, p)
    assert S >= 0.0
    if np.max(np.abs(v)) < 1e-15:
        assert S <= 1e-15
    else:
        assert S > 0.0


@pytest.mark.parametrize("make", [
    lambda: SmithProtocol(rate_gain=0.0, cap=0.1),
    lambda: SmithProtocol(rate_gain=0.1, cap=-0.1),
])
def test_protocols_reject_a_nonpositive_gain_or_cap(make):
    with pytest.raises(ValueError, match="must be positive"):
        make()


def test_non_ipc_protocol_raises():
    class Imitation:
        def phi(self, j, gap):
            return 0.0

    with pytest.raises(NotIPC):
        mean_field(Imitation(), (0.5, 0.5), (0.0, 1.0))
    with pytest.raises(NotIPC):
        storage(Imitation(), (0.5, 0.5), (0.0, 1.0))
    with pytest.raises(NotIPC):
        dissipation(Imitation(), (0.5, 0.5), (0.0, 1.0))


def test_dissipation_zero_at_equal_payoffs():
    assert dissipation(SMITH, (0.5, 0.5), (2.0, 2.0)) == 0.0


@settings(max_examples=150, deadline=None)
@given(
    p=st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_dissipation_positive_off_equilibrium(p, seed):
    rng = np.random.default_rng(seed)
    x = random_simplex(rng, len(p))
    P = dissipation(SMITH, x, p)
    v = mean_field(SMITH, x, p)
    assert P >= 0.0
    if np.max(np.abs(v)) > 1e-12:
        assert P > 0.0


def test_dissipation_grows_with_payoff_scaling():
    rng = np.random.default_rng(99)
    for _ in range(300):
        n = int(rng.integers(2, 5))
        x = random_simplex(rng, n)
        p = rng.uniform(-2, 2, size=n)
        base = dissipation(SMITH, x, p)
        for scale in (1.0, 2.0, 5.0):
            assert dissipation(SMITH, x, scale * p) >= base - 1e-12


def _smooth(n):
    """The smooth law of :class:`PerStrategyLaws` for every strategy."""
    return PerStrategyLaws(gains=(None,) * n)


def _payoff_gradient_is_mean_field(law):
    """Directional payoff derivative of the storage matches u . field."""
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(200):
        n = int(rng.integers(2, 5))
        proto = law(n)
        x = random_simplex(rng, n)
        p = rng.uniform(-2, 2, size=n)
        u = rng.uniform(-1, 1, size=n)
        fd = (storage(proto, x, p + h * u) - storage(proto, x, p - h * u)) / (2 * h)
        v = mean_field(proto, x, p)
        assert abs(fd - float(u @ v)) <= 1e-6


def _state_gradient_is_dissipation(law):
    """Moving the state along the field drains the storage at the
    dissipation rate."""
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(200):
        n = int(rng.integers(2, 5))
        proto = law(n)
        x = random_simplex(rng, n)
        p = rng.uniform(-2, 2, size=n)
        v = mean_field(proto, x, p)
        fd = (storage(proto, x + h * v, p) - storage(proto, x - h * v, p)) / (2 * h)
        P = dissipation(proto, x, p)
        assert abs(fd + P) <= 1e-6 * max(1.0, P)


def test_storage_payoff_gradient_equals_mean_field():
    _payoff_gradient_is_mean_field(lambda n: SMITH)


def test_storage_payoff_gradient_equals_mean_field_on_a_smooth_law():
    _payoff_gradient_is_mean_field(_smooth)


def test_storage_state_gradient_gives_dissipation():
    _state_gradient_is_dissipation(lambda n: SMITH)


def test_storage_state_gradient_gives_dissipation_on_a_smooth_law():
    _state_gradient_is_dissipation(_smooth)


def _stacked_samples(n, m, seed):
    """``m`` random (x, p) rows, with some tied payoffs and shares on faces."""
    rng = np.random.default_rng(seed)
    x = np.array([random_simplex(rng, n) for _ in range(m)])
    x[::7, 0] = 0.0
    x /= x.sum(axis=1, keepdims=True)
    p = rng.uniform(-3.0, 3.0, size=(m, n))
    p[::5, 1] = p[::5, 0]
    return x, p


GENERAL = PerStrategyLaws(gains=(0.3, None), cap=0.2)


def _general(n):
    return PerStrategyLaws(gains=tuple(GENERAL.gains[k % 2] for k in range(n)), cap=0.2)


STEEP = SmithProtocol(rate_gain=3.0, cap=0.7)


class _CalledSmith(SmithProtocol):
    """Smith's law unchanged in a subclass: its methods are called per gap."""


CALLED = _CalledSmith(rate_gain=3.0, cap=0.7)


@pytest.mark.parametrize("proto, n", [(SMITH, 2), (SMITH, 3), (GENERAL, 2), (SMITH, 5),
                                      (STEEP, 3), (STEEP, 5), (CALLED, 3), (CALLED, 5),
                                      (_general(3), 3), (_general(5), 5)])
def test_stacked_storage_equals_per_sample_bit_for_bit(proto, n):
    x, p = _stacked_samples(n, 500, seed=n)
    stacked = storage(proto, x, p)
    assert stacked.shape == (len(x),)
    per_sample = np.array([storage(proto, x[k], p[k]) for k in range(len(x))])
    assert np.array_equal(stacked, per_sample)
    # the per-sample reduction is the kernel's: left to right from 0.0
    psi = [
        sum(proto.phi_integral(j, p[k, j] - p[k, i]) for j in range(n) if j != i)
        for k in range(len(x)) for i in range(n)
    ]
    psi = np.array(psi).reshape(len(x), n)
    assert np.array_equal(
        stacked, np.array([kernel_sum(zip(x[k], psi[k])) for k in range(len(x))])
    )


def _left_to_right(terms) -> float:
    total = 0.0
    for term in terms:
        total = total + term
    return total


def _written_out_dissipation(proto, x, p) -> float:
    """``-(0.0 + psi_0*dx_0 + ...)`` from the scalar methods, with
    ``psi_i = 0.0 + Phi(j, p_j - p_i) + ...`` and ``dx_i = 0.0 + (f_j_i -
    f_i_j) + ...`` over ``j != i`` in order, ``f_i_j = x_i * phi(j, p_j - p_i)``."""
    n = len(x)
    others = [[j for j in range(n) if j != i] for i in range(n)]
    flow = [[x[i] * proto.phi(j, p[j] - p[i]) for j in range(n)] for i in range(n)]
    psi = [_left_to_right(proto.phi_integral(j, p[j] - p[i]) for j in others[i])
           for i in range(n)]
    dx = [_left_to_right(flow[j][i] - flow[i][j] for j in others[i]) for i in range(n)]
    return -_left_to_right(a * b for a, b in zip(psi, dx))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("proto", [SMITH, STEEP, CALLED, "general"])
def test_dissipation_is_the_written_out_sum_bit_for_bit(proto, n):
    """The stacked dissipation is, sample by sample, the sum written out
    from the scalar methods, to the bit."""
    if proto == "general":
        proto = _general(n)
    x, p = _stacked_samples(n, 300, seed=50 + n)
    expected = [_written_out_dissipation(proto, x[k].tolist(), p[k].tolist())
                for k in range(len(x))]
    assert np.array_equal(_bits(dissipation(proto, x, p)), _bits(expected))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_dissipation_and_field_match_per_sample(n):
    x, p = _stacked_samples(n, 400, seed=10 + n)
    v = mean_field(SMITH, x, p)
    D = dissipation(SMITH, x, p)
    assert v.shape == x.shape and D.shape == (len(x),)
    for k in range(len(x)):
        np.testing.assert_allclose(
            v[k], mean_field(SMITH, x[k], p[k]), rtol=1e-12, atol=0.0
        )
        assert D[k] == pytest.approx(
            dissipation(SMITH, x[k], p[k]), rel=1e-12, abs=0.0
        )
        # against the rate matrix: net flow summed exactly per strategy
        flow = x[k][:, None] * switch_rates(SMITH, x[k], p[k])
        exact = np.array([math.fsum(row) for row in flow.T - flow])
        np.testing.assert_allclose(v[k], exact, rtol=0.0, atol=1e-15)


def test_one_sample_keeps_scalar_types():
    x, p = (0.3, 0.2, 0.5), (0.1, -0.4, 0.7)
    assert type(storage(SMITH, x, p)) is float
    assert type(dissipation(SMITH, x, p)) is float
    assert type(storage(GENERAL, x[:2], p[:2])) is float
    assert mean_field(SMITH, x, p).shape == (3,)


@pytest.mark.parametrize("layer", [storage, mean_field, dissipation])
@pytest.mark.parametrize("x, p, widths", [
    ([0.5, 0.3, 0.2], [0.1, 0.2], "x has 3 shares but p has 2 payoffs"),
    ([0.5, 0.5], [0.1, 0.2, 0.3], "x has 2 shares but p has 3 payoffs"),
    ([[0.5, 0.5]] * 4, [[0.1, 0.2, 0.3]] * 4, "x has 2 shares but p has 3 payoffs"),
    ([[0.5, 0.5]], [[0.1, 0.2]] * 3, "x has 1 samples but p has 3"),
    ([[0.5, 0.5]] * 4, [[0.1, 0.2]] * 3, "x has 4 samples but p has 3"),
    ([[[0.5, 0.5]] * 2] * 2, [[0.1, 0.2]] * 2, "x has 3 dimensions, more than a stack"),
    ([0.5, 0.5], [[[0.1, 0.2]] * 2] * 2, "p has 3 dimensions, more than a stack"),
    ([1.0], [0.0], "at least two strategies are required, got 1"),
    ([[1.0]] * 3, [[0.0]] * 3, "at least two strategies are required, got 1"),
    ([], [], "at least two strategies are required, got 0"),
])
def test_shares_and_payoffs_of_different_widths_are_rejected(layer, x, p, widths):
    # a storage used to be summed over the shorter of the two; the field
    # and the dissipation failed on the flow's argument count.  Stacks of
    # different lengths were broadcast, or failed in numpy, and a stack of
    # stacks gave a stack of values.  One strategy failed in the flow on an
    # unassigned dx_0 and gave a storage of 0.0; none failed to compile
    with pytest.raises(ValueError, match=f"^{widths}$"):
        layer(SMITH, x, p)


def test_non_ipc_protocol_raises_for_stacked_input():
    class Imitation:
        def phi(self, j, gap):
            return 0.0

    x, p = _stacked_samples(2, 5, seed=0)
    with pytest.raises(NotIPC):
        mean_field(Imitation(), x, p)
    with pytest.raises(NotIPC):
        storage(Imitation(), x, p)
    with pytest.raises(NotIPC):
        dissipation(Imitation(), x, p)


def _edge_gaps(proto):
    knee = proto.cap / proto.rate_gain
    return [-math.inf, -1.0, -0.0, 0.0, 5e-324, math.nextafter(knee, -math.inf), knee,
            math.nextafter(knee, math.inf), 1e300, math.inf, math.nan]


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("rg, cap", [(0.1, 0.1), (3.0, 0.7), (1e308, 1e-308), (2.5, 1e300)])
def test_every_form_of_smiths_law_equals_the_written_out_law_bit_for_bit(rg, cap):
    """The rate that the flow text inlines, as the kernel's conditional and
    with ``where`` on columns, the column form of the antiderivative and
    the scalar methods return the bits of the law written out by hand in
    ``PerStrategyLaws``, -0.0 and NaN included."""
    proto = SmithProtocol(rate_gain=rg, cap=cap)
    law = PerStrategyLaws(gains=(rg, rg), cap=cap)
    gaps = _edge_gaps(proto)
    rates = _bits([law.phi(1, g) for g in gaps])
    integrals = _bits([law.phi_integral(1, g) for g in gaps])
    assert np.array_equal(_bits([proto.phi(1, g) for g in gaps]), rates)
    assert np.array_equal(_bits([proto.phi_integral(1, g) for g in gaps]), integrals)
    # the flow of one pair: share 1.0 at payoff 0.0, so f_ij is the rate at gap p_1
    kernel_flow, column_flow = (
        _compile_text(f"pair_flow_{form}", "x_0, x_1, p_0, p_1, rg, cap",
                      edm._flow_text(2, edm._law(proto, "phi", columns)[0]), "f_ij",
                      {"where": np.where})
        for form, columns in (("kernel", False), ("columns", True)))
    assert np.array_equal(_bits([kernel_flow(1.0, 0.0, 0.0, g, rg, cap) for g in gaps]), rates)
    ones = np.ones(len(gaps))
    P = np.stack([0.0 * ones, np.array(gaps)], 1)
    # past the knee, a cap whose square overflows gives inf - inf, NaN as in the law
    with warnings.catch_warnings(), np.errstate(
            invalid="ignore" if math.isinf(cap * cap) else "warn"):
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):  # in the branch of a selection not taken
            column = column_flow(ones, 0.0 * ones, 0.0 * ones, np.array(gaps), rg, cap)
        assert np.array_equal(_bits(column), rates)
        column = edm._run(proto, "phi_integral", edm._gradient_text, "psi", P, P)[0]
        assert np.array_equal(_bits(column), integrals)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("proto", [SMITH, SmithProtocol(rate_gain=3.0, cap=0.7), _general],
                         ids=["smith", "smith_steep", "general"])
def test_mean_field_sums_the_pair_flows_left_to_right_bit_for_bit(proto, n):
    """Component i is ``0.0 + (f_j_i - f_i_j) + ...`` over ``j != i`` in
    order, with ``f_i_j = x_i * phi(j, p_j - p_i)``, for a stack and for
    each of its samples alone."""
    if proto is _general:
        proto = _general(n)
    x, p = _stacked_samples(n, 400, seed=30 + n)
    stacked = mean_field(proto, x, p)
    oracle = np.empty_like(x)
    for k in range(len(x)):
        flow = x[k][:, None] * switch_rates(proto, x[k], p[k])
        for i in range(n):
            total = 0.0
            for j in range(n):
                if j != i:
                    total = total + (float(flow[j, i]) - float(flow[i, j]))
            oracle[k, i] = total
    assert np.array_equal(_bits(stacked), _bits(oracle))
    for k in range(0, len(x), 17):
        assert np.array_equal(_bits(mean_field(proto, x[k], p[k])), _bits(oracle[k]))


def test_smith_storage_builds_no_pair_tensor():
    """Smith's rates run one gap column at a time, and the mean field holds
    one pair's flows at a time: the peak memory of a stacked storage is a
    few columns above its per-strategy sums, and that of the mean field and
    the dissipation a few columns above those sums and the field's result,
    below one (m, n, n) tensor of gaps."""
    m, n = 20000, 6
    x, p = _stacked_samples(n, m, seed=3)
    column = m * np.dtype(float).itemsize
    for layer, columns in ((storage, n + 8), (mean_field, 2 * n + 8),
                           (dissipation, 2 * n + 8)):
        tracemalloc.start()
        try:
            layer(SMITH, x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < columns * column < n * n * column, layer.__name__
