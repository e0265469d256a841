"""The float operations of one RK4 stage: each is done once, and the stage
texts round as their written-out forms do.

``equilibrium._ENDEMIC`` computes ``B - d``, ``B - sig`` and
``w - d*I_hat`` once, reads ``4.0*d*w`` and ``2.0*w`` as constants, and
carries the sensitivity determinant negated (``pdet = +sqrt(disc)``);
``edm._flow_text`` computes each pair's ``net = f_ji - f_ij`` once.  These
tests write the forms with every difference repeated and the determinant
with its own sign as plain Python, and compare the library with them bit for
bit, signed zeros included.  The stage's operation count is pinned as an
AST count, which does not depend on the Python version, since the
benchmark that times the stage does not run in CI.
"""

from __future__ import annotations

import ast
import itertools
import math

import numpy as np
import pytest

from epgtool import ModelParams, SmithProtocol, endemic_state, mean_field
from epgtool import edm
from epgtool.dynamics import _field_template
from epgtool.equilibrium import _endemic_constants
from helpers import PerStrategyLaws, random_bundle

# the fields of EquilibriumPoint that the determinant does not enter, and
# the slopes, which it divides
POINT = ("B", "I_hat", "R_hat", "a", "b", "disc")
SLOPES = ("dI_dB", "dR_dB", "da_dB")


def _written_out_endemic(B, params):
    """The endemic text with each difference written where it is used and the
    determinant ``det = -sqrt(disc)`` with its own sign; elementwise."""
    d, w, gam, sig = params.delta, params.omega, params.gamma, params.sigma
    b = gam * B + w * (B - d) + d * (B - sig)
    disc = b * b - 4.0 * d * w * (B - d) * (B - sig)
    sq = np.sqrt(disc)
    I_hat = 2.0 * w * (B - sig) / (b + sq)
    R_hat = (1.0 - sig / B) - (1.0 - d / B) * I_hat
    denom = gam + d * R_hat
    a = B / denom
    det = -(B - d) * (w - d * I_hat) - B * denom
    free = 1.0 - I_hat - R_hat
    dI_dB = -(w - d * I_hat) * free / det
    dR_dB = -denom * free / det
    da_dB = (gam + d * (R_hat - B * dR_dB)) / (denom * denom)
    values = dict(B=B, I_hat=I_hat, R_hat=R_hat, a=a, b=b, disc=disc,
                  dI_dB=dI_dB, dR_dB=dR_dB, da_dB=da_dB)
    return values, det


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _check_endemic(B, params) -> int:
    """Compare ``endemic_state`` with the written-out form at the rates of
    ``B`` where both the rate and the discriminant pass its checks; return
    how many of them have a determinant that rounds to exactly 0."""
    B = np.asarray(B, dtype=float)
    with np.errstate(all="ignore"):
        expected, det = _written_out_endemic(B, params)
    valid = (B > params.sigma) & (expected["disc"] > 0.0)
    assert valid.any()
    eq = endemic_state(B[valid], params)
    for name in POINT:
        assert np.array_equal(_bits(getattr(eq, name)), _bits(expected[name][valid])), name
    # a determinant of exactly 0 is +0.0 in the folded form and -0.0 or
    # +0.0 in the written-out one: there the slopes may differ in sign
    singular = det[valid] == 0.0
    for name in SLOPES:
        got, want = getattr(eq, name), expected[name][valid]
        assert np.array_equal(_bits(got[~singular]), _bits(want[~singular])), name
        assert np.all(np.isnan(got[singular]) | np.isinf(got[singular])), name
    return int(singular.sum())


def test_endemic_state_has_the_bits_of_the_written_out_form_on_random_bundles():
    rng = np.random.default_rng(2323)
    for _ in range(200):
        params, strategies, _ = random_bundle(rng)
        B = rng.uniform(strategies.betas[0], strategies.betas[-1], size=50)
        assert _check_endemic(np.append(B, strategies.betas), params) == 0


def test_endemic_state_has_the_bits_of_the_written_out_form_in_a_small_time_unit():
    # example1 with every rate x 1e-7: the determinant is about -1.9e-16
    params = ModelParams(gamma=1e-8, delta=5e-10, psi=1.1e-9)
    assert _check_endemic(np.linspace(1.5e-8, 1.9e-8, 2001), params) == 0


def test_endemic_state_has_the_bits_of_the_written_out_form_near_a_degenerate_discriminant():
    """With gamma = 0 the discriminant is ``(w*(B - d) - d*(B - sig))**2``,
    zero at ``B0 = d*(w - sig)/(w - d)``, which exceeds sigma for a negative
    ``theta``.  Around ``B0`` both terms of the determinant are rounding
    noise, so it changes sign and may round to exactly 0 while ``disc > 0``.
    """
    rng = np.random.default_rng(99)
    singular = 0
    for _ in range(20):
        delta = rng.uniform(1e-4, 0.05)
        psi = rng.uniform(1.1 * delta, 0.2)
        theta = -rng.uniform(0.0, 0.9 * (psi - delta))
        params = ModelParams(gamma=float(rng.choice([0.0, 1e-300, 1e-12])),
                             delta=delta, zeta=0.0, theta=theta, psi=psi)
        c = _endemic_constants(params)
        B0 = c["d"] * (c["w"] - c["sig"]) / (c["w"] - c["d"])
        B = B0 + np.arange(-2000, 2001) * np.spacing(B0) * rng.choice([1, 64, 4096])
        singular += _check_endemic(B, params)
    # none of these rates rounds the determinant to exactly 0
    assert singular == 0


def _edge_gaps(proto):
    knee = proto.cap / proto.rate_gain
    return [-1.0, -0.0, 0.0, math.nextafter(knee, -math.inf), knee, 2.0 * knee,
            math.inf, math.nan]


def _written_out_field(proto, x, p):
    """``dx_i = 0.0 + (f_ji - f_ij) + ...`` over ``j != i`` left to right,
    each pair's two differences computed apart, on Python floats."""
    n = len(x)
    dx = [None] * n
    for i, j in itertools.combinations(range(n), 2):
        f_ij = x[i] * proto.phi(j, p[j] - p[i])
        f_ji = x[j] * proto.phi(i, p[i] - p[j])
        dx[i] = (0.0 if dx[i] is None else dx[i]) + (f_ji - f_ij)
        dx[j] = (0.0 if dx[j] is None else dx[j]) + (f_ij - f_ji)
    return dx


SHARES = {
    2: [(1.0, 0.0), (0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (0.5, 0.5), (0.3, 0.7)],
    3: [(1.0, 0.0, 0.0), (-0.0, 1.0, 0.0), (0.0, -0.0, 1.0), (0.2, 0.5, 0.3)],
}


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("law", ["smith", "smith_steep", "callback"])
def test_mean_field_has_the_bits_of_the_written_out_sums(n, law):
    """Gaps exactly 0, at and below the knee, past the cap, infinite and NaN,
    with shares of -0.0; Smith's law inlined and the callback form."""
    smith = SmithProtocol(rate_gain=3.0, cap=0.7) if law == "smith_steep" else SmithProtocol()
    knee = smith.cap / smith.rate_gain
    proto = smith if law != "callback" else PerStrategyLaws(gains=(0.1, 0.3, 2.0)[:n])
    gaps = _edge_gaps(smith) + [0.5 * knee]
    payoffs = [(0.0, *rest) for rest in itertools.product(gaps, repeat=n - 1)]
    payoffs += [(g, 0.0, *([knee] * (n - 2))) for g in gaps]
    rows = list(itertools.product(SHARES[n], payoffs))
    x = np.array([share for share, _ in rows])
    p = np.array([payoff for _, payoff in rows])
    expected = _bits([_written_out_field(proto, *row) for row in rows])
    with np.errstate(invalid="ignore"):  # inf - inf, and NaN gaps compared
        assert np.array_equal(_bits(mean_field(proto, x, p)), expected)
        for k, (share, payoff) in enumerate(rows):
            assert np.array_equal(_bits(mean_field(proto, share, payoff)), expected[k])


def _operations(text: str) -> tuple[int, int]:
    tree = ast.parse(text.format(i="", _=""))
    return (sum(isinstance(node, ast.BinOp) for node in ast.walk(tree)),
            sum(isinstance(node, ast.UnaryOp) for node in ast.walk(tree)))


@pytest.mark.parametrize("n, binary", [(2, 80), (3, 102)])
def test_a_smith_stage_does_each_float_operation_once(n, binary):
    """The binary and unary operations of one stage of the Smith kernel;
    a repeated difference or a sign flip that comes back raises the count."""
    law, _ = edm._law(SmithProtocol(), "phi", columns=False)
    assert _operations(_field_template(n, law)) == (binary, 0)
