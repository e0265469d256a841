"""The generated RK4 kernel against the library functions it shares text with.

The kernel inlines the endemic algebra (``equilibrium._ENDEMIC``), the
feedback law for q (``payoff._QDOT``) and the pairwise flow
(``edm._flow_text``).
These tests pin each part of ``state_derivative`` to the library function
that computes the same quantity, exactly where the float operations are the
same, over random states for n = 2 and n = 3 under both protocol classes
and a duck-typed protocol whose rates are nonzero at gaps <= 0.
"""

from __future__ import annotations

import numpy as np

from epgtool import (
    EpgState,
    GeneralIPCProtocol,
    endemic_state,
    mean_field,
    state_derivative,
)
from helpers import kernel_sum, random_simplex

STATES = 1000


def _capped(gain: float, cap: float = 0.1):
    return lambda gap: min(gain * gap, cap)


class _Leaky:
    """A duck-typed protocol whose rates are nonzero at gaps <= 0 too."""

    def phi(self, j, gap):
        return 0.05 + 0.1 * max(gap, 0.0)


def _scenarios(example1, three_strategy):
    for scenario in (example1, three_strategy):
        n = scenario.strategies.n
        general = GeneralIPCProtocol(
            phis=tuple(_capped(2.0 * (k + 1)) for k in range(n)), cap=0.1
        )
        for proto in (scenario.proto, general, _Leaky()):
            yield scenario.mech, proto


def _random_states(rng, n):
    for _ in range(STATES):
        I = float(rng.uniform(1e-4, 0.5))
        R = float(rng.uniform(0.0, 1.0 - I))
        x = random_simplex(rng, n)
        yield EpgState(I=I, R=R, x=tuple(x), q=float(rng.uniform(-3.0, 3.0)))


def test_kernel_pieces_equal_the_library(example1, three_strategy):
    rng = np.random.default_rng(20240)
    for mech, proto in _scenarios(example1, three_strategy):
        n = len(mech.strategies.betas)
        for state in _random_states(rng, n):
            deriv = state_derivative(state, mech, proto)
            # the inlined pairwise flow is edm's mean field
            assert np.array_equal(
                deriv[2:2 + n], mean_field(proto, state.x, mech.payoffs(state.q))
            )
            # the feedback rate is the mechanism's, at the kernel's rate
            B = kernel_sum(zip(mech.strategies.betas, state.x))
            assert deriv[2 + n] == mech.qdot_at_B(state.I, state.R, B)
            # and at the share vector, whose rate the mechanism sums likewise
            assert deriv[2 + n] == mech.qdot(state.I, state.R, state.x)


def test_endemic_curve_equals_the_scalar_path_bit_for_bit(example1):
    params = example1.params
    grid = np.linspace(example1.strategies.betas[0], example1.strategies.betas[-1], 3000)
    curve = endemic_state(grid, params)
    for k, B in enumerate(grid):
        eq = endemic_state(float(B), params)
        for name in ("I_hat", "R_hat", "a", "dI_dB", "dR_dB", "da_dB"):
            values = getattr(curve, name)
            assert values[k] == getattr(eq, name), (name, B)
