"""Simulation and certification toolkit for epidemic population games with a
positive disease death rate: coupled SIRS/strategy dynamics under a designed
payoff mechanism, Lyapunov monitoring along trajectories, and anytime upper
bounds on peak infection prevalence."""

__version__ = "0.1.0"

from .bounds import (
    BoundQuery,
    BoundResult,
    CertificationReport,
    certify_trajectory,
    default_grid,
    epidemic_storage,
    peak_bound,
    peak_ratio_at,
)
from .dynamics import (
    EpgState,
    IntegratorOptions,
    LyapunovSeries,
    RunStats,
    StepRejected,
    Trajectory,
    lyapunov_series,
    lyapunov_value,
    simulate,
    state_derivative,
    write_csv,
)
from .edm import (
    GeneralIPCProtocol,
    NotIPC,
    SmithProtocol,
    dissipation,
    mean_field,
    storage,
)
from .equilibrium import (
    DegenerateDiscriminant,
    EquilibriumPoint,
    OptimalAllocation,
    OutOfRange,
    endemic_state,
    optimal_allocation,
)
from .params import (
    AssumptionViolated,
    BudgetAtBreakpoint,
    ModelParams,
    PolicyConfig,
    StrategySpec,
    ValidatedBundle,
    ValidationError,
    check_assumptions,
    validate,
)
from .payoff import EpidemicStateOutOfDomain, PayoffMechanism, build_mechanism
