"""Numerical laboratory for blow-up and lifespan bounds of the
scale-invariant damped semilinear wave equation with radially decaying
data: exponent algebra, certified lower-bound iteration with quadrature
oracles, a radial finite-difference solver, and sweep experiments."""

from .bound_engine import (
    BoundConfig,
    IterationConstants,
    IterationState,
    LifespanBound,
    closed_form,
    derive_K,
    free_lower_bound,
    in_sigma,
    initial_state,
    iterate,
    J,
    lifespan_upper_bound,
    seed_constant,
    verify_iteration_step,
)
from .exponents import (
    AtlasResult,
    HypothesisError,
    ModelParams,
    RegionVerdict,
    UncoveredCaseError,
    Verdict,
    admissible_range,
    atlas,
    classify,
    fujita,
    kbar_zero,
    lifespan_exponent,
    mu_max,
    p_bar,
    strauss,
)
from .experiments import (
    BoundCheckReport,
    ConvergenceReport,
    SweepResult,
    SweepSpec,
    check_upper_bound,
    convergence_study,
    fit_power_law,
    sweep,
)
from .solver import (
    ConfigurationError,
    Form,
    GridSpec,
    SolverRun,
    discrete_energy,
    exact_free_wave_n3,
    initial_data,
    max_stable_cfl,
    run,
    transform_check,
)

__version__ = "0.1.0"
