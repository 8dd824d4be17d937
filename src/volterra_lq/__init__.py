"""Linear-quadratic optimal control of weakly singular Volterra equations.

The state evolves through a Volterra integral equation whose kernel blows
up like (t-s)^(beta-1) along the diagonal.  The package computes the
open-loop optimal control of a quadratic cost three independent ways
(direct operator solve, backward adjoint equation, causal state feedback
through a family of Fredholm equations) and verifies their agreement, plus
the numerical machinery these need: product-integration quadrature that
treats the singularity exactly, the resolvent kernel in factored form,
and Galerkin-type solvers for the feedback-gain equation.
"""

__version__ = "0.1.0"

from .errors import AssumptionError, ConfigError, KernelFileError, NumericalError
from .grids import (
    Grid,
    SingularWeights,
    build_grid,
    check_young_bound,
    integrate_singular,
    product_weights,
)
from .volterra import (
    FactoredKernel,
    ProblemData,
    StateOperator,
    control_kernel,
    resolvent,
    solve_state,
)
from .lq import (
    CostData,
    DiscreteLQ,
    SampledCost,
    assemble_quadratic_form,
    evaluate_cost,
    solve_open_loop,
    verify_control_relation,
)
from .adjoint import AdjointTrajectory, control_from_adjoint, solve_adjoint
from .causal import (
    CausalTrajectories,
    ReducedSystem,
    RestrictedOperator,
    TruncationFactor,
    abstract_causal_control,
    build_cross_term_reduction,
    causal_trajectories,
    general_causal_control,
    lambda_sigma,
)
from .fredholm import (
    FeedbackKernel,
    FredholmSystem,
    assemble_fredholm,
    crosscheck_kernel_samples,
    feedback_control,
    solve_direct,
    solve_galerkin,
    solve_iterated_galerkin,
    solve_superconvergent,
)
from .catalog import get_problem, problem_names
from .config import RunConfig, load_config
from .scenarios import ScenarioReport, run_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
