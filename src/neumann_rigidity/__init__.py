"""Numerical laboratory for the no-flux steady states of
-eps*Lap(u) = e^u - 1 - a*u on planar domains.

The package discretizes the problem with lumped P1 finite elements, finds
steady states by damped Newton iteration with deterministic multi-start,
locates the primary bifurcation of the constant branch, and verifies the
quantitative estimates (zero-average identity, L1 bound, mean bounds,
exponential integrability, energy identity, spectral gap, Green
representation) on every computed solution.
"""

from .continuation import (
    BifurcationReport,
    BranchPoint,
    SweepResult,
    branch_switch,
    build_bifurcation_report,
    continue_branch,
    detect_bifurcation,
    rigidity_sweep,
    stability_indicator,
    trivial_branch_stability,
)
from .diagnostics import (
    DiagnosticsReport,
    check_energy_identity,
    check_exp_integrability,
    check_l1_bound,
    check_mean_bounds,
    check_poincare,
    check_representation,
    check_zero_average,
    estimate_green_constants,
    full_suite_ok,
    run_diagnostics,
)
from .linsolve import (
    BorderedSystem,
    EigenPair,
    bordered,
    dual_norm,
    first_eigenpair,
    mass_norm,
    project_mean_zero,
    smallest_nonzero_eigen,
    solve_projected,
    weighted_mean,
)
from .meshing import (
    DiscreteOperator,
    Mesh,
    assemble,
    build_disk_mesh,
    build_rectangle_mesh,
    domain_metrics,
    read_field,
    read_mesh,
    write_field,
    write_mesh,
)
from .model import (
    ConstantChain,
    ModelParams,
    bifurcation_epsilon,
    constant_chain,
    eval_f,
    eval_f_prime,
    find_xi,
    lipschitz_bound,
    rigidity_threshold,
)
from .newton import (
    Constant,
    MultiStartResult,
    NewtonOpts,
    Nonconstant,
    SolutionRecord,
    classify,
    jacobian,
    multi_start,
    newton_solve,
    residual,
)

__version__ = "0.1.0"
