"""Dirichlet problems and the first eigenvalue of the complex Monge-Ampere
operator on strongly pseudoconvex domains, by finite differences.

Layering: domain (defining functions, grids) -> hessian (fields, discrete
complex Hessians, duals) -> dirichlet (frozen / monotone / quasi-monotone
solvers) -> variational (the eigenpair layer: functionals, eigen-residual,
result types, and the inverse-power route) -> eigenpath (the continuation
route) -> radial (shooting oracle) -> serialize / verify / cli (artifacts,
the invariant suite, and the command-line front end).  Modules import each
other at the top only, and the import graph has no cycle.
"""

from . import errors
from .cli import RunConfig, SummaryRecord, main, parse_config, run
from .dirichlet import (
    RhsSpec,
    SolveReport,
    apply_T,
    check_subsolution,
    monotone_iteration,
    quadratic_subsolution,
    solve_frozen,
    solve_nonlinear,
    solve_quasimonotone,
)
from .domain import (
    Ball,
    Constant,
    CustomRho,
    DensitySpec,
    DomainSpec,
    Ellipsoid,
    GaussianBump,
    GridDomain,
    build_grid,
    density_vector,
    eval_density,
    eval_rho,
)
from .eigenpath import SchedulePolicy, continuation, lower_bound, solve_branch
from .hessian import (
    DualMatrixSet,
    HermitianField,
    ScalarField,
    complex_hessian,
    gaveau_value,
    is_psh,
    laplacian_matrix,
    ma_det,
    random_psh_field,
    require_psh,
)
from .radial import (
    RadialProfile,
    frozen_radial_constant,
    radial_lambda1,
    radial_profile,
    shoot,
)
from .serialize import (
    atomic_write_bytes,
    atomic_write_text,
    branch_to_csv,
    field_to_csv,
    profile_to_csv,
    read_field,
    write_field,
    write_grid,
)
from .variational import (
    BranchPoint,
    EigenResult,
    energy,
    inverse_power,
    mass,
    omega_weight,
    rayleigh,
)
from .verify import (
    InvariantRow,
    VerifyReport,
    available_invariants,
    run_suite,
    verify_eigenpair,
)

__all__ = [
    "errors",
    # domain
    "Ball", "Ellipsoid", "CustomRho", "DomainSpec",
    "Constant", "GaussianBump", "DensitySpec",
    "GridDomain", "build_grid", "eval_rho", "eval_density", "density_vector",
    # fields and Hessians
    "ScalarField", "HermitianField", "DualMatrixSet", "complex_hessian",
    "ma_det", "is_psh", "require_psh", "gaveau_value", "laplacian_matrix",
    "random_psh_field",
    # Dirichlet solvers
    "RhsSpec", "SolveReport", "solve_frozen", "solve_nonlinear", "apply_T",
    "quadratic_subsolution", "check_subsolution", "monotone_iteration",
    "solve_quasimonotone",
    # eigenvalue routes
    "BranchPoint", "EigenResult", "SchedulePolicy",
    "lower_bound", "solve_branch", "continuation",
    "energy", "mass", "rayleigh", "omega_weight", "inverse_power",
    # radial oracle
    "RadialProfile", "shoot", "radial_lambda1", "radial_profile",
    "frozen_radial_constant",
    # artifacts
    "atomic_write_bytes", "atomic_write_text", "write_field", "write_grid",
    "read_field", "field_to_csv", "branch_to_csv", "profile_to_csv",
    # verification and CLI
    "InvariantRow", "VerifyReport", "available_invariants", "run_suite",
    "verify_eigenpair",
    "RunConfig", "SummaryRecord", "parse_config", "run", "main",
]
