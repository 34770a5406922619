"""Deviation-from-conjugacy pseudometrics for data-driven system comparison.

Identify finite Koopman operators from trajectory data, map them to
eigenfunction space, and quantify how far two systems are from topological
conjugacy through closed-form unitary alignments of trajectories and
spectra.
"""
from .conjugacy import (
    CompareDiagnostics,
    ConjugacyReport,
    ContractViolationError,
    DeviationTriple,
    ParetoCorners,
    compare,
    lsq_transform,
    mean_corner_distance,
    pareto_deviations,
    recover_t,
    residual_r1,
    residual_r2,
    solve_c_r1,
    solve_c_r2,
    solve_gamma,
    solve_permutation,
)
from .koopman import (
    AuxiliaryConfig,
    EigenfunctionTrajectory,
    FitError,
    IdentificationError,
    KoopmanModel,
    ObservableMatrix,
    PrimarySeries,
    build_observables,
    decompose,
    default_ridge,
    eigenfunction_trajectories,
    fit_theta,
    free_run,
    identify_operator,
)
from .linalg import (
    DiagonalizabilityError,
    EigResult,
    FactorizationError,
    LinalgError,
    SvdResult,
    eig,
    pinv,
    svd,
)

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryConfig",
    "CompareDiagnostics",
    "ConjugacyReport",
    "ContractViolationError",
    "DeviationTriple",
    "DiagonalizabilityError",
    "EigResult",
    "EigenfunctionTrajectory",
    "FactorizationError",
    "FitError",
    "IdentificationError",
    "KoopmanModel",
    "LinalgError",
    "ObservableMatrix",
    "ParetoCorners",
    "PrimarySeries",
    "SvdResult",
    "build_observables",
    "compare",
    "decompose",
    "default_ridge",
    "eig",
    "eigenfunction_trajectories",
    "fit_theta",
    "free_run",
    "identify_operator",
    "lsq_transform",
    "mean_corner_distance",
    "pareto_deviations",
    "pinv",
    "recover_t",
    "residual_r1",
    "residual_r2",
    "solve_c_r1",
    "solve_c_r2",
    "solve_gamma",
    "solve_permutation",
    "svd",
]
