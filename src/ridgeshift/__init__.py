"""Deterministic risk equivalents and optimal (possibly negative) ridge
regularization for out-of-distribution prediction, with a Monte Carlo
validation harness and a CLI."""

__version__ = "0.1.0"

from .errors import (
    BelowMinimumPenaltyError,
    BranchViolationError,
    InvalidParameterError,
    RidgeShiftError,
    SingularResolventError,
    SolverFailureError,
)
from .model import (
    ModelConfig,
    ShiftModel,
    Spectrum,
    build_ar1,
    build_model,
    make_model,
)
from .fixed_point import (
    PSI_INFINITE,
    EquivalencePath,
    FixedPointSolution,
    equivalence_path,
    lambda_min,
    lambda_of_mu,
    mu_zero,
    solve_mu,
)
from .risk import (
    OptimalPoint,
    RiskDecomposition,
    SearchOptions,
    ensemble_risk,
    isotropic_optimal_risk,
    optimal_lambda,
    optimal_psi,
    risk_at_mu,
    risk_decomposition,
    risk_mu_derivative,
    tilde_v,
)
from .conditions import (
    ConditionReport,
    MuGrid,
    SignPrediction,
    check_cov_shift_overparam,
    check_in_dist_alignment,
    check_reg_shift_alignment,
    check_reg_shift_general_balance,
    check_strict_alignment_implication,
    predict_sign,
)
from .simulate import (
    CellResult,
    EnsembleConfig,
    NearSingularRidgeWarning,
    RidgeFactorization,
    SimConfig,
    SimResult,
    empirical_risk,
    generate_data,
    mc_experiment,
)

__all__ = [
    "__version__",
    # errors
    "RidgeShiftError",
    "InvalidParameterError",
    "SingularResolventError",
    "BelowMinimumPenaltyError",
    "BranchViolationError",
    "SolverFailureError",
    # model
    "Spectrum",
    "ShiftModel",
    "ModelConfig",
    "build_ar1",
    "build_model",
    "make_model",
    # fixed point
    "PSI_INFINITE",
    "FixedPointSolution",
    "EquivalencePath",
    "mu_zero",
    "lambda_min",
    "lambda_of_mu",
    "solve_mu",
    "equivalence_path",
    # risk
    "RiskDecomposition",
    "OptimalPoint",
    "SearchOptions",
    "risk_at_mu",
    "risk_decomposition",
    "ensemble_risk",
    "risk_mu_derivative",
    "tilde_v",
    "optimal_lambda",
    "optimal_psi",
    "isotropic_optimal_risk",
    # conditions
    "MuGrid",
    "ConditionReport",
    "SignPrediction",
    "check_in_dist_alignment",
    "check_cov_shift_overparam",
    "check_reg_shift_alignment",
    "check_reg_shift_general_balance",
    "check_strict_alignment_implication",
    "predict_sign",
    # simulate
    "SimConfig",
    "EnsembleConfig",
    "SimResult",
    "CellResult",
    "NearSingularRidgeWarning",
    "RidgeFactorization",
    "generate_data",
    "empirical_risk",
    "mc_experiment",
]
