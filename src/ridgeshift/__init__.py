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
    ensemble_risk,
    optimal_lambda,
    optimal_psi,
    risk_at_mu,
    risk_decomposition,
    tilde_v,
)
from .conditions import (
    ConditionReport,
    SignPrediction,
    check_cov_shift_overparam,
    check_in_dist_alignment,
    check_reg_shift_alignment,
    check_reg_shift_general_balance,
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
    "risk_at_mu",
    "risk_decomposition",
    "ensemble_risk",
    "tilde_v",
    "optimal_lambda",
    "optimal_psi",
    # conditions
    "ConditionReport",
    "SignPrediction",
    "check_in_dist_alignment",
    "check_cov_shift_overparam",
    "check_reg_shift_alignment",
    "check_reg_shift_general_balance",
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
