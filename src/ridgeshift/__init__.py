"""Deterministic risk equivalents and optimal (possibly negative) ridge
regularization for out-of-distribution prediction, with a Monte Carlo
validation harness and a CLI.

Each public name is listed once, under the layer module that defines it,
and that module is imported the first time the name is read: a bare
``import ridgeshift`` loads no layer and not numpy, and a caller of the
theory layers never loads the Monte Carlo harness. ``ridgeshift.<layer>``
still resolves after a bare import. Nothing is cached here, so a name read
through the package is always what its module holds at that moment.
"""

from importlib import import_module

__version__ = "0.1.0"

#: layer module -> the public names it defines, in ``__all__`` order
_PUBLIC = {
    "errors": (
        "RidgeShiftError",
        "InvalidParameterError",
        "SingularResolventError",
        "BelowMinimumPenaltyError",
        "BranchViolationError",
        "SolverFailureError",
    ),
    "model": (
        "Spectrum",
        "ShiftModel",
        "build_ar1",
        "build_model",
        "make_model",
    ),
    "fixed_point": (
        "PSI_INFINITE",
        "FixedPointSolution",
        "EquivalencePath",
        "mu_zero",
        "lambda_min",
        "lambda_of_mu",
        "solve_mu",
        "equivalence_path",
    ),
    "risk": (
        "RiskDecomposition",
        "OptimalPoint",
        "risk_at_mu",
        "risk_decomposition",
        "ensemble_risk",
        "tilde_v",
        "optimal_lambda",
        "optimal_psi",
    ),
    "conditions": (
        "ConditionReport",
        "SignPrediction",
        "check_in_dist_alignment",
        "check_cov_shift_overparam",
        "check_reg_shift_alignment",
        "check_reg_shift_general_balance",
        "predict_sign",
    ),
    "simulate": (
        "SimConfig",
        "EnsembleConfig",
        "SimResult",
        "CellResult",
        "generate_data",
        "empirical_risk",
        "mc_experiment",
    ),
}
_HOME = {name: layer for layer, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _PUBLIC:
        return import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*__all__, *_PUBLIC]
