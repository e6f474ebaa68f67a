"""Argument intake of the public surface: the number test, the aspect rule
and the subsample-aspect rule of ``ridgeshift.model``, seen from every
public function and Monte Carlo config that takes a scalar argument."""

import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from ridgeshift import (
    EnsembleConfig,
    InvalidParameterError,
    SimConfig,
    Spectrum,
    check_cov_shift_overparam,
    check_in_dist_alignment,
    check_reg_shift_alignment,
    check_reg_shift_general_balance,
    ensemble_risk,
    equivalence_path,
    lambda_min,
    lambda_of_mu,
    make_model,
    mc_experiment,
    mu_zero,
    optimal_lambda,
    optimal_psi,
    predict_sign,
    risk_at_mu,
    risk_decomposition,
    solve_mu,
    tilde_v,
)

SP = Spectrum.from_values([0.5, 1.0, 2.0])
MODEL = make_model(SP, beta=[1.0, 0.5, 0.2], sigma2=0.1)
REG_SHIFT = make_model(SP, beta=[1.0, 0.5, 0.2], beta0=[2.0, 0.5, 0.0], sigma2=0.1)
COV_SHIFT = make_model(Spectrum.identity(3), beta=[1.0, 0.5, 0.2], sigma0=[0.5, 1.0, 2.0],
                       sigma2=0.1)
#: p = 8 at phi = 2: n = 4, and a subsample aspect near 2 keeps k = 4
MC_MODEL = make_model(Spectrum.identity(8), beta=np.full(8, 0.5), sigma2=0.1)
MC_CONFIG = SimConfig(p=8, phi=2.0, reps=2, seed=0)

#: label -> (callable, valid keyword arguments, {argument: the word its error names})
CALLS = {
    "solve_mu": (solve_mu, dict(spectrum=SP, lam=0.5, aspect=2.0),
                 {"lam": "penalty", "aspect": "aspect ratio"}),
    "mu_zero": (mu_zero, dict(spectrum=SP, phi=2.0), {"phi": "aspect ratio"}),
    "lambda_min": (lambda_min, dict(spectrum=SP, phi=2.0), {"phi": "aspect ratio"}),
    "lambda_of_mu": (lambda_of_mu, dict(spectrum=SP, mu=1.5, aspect=2.0),
                     {"mu": "mu", "aspect": "aspect ratio"}),
    "path-psi": (equivalence_path, dict(spectrum=SP, phi=2.0, psi_bar=3.0, samples=5),
                 {"phi": "aspect ratio", "psi_bar": "psi_bar", "samples": "samples"}),
    "path-lambda": (equivalence_path, dict(spectrum=SP, phi=2.0, lambda_bar=0.5),
                    {"lambda_bar": "penalty"}),
    "risk_at_mu": (risk_at_mu, dict(model=MODEL, mu=1.5, phi=2.0),
                   {"mu": "mu", "phi": "aspect ratio"}),
    "risk_decomposition": (risk_decomposition, dict(model=MODEL, lam=0.5, phi=2.0),
                           {"lam": "penalty", "phi": "aspect ratio"}),
    "ensemble_risk": (ensemble_risk, dict(model=MODEL, lam=0.5, phi=2.0, psi=3.0),
                      {"lam": "penalty", "phi": "aspect ratio", "psi": "psi"}),
    "tilde_v": (tilde_v, dict(model=MODEL, mu=1.5, phi=2.0, psi=3.0),
                {"mu": "mu", "phi": "aspect ratio", "psi": "psi"}),
    "optimal_lambda": (optimal_lambda, dict(model=MODEL, phi=2.0, lambda_floor=0.1),
                       {"phi": "aspect ratio", "lambda_floor": "lambda_floor"}),
    "optimal_psi": (optimal_psi, dict(model=MODEL, lam=0.5, phi=2.0),
                    {"lam": "penalty", "phi": "aspect ratio"}),
    "in-dist": (check_in_dist_alignment, dict(model=MODEL, phi=2.0, points=20),
                {"phi": "aspect ratio", "points": "points"}),
    "cov-shift": (check_cov_shift_overparam, dict(model=COV_SHIFT, phi=2.0),
                  {"phi": "aspect ratio"}),
    "reg-shift": (check_reg_shift_alignment, dict(model=REG_SHIFT, points=20),
                  {"points": "points"}),
    "balance": (check_reg_shift_general_balance, dict(model=REG_SHIFT, phi=2.0, points=20),
                {"phi": "aspect ratio", "points": "points"}),
    "predict_sign": (predict_sign, dict(model=REG_SHIFT, phi=2.0, points=20),
                     {"phi": "aspect ratio", "points": "points"}),
    "SimConfig": (SimConfig, dict(p=8, phi=2.0, reps=2, seed=0, threads=1),
                  {"p": "p", "phi": "phi", "reps": "reps", "seed": "seed", "threads": "threads"}),
    "EnsembleConfig": (EnsembleConfig, dict(psi=2.0, n_subsamples=2),
                       {"psi": "psi", "n_subsamples": "n_subsamples"}),
    # a grid entry stands in for the grid: it is the value the property draws
    "mc_experiment": (mc_experiment, dict(model=MC_MODEL, config=MC_CONFIG, lambda_grid=0.5),
                      {"lambda_grid": "lambda_grid"}),
}
ARGUMENTS = [(label, name) for label, (_, _, names) in CALLS.items() for name in names]
NOT_NUMBERS = ["0.5", "a", b"0.5", True, False, 0.5 + 0j, 1j, None]
ZERO_D = "0-d array"  # the valid value as a 0-d array


def _call(label: str, name: str | None = None, value=None):
    fn, kwargs, _ = CALLS[label]
    kwargs = dict(kwargs)
    if name is not None:
        kwargs[name] = value
    if label == "mc_experiment":
        kwargs["lambda_grid"] = [kwargs["lambda_grid"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(**kwargs)


def _leaves(result) -> list:
    """Every number of a result as float.hex, in order; strings and None as they are."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    if isinstance(result, (tuple, list)):
        return [leaf for item in result for leaf in _leaves(item)]
    return [result] if result is None or isinstance(result, str) else [float(result).hex()]


@settings(max_examples=500, deadline=None, derandomize=True)
@seed(240401233)
@given(st.sampled_from(ARGUMENTS), st.sampled_from(NOT_NUMBERS + [ZERO_D]))
@example(("lambda_min", "phi"), True)
@example(("lambda_of_mu", "mu"), "1.5")
@example(("mc_experiment", "lambda_grid"), "0.5")
@example(("mc_experiment", "lambda_grid"), [[1.0], [2.0, 3.0]])  # a ragged grid
def test_scalar_arguments_take_numbers_only(argument, value):
    """A string, bytes, bool, complex number or None given for a scalar
    argument raises InvalidParameterError naming the argument (an aspect by
    "aspect ratio", a penalty by "penalty"), with no raw TypeError or
    ValueError and no warning; the valid value as a 0-d array gives its result."""
    label, name = argument
    fn, kwargs, names = CALLS[label]
    if value is ZERO_D:
        assert _leaves(_call(label, name, np.array(kwargs[name]))) == _leaves(_call(label))
        return
    if value is None and inspect.signature(fn).parameters[name].default is None:
        return  # None leaves out an optional argument
    with pytest.raises(InvalidParameterError) as info:
        _call(label, name, value)
    assert type(info.value) is InvalidParameterError
    assert names[name] in str(info.value)


PHI = 2.0
#: each caller of the subsample-aspect rule, given psi
PSI_CALLERS = {
    "tilde_v": lambda psi: tilde_v(MODEL, 1.5, PHI, psi),
    "ensemble_risk": lambda psi: ensemble_risk(MODEL, 0.5, PHI, psi),
    "equivalence_path": lambda psi: equivalence_path(SP, PHI, psi_bar=psi),
    "mc_experiment": lambda psi: mc_experiment(
        MC_MODEL, dataclasses.replace(MC_CONFIG, ensemble=EnsembleConfig(psi, 2)), [0.5]),
}


@pytest.mark.parametrize("psi, match", [
    (PHI - 5e-13, None), (PHI, None),
    # one message holds both phrases
    (PHI - 2e-12, "must be >= data aspect .* below phi"),
    (math.nan, "psi"), ("2.0", "psi"), (True, "psi"),
])
def test_every_caller_of_the_subsample_rule_gives_its_verdict(psi, match):
    """None: admitted by all four callers; else the pattern each one's error matches."""
    for call in PSI_CALLERS.values():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if match is None:
                call(psi)
            else:
                with pytest.raises(InvalidParameterError, match=match):
                    call(psi)


def test_counts_take_python_integers_beyond_64_bits():
    assert SimConfig(p=8, phi=2.0, reps=2, seed=2**70).seed == 2**70


def test_python_integers_beyond_64_bits_are_numbers_in_the_float_range():
    # numpy holds them as objects; the number test reads them as their floats
    assert solve_mu(SP, 2**70, 2.0) == solve_mu(SP, 2.0**70, 2.0)
    assert mu_zero(SP, 2**70) == mu_zero(SP, 2.0**70)
    assert optimal_lambda(MODEL, 2.0, lambda_floor=-(2**70)) == optimal_lambda(MODEL, 2.0)
    with pytest.raises(InvalidParameterError, match="penalty must be finite"):
        solve_mu(SP, 10**400, 2.0)
    with pytest.raises(InvalidParameterError, match="aspect ratio must be positive and finite"):
        mu_zero(SP, 10**400)


def test_an_infinite_subsample_aspect_is_admitted_where_it_has_a_meaning():
    # the rule admits psi = inf, the null endpoint of the risk; an anchor of
    # a path and a Monte Carlo subsample need a finite aspect as well
    assert tilde_v(MODEL, math.inf, PHI, math.inf) == 0.0
    assert ensemble_risk(MODEL, 0.5, PHI, math.inf).total == MODEL.null_risk()
    for name in ("equivalence_path", "mc_experiment"):
        with pytest.raises(InvalidParameterError, match="aspect ratio"):
            PSI_CALLERS[name](math.inf)
