"""Alignment diagnostics that determine the sign of the optimal penalty.

Each check evaluates a trace-ratio (or derivative-balance) inequality over a
finite log-spaced grid of implicit-regularization levels and reports the
worst margin in the inequality's natural orientation; ``holds`` requires a
strictly positive margin at every grid point. The sign router combines the
checks into a prediction (nonnegative / negative / inconclusive) for the
minimizing penalty, by regime and shift type:

- no shift, underparameterized            -> nonnegative
- no shift, overparameterized             -> negative when the signal/spectrum
  alignment ratio test holds for all levels above the ridgeless level
- isotropic-random signal, no regression
  shift                                   -> nonnegative (closed form phi/snr)
- covariate shift, underparameterized     -> nonnegative
- covariate shift, identity test cov      -> nonnegative (overparameterized)
- covariate shift, identity train cov     -> negative when the test-covariance
  alignment inequality holds at the ridgeless level
- regression shift                        -> negative when the shift/variance
  derivative balance (and, overparameterized, also the alignment ratio) holds

Anything not covered is inconclusive: the checks are sufficient, not
necessary.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import BelowMinimumPenaltyError, BranchViolationError, InvalidParameterError
from .fixed_point import solve_mu
from .model import ShiftModel, Spectrum, _check_aspect, _check_count
from .risk import _blocks, _kernel, _weights

ConditionId = Literal[
    "in-dist-alignment",
    "cov-shift-overparam",
    "reg-shift-alignment",
    "reg-shift-general-balance",
]

Sign = Literal["nonnegative", "negative", "inconclusive"]
Regime = Literal["underparameterized", "overparameterized"]

_STRICT = 1e-12


#: upper end of every level grid, in multiples of the largest eigenvalue
CAP_FACTOR = 1e4
#: lower end of every log grid, in multiples of the smallest eigenvalue
FLOOR = 1e-8


#: levels in every grid of the 'for all levels' quantifiers
LEVEL_POINTS = 400


def _levels(start: float, spectrum: Spectrum, points: int, phi: float | None = None) -> np.ndarray:
    """``points`` log-spaced levels from max(start, FLOOR * r_min) to CAP_FACTOR * r_max,
    after ``start`` itself when it lies below them, so that the grid scales with the
    spectrum; ``phi``, when given, is the aspect whose ridgeless level is ``start``."""
    _check_count("points", points, 1)
    lo = max(start, FLOOR * spectrum.r_min)
    hi = CAP_FACTOR * spectrum.r_max
    if hi <= lo:
        at = "" if phi is None else f" at aspect ratio {phi}"
        raise InvalidParameterError(
            f"empty level grid{at}: its start {lo:.6g} is not below its top {hi:.6g}"
        )
    grid = np.geomspace(lo, hi, points)
    grid[0] = lo
    return grid if start == lo else np.concatenate([[start], grid])


@dataclass(frozen=True)
class ConditionReport:
    condition_id: ConditionId
    holds: bool
    worst_margin: float
    grid: str


@dataclass(frozen=True)
class SignPrediction:
    regime: Regime
    predicted_sign: Sign
    applied_rule: str
    reports: tuple[ConditionReport, ...] = ()  # every check the route read, the decider last


def _report(condition_id: ConditionId, margins: np.ndarray, grid_desc: str) -> ConditionReport:
    worst = float(np.min(margins))
    return ConditionReport(
        condition_id=condition_id,
        holds=bool(worst > _STRICT),
        worst_margin=worst,
        grid=grid_desc,
    )


def check_in_dist_alignment(
    model: ShiftModel, phi: float, points: int = LEVEL_POINTS
) -> ConditionReport:
    """Signal/spectrum alignment ratio test for the no-shift overparameterized
    regime: at every level mu above the ridgeless level,

        (b2 + sigma2) / (b3 + sigma2)  >  s2 / s3,

    where b_k = mu^k b' S (S+mu I)^-k b and s_k = mu^k tr[S (S+mu I)^-k] / p.
    Holding for all levels forces the optimal penalty below zero."""
    _check_aspect(phi)
    if phi <= 1.0:
        raise InvalidParameterError("wrong regime: requires phi > 1")
    sp = model.spectrum
    mu_start = solve_mu(sp, 0.0, phi).mu
    mus = _levels(mu_start, sp, points, phi)
    bl = _blocks(_weights(model), mus, ("b2", "b3", "s2", "s3"))
    s2n = model.sigma2
    b2, b3 = mus**2 * bl.b2, mus**3 * bl.b3
    s2, s3 = mus**2 * bl.s2, mus**3 * bl.s3
    margins = (b2 + s2n) / (b3 + s2n) - s2 / s3
    return _report(
        "in-dist-alignment", margins, f"mu in [{mus[0]:.6g}, {mus[-1]:.6g}], {mus.size} log points"
    )


def check_cov_shift_overparam(model: ShiftModel, phi: float) -> ConditionReport:
    """Covariate-shift sign test for an isotropic train covariance,
    overparameterized: a single-point inequality at the ridgeless level mu0,

        b' S0 b  >  tr[S0]/p * ( ||b||^2 + ((1+mu0)/mu0)^3 sigma2 ).
    """
    if not model.spectrum.is_identity:
        raise InvalidParameterError(
            "invalid model: test requires an isotropic train covariance; "
            "use the general balance check otherwise"
        )
    _check_aspect(phi)
    if phi <= 1.0:
        raise InvalidParameterError("wrong regime: requires phi > 1")
    mu0 = solve_mu(model.spectrum, 0.0, phi).mu  # = phi - 1 for identity
    lhs = model.null_parts()[0]  # b' S0 b
    alpha2 = model.alpha2
    try:
        rhs = float(np.mean(model.sigma0.diagonal)) * (
            alpha2 + (1.0 + mu0) ** 3 / mu0**3 * model.sigma2
        )
    except OverflowError:
        raise InvalidParameterError(
            f"aspect ratio {phi} is too large: the cube of the ridgeless level {mu0:.6g} "
            "overflows"
        ) from None
    margin = np.array([lhs - rhs])
    return _report("cov-shift-overparam", margin, f"single point at mu={mu0:.6g}")


def check_reg_shift_alignment(model: ShiftModel, points: int = LEVEL_POINTS) -> ConditionReport:
    """Regression-shift alignment: b' S^2 (S+mu I)^-2 (b0 - b) > 0 for every
    level mu >= 0; the grid's levels are checked after mu = 0 itself."""
    if not model.has_regression_shift:
        raise InvalidParameterError("degenerate shift: beta0 equals beta")
    mus = _levels(0.0, model.spectrum, points)
    margins = _blocks(_weights(model), mus, ("a2",)).a2
    return _report(
        "reg-shift-alignment", margins, f"mu in [0, {mus[-1]:.6g}], {mus.size} points"
    )


def check_reg_shift_general_balance(
    model: ShiftModel, phi: float, points: int = LEVEL_POINTS
) -> ConditionReport:
    """Shift/variance derivative balance: d(shift)/dmu + d(variance)/dmu > 0
    at every level at or above the ridgeless one. Valid at any noise level;
    implies the optimal penalty is negative once the bias is minimized at
    zero penalty (always true underparameterized)."""
    sp = model.spectrum
    mu_start = solve_mu(sp, 0.0, phi).mu
    mus = _levels(mu_start, sp, points, phi)
    parts = _kernel(_weights(model), mus, phi)
    if np.any(parts.denom <= 0.0):
        raise BranchViolationError(f"level grid reaches below the branch edge at phi={phi}")
    margins = parts.d_shift + parts.d_variance
    return _report(
        "reg-shift-general-balance",
        margins,
        f"mu in [{mus[0]:.6g}, {mus[-1]:.6g}], {mus.size} points",
    )


def _verdict(regime: Regime, rule: str, *reports: ConditionReport) -> SignPrediction:
    """``negative`` under ``rule`` when every report holds, else ``inconclusive``
    under ``<rule>-failed``; either way carrying the ``reports``, the decider last."""
    if all(r.holds for r in reports):
        return SignPrediction(regime, "negative", rule, reports)
    return SignPrediction(regime, "inconclusive", f"{rule}-failed", reports)


def predict_sign(model: ShiftModel, phi: float, points: int = LEVEL_POINTS) -> SignPrediction:
    """Route a model through the sufficient sign tests; inconclusive whenever
    no test's hypotheses are verified. A route runs only the checks it reads
    and carries them as ``reports``, the deciding one last. Where a test's
    own solve of the ridgeless level finds it on the branch edge (phi within
    rounding of 1), the route falls through to its boundary or uncovered
    rule, as at phi = 1 itself. ``points`` and ``phi`` are checked whether
    or not the route builds a level grid."""
    _check_count("points", points, 1)
    _check_aspect(phi)
    regime: Regime = "underparameterized" if phi < 1.0 else "overparameterized"
    cov = model.has_covariate_shift
    reg = model.has_regression_shift

    if model.is_isotropic_signal and not reg:
        return SignPrediction(regime, "nonnegative", "isotropic-signal-closed-form")

    if not cov and not reg:
        if phi < 1.0:
            return SignPrediction(regime, "nonnegative", "no-shift-underparameterized")
        if phi > 1.0:
            # raised only by the check's solve of mu(0, phi), on the branch edge
            with suppress(BelowMinimumPenaltyError):
                return _verdict(regime, "no-shift-alignment",
                                check_in_dist_alignment(model, phi, points))
        return SignPrediction(regime, "inconclusive", "boundary-aspect-ratio")

    if cov and not reg:
        if phi < 1.0:
            return SignPrediction(regime, "nonnegative", "cov-shift-underparameterized")
        if phi > 1.0:
            if model._sigma0_offset(1.0) <= 1e-12:
                return SignPrediction(regime, "nonnegative", "cov-shift-identity-test-cov")
            if model.spectrum.is_identity:
                # raised only by the check's solve of mu(0, phi), on the branch edge
                with suppress(BelowMinimumPenaltyError):
                    return _verdict(regime, "cov-shift-alignment",
                                    check_cov_shift_overparam(model, phi))
        return SignPrediction(regime, "inconclusive", "cov-shift-uncovered")

    if reg and not cov:
        # raised only by the first check's solve of mu(0, phi), on the branch edge
        with suppress(BelowMinimumPenaltyError):
            if phi < 1.0:
                return _verdict(regime, "reg-shift-balance",
                                check_reg_shift_general_balance(model, phi, points))
            if phi > 1.0:
                return _verdict(regime, "reg-shift-joint-alignment",
                                check_in_dist_alignment(model, phi, points),
                                check_reg_shift_alignment(model, points))
        return SignPrediction(regime, "inconclusive", "boundary-aspect-ratio")

    return SignPrediction(regime, "inconclusive", "joint-shift-uncovered")
