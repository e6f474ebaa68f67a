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

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import BranchViolationError, InvalidParameterError
from .fixed_point import solve_mu
from .model import ShiftModel
from .risk import _blocks, _kernel, _weights

ConditionId = Literal[
    "in-dist-alignment",
    "cov-shift-overparam",
    "reg-shift-alignment",
    "reg-shift-general-balance",
    "strict-alignment-implication",
]

Sign = Literal["nonnegative", "negative", "inconclusive"]
Regime = Literal["underparameterized", "overparameterized"]

_STRICT = 1e-12


#: upper end of every level grid, in multiples of the largest eigenvalue
CAP_FACTOR = 1e4


@dataclass(frozen=True)
class MuGrid:
    """Log-spaced evaluation grid for the 'for all levels' quantifiers."""

    points: int = 400
    floor: float = 1e-8

    def values(self, start: float, r_max: float) -> np.ndarray:
        lo = max(start, self.floor)
        hi = CAP_FACTOR * r_max
        if hi <= lo:
            raise InvalidParameterError("empty level grid")
        grid = np.geomspace(lo, hi, self.points)
        grid[0] = lo
        return grid


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
    report: ConditionReport | None = None


def _report(condition_id: ConditionId, margins: np.ndarray, grid_desc: str) -> ConditionReport:
    worst = float(np.min(margins))
    return ConditionReport(
        condition_id=condition_id,
        holds=bool(worst > _STRICT),
        worst_margin=worst,
        grid=grid_desc,
    )


def check_in_dist_alignment(
    model: ShiftModel, phi: float, grid: MuGrid | None = None
) -> ConditionReport:
    """Signal/spectrum alignment ratio test for the no-shift overparameterized
    regime: at every level mu above the ridgeless level,

        (b2 + sigma2) / (b3 + sigma2)  >  s2 / s3,

    where b_k = mu^k b' S (S+mu I)^-k b and s_k = mu^k tr[S (S+mu I)^-k] / p.
    Holding for all levels forces the optimal penalty below zero."""
    if phi <= 1.0:
        raise InvalidParameterError("wrong regime: requires phi > 1")
    grid = grid or MuGrid()
    sp = model.spectrum
    mu_start = solve_mu(sp, 0.0, phi).mu
    mus = grid.values(mu_start, sp.r_max)
    bl = _blocks(_weights(model), mus)
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
    if phi <= 1.0:
        raise InvalidParameterError("wrong regime: requires phi > 1")
    mu0 = solve_mu(model.spectrum, 0.0, phi).mu  # = phi - 1 for identity
    lhs = model.null_parts()[0]  # b' S0 b
    alpha2 = model.alpha2
    rhs = float(np.mean(model.sigma0_diag)) * (
        alpha2 + (1.0 + mu0) ** 3 / mu0**3 * model.sigma2
    )
    margin = np.array([lhs - rhs])
    return _report("cov-shift-overparam", margin, f"single point at mu={mu0:.6g}")


def check_reg_shift_alignment(model: ShiftModel, grid: MuGrid | None = None) -> ConditionReport:
    """Regression-shift alignment: b' S^2 (S+mu I)^-2 (b0 - b) > 0 for every
    level mu >= 0; the grid's levels are checked after mu = 0 itself."""
    if model.is_isotropic_signal or not model.has_regression_shift:
        raise InvalidParameterError("degenerate shift: beta0 equals beta")
    grid = grid or MuGrid()
    mus = np.concatenate([[0.0], grid.values(0.0, model.spectrum.r_max)])
    margins = _blocks(_weights(model), mus).a2
    return _report(
        "reg-shift-alignment", margins, f"mu in [0, {mus[-1]:.6g}], {mus.size} points"
    )


def check_reg_shift_general_balance(
    model: ShiftModel, phi: float, grid: MuGrid | None = None
) -> ConditionReport:
    """Shift/variance derivative balance: d(shift)/dmu + d(variance)/dmu > 0
    at every level at or above the ridgeless one. Valid at any noise level;
    implies the optimal penalty is negative once the bias is minimized at
    zero penalty (always true underparameterized)."""
    grid = grid or MuGrid()
    sp = model.spectrum
    mu_start = solve_mu(sp, 0.0, phi).mu
    mus = grid.values(mu_start, sp.r_max)
    if mu_start <= grid.floor:
        mus = np.concatenate([[mu_start], mus])
    parts = _kernel(_weights(model), mus, phi)
    if np.any(parts.denom <= 0.0):
        raise BranchViolationError(f"level grid reaches below the branch edge at phi={phi}")
    margins = parts.d_shift + parts.d_variance
    return _report(
        "reg-shift-general-balance",
        margins,
        f"mu in [{mus[0]:.6g}, {mus[-1]:.6g}], {mus.size} points",
    )


def check_strict_alignment_implication(model: ShiftModel) -> ConditionReport:
    """Correlation diagnostic implied by monotone (strict) alignment of the
    signal with the spectrum: tr[S B]/p - tr[S]/p * tr[B]/p, with the signal
    matrix trace-normalized like a covariance. Reports the raw margin; the
    caller interprets (a monotone-aligned signal makes it nonnegative)."""
    sp = model.spectrum
    p = sp.p
    if model.is_isotropic_signal:
        quad = model.alpha2 * float(np.mean(sp.eigenvalues))
        energy = model.alpha2
    else:
        quad = float(np.sum(model.beta**2 * sp.eigenvalues))
        energy = float(model.beta @ model.beta)
    margin = np.array([(quad - float(np.mean(sp.eigenvalues)) * energy) / p])
    return _report("strict-alignment-implication", margin, "single point")


def predict_sign(model: ShiftModel, phi: float, grid: MuGrid | None = None) -> SignPrediction:
    """Route a model through the sufficient sign tests; inconclusive whenever
    no test's hypotheses are verified."""
    regime: Regime = "underparameterized" if phi < 1.0 else "overparameterized"
    cov = model.has_covariate_shift
    reg = model.has_regression_shift

    if model.is_isotropic_signal and not reg:
        return SignPrediction(
            regime=regime,
            predicted_sign="nonnegative",
            applied_rule="isotropic-signal-closed-form",
        )

    if not cov and not reg:
        if phi < 1.0:
            return SignPrediction(regime, "nonnegative", "no-shift-underparameterized")
        if phi > 1.0:
            report = check_in_dist_alignment(model, phi, grid)
            if report.holds:
                return SignPrediction(regime, "negative", "no-shift-alignment", report)
            return SignPrediction(regime, "inconclusive", "no-shift-alignment-failed", report)
        return SignPrediction(regime, "inconclusive", "boundary-aspect-ratio")

    if cov and not reg:
        if phi < 1.0:
            return SignPrediction(regime, "nonnegative", "cov-shift-underparameterized")
        if phi > 1.0:
            s0 = model.sigma0_dense
            off = model.sigma0_diag - 1.0 if s0 is None else s0 - np.eye(model.p)
            if np.max(np.abs(off)) <= 1e-12:
                return SignPrediction(regime, "nonnegative", "cov-shift-identity-test-cov")
            if model.spectrum.is_identity:
                report = check_cov_shift_overparam(model, phi)
                if report.holds:
                    return SignPrediction(regime, "negative", "cov-shift-alignment", report)
                return SignPrediction(
                    regime, "inconclusive", "cov-shift-alignment-failed", report
                )
        return SignPrediction(regime, "inconclusive", "cov-shift-uncovered")

    if reg and not cov:
        balance = check_reg_shift_general_balance(model, phi, grid)
        if phi < 1.0:
            if balance.holds:
                return SignPrediction(regime, "negative", "reg-shift-balance", balance)
            return SignPrediction(regime, "inconclusive", "reg-shift-balance-failed", balance)
        if phi > 1.0:
            alignment = check_in_dist_alignment(model, phi, grid)
            shift_align = check_reg_shift_alignment(model, grid)
            if alignment.holds and shift_align.holds:
                return SignPrediction(regime, "negative", "reg-shift-joint-alignment", shift_align)
            return SignPrediction(
                regime, "inconclusive", "reg-shift-joint-alignment-failed", shift_align
            )
        return SignPrediction(regime, "inconclusive", "boundary-aspect-ratio")

    return SignPrediction(regime, "inconclusive", "joint-shift-uncovered")
