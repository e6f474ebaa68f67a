"""Alignment checks and the sign router."""

import itertools
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_psd, random_spectrum
from ridgeshift import (
    InvalidParameterError,
    Spectrum,
    build_ar1,
    check_cov_shift_overparam,
    check_in_dist_alignment,
    check_reg_shift_alignment,
    check_reg_shift_general_balance,
    make_model,
    optimal_lambda,
    predict_sign,
    solve_mu,
)
from ridgeshift import conditions


def extreme_pair_model(p=100, rho=0.5, sigma2=0.0, beta0_factor=None):
    sp, _ = build_ar1(p, rho)
    beta = np.zeros(p)
    beta[0] = beta[-1] = 0.5
    beta0 = None if beta0_factor is None else beta0_factor * beta
    return make_model(sp, beta=beta, beta0=beta0, sigma2=sigma2)


def identity_cov_shift_model(p=20):
    """The extreme-pair signal under an AR(1)-spectrum test covariance, with
    an identity train covariance."""
    beta = np.zeros(p)
    beta[0] = beta[-1] = 0.5
    return make_model(Spectrum.identity(p), beta=beta, sigma0=build_ar1(p, 0.5)[0].eigenvalues,
                      sigma2=0.01)


class TestMuGrid:
    """The log grid of levels that the checks scan (``conditions._levels``)."""

    @pytest.mark.parametrize("points", [0, -1])
    def test_fewer_than_one_point_rejected(self, points):
        with pytest.raises(InvalidParameterError, match="points must be an integer >= 1"):
            conditions._levels(0.5, 2.0, points)

    def test_one_point_is_the_start(self):
        assert conditions._levels(0.5, 2.0, 1).tolist() == [0.5]

    def test_start_above_the_cap_is_an_empty_grid(self):
        # at phi = 2e4 the ridgeless level of an identity spectrum, phi - 1,
        # lies above CAP_FACTOR * r_max
        m = make_model(Spectrum.identity(8), beta=np.linspace(1.0, 0.2, 8), sigma2=0.1)
        with pytest.raises(InvalidParameterError, match="empty level grid"):
            predict_sign(m, 2e4)

    @pytest.mark.parametrize("phi", [1e200, 1e250, 1e300])
    @pytest.mark.parametrize("shift", ["none", "regression", "covariate"])
    def test_huge_aspect_raises_a_named_error_and_no_warning(self, phi, shift):
        # the edge solve's slope underflows above aspects of about 1e204, and
        # the cube of the ridgeless level in the covariate-shift test above 1e102
        if shift == "regression":
            m = make_model(Spectrum.from_values([0.5, 1.0, 3.0]), beta=np.ones(3),
                           beta0=[2.0, 1.0, 0.0], sigma2=0.1)
        else:
            sigma0 = [0.5, 1.0, 2.0] if shift == "covariate" else None
            m = make_model(Spectrum.identity(3), beta=np.ones(3), sigma0=sigma0, sigma2=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=re.escape(f"aspect ratio {phi}")):
                predict_sign(m, phi)


class TestInDistAlignment:
    def test_isotropic_spectrum_never_holds(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            beta = rng.standard_normal(12)
            m = make_model(Spectrum.identity(12), beta=beta, sigma2=float(rng.uniform(0, 1)))
            assert not check_in_dist_alignment(m, 2.5).holds

    def test_isotropic_signal_never_holds(self):
        # universality over random spectra
        rng = np.random.default_rng(1)
        for _ in range(100):
            sp = random_spectrum(rng, 16)
            m = make_model(sp, alpha2=float(rng.uniform(0.2, 3)), sigma2=float(rng.uniform(0, 1)))
            assert not check_in_dist_alignment(m, float(rng.uniform(1.2, 6.0))).holds

    def test_extreme_pair_signal_holds_noiseless(self):
        m = extreme_pair_model(sigma2=0.0)
        for phi in (2.0, 5.0, 10.0):
            assert check_in_dist_alignment(m, phi).holds

    def test_wrong_regime(self):
        m = extreme_pair_model()
        with pytest.raises(InvalidParameterError):
            check_in_dist_alignment(m, 0.8)

    def test_margin_sign_matches_holds(self):
        m = extreme_pair_model(sigma2=1.0)
        report = check_in_dist_alignment(m, 5.0)
        assert report.holds == (report.worst_margin > 1e-12)
        assert not report.holds  # heavy noise breaks the ratio test


class TestNoiselessLogDerivativeForm:
    def test_agrees_with_ratio_test_at_zero_noise(self):
        # At sigma2 = 0 the ratio test says the signal functional
        # b' S (S+mu I)^-2 b decays slower in mu than tr[S (S+mu I)^-2]/p; the
        # oracle here takes both log-derivatives by central differences.
        rng = np.random.default_rng(2)
        models = [extreme_pair_model(sigma2=0.0)]
        for _ in range(4):
            sp = random_spectrum(rng, 14)
            models.append(make_model(sp, beta=rng.standard_normal(14), sigma2=0.0))
        phi = 2.2
        for m in models:
            ratio = check_in_dist_alignment(m, phi)
            sp = m.spectrum
            mus = conditions._levels(solve_mu(sp, 0.0, phi).mu, sp.r_max,
                                     conditions.LEVEL_POINTS)
            h = 1e-6 * (1.0 + mus)

            def log_signal(x):
                r = sp.eigenvalues
                return np.log([float(np.sum(m.beta * m.beta * r / (r + v) ** 2)) for v in x])

            def log_spec(x):
                r = sp.eigenvalues
                return np.log([float(np.sum(r / (r + v) ** 2)) / r.size for v in x])

            d_sig = (log_signal(mus + h) - log_signal(mus - h)) / (2.0 * h)
            d_spec = (log_spec(mus + h) - log_spec(mus - h)) / (2.0 * h)
            assert ratio.holds == bool(np.min(d_sig - d_spec) > 1e-12)


class TestCovShiftOverparam:
    def test_identity_test_covariance_never_holds(self):
        rng = np.random.default_rng(3)
        m = make_model(Spectrum.identity(10), beta=rng.standard_normal(10), sigma2=0.1)
        report = check_cov_shift_overparam(m, 2.0)
        assert not report.holds

    def test_banded_test_covariance_holds(self):
        p = 100
        s0sp, _ = build_ar1(p, 0.5)
        beta = np.zeros(p)
        beta[0] = beta[-1] = 0.5
        m = make_model(Spectrum.identity(p), beta=beta, sigma0=s0sp.eigenvalues, sigma2=0.01)
        assert check_cov_shift_overparam(m, 1.5).holds

    def test_noiseless_top_eigvec_reduces_to_trace_comparison(self):
        p = 30
        s0sp, _ = build_ar1(p, 0.6)
        beta = np.zeros(p)
        beta[-1] = 1.0  # aligned with the largest test-covariance direction
        m = make_model(Spectrum.identity(p), beta=beta, sigma0=s0sp.eigenvalues, sigma2=0.0)
        report = check_cov_shift_overparam(m, 3.0)
        expected = s0sp.r_max - float(np.mean(s0sp.eigenvalues)) * 1.0
        assert report.worst_margin == pytest.approx(expected, rel=1e-12)
        assert report.holds

    def test_requires_identity_train_covariance(self):
        m = extreme_pair_model()
        with pytest.raises(InvalidParameterError):
            check_cov_shift_overparam(m, 2.0)
        # and the overparameterized regime
        m = make_model(Spectrum.identity(10), beta=np.ones(10), sigma2=0.1)
        with pytest.raises(InvalidParameterError, match="wrong regime"):
            check_cov_shift_overparam(m, 1.0)


class TestRegShiftAlignment:
    def test_doubled_target_holds(self):
        m = extreme_pair_model(beta0_factor=2.0)
        assert check_reg_shift_alignment(m).holds

    def test_halved_target_fails(self):
        m = extreme_pair_model(beta0_factor=0.5)
        assert not check_reg_shift_alignment(m).holds

    def test_flipped_target_fails(self):
        m = extreme_pair_model(beta0_factor=-1.0)
        report = check_reg_shift_alignment(m)
        assert not report.holds
        assert report.worst_margin < 0

    def test_degenerate_shift_rejected(self):
        m = extreme_pair_model()
        with pytest.raises(InvalidParameterError):
            check_reg_shift_alignment(m)

    def test_caller_grid_includes_zero(self, monkeypatch):
        # b' S^2 (S+mu I)^-2 (b0 - b) is -0.5 at mu = 0 and positive from
        # far below this grid's floor on: only the level mu = 0 fails
        monkeypatch.setattr(conditions, "FLOOR", 1.0)
        sp = Spectrum.from_values([0.01, 100.0])
        m = make_model(sp, beta=np.array([1.0, 1.0]), beta0=np.array([0.0, 1.5]))
        report = check_reg_shift_alignment(m, 5)
        assert not report.holds
        assert report.worst_margin == pytest.approx(-0.5, rel=1e-12)
        assert report.grid.startswith("mu in [0, ") and report.grid.endswith(", 6 points")


class TestRegShiftGeneralBalance:
    def test_noiseless_doubled_target_holds(self):
        m = extreme_pair_model(sigma2=0.0, beta0_factor=2.0)
        assert check_reg_shift_general_balance(m, 0.5).holds

    def test_no_shift_fails(self):
        m = extreme_pair_model(sigma2=0.3)
        report = check_reg_shift_general_balance(m, 0.5)
        assert not report.holds
        assert report.worst_margin < 0  # pure variance derivative is negative

    def test_noisy_doubled_target_holds(self):
        m = extreme_pair_model(sigma2=0.01, beta0_factor=2.0)
        assert check_reg_shift_general_balance(m, 0.5).holds


class TestPredictSign:
    def test_no_shift_underparameterized(self):
        rng = np.random.default_rng(5)
        sp = random_spectrum(rng, 10)
        m = make_model(sp, beta=rng.standard_normal(10), sigma2=0.2)
        pred = predict_sign(m, 0.5)
        assert pred.predicted_sign == "nonnegative"
        assert pred.regime == "underparameterized"

    def test_isotropic_signal_rule(self):
        rng = np.random.default_rng(6)
        m = make_model(random_spectrum(rng, 10), alpha2=1.0,
                       sigma0=random_psd(rng, 10), sigma2=0.5)
        pred = predict_sign(m, 2.0)
        assert pred.predicted_sign == "nonnegative"
        assert pred.applied_rule == "isotropic-signal-closed-form"

    def test_cov_shift_negative_route(self):
        p = 100
        s0sp, _ = build_ar1(p, 0.5)
        beta = np.zeros(p)
        beta[0] = beta[-1] = 0.5
        m = make_model(Spectrum.identity(p), beta=beta, sigma0=s0sp.eigenvalues, sigma2=0.01)
        pred = predict_sign(m, 1.5)
        assert pred.predicted_sign == "negative"
        assert pred.reports and pred.reports[-1].holds

    def test_cov_shift_identity_test_cov_nonnegative(self):
        rng = np.random.default_rng(7)
        sp = random_spectrum(rng, 10)
        m = make_model(sp, beta=rng.standard_normal(10), sigma0=np.ones(10), sigma2=0.2)
        pred = predict_sign(m, 2.0)
        assert pred.predicted_sign == "nonnegative"
        assert pred.applied_rule == "cov-shift-identity-test-cov"

    def test_uncovered_case_is_inconclusive(self):
        rng = np.random.default_rng(8)
        sp = random_spectrum(rng, 10)
        # anisotropic train covariance with covariate shift, overparameterized:
        # no sufficient test applies
        m = make_model(sp, beta=rng.standard_normal(10), sigma0=random_psd(rng, 10), sigma2=0.2)
        pred = predict_sign(m, 2.0)
        assert pred.predicted_sign == "inconclusive"

    def test_regression_shift_negative_route(self):
        m = extreme_pair_model(sigma2=0.01, beta0_factor=2.0)
        pred = predict_sign(m, 0.5)
        assert pred.predicted_sign == "negative"
        assert pred.applied_rule == "reg-shift-balance"

    @pytest.mark.parametrize("phi, sign, rule", [
        (3.0, "negative", "reg-shift-joint-alignment"),
        (2.0, "inconclusive", "reg-shift-joint-alignment-failed"),
    ])
    def test_regression_shift_overparameterized_route(self, monkeypatch, phi, sign, rule):
        # only the underparameterized route reads the derivative balance
        def balance(*args, **kwargs):
            raise AssertionError("derivative balance run above phi = 1")

        monkeypatch.setattr(conditions, "check_reg_shift_general_balance", balance)
        m = extreme_pair_model(p=48, sigma2=0.01, beta0_factor=2.0)
        pred = predict_sign(m, phi)
        assert (pred.predicted_sign, pred.applied_rule) == (sign, rule)
        assert pred.reports[-1].condition_id == "reg-shift-alignment"
        if sign == "negative":
            assert optimal_lambda(m, phi).lambda_star == pytest.approx(-0.322, abs=5e-4)

    @pytest.mark.parametrize("phi", [1.0 - 2**-52, 1.0, 1.0 + 2**-52])
    @pytest.mark.parametrize("beta0_factor", [2.0, None], ids=["regression", "none"])
    def test_ridgeless_level_on_the_edge_is_a_boundary(self, phi, beta0_factor):
        # the ridgeless level is within rounding of the branch edge, where
        # the checks that start from it cannot be evaluated
        m = extreme_pair_model(sigma2=0.01, beta0_factor=beta0_factor)
        pred = predict_sign(m, phi)
        if beta0_factor is None and phi < 1.0:
            assert pred.applied_rule == "no-shift-underparameterized"
        else:
            assert (pred.predicted_sign, pred.applied_rule) == (
                "inconclusive", "boundary-aspect-ratio")

    @pytest.mark.parametrize("phi", [1.0, 1.0 + 2**-52])
    def test_ridgeless_level_on_the_edge_leaves_a_covariate_shift_uncovered(self, phi):
        # the identity-train-covariance test reads the ridgeless level, which
        # the edge leaves without a start
        pred = predict_sign(identity_cov_shift_model(), phi)
        assert (pred.predicted_sign, pred.applied_rule) == ("inconclusive", "cov-shift-uncovered")
        assert pred.reports == ()

    @pytest.mark.parametrize("shift, phi", [
        ("none", 3.0), ("regression", 0.5), ("regression", 3.0), ("covariate", 3.0)])
    def test_each_route_solves_the_ridgeless_level_once(self, monkeypatch, shift, phi):
        # the check that reads the ridgeless level is also what finds it on
        # the edge; no second solve asks first
        solves = []

        def counted(spectrum, lam, aspect, **kwargs):
            if lam == 0.0 and aspect == phi:
                solves.append(aspect)
            return solve_mu(spectrum, lam, aspect, **kwargs)

        monkeypatch.setattr(conditions, "solve_mu", counted)
        if shift == "covariate":
            m = identity_cov_shift_model(48)
        else:
            m = extreme_pair_model(p=48, sigma2=0.01,
                                   beta0_factor=2.0 if shift == "regression" else None)
        assert predict_sign(m, phi).reports
        assert solves == [phi]

    def test_joint_shift_inconclusive(self):
        rng = np.random.default_rng(9)
        sp = random_spectrum(rng, 10)
        beta = rng.standard_normal(10)
        m = make_model(sp, beta=beta, beta0=1.5 * beta,
                       sigma0=random_psd(rng, 10), sigma2=0.2)
        assert predict_sign(m, 0.5).predicted_sign == "inconclusive"

    @staticmethod
    def _route_models():
        """One model per route: no shift, covariate shift, isotropic
        signal, regression shift."""
        p = 20
        s0sp, _ = build_ar1(p, 0.5)
        beta = np.zeros(p)
        beta[0] = beta[-1] = 0.5
        return [
            extreme_pair_model(p=p, sigma2=0.01),
            make_model(Spectrum.identity(p), beta=beta, sigma0=s0sp.eigenvalues, sigma2=0.01),
            make_model(Spectrum.identity(p), alpha2=1.0, sigma2=0.5),
            extreme_pair_model(p=p, sigma2=0.01, beta0_factor=2.0),
        ]

    @pytest.mark.parametrize("phi", [float("nan"), -1.0, 0.0, float("inf")])
    def test_invalid_aspect_ratio_raises(self, phi):
        for m in self._route_models():
            with pytest.raises(InvalidParameterError, match="aspect ratio"):
                predict_sign(m, phi)

    @pytest.mark.parametrize("points", [0, -1])
    def test_fewer_than_one_point_rejected_on_every_route(self, points):
        # also where the route builds no level grid (isotropic signal, phi < 1)
        for m in self._route_models():
            for phi in (0.5, 2.0):
                with pytest.raises(InvalidParameterError, match="points must be an integer >= 1"):
                    predict_sign(m, phi, points)

    def test_non_integral_points_rejected_on_every_route(self):
        # a bool is not a count, though it subclasses int
        for m in self._route_models():
            for phi, points in itertools.product((0.5, 2.0), (2.5, True, False)):
                with pytest.raises(InvalidParameterError, match="points must be an integer"):
                    predict_sign(m, phi, points)


class TestReadmeLibraryExample:
    def test_negative_interior_optimum_certified(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        code = readme.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1]
        printed = []
        exec(code.split("```", 1)[0], {"print": printed.append})
        lmin, point, pred, parts = printed
        assert lmin < point.lambda_star < 0.0
        assert point.boundary_flag == "interior"
        assert pred.predicted_sign == "negative"
        assert parts.total == pytest.approx(parts.bias + parts.variance + parts.shift + parts.kappa2)


class TestOptimizerConsistency:
    """Predicted signs must agree with the scanned optimum."""

    def test_sampled_models(self):
        rng = np.random.default_rng(10)
        checked_negative = 0
        checked_nonnegative = 0
        cases = []
        # no-shift models, both regimes (underparameterized draws predict a sign)
        for i in range(6):
            sp = random_spectrum(rng, 16)
            m = make_model(sp, beta=rng.standard_normal(16), sigma2=float(rng.uniform(0.05, 0.5)))
            phi_range = (0.3, 0.95) if i < 3 else (1.2, 3.0)
            cases.append((m, float(rng.uniform(*phi_range))))
        # isotropic-random signals
        for _ in range(4):
            m = make_model(random_spectrum(rng, 16), alpha2=1.0,
                           sigma0=random_psd(rng, 16), sigma2=0.4)
            cases.append((m, float(rng.uniform(0.3, 3.0))))
        # the negative-sign workhorses
        cases.append((extreme_pair_model(sigma2=0.01, beta0_factor=2.0), 0.5))
        p = 100
        s0sp, _ = build_ar1(p, 0.5)
        beta = np.zeros(p)
        beta[0] = beta[-1] = 0.5
        cases.append(
            (make_model(Spectrum.identity(p), beta=beta, sigma0=s0sp.eigenvalues, sigma2=0.01), 1.5)
        )

        for m, phi in cases:
            pred = predict_sign(m, phi)
            if pred.predicted_sign == "inconclusive":
                continue
            lam_star = optimal_lambda(m, phi).lambda_star
            if pred.predicted_sign == "negative":
                checked_negative += 1
                assert lam_star < 0.0, (pred, lam_star, phi)
            else:
                checked_nonnegative += 1
                assert lam_star >= -1e-8, (pred, lam_star, phi)
        assert checked_negative >= 2
        assert checked_nonnegative >= 6

    def test_fifty_random_models_per_rule_class(self):
        """Fifty random models drawn across every routing class; each
        definite prediction must match the scanned sign."""
        rng = np.random.default_rng(20)
        p = 60
        cases = []
        for i in range(50):
            klass = i % 6
            if klass == 0:  # isotropic-random signal, arbitrary shift kind of cov
                m = make_model(random_spectrum(rng, p), alpha2=float(rng.uniform(0.3, 2)),
                               sigma0=random_psd(rng, p), sigma2=float(rng.uniform(0.1, 1)))
                phi = float(rng.uniform(0.3, 3.0))
            elif klass == 1:  # no shift, underparameterized
                m = make_model(random_spectrum(rng, p), beta=rng.standard_normal(p),
                               sigma2=float(rng.uniform(0.05, 0.6)))
                phi = float(rng.uniform(0.25, 0.95))
            elif klass == 2:  # covariate shift, underparameterized
                m = make_model(random_spectrum(rng, p), beta=rng.standard_normal(p),
                               sigma0=random_psd(rng, p), sigma2=float(rng.uniform(0.05, 0.6)))
                phi = float(rng.uniform(0.25, 0.95))
            elif klass == 3:  # covariate shift onto the identity, overparameterized
                m = make_model(random_spectrum(rng, p), beta=rng.standard_normal(p),
                               sigma0=np.ones(p), sigma2=float(rng.uniform(0.05, 0.6)))
                phi = float(rng.uniform(1.2, 4.0))
            elif klass == 4:  # identity train cov, aligned banded test cov
                rho = float(rng.uniform(0.35, 0.7))
                s0sp, _ = build_ar1(p, rho)
                beta = np.zeros(p)
                beta[0] = beta[-1] = 0.5
                m = make_model(Spectrum.identity(p), beta=beta,
                               sigma0=s0sp.eigenvalues, sigma2=0.01)
                phi = float(rng.uniform(1.2, 2.5))
            else:  # regression shift with an inflated target
                sp, _ = build_ar1(p, float(rng.uniform(0.3, 0.7)))
                beta = np.zeros(p)
                beta[0] = beta[-1] = 0.5
                m = make_model(sp, beta=beta, beta0=float(rng.uniform(1.5, 3.0)) * beta,
                               sigma2=0.01)
                phi = float(rng.uniform(0.3, 0.9))
            cases.append((m, phi))

        definite = 0
        for m, phi in cases:
            pred = predict_sign(m, phi)
            if pred.predicted_sign == "inconclusive":
                continue
            definite += 1
            lam_star = optimal_lambda(m, phi).lambda_star
            if pred.predicted_sign == "negative":
                assert lam_star < 0.0, (pred.applied_rule, lam_star, phi)
            else:
                assert lam_star >= -1e-8, (pred.applied_rule, lam_star, phi)
        assert definite >= 35  # the constructions mostly satisfy some hypothesis
