"""Risk equivalents, derivatives, and optimizers."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from conftest import level_slopes, random_psd, random_spectrum, rescaled, window_models
from ridgeshift import (
    BelowMinimumPenaltyError,
    InvalidParameterError,
    PSI_INFINITE,
    SolverFailureError,
    Spectrum,
    build_ar1,
    ensemble_risk,
    equivalence_path,
    lambda_min,
    make_model,
    optimal_lambda,
    optimal_psi,
    risk_at_mu,
    risk_decomposition,
    solve_mu,
    tilde_v,
)


def argmin_reference(model, phi: float, mu: float):
    """(lam*, bound): the penalty at the root of dR/dmu next to the level
    ``mu``, in 50 digits over the model's float inputs (a rank-one signal
    and a diagonal S0), and the error bound of a float arg-min. The bound is
    4 eps times the condition number: the terms that the float dR/dmu sums
    (the bias's product rule, the variance and the shift) over d2R/dmu2,
    plus the level, carried to the penalty lam = mu (1 - phi t1)."""
    with mpmath.workdps(50):
        r = [mpmath.mpf(float(x)) for x in model.spectrum.eigenvalues]
        b = [mpmath.mpf(float(x)) for x in model.beta]
        d = [mpmath.mpf(float(x)) - y for x, y in zip(model.beta0, b)]
        s0 = [mpmath.mpf(float(x)) for x in model.sigma0.diagonal]
        p = len(r)

        def trace(weights, mu, k):
            return mpmath.fsum(w / (x + mu) ** k for w, x in zip(weights, r)) / p

        def tv(mu):
            return phi * trace([s * x for s, x in zip(s0, r)], mu, 2) / (
                1 - phi * trace([x * x for x in r], mu, 2))

        def inner(mu):  # bias = mu^2 inner
            v = tv(mu)
            return p * trace([bi * bi * (v * x + s) for bi, x, s in zip(b, r, s0)], mu, 2)

        def shift(mu):
            return 2 * mu * p * trace([bi * s * di for bi, s, di in zip(b, s0, d)], mu, 1)

        def risk(mu):
            return mu * mu * inner(mu) + model.sigma2 * tv(mu) + shift(mu)

        mu_ref = mpmath.findroot(lambda m: mpmath.diff(risk, m), mpmath.mpf(mu))
        terms = (abs(2 * mu_ref * inner(mu_ref)) + abs(mu_ref**2 * mpmath.diff(inner, mu_ref))
                 + abs(model.sigma2 * mpmath.diff(tv, mu_ref)) + abs(mpmath.diff(shift, mu_ref)))
        eps = float(np.finfo(float).eps)
        mu_bound = 4 * eps * (terms / abs(mpmath.diff(risk, mu_ref, 2)) + abs(mu_ref))
        t1 = trace(r, mu_ref, 1)
        slope = 1 - phi * trace([x * x for x in r], mu_ref, 2)
        lam = mu_ref * (1 - phi * t1)
        return lam, mu_bound * abs(slope) + 4 * eps * abs(mu_ref) * (1 + phi * t1)


def isotropic_optimal_risk(model, phi: float) -> float:
    """Closed-form optimal risk of an isotropic-random signal,
    alpha2 * mu* * tr[S0 (S + mu* I)^-1] / p + sigma0_sq, at the level of
    the optimal penalty phi / snr."""
    if not model.is_isotropic_signal:
        raise InvalidParameterError("invalid model: signal is not isotropic-random")
    if not (0.0 < model.snr < math.inf):
        raise InvalidParameterError("snr must be finite and positive")
    mu_star = solve_mu(model.spectrum, phi / model.snr, phi).mu
    r = model.spectrum.eigenvalues
    return model.alpha2 * mu_star * float(np.mean(model.sigma0.diagonal / (r + mu_star))) + model.sigma0_sq


def unit_signal(p: int) -> np.ndarray:
    beta = np.zeros(p)
    beta[0] = 1.0
    return beta


class TestRiskDecomposition:
    def test_isotropic_ridgeless(self):
        # identity covariances, no shift, phi=2, lam=0: mu=1, tv=1
        alpha2, sigma2 = 1.0, 0.3
        m = make_model(Spectrum.identity(6), beta=unit_signal(6), sigma2=sigma2)
        d = risk_decomposition(m, 0.0, 2.0)
        assert d.bias == pytest.approx(alpha2 / 2.0, abs=1e-10)
        assert d.variance == pytest.approx(sigma2, abs=1e-10)
        assert d.shift == 0.0
        # classical ridgeless formula alpha2 (1 - 1/phi) + sigma2 / (phi - 1)
        assert d.total == pytest.approx(alpha2 * 0.5 + sigma2 / 1.0, abs=1e-10)

    def test_no_regression_shift_zeroes_cross_term(self):
        rng = np.random.default_rng(1)
        sp = random_spectrum(rng, 20)
        m = make_model(sp, beta=rng.standard_normal(20), sigma0=random_psd(rng, 20),
                       sigma2=0.5, sigma0_sq=0.7)
        d = risk_decomposition(m, 0.35, 1.6)
        assert d.shift == 0.0
        assert d.kappa2 == 0.7

    def test_doubled_target_shift_term(self):
        beta = unit_signal(5)
        m = make_model(Spectrum.identity(5), beta=beta, beta0=2 * beta, sigma2=0.0)
        d = risk_decomposition(m, 0.0, 2.0)
        assert d.shift == pytest.approx(1.0, abs=1e-10)  # 2 mu/(1+mu) at mu=1
        assert d.kappa2 == pytest.approx(1.0, abs=1e-12)

    def test_total_is_exact_sum(self):
        rng = np.random.default_rng(2)
        sp = random_spectrum(rng, 15)
        m = make_model(sp, beta=rng.standard_normal(15), beta0=rng.standard_normal(15),
                       sigma0=random_psd(rng, 15), sigma2=0.4, sigma0_sq=0.2)
        d = risk_decomposition(m, 0.8, 2.5)
        assert d.total == d.bias + d.variance + d.shift + d.kappa2

    def test_underparameterized_ridgeless_variance_only(self):
        # ordinary least squares territory: zero bias, variance
        # sigma2 * phi / (1 - phi) for identity covariances
        m = make_model(Spectrum.identity(6), beta=unit_signal(6), sigma2=0.4)
        d = risk_decomposition(m, 0.0, 0.5)
        assert d.bias == 0.0
        assert d.variance == pytest.approx(0.4, abs=1e-12)
        assert d.total == pytest.approx(0.4, abs=1e-12)

    def test_below_minimum_penalty_propagates(self):
        from ridgeshift import BelowMinimumPenaltyError

        m = make_model(Spectrum.identity(6), beta=unit_signal(6), sigma2=0.4)
        with pytest.raises(BelowMinimumPenaltyError):
            risk_decomposition(m, -1.0, 4.0)

    def test_levels_whose_square_overflows_raise_a_named_error(self):
        # the bias multiplies by mu^2, finite up to about 1.34e154
        m = make_model(Spectrum.from_values([0.5, 1.0, 2.0]), beta=[1.0, 0.5, 0.2], sigma2=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert risk_decomposition(m, 1e154, 2.0).total == pytest.approx(m.null_risk())
            for call in (lambda: risk_decomposition(m, 1e155, 2.0),
                         lambda: risk_at_mu(m, 1e155, 2.0), lambda: tilde_v(m, 1e155, 2.0)):
                with pytest.raises(InvalidParameterError, match="level mu=.* is too large"):
                    call()

    def test_nonnegativity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            sp = random_spectrum(rng, 12)
            m = make_model(sp, beta=rng.standard_normal(12), sigma0=random_psd(rng, 12),
                           sigma2=float(rng.uniform(0, 1)), sigma0_sq=0.1)
            phi = float(rng.uniform(0.3, 3.0))
            lam = lambda_min(sp, phi) + float(rng.uniform(0.05, 2.0))
            d = risk_decomposition(m, lam, phi)
            assert d.bias >= 0.0
            assert d.variance >= 0.0
            assert d.kappa2 >= m.sigma0_sq


class TestEnsembleRisk:
    def test_reduces_to_plain_ridge(self):
        rng = np.random.default_rng(4)
        sp = random_spectrum(rng, 18)
        m = make_model(sp, beta=rng.standard_normal(18), sigma0=random_psd(rng, 18),
                       sigma2=0.3, sigma0_sq=0.05)
        a = risk_decomposition(m, 0.3, 0.5)
        b = ensemble_risk(m, 0.3, 0.5, 0.5)
        assert abs(a.total - b.total) <= 1e-10
        assert abs(a.bias - b.bias) <= 1e-10

    def test_equivalence_pair(self):
        # contour endpoints share the risk: (0.75, psi=0.5) vs (lambda_min(4), psi=4)
        sp = Spectrum.identity(6)
        m = make_model(sp, beta=unit_signal(6), sigma2=0.4)
        a = ensemble_risk(m, 0.75, 0.5, 0.5)
        b = ensemble_risk(m, lambda_min(sp, 4.0), 0.5, 4.0)
        assert a.total == pytest.approx(b.total, abs=1e-8)

    def test_infinite_subsampling_gives_null_risk(self):
        rng = np.random.default_rng(5)
        sp = random_spectrum(rng, 10)
        beta = rng.standard_normal(10)
        beta0 = rng.standard_normal(10)
        s0 = random_psd(rng, 10)
        m = make_model(sp, beta=beta, beta0=beta0, sigma0=s0, sigma2=0.3, sigma0_sq=0.2)
        d = ensemble_risk(m, 0.1, 0.7, PSI_INFINITE)
        assert d.variance == 0.0
        assert d.bias == pytest.approx(beta @ s0 @ beta, rel=1e-12)
        assert d.shift == pytest.approx(2 * beta @ s0 @ (beta0 - beta), rel=1e-12)
        assert d.total == pytest.approx(m.null_risk(), rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @seed(240401233)
    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(2, 40), shift=st.floats(0.0, 2.0))
    def test_null_risk_is_the_risk_at_infinite_level(self, seed, p, shift):
        # the zero predictor's risk has one evaluator: ShiftModel.null_risk
        # and the mu = inf decomposition agree bit for bit, also under a
        # regression shift with a dense test covariance
        rng = np.random.default_rng(seed)
        beta = rng.standard_normal(p)
        beta0 = beta + shift * rng.standard_normal(p)
        m = make_model(random_spectrum(rng, p), beta=beta, beta0=beta0,
                       sigma0=random_psd(rng, p), sigma2=0.3, sigma0_sq=rng.uniform(0.0, 1.0))
        assert m.null_risk().hex() == risk_at_mu(m, math.inf, 1.0).total.hex()
        assert m.null_risk().hex() == ensemble_risk(m, 0.1, 0.7, PSI_INFINITE).total.hex()

    def test_invalid_subsample_ratio(self):
        m = make_model(Spectrum.identity(4), beta=unit_signal(4), sigma2=0.1)
        with pytest.raises(InvalidParameterError, match="must be >= data aspect"):
            ensemble_risk(m, 0.1, 2.0, 1.0)

    def test_boundary_penalty_finite_when_psi_above_phi(self):
        sp = Spectrum.identity(5)
        m = make_model(sp, beta=unit_signal(5), sigma2=0.2)
        d = ensemble_risk(m, lambda_min(sp, 4.0), 2.0, 4.0)
        assert math.isfinite(d.total)


class TestRiskMuDerivative:
    def test_matches_finite_differences(self, banded_extreme_model):
        m = banded_extreme_model
        phi = 2.0
        mu = solve_mu(m.spectrum, 0.1, phi).mu
        h = 1e-5 * (1.0 + mu)
        up = risk_at_mu(m, mu + h, phi)
        dn = risk_at_mu(m, mu - h, phi)
        db, dv, ds = level_slopes(m, mu, phi)
        assert db == pytest.approx((up.bias - dn.bias) / (2 * h), rel=1e-6)
        assert dv == pytest.approx((up.variance - dn.variance) / (2 * h), rel=1e-6)
        total_fd = (up.total - dn.total) / (2 * h)
        assert db + dv + ds == pytest.approx(total_fd, rel=1e-6)

    def test_shift_derivative_finite_differences(self):
        rng = np.random.default_rng(6)
        sp = random_spectrum(rng, 16)
        m = make_model(sp, beta=rng.standard_normal(16), beta0=rng.standard_normal(16),
                       sigma0=random_psd(rng, 16), sigma2=0.2)
        phi = 0.7
        mu = solve_mu(m.spectrum, 0.2, phi).mu
        h = 1e-5 * (1.0 + mu)
        up = risk_at_mu(m, mu + h, phi)
        dn = risk_at_mu(m, mu - h, phi)
        _, _, ds = level_slopes(m, mu, phi)
        assert ds == pytest.approx((up.shift - dn.shift) / (2 * h), rel=1e-6)

    def test_no_shift_means_zero_cross_derivative(self, identity_model):
        _, _, ds = level_slopes(identity_model, 0.8, 2.0)
        assert ds == 0.0

    def test_variance_derivative_always_negative(self):
        rng = np.random.default_rng(7)
        sp = random_spectrum(rng, 14)
        m = make_model(sp, beta=rng.standard_normal(14), sigma0=random_psd(rng, 14), sigma2=0.5)
        for phi in (0.5, 1.5, 3.0):
            start = solve_mu(sp, lambda_min(sp, phi) + 1e-3, phi).mu
            for mu in np.geomspace(max(start, 1e-4), 100.0, 20):
                _, dv, _ = level_slopes(m, float(mu), phi)
                assert dv < 0.0

    def test_isotropic_stationarity_at_closed_form_optimum(self):
        rng = np.random.default_rng(8)
        sp = random_spectrum(rng, 20)
        m = make_model(sp, alpha2=1.5, sigma0=random_psd(rng, 20), sigma2=0.4)
        phi = 1.3
        mu_star = solve_mu(sp, phi / m.snr, phi).mu
        db, dv, ds = level_slopes(m, mu_star, phi)
        assert ds == 0.0
        assert db + dv == pytest.approx(0.0, abs=1e-8)


class TestOptimalLambda:
    def test_isotropic_signal_closed_form(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            sp = random_spectrum(rng, 24)
            m = make_model(sp, alpha2=float(rng.uniform(0.5, 2.0)),
                           sigma0=random_psd(rng, 24),
                           sigma2=float(rng.uniform(0.2, 1.0)))
            phi = float(rng.uniform(0.4, 3.0))
            point = optimal_lambda(m, phi)
            expected = phi / m.snr
            assert point.lambda_star == pytest.approx(expected, rel=1e-5)
            assert point.boundary_flag == "interior"

    def test_negative_optimum_with_aligned_signal(self, banded_extreme_model):
        # high-aspect-ratio regime where alignment forces a negative optimum
        point = optimal_lambda(banded_extreme_model, 10.0)
        assert point.lambda_star < 0.0
        assert point.lambda_star > lambda_min(banded_extreme_model.spectrum, 10.0)

    def test_low_snr_positive_optimum(self):
        spectrum, _ = __import__("ridgeshift").build_ar1(60, 0.5)
        beta = np.zeros(60)
        beta[0] = beta[-1] = 0.5
        m = make_model(spectrum, beta=beta, sigma2=1.0)
        point = optimal_lambda(m, 10.0)
        assert point.lambda_star > 0.0

    @pytest.mark.parametrize("phi", [0.5, 2.0])
    def test_optimum_at_the_minimum_penalty(self, phi):
        # noiseless, a tiny signal and a unit target: the shift cross term
        # grows with the level and dominates the bias, so the risk falls all
        # the way to the branch edge and the optimum sits on lambda_min
        beta, beta0 = 1e-4 * unit_signal(6), unit_signal(6)
        m = make_model(Spectrum.identity(6), beta=beta, beta0=beta0, sigma2=0.0)
        point = optimal_lambda(m, phi)
        lmin = lambda_min(m.spectrum, phi)
        assert point.boundary_flag == "at-lambda-min"
        assert 0.0 < point.lambda_star - lmin <= 1e-5 * (1.0 + abs(lmin))

    def test_floor_constrained_search(self):
        m = make_model(Spectrum.identity(6), beta=unit_signal(6), sigma2=0.5)
        free = optimal_lambda(m, 0.5)
        floored = optimal_lambda(m, 0.5, lambda_floor=2.0)
        assert floored.lambda_star >= 2.0 - 1e-12
        assert floored.risk_star >= free.risk_star - 1e-12
        assert floored.boundary_flag == "at-floor"

    def test_nan_floor_is_invalid(self):
        m = make_model(Spectrum.identity(24), alpha2=1.0, sigma2=0.5)
        with pytest.raises(InvalidParameterError, match="lambda_floor"):
            optimal_lambda(m, 2.0, lambda_floor=math.nan)

    def test_floor_above_the_search_window_is_invalid(self):
        # the window ends T_MAX (1 + |lambda_min|) above lambda_min
        m = make_model(Spectrum.identity(6), beta=unit_signal(6), sigma2=0.5)
        with pytest.raises(InvalidParameterError, match="above the search window"):
            optimal_lambda(m, 0.5, lambda_floor=1e7)

    def test_degenerate_flat_risk(self):
        m = make_model(Spectrum.identity(5), beta=np.zeros(5), sigma2=0.0, sigma0_sq=0.3)
        point = optimal_lambda(m, 2.0)
        assert point.boundary_flag == "degenerate"
        assert point.risk_star == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("phi", [0.5, 2.0])
    def test_zero_signal_optimum_is_the_null_risk_at_infinity(self, phi):
        m = make_model(Spectrum.identity(6), beta=np.zeros(6), sigma2=1.0, sigma0_sq=0.2)
        point = optimal_lambda(m, phi)
        assert point.boundary_flag == "at-infinity-null"
        assert point.risk_star == pytest.approx(0.2, abs=1e-8)

    @pytest.mark.parametrize("phi", [0.5, 2.0])
    def test_null_risk_below_the_window_is_the_optimum(self, phi):
        # the best scanned risk, at the top of the window, is above the
        # null risk 100 of lam = inf
        m = make_model(Spectrum(np.array([1.0, 100.0])), beta=[0.0, 1.0], beta0=[0.0, -1.0])
        point = optimal_lambda(m, phi)
        assert point.boundary_flag == "at-infinity-null"
        assert (point.lambda_star, point.risk_star, point.mu_star) == (math.inf, 100.0, math.inf)
        assert point.local_minima[0] == (math.inf, 100.0, math.inf)
        assert all(risk > 100.0 for _, risk, _ in point.local_minima[1:])

    def test_finite_optimum_tied_with_the_null_risk_is_flagged(self):
        # the best scanned level lies within a decade of the window top and
        # its risk ties the null risk to 1e-8, though it is finite and below it
        m = make_model(Spectrum.identity(2), beta=[1.0, 0.0], beta0=[1e-5, 1.0])
        point = optimal_lambda(m, 0.5)
        assert point.boundary_flag == "at-infinity-null"
        assert m.null_risk() - point.risk_star == pytest.approx(6.667e-11, rel=1e-3)
        # the terms of dR/dmu cancel to a part in 1e5 here, so the arg-min
        # is known only to the conditioning bound, about 3e-5 relative
        lam, bound = argmin_reference(m, 0.5, point.mu_star)
        assert abs(point.lambda_star - lam) <= bound, (point.lambda_star, float(lam), float(bound))

    def test_no_finite_scanned_level_is_a_solver_failure(self):
        with np.errstate(over="ignore", invalid="ignore"):
            m = make_model(Spectrum.identity(4), beta=[1e200, 1e200, 0.0, 0.0])
            with pytest.raises(SolverFailureError,
                               match="no scanned level has a finite risk at phi=2.0"):
                optimal_lambda(m, 2.0)

    def test_isotropic_arg_min_to_round_off(self):
        # the refinement is a root of the analytic dR/dmu, so the arg-min is
        # resolved to round-off, not to the square root of it
        rng = np.random.default_rng(16)
        for _ in range(6):
            sp = random_spectrum(rng, 24)
            m = make_model(sp, alpha2=float(rng.uniform(0.5, 2.0)),
                           sigma0=random_psd(rng, 24), sigma2=float(rng.uniform(0.2, 1.0)))
            phi = float(np.exp(rng.uniform(np.log(0.3), np.log(5.0))))
            point = optimal_lambda(m, phi)
            assert point.lambda_star == pytest.approx(phi / m.snr, rel=1e-10)
            assert point.mu_star == pytest.approx(solve_mu(sp, phi / m.snr, phi).mu, rel=1e-10)

    def test_local_minima_carry_their_levels(self):
        # two eigenvalue clusters give two interior minima; each is reported
        # with its level, the one its penalty solves to, best first
        sp = Spectrum.from_values(np.r_[np.full(17, 0.002), np.full(3, 6.0)])
        m = make_model(sp, beta=np.r_[np.full(17, 1.0), np.full(3, 0.2)], sigma2=0.01)
        point = optimal_lambda(m, 4.0)
        assert len(point.local_minima) == 2
        assert point.local_minima[0] == (point.lambda_star, point.risk_star, point.mu_star)
        for lam, risk, mu in point.local_minima:
            assert solve_mu(sp, lam, 4.0).mu == pytest.approx(mu, rel=1e-14)
            assert risk_at_mu(m, mu, 4.0).total == pytest.approx(risk, rel=1e-12)

    def test_risk_star_bounds_probes(self):
        rng = np.random.default_rng(10)
        sp = random_spectrum(rng, 12)
        m = make_model(sp, beta=rng.standard_normal(12), sigma0=random_psd(rng, 12), sigma2=0.3)
        phi = 1.8
        point = optimal_lambda(m, phi)
        lmin = lambda_min(sp, phi)
        for t in np.geomspace(1e-5, 1e5, 60):
            assert point.risk_star <= risk_decomposition(m, lmin + t * (1 + abs(lmin)), phi).total + 1e-9


class TestOptimalPsi:
    def test_underparameterized_identity_equivalence(self):
        m = make_model(Spectrum.identity(6), beta=unit_signal(6), sigma2=0.5)
        phi = 0.5
        best_lam = optimal_lambda(m, phi, lambda_floor=0.0)
        psi_star, best_psi_risk = optimal_psi(m, 0.0, phi)
        assert best_psi_risk == pytest.approx(best_lam.risk_star, abs=1e-6)
        assert psi_star > 1.0

    def test_overparameterized_identity_equivalence(self):
        sp = Spectrum.identity(6)
        m = make_model(sp, beta=unit_signal(6), sigma2=0.5)
        phi = 2.0
        best_lam = optimal_lambda(m, phi)
        _, best_psi_risk = optimal_psi(m, lambda_min(sp, phi), phi)
        assert best_psi_risk == pytest.approx(best_lam.risk_star, abs=1e-6)

    def test_narrow_minimum_just_above_unit_aspect(self):
        # The optimum sits at psi slightly above 1, in a dip narrower than a
        # step of a log grid in psi - phi; the ridgeless anchor reaches the
        # same risk as the best nonnegative penalty (criterion 6).
        sp = Spectrum.identity(24)
        beta = np.zeros(24)
        beta[0] = beta[-1] = 0.5
        m = make_model(sp, beta=beta, sigma0=build_ar1(24, 0.5)[0].eigenvalues, sigma2=0.01)
        for phi in (0.2, 0.3, 0.5):
            psi_star, risk_star = optimal_psi(m, 0.0, phi)
            best_lam = optimal_lambda(m, phi, lambda_floor=0.0).risk_star
            assert risk_star == pytest.approx(best_lam, rel=1e-9)
            assert 1.0 < psi_star < 1.02
            assert ensemble_risk(m, 0.0, phi, psi_star).total == pytest.approx(risk_star, rel=1e-12)

    @pytest.mark.parametrize("beta0_factor,sigma2,reached", [
        (None, 0.5, "above the gap"),     # optimum on the half-line psi >= b
        (2.0, 0.01, "below the gap"),     # optimum among psi <= a, at levels mu < 0
    ])
    def test_two_reachable_intervals(self, beta0_factor, sigma2, reached):
        # At a negative penalty with phi < 1 the reachable aspects are
        # [phi, a] and [b, inf), lambda_min(a) = lambda_min(b) = lam; on an
        # identity spectrum lambda_min(psi) = -(1 - sqrt(psi))^2.
        sp = Spectrum.identity(8)
        beta = unit_signal(8)
        m = make_model(sp, beta=beta, beta0=None if beta0_factor is None else beta0_factor * beta,
                       sigma2=sigma2)
        phi, lam = 0.5, -0.05
        a, b = (1.0 - math.sqrt(-lam)) ** 2, (1.0 + math.sqrt(-lam)) ** 2
        psi_star, risk_star = optimal_psi(m, lam, phi)
        assert (psi_star <= a) if reached == "below the gap" else (psi_star >= b)

        def probe(psis):
            risks = []
            for psi in psis:
                try:
                    risks.append(ensemble_risk(m, lam, phi, float(psi)).total)
                except BelowMinimumPenaltyError:
                    risks.append(math.inf)  # inside the gap (a, b)
            return np.array(risks)

        coarse = np.concatenate([np.linspace(phi, 4.0, 1500), np.geomspace(4.0, 1e6, 300)])
        risks = probe(coarse)
        assert np.all(np.isinf(risks[(coarse > a + 1e-9) & (coarse < b - 1e-9)]))
        i = int(np.argmin(risks))
        fine = np.linspace(coarse[max(i - 1, 0)], coarse[i + 1], 1001)
        dense_min = min(float(np.min(risks)), float(np.min(probe(fine))))
        assert risk_star <= dense_min * (1.0 + 1e-12)
        assert risk_star == pytest.approx(dense_min, rel=1e-9)
        assert ensemble_risk(m, lam, phi, psi_star).total == pytest.approx(risk_star, rel=1e-12)

    def test_optimum_at_the_data_aspect_is_reported_exactly(self):
        # the best level is the one solved at psi = phi itself
        m = make_model(Spectrum.identity(6), beta=unit_signal(6), sigma2=0.01)
        assert optimal_psi(m, 2.0, 0.5) == (0.5, 0.5155955339420407)

    def test_penalty_below_the_data_minimum_starts_on_an_edge(self):
        # lam < lambda_min(phi) = -0.0858: no psi below (1 + sqrt(0.2))^2,
        # where lambda_min(psi) = lam, is reachable, and the risk is least there
        sp = Spectrum.identity(8)
        m = make_model(sp, beta=np.linspace(1.0, 0.2, 8), sigma2=0.1)
        phi, lam = 0.5, -0.2
        assert lam < lambda_min(sp, phi)
        psi_star, risk_star = optimal_psi(m, lam, phi)
        assert psi_star == pytest.approx((1.0 + math.sqrt(0.2)) ** 2, rel=1e-12)
        assert risk_star == pytest.approx(0.4614286, rel=1e-6)
        assert ensemble_risk(m, lam, phi, psi_star).total == pytest.approx(risk_star, rel=1e-12)
        probe = []
        for psi in np.geomspace(phi, 1e6, 1000):
            try:
                probe.append(ensemble_risk(m, lam, phi, float(psi)).total)
            except BelowMinimumPenaltyError:
                pass  # lam < lambda_min(psi)
        assert risk_star < min(probe)

    def test_no_finite_scanned_level_is_a_solver_failure(self):
        with np.errstate(over="ignore", invalid="ignore"):
            m = make_model(Spectrum.identity(4), beta=[1e200, 1e200, 0.0, 0.0])
            with pytest.raises(SolverFailureError,
                               match="no scanned level has a finite risk at lam=0.0, phi=2.0"):
                optimal_psi(m, 0.0, 2.0)

    def test_penalty_whose_edge_level_underflows_raises_a_named_error(self):
        # the aspect's slope on the edge divides by t2^2, which underflows
        m = make_model(Spectrum.from_values([0.5, 1.0, 2.0]), beta=[1.0, 0.5, 0.2], sigma2=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert optimal_psi(m, -1e150, 2.0) == (PSI_INFINITE, m.null_risk())
            with pytest.raises(InvalidParameterError, match=r"penalty -1e\+200 is too negative"):
                optimal_psi(m, -1e200, 2.0)

    def test_scan_above_the_kernel_range_raises_a_named_error(self):
        # the half-line of a penalty of 1e200 starts at a level of about 1e200,
        # and a scan at phi = 1e150 reaches levels near 1e156, whose squares overflow
        m = make_model(Spectrum.from_values([0.5, 1.0, 2.0]), beta=[1.0, 0.5, 0.2], sigma2=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert optimal_psi(m, 1e150, 2.0) == (2.0, pytest.approx(m.null_risk()))
            for call in (lambda: optimal_psi(m, 1e200, 2.0), lambda: optimal_psi(m, 1.0, 1e150),
                         lambda: optimal_lambda(m, 1e150)):
                with pytest.raises(InvalidParameterError,
                                   match=r"level mu=\S+e\+(199|15\d) is too large"):
                    call()

    def test_pure_variance_prefers_infinite_subsampling(self):
        # without signal the zero fit is optimal, reached only at psi = inf
        m = make_model(Spectrum.identity(5), beta=np.zeros(5), sigma2=1.0, sigma0_sq=0.2)
        psi_star, risk_star = optimal_psi(m, 0.5, 0.5)
        assert psi_star == PSI_INFINITE
        assert risk_star == pytest.approx(0.2, abs=1e-10)


#: r from 1 to 1e12, mu* = 2.26 at phi 1: a half-line grid sized by mean(r) starts near level 77
WIDE_MODEL = make_model(Spectrum.from_values(np.geomspace(1.0, 1e12, 200)),
                        beta=np.ones(200) / math.sqrt(200), sigma2=0.1)
#: the optimum at c = 1 is lam* = c/4 at phi 0.5 and c/2 at phi 1; a window in
#: absolute penalty units lost it at small and large c
UNITS_MODEL = make_model(Spectrum.from_values(np.geomspace(0.3, 4.0, 100)),
                         beta=np.full(100, 0.1), sigma2=0.5)


def joint_anchor(model, phi: float) -> float:
    """The anchor of ``optimize --joint``: ridgeless below aspect 1, the minimum penalty above."""
    return 0.0 if phi < 1.0 else lambda_min(model.spectrum, phi)


class TestOneScanWindow:
    """optimal_psi's half-line is the floored scan of optimal_lambda, and the
    window of that scan is in the units of the spectrum."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @seed(240401233)
    @given(window_models(), st.sampled_from([0.1, 0.3, 0.5, 0.8, 1.0, 1.5, 3.0, 10.0]))
    @example(WIDE_MODEL, 1.0)
    def test_joint_optimum_reaches_the_plain_optimum_above_its_anchor(self, m, phi):
        # the half-line holds the plain-ridge levels of the penalties above
        # the anchor, and no other level at these anchors
        anchor = joint_anchor(m, phi)
        point = optimal_lambda(m, phi)
        _, risk = optimal_psi(m, anchor, phi)
        assert risk >= point.risk_star * (1.0 - 1e-9)
        if point.lambda_star >= anchor:
            assert risk == pytest.approx(point.risk_star, rel=1e-9)

    def test_wide_spectrum_joint_optimum(self):
        psi, risk = optimal_psi(WIDE_MODEL, 0.0, 1.0)
        assert risk == pytest.approx(optimal_lambda(WIDE_MODEL, 1.0).risk_star, rel=1e-12)
        assert risk == pytest.approx(2.15832, rel=1e-5)
        assert ensemble_risk(WIDE_MODEL, 0.0, 1.0, psi).total == pytest.approx(risk, rel=1e-9)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @seed(240401233)
    @given(window_models(), st.sampled_from([0.5, 1.0, 2.0]), st.integers(-15, 15))
    @example(UNITS_MODEL, 0.5, -10)
    @example(UNITS_MODEL, 1.0, -10)
    @example(UNITS_MODEL, 0.5, 15)
    @example(UNITS_MODEL, 1.0, 15)
    def test_optimizers_follow_a_change_of_feature_units(self, m, phi, k):
        scaled, c = rescaled(m, k)
        base, point = optimal_lambda(m, phi), optimal_lambda(scaled, phi)
        assert point.lambda_star == pytest.approx(c * base.lambda_star, rel=1e-9)
        assert point.risk_star == pytest.approx(base.risk_star, rel=1e-12)
        assert point.boundary_flag == base.boundary_flag
        psi, risk = optimal_psi(scaled, joint_anchor(scaled, phi), phi)
        base_psi, base_risk = optimal_psi(m, joint_anchor(m, phi), phi)
        assert psi == pytest.approx(base_psi, rel=1e-9)
        assert risk == pytest.approx(base_risk, rel=1e-12)


class TestIsotropicOptimalRisk:
    def test_identity_gold_value(self):
        m = make_model(Spectrum.identity(4), alpha2=1.0, sigma2=1.0, sigma0_sq=1.0)
        # optimum at penalty 1, level (1+sqrt(5))/2
        got = isotropic_optimal_risk(m, 1.0)
        mu = (1.0 + math.sqrt(5.0)) / 2.0
        assert got == pytest.approx(1.0 + mu / (1.0 + mu), abs=1e-10)
        assert got == pytest.approx(1.618033988749895, abs=1e-6)

    def test_matches_scanned_optimum(self):
        rng = np.random.default_rng(11)
        sp = random_spectrum(rng, 20)
        m = make_model(sp, alpha2=1.2, sigma0=random_psd(rng, 20), sigma2=0.6, sigma0_sq=0.1)
        for phi in (0.5, 2.0):
            assert isotropic_optimal_risk(m, phi) == pytest.approx(
                optimal_lambda(m, phi).risk_star, abs=1e-6
            )

    def test_vanishing_snr_limit(self):
        rng = np.random.default_rng(12)
        sp = random_spectrum(rng, 16)
        s0 = random_psd(rng, 16)
        m = make_model(sp, alpha2=1.0, sigma0=s0, sigma2=1e6)
        got = isotropic_optimal_risk(m, 1.0)
        assert got == pytest.approx(np.trace(s0) / 16, rel=1e-4)

    def test_strictly_increasing_in_phi(self):
        rng = np.random.default_rng(13)
        sp = random_spectrum(rng, 16)
        m = make_model(sp, alpha2=1.0, sigma0=random_psd(rng, 16), sigma2=1.0)
        vals = [isotropic_optimal_risk(m, phi) for phi in (0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(vals) > 0)

    def test_rejects_explicit_signal(self):
        m = make_model(Spectrum.identity(4), beta=unit_signal(4), sigma2=1.0)
        with pytest.raises(InvalidParameterError):
            isotropic_optimal_risk(m, 1.0)


MONOTONE_PHIS = np.geomspace(0.05, 20.0, 25)


@st.composite
def monotone_models(draw):
    """Models with p from 1 to 48, train condition numbers up to 1e6 and
    every shift kind, isotropic signals included."""
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.integers(1, 48))
    log_cond = draw(st.floats(0.0, 6.0))
    kind = draw(st.sampled_from(("none", "covariate", "regression", "joint", "isotropic")))
    sigma2 = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    rng = np.random.default_rng(seed)
    sp = Spectrum.from_values(10.0 ** (log_cond * rng.uniform(0.0, 1.0, p) - 0.5 * log_cond))
    sigma0 = random_psd(rng, p) if kind in ("covariate", "joint", "isotropic") else None
    if kind == "isotropic":
        return make_model(sp, alpha2=float(rng.uniform(0.2, 3.0)), sigma0=sigma0,
                          sigma2=sigma2, sigma0_sq=0.1)
    beta = rng.standard_normal(p)
    beta0 = beta + 0.5 * rng.standard_normal(p) if kind in ("regression", "joint") else None
    return make_model(sp, beta=beta, beta0=beta0, sigma0=sigma0, sigma2=sigma2, sigma0_sq=0.1)


class TestOptimalRiskMonotonicity:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @seed(240401233)
    @given(monotone_models())
    def test_optimal_risk_never_falls_as_phi_grows(self, m):
        # the paper's monotonicity: the optimally tuned risk, negative
        # penalties allowed, does not decrease in the aspect ratio
        risks = np.array([optimal_lambda(m, float(phi)).risk_star for phi in MONOTONE_PHIS])
        steps = np.diff(risks)
        assert np.all(steps >= -1e-9 * (1.0 + np.abs(risks[1:]))), (risks, steps)

    def test_in_aspect_ratio_under_shift(self):
        rng = np.random.default_rng(14)
        p = 20
        for kind in ("covariate", "regression", "joint"):
            sp = random_spectrum(rng, p)
            beta = rng.standard_normal(p)
            beta0 = beta + (0.0 if kind == "covariate" else rng.standard_normal(p) * 0.5)
            s0 = np.diag(sp.eigenvalues) if kind == "regression" else random_psd(rng, p)
            m = make_model(sp, beta=beta, beta0=beta0, sigma0=s0, sigma2=0.3, sigma0_sq=0.1)
            risks = [optimal_lambda(m, float(phi)).risk_star for phi in np.linspace(0.3, 4.0, 8)]
            assert np.all(np.diff(risks) >= -1e-8)

    def test_in_signal_energy_without_shift(self):
        rng = np.random.default_rng(15)
        p = 20
        sp = random_spectrum(rng, p)
        beta = rng.standard_normal(p)
        beta /= np.linalg.norm(beta)
        risks = []
        for alpha2 in np.linspace(0.2, 4.0, 8):
            m = make_model(sp, beta=math.sqrt(alpha2) * beta, sigma2=0.5, sigma0_sq=0.1)
            risks.append(optimal_lambda(m, 1.4).risk_star)
        assert np.all(np.diff(risks) >= -1e-8)


class TestSuboptimalNonMonotonicity:
    """Closed-form component shapes on an isotropic no-shift model: the
    variance rises up to aspect ratio lam+1 then falls, while the bias rises
    everywhere (shapes from the explicit quadratic-root level)."""

    @staticmethod
    def _components(lam, phis):
        m = make_model(Spectrum.identity(4), beta=unit_signal(4), sigma2=1.0)
        parts = [risk_decomposition(m, lam, float(phi)) for phi in phis]
        return (np.array([d.bias for d in parts]), np.array([d.variance for d in parts]))

    def test_variance_hump_at_lambda_plus_one(self):
        lam = 1.0
        below = np.linspace(0.05, 1.95, 40)
        above = np.linspace(2.05, 12.0, 40)
        _, var_below = self._components(lam, below)
        _, var_above = self._components(lam, above)
        assert np.all(np.diff(var_below) > 0)
        assert np.all(np.diff(var_above) < 0)

    def test_bias_increasing_everywhere(self):
        lam = 1.0
        phis = np.linspace(0.05, 12.0, 80)
        bias, _ = self._components(lam, phis)
        assert np.all(np.diff(bias) > 0)

    def test_total_risk_can_decrease_in_aspect_ratio(self):
        # large noise, aspect ratio past the variance peak: derivative < -0.01
        lam, sigma2, phi = 0.5, 4.0, 3.0
        m = make_model(Spectrum.identity(4), beta=unit_signal(4), sigma2=sigma2)
        h = 1e-4
        up = risk_decomposition(m, lam, phi + h).total
        dn = risk_decomposition(m, lam, phi - h).total
        assert (up - dn) / (2 * h) < -0.01
