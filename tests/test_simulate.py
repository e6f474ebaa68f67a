"""Monte Carlo harness: data generation, pseudoinverse ridge fits, empirical
risks, and the seeded experiment driver with its subsample averages."""

import math
import weakref

import numpy as np
import pytest

from ridgeshift import (
    InvalidParameterError,
    SimConfig,
    EnsembleConfig,
    Spectrum,
    empirical_risk,
    generate_data,
    make_model,
    mc_experiment,
)
from ridgeshift import simulate
from ridgeshift.simulate import RidgeFactorization, _fits


def unit_signal(p):
    beta = np.zeros(p)
    beta[0] = 1.0
    return beta


class TestGenerateData:
    def test_noiseless_response_is_exact(self):
        m = make_model(Spectrum.from_values([0.5, 1.0, 2.0]), beta=np.array([1.0, -2.0, 0.5]),
                       sigma2=0.0)
        x, y = generate_data(m, 50, rng=0)
        np.testing.assert_allclose(y, x @ m.beta, atol=1e-12)

    def test_sample_covariance_matches_spectrum(self):
        m = make_model(Spectrum.from_values([1.0, 2.0, 3.0, 4.0, 5.0]),
                       beta=unit_signal(5), sigma2=0.0)
        x, _ = generate_data(m, 100_000, rng=1)
        cov = x.T @ x / x.shape[0]
        np.testing.assert_allclose(cov, np.diag([1, 2, 3, 4, 5]), atol=0.15, rtol=0.03)

    def test_rademacher_support(self):
        m = make_model(Spectrum.from_values([4.0, 4.0]), beta=np.ones(2), sigma2=0.0)
        x, _ = generate_data(m, 200, z_dist="rademacher", rng=2)
        z = x / 2.0  # unscale by sqrt(eigenvalue)
        assert set(np.unique(z)) <= {-1.0, 1.0}

    def test_student_t_unit_variance(self):
        m = make_model(Spectrum.identity(2), beta=np.ones(2), sigma2=0.0)
        x, _ = generate_data(m, 200_000, z_dist="student-t", rng=3)
        assert np.var(x) == pytest.approx(1.0, rel=0.05)

    def test_deterministic_given_seed(self):
        m = make_model(Spectrum.identity(3), beta=unit_signal(3), sigma2=0.5)
        x1, y1 = generate_data(m, 20, rng=7)
        x2, y2 = generate_data(m, 20, rng=7)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)


class TestRidgeFit:
    def test_interpolation_identity(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((10, 25))
        y = rng.standard_normal(10)
        beta = RidgeFactorization(x).solve(y, 0.0)
        np.testing.assert_allclose(x @ beta, y, atol=1e-8 * np.linalg.norm(y))

    def test_minimum_norm_property(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 20))
        y = rng.standard_normal(8)
        beta = RidgeFactorization(x).solve(y, 0.0)
        # any other interpolator differs by a null-space vector, orthogonal
        # to the row space that contains beta
        lstsq = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(beta, lstsq, atol=1e-8)

    def test_matches_dense_solver(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 12))
        y = rng.standard_normal(40)
        beta = RidgeFactorization(x).solve(y, 1.0)
        direct = np.linalg.solve(x.T @ x / 40 + np.eye(12), x.T @ y / 40)
        np.testing.assert_allclose(beta, direct, atol=1e-10)

    def test_primal_dual_agreement(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 30))
        y = rng.standard_normal(20)
        lam = 0.5
        dual = RidgeFactorization(x).solve(y, lam)  # p > n path
        cov = x.T @ x / 20
        primal = np.linalg.solve(cov + lam * np.eye(30), x.T @ y / 20)
        np.testing.assert_allclose(dual, primal, atol=1e-10)

    def test_negative_penalty_pseudoinverse(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((60, 12))
        y = rng.standard_normal(60)
        lam = -0.05
        beta = RidgeFactorization(x).solve(y, lam)
        direct = np.linalg.solve(x.T @ x / 60 + lam * np.eye(12), x.T @ y / 60)
        np.testing.assert_allclose(beta, direct, atol=1e-8)

    @pytest.mark.parametrize("n, p", [(40, 12), (12, 40)])
    @pytest.mark.parametrize("lam", [-0.03, 0.0, 0.7])
    def test_direct_solve_bits_match_identity_penalty(self, n, p, lam):
        # a single penalty is a direct solve; the penalty added to the Gram
        # diagonal in place gives the same bits as adding lam * I
        rng = np.random.default_rng(13)
        x = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        if p <= n:
            old = np.linalg.solve(x.T @ x / n + lam * np.eye(p), x.T @ y / n)
        else:
            old = x.T @ np.linalg.solve(x @ x.T / n + lam * np.eye(n), y) / n
        fits = _fits(x, y, [lam])
        assert fits.shape == (1, p)
        assert fits[0].tobytes() == old.tobytes()

    def test_direct_solve_falls_back_to_pseudoinverse(self):
        # a zero column makes the Gram matrix exactly singular at lam = 0
        rng = np.random.default_rng(10)
        x = rng.standard_normal((30, 6))
        x[:, 2] = 0.0
        y = rng.standard_normal(30)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(x.T @ x / 30, x.T @ y / 30)
        fit = _fits(x, y, [0.0])[0]
        assert fit.tobytes() == RidgeFactorization(x).solve(y, 0.0).tobytes()
        assert abs(fit[2]) < 1e-12

    def test_factorization_reuse_matches_fresh_fits(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 18))
        y = rng.standard_normal(30)
        lams = (-0.02, 0.0, 0.3, 2.0)
        shared = _fits(x, y, lams)
        for row, lam in zip(shared, lams):
            assert row.tobytes() == RidgeFactorization(x).solve(y, lam).tobytes()
            np.testing.assert_allclose(row, _fits(x, y, [lam])[0], atol=1e-12)


class TestEnsembleFit:
    """Subsample-average fits inside mc_experiment."""

    def test_full_subsample_equals_plain_fit(self, monkeypatch):
        # at psi = phi every subsample is the full sample: the group is
        # fitted like plain ridge, one factorization per replicate for all
        # penalties, and the same group index gives the same data stream
        built = []

        class Counting(RidgeFactorization):
            def __init__(self, x):
                built.append(x.shape)
                super().__init__(x)

        m = make_model(Spectrum.identity(40), beta=unit_signal(40), sigma2=0.25)
        grid = [0.1, 0.4, 1.0]
        plain = mc_experiment(m, SimConfig(p=40, phi=2.0, reps=3, seed=9), grid)
        monkeypatch.setattr(simulate, "RidgeFactorization", Counting)
        cfg = SimConfig(p=40, phi=2.0, reps=3, seed=9, include_plain=False,
                        ensemble=EnsembleConfig(psi=2.0, n_subsamples=7))
        ens = mc_experiment(m, cfg, grid)
        assert len(built) == 3
        assert [c.k for c in ens.cells] == [20] * 3
        assert ([c.empirical_mean.hex() for c in ens.cells]
                == [c.empirical_mean.hex() for c in plain.cells])

    @staticmethod
    def _count_factorizations(monkeypatch):
        """Record every RidgeFactorization built, and the most alive at once."""
        live = weakref.WeakSet()
        seen = {"built": 0, "peak": 0}

        class Counting(RidgeFactorization):
            def __init__(self, x):
                super().__init__(x)
                live.add(self)
                seen["built"] += 1
                seen["peak"] = max(seen["peak"], len(live))

        monkeypatch.setattr(simulate, "RidgeFactorization", Counting)
        return seen

    def test_single_penalty_plain_builds_no_factorization(self, monkeypatch):
        # a one-point grid takes the direct solve
        seen = self._count_factorizations(monkeypatch)
        m = make_model(Spectrum.identity(40), beta=unit_signal(40), sigma2=0.25)
        cell = mc_experiment(m, SimConfig(p=40, phi=2.0, reps=3, seed=9), [0.4]).cells[0]
        assert math.isfinite(cell.empirical_mean)
        assert seen["built"] == 0

    def test_ensemble_holds_one_factorization_at_a_time(self, monkeypatch):
        # each subsample's factorization serves every penalty and is released
        # before the next subsample is fitted
        seen = self._count_factorizations(monkeypatch)
        m = make_model(Spectrum.identity(40), beta=unit_signal(40), sigma2=0.25)
        cfg = SimConfig(p=40, phi=2.0, reps=2, seed=9, include_plain=False,
                        ensemble=EnsembleConfig(psi=4.0, n_subsamples=6))
        result = mc_experiment(m, cfg, [0.2, 0.5, 1.0])
        assert [c.k for c in result.cells] == [10] * 3
        assert seen["built"] == 2 * 6
        assert seen["peak"] == 1

    def test_single_subsample(self):
        # with one subsample per replicate the ensemble cell is the ridge fit
        # on the rows drawn right after the replicate's data
        m = make_model(Spectrum.identity(6), beta=unit_signal(6), sigma2=0.1)
        cfg = SimConfig(p=6, phi=0.3, reps=1, seed=42, include_plain=False,
                        ensemble=EnsembleConfig(psi=0.6, n_subsamples=1))
        cell = mc_experiment(m, cfg, [0.2]).cells[0]
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(42, 0, 0)))
        x, y = generate_data(m, 20, rng=rng)
        idx = rng.choice(20, size=10, replace=False)
        want = empirical_risk(RidgeFactorization(x[idx]).solve(y[idx], 0.2), m)
        assert cell.empirical_mean == pytest.approx(want, rel=1e-12)

    def test_invalid_subsample_size(self):
        # psi below phi asks for subsamples larger than the sample
        with pytest.raises(InvalidParameterError):
            SimConfig(p=40, phi=2.0, reps=1, seed=0, ensemble=EnsembleConfig(psi=1.0))


class TestEmpiricalRisk:
    def test_perfect_fit(self):
        rng = np.random.default_rng(13)
        sp = Spectrum.from_values(np.exp(rng.uniform(-1, 1, 6)))
        beta = rng.standard_normal(6)
        m = make_model(sp, beta=beta, sigma2=0.1, sigma0_sq=0.9)
        assert empirical_risk(beta, m) == pytest.approx(0.9, abs=1e-12)

    def test_zero_fit_gives_null_risk(self):
        rng = np.random.default_rng(14)
        sp = Spectrum.from_values(np.exp(rng.uniform(-1, 1, 6)))
        m = make_model(sp, beta=rng.standard_normal(6), sigma2=0.1, sigma0_sq=0.2)
        assert empirical_risk(np.zeros(6), m) == pytest.approx(m.null_risk(), rel=1e-12)

    def test_regression_shift_target(self):
        beta = unit_signal(4)
        m = make_model(Spectrum.identity(4), beta=beta, beta0=2 * beta, sigma2=0.0, sigma0_sq=0.3)
        assert empirical_risk(beta, m) == pytest.approx(1.0 + 0.3, abs=1e-12)


class TestMcExperiment:
    @staticmethod
    def _model(p=150):
        return make_model(Spectrum.identity(p), beta=unit_signal(p), sigma2=0.25)

    def test_seed_determinism_across_threads(self):
        m = self._model(40)
        grid = [0.1, 0.5]
        r1 = mc_experiment(m, SimConfig(p=40, phi=2.0, reps=6, seed=11, threads=1), grid)
        r2 = mc_experiment(m, SimConfig(p=40, phi=2.0, reps=6, seed=11, threads=3), grid)
        for a, b in zip(r1.cells, r2.cells):
            assert a.empirical_mean == b.empirical_mean
            assert a.empirical_se == b.empirical_se

    def test_thread_cap_env_var(self, monkeypatch):
        monkeypatch.setenv("RIDGESHIFT_MAX_THREADS", "1")
        m = self._model(30)
        capped = mc_experiment(m, SimConfig(p=30, phi=1.5, reps=4, seed=3, threads=8), [0.2])
        monkeypatch.delenv("RIDGESHIFT_MAX_THREADS")
        free = mc_experiment(m, SimConfig(p=30, phi=1.5, reps=4, seed=3, threads=8), [0.2])
        assert capped.cells[0].empirical_mean == free.cells[0].empirical_mean

    def test_theory_agreement_at_moderate_scale(self):
        m = self._model(150)
        result = mc_experiment(m, SimConfig(p=150, phi=2.0, reps=8, seed=3), [0.0, 0.3])
        for cell in result.cells:
            assert cell.rel_error < 0.15

    def test_config_dimension_must_match_the_model(self):
        # p = 20 at phi = 2 would draw n = 10 rows of a p = 40 model, whose
        # real aspect ratio is 4
        m = self._model(40)
        with pytest.raises(InvalidParameterError, match=r"p=20.*p=40"):
            mc_experiment(m, SimConfig(p=20, phi=2.0, reps=1, seed=0), [0.5])

    def test_guard_rejects_penalties_near_edge(self):
        m = self._model(40)
        lmin = -((1 - math.sqrt(2.0)) ** 2)
        with pytest.raises(InvalidParameterError):
            mc_experiment(m, SimConfig(p=40, phi=2.0, reps=2, seed=0), [lmin + 0.01 * abs(lmin)])

    def test_ensemble_cell(self):
        m = self._model(100)
        cfg = SimConfig(p=100, phi=2.0, reps=6, seed=5,
                        ensemble=EnsembleConfig(psi=4.0, n_subsamples=60))
        result = mc_experiment(m, cfg, [0.2])
        psis = sorted({c.psi for c in result.cells})
        assert psis == [2.0, 4.0]
        for cell in result.cells:
            assert cell.rel_error < 0.2

    def test_replicate_dump(self, tmp_path):
        m = self._model(30)
        cfg = SimConfig(p=30, phi=1.5, reps=3, seed=2, keep_replicates=True)
        result = mc_experiment(m, cfg, [0.1])
        out = tmp_path / "reps.csv"
        result.dump_replicates_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "cell_id,lambda,phi,psi,rep,risk"
        assert len(lines) == 1 + 3

    def test_isotropic_signal_resampled(self):
        m = make_model(Spectrum.identity(60), alpha2=1.0, sigma2=0.5)
        result = mc_experiment(m, SimConfig(p=60, phi=0.5, reps=10, seed=9), [0.5])
        assert result.cells[0].rel_error < 0.2

    def test_student_df_validation(self):
        with pytest.raises(InvalidParameterError):
            SimConfig(p=20, phi=1.0, reps=1, seed=0, z_dist="student-t", student_df=4.0)

    def test_ensemble_cross_term_uses_subsample_level(self):
        # under regression shift, the ensemble cross term tracks the level
        # solved at the subsample ratio; re-anchoring it at the data-ratio
        # level is decisively rejected by simulation
        from ridgeshift import build_ar1, ensemble_risk, risk_at_mu, solve_mu

        p = 240
        sp, _ = build_ar1(p, 0.5)
        beta = np.zeros(p)
        beta[0] = beta[-1] = 0.5
        m = make_model(sp, beta=beta, beta0=2 * beta, sigma2=0.1)
        phi, psi, lam = 1.0, 3.0, 0.3

        implemented = ensemble_risk(m, lam, phi, psi)
        mu_phi = solve_mu(sp, lam, phi).mu
        rival = implemented.total - implemented.shift + risk_at_mu(m, mu_phi, phi).shift

        cfg = SimConfig(p=p, phi=phi, reps=8, seed=4, threads=2, include_plain=False,
                        ensemble=EnsembleConfig(psi=psi, n_subsamples=100))
        emp = mc_experiment(m, cfg, [lam]).cells[0].empirical_mean
        assert abs(emp - implemented.total) / implemented.total < 0.05
        assert abs(emp - rival) / rival > 0.15

    def test_ensemble_only_mode(self):
        # penalties admissible at the subsample aspect but not at the data
        # aspect are reachable by skipping the plain cells
        m = self._model(80)
        cfg = SimConfig(p=80, phi=2.0, reps=4, seed=6, include_plain=False,
                        ensemble=EnsembleConfig(psi=8.0, n_subsamples=40))
        result = mc_experiment(m, cfg, [-0.8])
        assert [c.psi for c in result.cells] == [8.0]
        assert math.isfinite(result.cells[0].empirical_mean)

    def test_negative_penalty_validity_near_edge(self):
        # inside the guarded negative range the empirical risk stays finite
        # and tracks the equivalent within ten percent; at this dimension the
        # smallest-eigenvalue fluctuation (width ~ n^(-2/3)) still swamps the
        # innermost guard band, so the probes stay at moderate depth
        p = 400
        m = self._model(p)
        lmin = -((1 - math.sqrt(2.0)) ** 2)
        grid = [lmin + 0.5 * abs(lmin), lmin + 0.7 * abs(lmin)]
        result = mc_experiment(m, SimConfig(p=p, phi=2.0, reps=12, seed=8, threads=2), grid)
        for cell in result.cells:
            assert cell.lam < 0.0
            assert math.isfinite(cell.empirical_mean)
            assert cell.rel_error <= 0.10, (cell.lam, cell.rel_error)


class TestNearSingularWarning:
    def test_warns_inside_spectrum_bulk(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((50, 12))
        y = rng.standard_normal(50)
        s = np.linalg.eigvalsh(x.T @ x / 50)
        lam = -float(s[5]) + 1e-14  # numerically on top of an interior eigenvalue
        with pytest.warns(Warning, match="near-singular"):
            RidgeFactorization(x).solve(y, lam)
