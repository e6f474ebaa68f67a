"""Monte Carlo harness: data generation, pseudoinverse ridge fits, empirical
risks, and the seeded experiment driver with its subsample averages."""

import math
import tracemalloc
from functools import partial
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from ridgeshift import (
    InvalidParameterError,
    SimConfig,
    EnsembleConfig,
    Spectrum,
    build_ar1,
    empirical_risk,
    generate_data,
    lambda_min,
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

    def test_deterministic_given_seed(self):
        m = make_model(Spectrum.identity(3), beta=unit_signal(3), sigma2=0.5)
        x1, y1 = generate_data(m, 20, rng=7)
        x2, y2 = generate_data(m, 20, rng=7)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)

    def test_non_integral_sample_size_rejected(self):
        m = make_model(Spectrum.identity(3), beta=unit_signal(3), sigma2=0.5)
        for n in (2.5, True):  # a bool is not a count, though it subclasses int
            with pytest.raises(InvalidParameterError, match="n must be an integer"):
                generate_data(m, n, rng=0)

    def test_isotropic_model_needs_a_draw(self):
        m = make_model(Spectrum.identity(3), alpha2=1.0, sigma2=0.5)
        with pytest.raises(InvalidParameterError, match="explicit beta draw"):
            generate_data(m, 5, rng=0)
        with pytest.raises(InvalidParameterError, match="explicit beta0 draw"):
            empirical_risk(np.zeros(3), m)


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
        # a short grid is one direct solve per penalty, each with the bits of
        # a one-penalty fit; a longer grid shares one factorization
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 18))
        y = rng.standard_normal(30)
        short = (-0.02, 0.0, 0.3, 0.7, 1.1, 1.6, 2.0)
        assert len(short) == simulate.DIRECT_SOLVES_MAX
        for row, lam in zip(_fits(x, y, short), short):
            assert row.tobytes() == _fits(x, y, [lam])[0].tobytes()
        long = np.linspace(-0.02, 2.0, simulate.DIRECT_SOLVES_MAX + 1)
        for row, lam in zip(_fits(x, y, long), long):
            assert row.tobytes() == RidgeFactorization(x).solve(y, lam).tobytes()
            np.testing.assert_allclose(row, _fits(x, y, [lam])[0], atol=1e-12)

    def test_short_grid_falls_back_per_penalty(self, monkeypatch):
        # at lam = 0 a zero column makes the Gram matrix exactly singular:
        # that penalty takes the pseudoinverse bits, the others their direct
        # solves, and the factorization is built once
        rng = np.random.default_rng(10)
        x = rng.standard_normal((30, 6))
        x[:, 2] = 0.0
        y = rng.standard_normal(30)
        pinv = RidgeFactorization(x).solve(y, 0.0)
        direct = _fits(x, y, [0.5])[0]
        seen = TestEnsembleFit._count_factorizations(monkeypatch)
        fits = _fits(x, y, (0.0, 0.5, 0.0))
        assert fits[0].tobytes() == fits[2].tobytes() == pinv.tobytes()
        assert fits[1].tobytes() == direct.tobytes()
        assert seen["built"] == 1


class TestEnsembleFit:
    """Subsample-average fits inside mc_experiment."""

    def test_full_subsample_equals_plain_fit(self, monkeypatch):
        # at psi = phi every subsample is the full sample: the group is
        # fitted like plain ridge, one factorization per replicate for a
        # grid too long for direct solves, and the same group index gives
        # the same data stream
        built = []

        class Counting(RidgeFactorization):
            def __init__(self, x):
                built.append(x.shape)
                super().__init__(x)

        m = make_model(Spectrum.identity(40), beta=unit_signal(40), sigma2=0.25)
        grid = list(np.linspace(0.1, 1.0, simulate.DIRECT_SOLVES_MAX + 1))
        plain = mc_experiment(m, SimConfig(p=40, phi=2.0, reps=3, seed=9), grid)
        monkeypatch.setattr(simulate, "RidgeFactorization", Counting)
        cfg = SimConfig(p=40, phi=2.0, reps=3, seed=9, include_plain=False,
                        ensemble=EnsembleConfig(psi=2.0, n_subsamples=7))
        ens = mc_experiment(m, cfg, grid)
        assert len(built) == 3
        assert [c.k for c in ens.cells] == [20] * len(grid)
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

    def test_short_grid_builds_no_factorization(self, monkeypatch):
        # a grid of up to DIRECT_SOLVES_MAX penalties takes direct solves,
        # plain and ensemble cells alike
        seen = self._count_factorizations(monkeypatch)
        m = make_model(Spectrum.identity(40), beta=unit_signal(40), sigma2=0.25)
        grid = list(np.linspace(0.1, 1.0, simulate.DIRECT_SOLVES_MAX))
        cfg = SimConfig(p=40, phi=2.0, reps=2, seed=9,
                        ensemble=EnsembleConfig(psi=4.0, n_subsamples=3))
        result = mc_experiment(m, cfg, grid)
        assert len(result.cells) == 2 * len(grid)
        assert all(math.isfinite(c.empirical_mean) for c in result.cells)
        assert seen["built"] == 0

    def test_ensemble_holds_one_factorization_at_a_time(self, monkeypatch):
        # on a grid too long for direct solves, each subsample's factorization
        # serves every penalty and is released before the next subsample is
        # fitted
        seen = self._count_factorizations(monkeypatch)
        m = make_model(Spectrum.identity(40), beta=unit_signal(40), sigma2=0.25)
        cfg = SimConfig(p=40, phi=2.0, reps=2, seed=9, include_plain=False,
                        ensemble=EnsembleConfig(psi=4.0, n_subsamples=6))
        grid = list(np.linspace(0.2, 1.0, simulate.DIRECT_SOLVES_MAX + 1))
        result = mc_experiment(m, cfg, grid)
        assert [c.k for c in result.cells] == [10] * len(grid)
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

    @pytest.mark.parametrize("psi", [math.nan, 0.0, -2.0])
    def test_invalid_subsample_aspect(self, psi):
        with pytest.raises(InvalidParameterError, match="psi"):
            EnsembleConfig(psi=psi)

    def test_non_integral_subsample_count_rejected(self):
        for count in (2.5, True):
            with pytest.raises(InvalidParameterError, match="n_subsamples must be an integer"):
                EnsembleConfig(psi=4.0, n_subsamples=count)


PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def _ar1_or_identity(p, rho):
    return Spectrum.identity(p) if rho is None else build_ar1(p, rho)[0]


@st.composite
def subsample_cases(draw):
    """(k, p, n, M, AR(1) rho or None for the identity, penalties, seed) with
    k <= p < n <= 3k, M k^2 >= n^2 (the shared dual Gram pays once gathers
    are free), and 1 to DIRECT_SOLVES_MAX penalties lmin + t (|lmin| + 0.1),
    lmin = lambda_min(p / k), t in [0.5, 20]: admissible, negative from
    psi = p / k of about 1.7, and away from the branch edge. At the edge,
    for example lam = 0 at k = p, the condition number of a fit grows like
    k^2 and the two routes agree only to that times eps."""
    k = draw(st.integers(4, 40))
    p = draw(st.integers(k, 3 * k - 1))
    n = draw(st.integers(p + 1, 3 * k))
    least = -(-n * n // (k * k))
    subsamples = draw(st.integers(least, least + 5))
    rho = draw(st.one_of(st.none(), st.floats(0.1, 0.8)))
    lmin = lambda_min(_ar1_or_identity(p, rho), p / k)
    lams = draw(st.lists(st.floats(0.5, 20.0).map(lambda t: lmin + t * (abs(lmin) + 0.1)),
                         min_size=1, max_size=simulate.DIRECT_SOLVES_MAX))
    return k, p, n, subsamples, rho, lams, draw(st.integers(0, 2**31))


def _no_per_subsample_fits():
    return mock.patch.object(simulate, "_fits", side_effect=AssertionError("_fits called"))


def _free_gathers():
    """At p <= _GATHER_MULADDS the shared dual Gram never pays; with free
    gathers it does once M k^2 >= n^2, so that small designs take it."""
    return mock.patch.object(simulate, "_GATHER_MULADDS", 0)


class TestSubsampleDualGram:
    """M subsamples of k <= p rows solve on blocks of one dual Gram per
    replicate when that costs less than their own Grams; each replicate risk
    matches the average of per-subsample fits on the same data stream."""

    @staticmethod
    def _reference_risks(model, config, lams, rep):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(config.seed, 0, rep)))
        x, y = generate_data(model, config.n, rng=rng)
        k = round(model.p / config.ensemble.psi)
        subsets = [rng.choice(config.n, size=k, replace=False)
                   for _ in range(config.ensemble.n_subsamples)]
        fits = sum(_fits(x[sub], y[sub], lams) for sub in subsets) / len(subsets)
        return [empirical_risk(fit, model) for fit in fits]

    @PROPERTY_SETTINGS
    @seed(240401233)
    @given(subsample_cases())
    def test_replicate_risks_match_per_subsample_fits(self, case):
        k, p, n, subsamples, rho, lams, seed = case
        rng = np.random.default_rng(seed)
        beta = rng.standard_normal(p) / math.sqrt(p)
        model = make_model(_ar1_or_identity(p, rho), beta=beta, sigma2=0.25)
        config = SimConfig(p=p, phi=p / n, reps=int(rng.integers(1, 4)), seed=seed,
                           include_plain=False,
                           ensemble=EnsembleConfig(psi=p / k, n_subsamples=subsamples))
        with _free_gathers(), _no_per_subsample_fits():
            cells = mc_experiment(model, config, lams).cells
        assert [c.lam for c in cells] == lams
        for rep in range(config.reps):
            want = self._reference_risks(model, config, lams, rep)
            got = [c.replicate_risks[rep] for c in cells]
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    def test_exactly_singular_block_takes_the_pseudoinverse(self):
        # two equal design rows in both subsamples make their blocks exactly
        # singular at lam = 0: that row sums the pseudoinverse bits, the other
        # penalty takes direct solves
        rng = np.random.default_rng(21)
        n, p, k = 7, 8, 5
        x = rng.standard_normal((n, p))
        x[3] = x[6]
        y = rng.standard_normal(n)
        subsets = [np.array([6, 0, 3, 1, 5]), np.array([2, 3, 4, 6, 0])]
        assert len(subsets) * k * k >= n * n
        for sub in subsets:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve((x @ x.T / k)[np.ix_(sub, sub)], y[sub])
        pinv = [RidgeFactorization(x[sub]).solve(y[sub], 0.0) for sub in subsets]
        direct = sum(_fits(x[sub], y[sub], [0.5])[0] for sub in subsets)
        with _free_gathers(), _no_per_subsample_fits():
            fits = simulate._subsample_fits(x, y, subsets, [0.0, 0.5])
        assert fits[0].tobytes() == (pinv[0] + pinv[1]).tobytes()
        np.testing.assert_allclose(fits[1], direct, rtol=1e-12)

    @pytest.mark.parametrize("psi, subsamples, gather, gram_cap, shared", [
        # p = 40, n = 80, k = 40 / psi
        (1.0, 4, 0, simulate._DUAL_GRAM_MAX_BYTES, True),   # M k^2 = n^2
        (1.0, 3, 0, simulate._DUAL_GRAM_MAX_BYTES, False),  # M k^2 < n^2: the subsample Grams cost less
        (1.0, 4, 0, 8 * 80 * 80 - 1, False),                # the n x n Gram above its cap
        (1.0, 40, simulate._GATHER_MULADDS, simulate._DUAL_GRAM_MAX_BYTES, False),  # p <= the gather cost
        (0.8, 40, 0, simulate._DUAL_GRAM_MAX_BYTES, False),  # k = 50 > p
    ])
    def test_route_follows_gram_cost_and_size(self, psi, subsamples, gather, gram_cap, shared):
        m = make_model(Spectrum.identity(40), beta=unit_signal(40), sigma2=0.25)
        cfg = SimConfig(p=40, phi=0.5, reps=2, seed=7, include_plain=False,
                        ensemble=EnsembleConfig(psi=psi, n_subsamples=subsamples))
        with mock.patch.object(simulate, "_GATHER_MULADDS", gather), \
                mock.patch.object(simulate, "_DUAL_GRAM_MAX_BYTES", gram_cap), \
                mock.patch.object(simulate, "_fits", wraps=simulate._fits) as per_subsample:
            cells = mc_experiment(m, cfg, [0.5]).cells
        assert [c.k for c in cells] == [round(40 / psi)]
        assert per_subsample.call_count == (0 if shared else 2 * subsamples)

    def test_peak_memory_is_the_design_and_both_grams(self):
        # one n x n dual Gram per replicate and one k x k block at a time;
        # eight subsamples are the fewest for which the dual Gram pays
        p, n, k = 400, 800, 400
        m = make_model(Spectrum.identity(p), beta=unit_signal(p), sigma2=0.25)
        cfg = SimConfig(p=p, phi=p / n, reps=1, seed=5, include_plain=False,
                        ensemble=EnsembleConfig(psi=p / k, n_subsamples=8))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            with _no_per_subsample_fits():
                mc_experiment(m, cfg, [0.5])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.08 * (n * p + n * n + k * k) * 8, peak / ((n * p + n * n + k * k) * 8)


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

    @pytest.mark.parametrize("call, match", [
        (partial(empirical_risk, np.zeros(1)), "dimension mismatch"),
        (partial(empirical_risk, 0.0), "dimension mismatch"),
        (partial(empirical_risk, np.zeros(3)), "dimension mismatch"),
        (partial(empirical_risk, np.zeros(4), beta0=np.zeros(2)), "dimension mismatch"),
        # a non-finite fit or target would score as NaN
        (partial(empirical_risk, np.full(4, np.nan)), "^beta_hat contains non-finite"),
        (partial(empirical_risk, np.zeros(4), beta0=np.r_[0.0, np.inf, 0.0, 0.0]),
         "^beta0 contains non-finite"),
        # the signal that draws the responses is checked the same way
        (partial(generate_data, n=5, rng=0, beta=np.zeros(3)), "^beta has 3 values, p is 4"),
        (partial(generate_data, n=5, rng=0, beta=np.full(4, np.inf)), "^beta contains non-finite"),
    ], ids=["one-entry", "scalar", "short", "short-target", "nan-fit", "inf-target",
            "short-signal", "inf-signal"])
    def test_lengths_checked_before_subtracting(self, call, match):
        # broadcasting would score a one-entry fit against every coefficient
        m = make_model(Spectrum.identity(4), beta=unit_signal(4), sigma2=0.1)
        with pytest.raises(InvalidParameterError, match=match):
            call(m)


class TestMcExperiment:
    @staticmethod
    def _model(p=150):
        return make_model(Spectrum.identity(p), beta=unit_signal(p), sigma2=0.25)

    def test_seed_determinism_across_threads(self):
        # plain cells, and subsamples of k = 10 <= p on the shared dual Gram
        m = self._model(40)
        grid = [0.1, 0.5]
        for ensemble in (None, EnsembleConfig(psi=4.0, n_subsamples=6)):
            with _free_gathers():
                r1, r2 = (mc_experiment(m, SimConfig(p=40, phi=2.0, reps=6, seed=11,
                                                     threads=threads, ensemble=ensemble), grid)
                          for threads in (1, 3))
            assert len(r1.cells) == (2 if ensemble is None else 4)
            for a, b in zip(r1.cells, r2.cells):
                assert a.empirical_mean.hex() == b.empirical_mean.hex()
                assert a.empirical_se.hex() == b.empirical_se.hex()
                assert ([r.hex() for r in a.replicate_risks]
                        == [r.hex() for r in b.replicate_risks])

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

    @pytest.mark.parametrize("field, value, match", [
        ("phi", math.nan, "phi"), ("phi", math.inf, "phi"), ("phi", 0.0, "phi"),
        ("seed", -1, "seed"), ("threads", 0, "threads"),
        ("p", 4.5, "p must be an integer"), ("reps", 2.5, "reps must be an integer"),
        ("seed", 1.5, "seed must be an integer"), ("threads", 1.5, "threads must be an integer"),
        ("p", True, "p must be an integer"), ("reps", True, "reps must be an integer"),
        ("seed", False, "seed must be an integer"), ("threads", True, "threads must be an integer"),
        ("phi", 100.0, r"n = round\(p/phi\) must be >= 1"),
    ])
    def test_invalid_config_rejected_at_construction(self, field, value, match):
        # checked before any replicate runs, not at the first random stream
        kwargs = dict(p=40, phi=2.0, reps=1, seed=0, threads=1)
        kwargs[field] = value
        with pytest.raises(InvalidParameterError, match=match):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("grid, ensemble, include_plain, match", [
        ([], None, True, "empty penalty grid"),
        ([0.5], None, False, "needs ensemble cells"),
        # k = round(40 / 1.99) = 20 = n passes the config, but psi < phi
        ([0.5], EnsembleConfig(psi=1.99), True, "below phi"),
    ], ids=["empty-grid", "no-cells", "psi-below-phi"])
    def test_invalid_experiments_rejected(self, grid, ensemble, include_plain, match):
        cfg = SimConfig(p=40, phi=2.0, reps=1, seed=0, ensemble=ensemble,
                        include_plain=include_plain)
        with pytest.raises(InvalidParameterError, match=match):
            mc_experiment(self._model(40), cfg, grid)

    def test_failed_group_reports_nan_and_keeps_no_replicates(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(simulate, "_fits", singular)
        result = mc_experiment(self._model(30), SimConfig(p=30, phi=1.5, reps=3, seed=2),
                               [0.1, 0.4])
        for cell in result.cells:
            assert cell.failed and cell.replicate_risks is None
            assert all(math.isnan(v) for v in (cell.empirical_mean, cell.empirical_se,
                                                cell.rel_error))
            assert math.isfinite(cell.theory_total)

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

    def test_isotropic_signal_resampled(self):
        m = make_model(Spectrum.identity(60), alpha2=1.0, sigma2=0.5)
        result = mc_experiment(m, SimConfig(p=60, phi=0.5, reps=10, seed=9), [0.5])
        assert result.cells[0].rel_error < 0.2

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


class TestFiniteSampleOracles:
    """Exact finite-n risks of the unpenalized fits under Gaussian designs
    (Hastie, Montanari, Rosset & Tibshirani, Ann. Statist. 2022). The
    deterministic equivalents carry an O(1/n) bias at these sizes; the
    exact values do not, so the replicate mean must sit within four
    standard errors of them."""

    REPS = 4000

    def test_least_squares(self):
        # n > p + 1: E[(X'X)^-1] = S^-1 / (n - p - 1)
        p, n = 30, 60
        rng = np.random.default_rng(12)
        sp = Spectrum.from_values(np.geomspace(0.5, 2.0, p))
        s0 = np.linspace(0.5, 1.5, p)
        beta = rng.standard_normal(p) / math.sqrt(p)
        beta0 = beta + 0.3 * rng.standard_normal(p) / math.sqrt(p)
        m = make_model(sp, beta=beta, beta0=beta0, sigma0=s0, sigma2=0.4, sigma0_sq=0.1)
        cell = mc_experiment(m, SimConfig(p=p, phi=p / n, reps=self.REPS, seed=1), [0.0]).cells[0]
        exact = m.kappa2 + m.sigma2 * float(np.sum(s0 / sp.eigenvalues)) / (n - p - 1)
        assert abs(cell.empirical_mean - exact) <= 4.0 * cell.empirical_se

    def test_minimum_norm_interpolator(self):
        # S = S0 = I, p > n + 1: E[P_X] = (n/p) I and E tr[(XX')^-1] = n / (p - n - 1)
        p, n = 60, 30
        rng = np.random.default_rng(13)
        beta = rng.standard_normal(p) / math.sqrt(p)
        beta0 = 0.5 * beta + 0.3 * rng.standard_normal(p) / math.sqrt(p)
        m = make_model(Spectrum.identity(p), beta=beta, beta0=beta0, sigma2=0.4, sigma0_sq=0.1)
        cell = mc_experiment(m, SimConfig(p=p, phi=p / n, reps=self.REPS, seed=1), [0.0]).cells[0]
        g = n / p
        exact = (g * float(beta @ beta) - 2.0 * g * float(beta @ beta0) + float(beta0 @ beta0)
                 + m.sigma2 * n / (p - n - 1) + m.sigma0_sq)
        assert abs(cell.empirical_mean - exact) <= 4.0 * cell.empirical_se


class TestNearSingularWarning:
    def test_warns_inside_spectrum_bulk(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((50, 12))
        y = rng.standard_normal(50)
        s = np.linalg.eigvalsh(x.T @ x / 50)
        lam = -float(s[5]) + 1e-14  # numerically on top of an interior eigenvalue
        with pytest.warns(Warning, match="near-singular"):
            RidgeFactorization(x).solve(y, lam)
