"""Model construction, trace functionals, and the configuration loader."""

import json
import math
import re
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st
from hypothesis.vendor.pretty import pretty

from ridgeshift import (
    InvalidParameterError,
    ShiftModel,
    Spectrum,
    build_ar1,
    build_model,
    lambda_min,
    make_model,
    optimal_lambda,
    predict_sign,
    risk_decomposition,
    tilde_v,
)
from ridgeshift.model import _KEYS, _AR1Eigensystem, _Dense, _Diagonal, _ParityRankOne
from ridgeshift.risk import _blocks, _weights

EPS = np.finfo(float).eps
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def dense_sigma0(m):
    """The test covariance of ``m`` as a dense matrix in the train eigenbasis,
    one product with a unit vector per row."""
    return np.array([m.sigma0.product(e) for e in np.eye(m.p)])


def dense_ar1(p, rho):
    """The AR(1) correlation matrix rho**|i-j|, copied from a strided Toeplitz
    view of its first row (the powers rho**k once each)."""
    powers = rho ** np.arange(p)
    return np.lib.stride_tricks.sliding_window_view(
        np.concatenate([powers[:0:-1], powers]), p)[::-1].copy()


@st.composite
def ar1_cases(draw):
    """(p, rho): p from 2 to 300, rho from 1e-12 to 0.99, drawn both
    uniformly and log-uniformly."""
    p = draw(st.integers(2, 300))
    rho = draw(st.one_of(
        st.floats(1e-12, 0.99),
        st.floats(-12.0, math.log10(0.99)).map(lambda e: 10.0**e),
    ))
    return p, rho


class TestAR1Eigensystem:
    """The Kac-Murdock-Szego closed form against a dense eigendecomposition:
    rho**|i-j| is a dense Toeplitz matrix whose inverse is tridiagonal."""

    @pytest.mark.parametrize("rho", [-0.7, 1e-12, 0.5, 0.99])
    def test_dense_reference_matches_entrywise_powers(self, rho):
        for p in (1, 2, 3, 17):
            idx = np.arange(p)
            entrywise = rho ** np.abs(idx[:, None] - idx[None, :])
            assert dense_ar1(p, rho).tobytes() == entrywise.tobytes()

    def test_two_by_two_closed_form(self):
        # [[1, rho], [rho, 1]] has eigenvalues 1 -+ rho
        spectrum, _ = build_ar1(2, 0.5)
        np.testing.assert_allclose(spectrum.eigenvalues, [0.5, 1.5], atol=1e-12)

    def test_reconstruction(self):
        p, rho = 40, 0.7
        spectrum, w = build_ar1(p, rho)
        idx = np.arange(p)
        target = rho ** np.abs(idx[:, None] - idx[None, :])
        rebuilt = w @ np.diag(spectrum.eigenvalues) @ w.T
        np.testing.assert_allclose(rebuilt, target, atol=1e-8)

    def test_extreme_eigenvalue_sum_at_p500(self):
        spectrum, _ = build_ar1(500, 0.5)
        assert abs(spectrum.r_min + spectrum.r_max - 3.33) < 0.01

    def test_vanishing_correlation_limit(self):
        spectrum, _ = build_ar1(3, 1e-12)
        np.testing.assert_allclose(spectrum.eigenvalues, 1.0, atol=1e-10)

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_rho(self, rho):
        with pytest.raises(InvalidParameterError):
            build_ar1(4, rho)

    @PROPERTY_SETTINGS
    @seed(240401233)
    @given(ar1_cases())
    def test_eigenvalues_match_dense(self, case):
        p, rho = case
        spectrum, _ = build_ar1(p, rho)
        ref = np.linalg.eigvalsh(dense_ar1(p, rho))
        np.testing.assert_allclose(spectrum.eigenvalues, ref, rtol=0.0,
                                   atol=8 * p * EPS * ref[-1])

    @PROPERTY_SETTINGS
    @seed(240401233)
    @given(ar1_cases())
    def test_eigenvectors_orthonormal_and_signed(self, case):
        p, rho = case
        spectrum, w = build_ar1(p, rho)
        tol = 8 * p * EPS
        assert np.max(np.abs(w.T @ w - np.eye(p))) <= tol
        residual = dense_ar1(p, rho) @ w - w * spectrum.eigenvalues
        assert np.max(np.abs(residual)) <= tol * spectrum.r_max
        # the sign convention: every eigenvector starts positive, and each is
        # symmetric or skew-symmetric, alternating along the ascending order
        assert np.all(w[0] > 0.0)
        parity = np.where(np.arange(p, 0, -1) % 2 == 1, 1.0, -1.0)
        np.testing.assert_array_equal(w[::-1], w * parity)

    @PROPERTY_SETTINGS
    @seed(240401233)
    @given(ar1_cases(), st.one_of(st.sampled_from([0.0, -0.5, 0.5]), st.floats(-0.99, 0.99)))
    def test_rotated_test_covariance_matches_dense(self, case, rho0):
        p, rho = case
        cfg = {
            "p": p,
            "spectrum": {"kind": "ar1", "rho": rho},
            "signal": {"kind": "eigvec-combination", "indices": [1], "weights": [1.0]},
            "shift": {"kind": "covariate", "sigma0": {"kind": "ar1", "rho": rho0}},
        }
        _, w = build_ar1(p, rho)
        dense = w.T @ dense_ar1(p, rho0) @ w
        scale = np.max(np.abs(dense))
        tol = 8 * EPS * (p + 1.0 / (1.0 - abs(rho0))) * scale
        np.testing.assert_allclose(dense_sigma0(build_model(cfg)), dense, rtol=0.0, atol=tol)

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_eigenvalues_against_40_digit_reference(self, rho):
        # each root of the secular equation sin((p+1) t) - 2 rho sin(p t)
        # + rho^2 sin((p-1) t) = 0, refined at 40 digits from the computed one
        p = 500
        spectrum, _ = build_ar1(p, rho)
        with mpmath.workdps(40):
            r = mpmath.mpf(rho)

            def secular(t):
                sin = mpmath.sin
                return sin((p + 1) * t) - 2 * r * sin(p * t) + r * r * sin((p - 1) * t)

            for lam in spectrum.eigenvalues:
                # invert lam = (1 - rho^2) / (1 - 2 rho cos t + rho^2) for the start
                start = math.acos((1.0 + rho * rho - (1.0 - rho * rho) / lam) / (2.0 * rho))
                t = mpmath.findroot(secular, mpmath.mpf(start))
                exact = (1 - r * r) / (1 - 2 * r * mpmath.cos(t) + r * r)
                ulps = abs(mpmath.mpf(float(lam)) - exact) / np.spacing(float(exact))
                assert ulps <= 4.0, (lam, float(exact))


def ar1_pair_config(p, rho, rho0, shift="joint", signal=None):
    """An AR(1) train covariance with an AR(1) test covariance."""
    return {
        "p": p,
        "spectrum": {"kind": "ar1", "rho": rho},
        "signal": signal or {"kind": "eigvec-combination", "indices": [1, p], "weights": [0.5, 0.5]},
        "shift": {"kind": shift, "sigma0": {"kind": "ar1", "rho": rho0},
                  "beta0": {"kind": "scale", "factor": 2.0}},
        "sigma2": 0.01,
    }


class TestStructuredTestCovariance:
    """An AR(1) test covariance in an AR(1) train eigenbasis is stored as a
    diagonal plus one rank-one term per parity class; every functional that
    reads it must agree with a dense model built from W' K W."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @seed(240401233)
    @example(2000, 0.5, -0.3, "joint", 2.0)
    @example(2000, 0.9, "rho", "covariate", 2.0)
    @given(
        # log-uniform, so that few of the dense references cost O(p^3) at p near 2000
        st.floats(math.log(2.0), math.log(2000.0)).map(lambda e: round(math.exp(e))),
        st.floats(1e-12, 0.99),
        st.one_of(st.sampled_from(["zero", "rho"]), st.floats(-0.99, 0.99)),
        st.sampled_from(["covariate", "joint"]),
        st.sampled_from([0.5, 2.0]),
    )
    def test_functionals_match_the_dense_model(self, p, rho, rho0, shift, phi):
        rho0 = {"zero": 0.0, "rho": rho}.get(rho0, rho0)
        rng = np.random.default_rng(p)
        values = rng.standard_normal(p)
        cfg = ar1_pair_config(p, rho, rho0, shift, {"kind": "explicit", "values": list(values)})
        m = build_model(cfg)
        assert isinstance(m.sigma0, _ParityRankOne)
        spectrum, w = build_ar1(p, rho)
        s0 = w.T @ dense_ar1(p, rho0) @ w
        ref = make_model(spectrum, beta=m.beta, beta0=m.beta0, sigma0=s0, sigma2=m.sigma2)
        assert isinstance(ref.sigma0, _Dense)
        # the entrywise tolerance of test_rotated_test_covariance_matches_dense;
        # a bilinear form x' S0 y moves by at most that times |x|_1 |y|_1
        tol = 8 * EPS * (p + 1.0 / (1.0 - abs(rho0))) * np.max(np.abs(s0))

        def close(got, want, scale):
            err = np.abs(np.subtract(got, want))
            assert np.all(err <= tol * np.asarray(scale)), (got, want)

        def l1(x):
            return float(np.abs(x).sum())

        r, b, d = spectrum.eigenvalues, m.beta, m.beta0 - m.beta
        x = rng.standard_normal(p)
        close(m.sigma0.product(x), ref.sigma0.product(x), l1(x))
        close(m.sigma0.diagonal, ref.sigma0.diagonal, 1.0)
        close(m.kappa2, ref.kappa2, l1(d) ** 2)
        close(m.null_parts(), ref.null_parts(), [l1(b) ** 2, 2.0 * l1(b) * l1(d)])
        # max |S0 - diag(t)|; at t = diag(S0) only the entries off the diagonal count
        for t in (r, 1.0, m.sigma0.diagonal):
            close(m._sigma0_offset(t), ref._sigma0_offset(t), 1.0)
        assert m.has_covariate_shift == ref.has_covariate_shift == (rho0 != rho)

        mus = np.array([-0.5 * r[0], 0.0, 0.7, 5.0])
        got, want = _blocks(_weights(m), mus), _blocks(_weights(ref), mus)
        inv = 1.0 / (r + mus[:, None])
        bi, bi2 = np.abs(b) * inv, np.abs(b) * inv**2
        ad = l1(d)
        scales = {  # each S0-dependent row: x' S0 y, or a trace against its diagonal
            "c1": bi.sum(axis=1) * ad,
            "n2": (r * inv**2).sum(axis=1) / p,
            "q2": bi.sum(axis=1) ** 2,
            "c2": (bi2 * r).sum(axis=1) * ad,
            "n3": (r * inv**3).sum(axis=1) / p,
            "q3": bi2.sum(axis=1) * bi.sum(axis=1),
        }
        for name in got._fields[1:]:
            if name in scales:
                close(getattr(got, name), getattr(want, name), scales[name])
            else:
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        got, want = predict_sign(m, phi), predict_sign(ref, phi)
        assert (got.predicted_sign, got.applied_rule) == (want.predicted_sign, want.applied_rule)

    @PROPERTY_SETTINGS
    @seed(240401233)
    @given(ar1_cases(), st.floats(-0.99, 0.99))
    def test_dense_offset_is_the_entrywise_maximum(self, case, rho0):
        # the dense references above, W' K W; a scalar t and vectors t
        p, rho = case
        spectrum, w = build_ar1(p, rho)
        ref = make_model(spectrum, beta=np.ones(p), sigma0=w.T @ dense_ar1(p, rho0) @ w)
        assert isinstance(ref.sigma0, _Dense)
        for t in (1.0, -0.5, spectrum.eigenvalues, ref.sigma0.diagonal):
            entrywise = float(np.max(np.abs(ref.sigma0.matrix - np.eye(p) * t)))
            assert ref._sigma0_offset(t).hex() == entrywise.hex()

    def test_ar1_joint_build_needs_no_dense_matrix(self, monkeypatch):
        # the p = 500 joint-shift config of the benchmark's cli-batch deck
        def boom(*args, **kwargs):
            raise AssertionError("dense work in an O(p) build")

        monkeypatch.setattr(np.linalg, "eigvalsh", boom)
        monkeypatch.setattr(_AR1Eigensystem, "eigenvectors", property(boom))
        m = build_model(dict(ar1_pair_config(500, 0.5, 0.3), sigma0_sq=0.0))
        assert isinstance(m.sigma0, _ParityRankOne)
        assert m.has_covariate_shift and m.has_regression_shift

    def test_large_pair_builds_and_optimizes_in_linear_memory(self):
        # a dense 20,000 x 20,000 test covariance alone would take 3.2 GB
        p = 20_000
        tracemalloc.start()
        try:
            m = build_model(ar1_pair_config(p, 0.5, -0.3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        opt = optimal_lambda(m, 2.0)
        assert opt.boundary_flag == "interior" and lambda_min(m.spectrum, 2.0) < opt.lambda_star
        assert math.isfinite(opt.risk_star) and opt.risk_star < m.null_risk()


class TestSpectrum:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            Spectrum(np.array([0.0, 1.0]))

    def test_rejects_descending(self):
        with pytest.raises(InvalidParameterError):
            Spectrum(np.array([2.0, 1.0]))

    def test_from_values_sorts(self):
        sp = Spectrum.from_values([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(sp.eigenvalues, [1.0, 2.0, 3.0])
        assert sp.r_min == 1.0 and sp.r_max == 3.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="eigenvalues contains non-finite"):
            Spectrum.from_values([1.0, bad])


class TestAvgTraceResolvent:
    def test_sandwich_scalar(self):
        beta = np.zeros(5)
        beta[2] = 1.0
        m = make_model(Spectrum.identity(5), beta=beta, sigma2=0.0)
        assert _blocks(_weights(m), [1.0]).q2[0] == pytest.approx(0.25, abs=1e-14)

    def test_diagonal_matches_dense(self):
        rng = np.random.default_rng(3)
        sp = Spectrum.from_values(np.exp(rng.uniform(-1, 1, 30)))
        a = rng.standard_normal((30, 30))
        s0 = a @ a.T / 30
        m = make_model(sp, beta=rng.standard_normal(30), sigma0=s0, sigma2=0.1)
        mus = (0.0, 0.5, 3.0)
        fast = _blocks(_weights(m), mus).n2
        r = sp.eigenvalues
        for mu, got in zip(mus, fast):
            dense = np.trace(s0 @ np.diag(r) @ np.diag(1.0 / (r + mu) ** 2)) / 30
            assert got == pytest.approx(dense, rel=1e-10)

    def test_strictly_decreasing_in_mu(self):
        rng = np.random.default_rng(4)
        sp = Spectrum.from_values(np.exp(rng.uniform(-1, 1, 20)))
        m = make_model(sp, beta=rng.standard_normal(20), sigma2=0.0)
        mus = np.linspace(-0.5 * sp.r_min, 50.0, 40)
        assert np.all(np.diff(_blocks(_weights(m), mus).n2) < 0)  # tr[S0 S R^2] / p


class TestDiagonalTestCovariance:
    def test_stored_as_its_diagonal(self):
        sp = Spectrum.from_values([0.5, 1.0, 2.0])
        for s0 in (None, [1.0, 2.0, 3.0], np.diag([1.0, 2.0, 3.0])):
            m = make_model(sp, beta=np.ones(3), sigma0=s0)
            assert isinstance(m.sigma0, _Diagonal)
            np.testing.assert_array_equal(dense_sigma0(m), np.diag(m.sigma0.diagonal))
        dense = make_model(sp, beta=np.ones(3), sigma0=np.full((3, 3), 0.5) + np.eye(3))
        assert isinstance(dense.sigma0, _Dense)

    def test_functionals_match_the_dense_matrix(self):
        rng = np.random.default_rng(5)
        sp = Spectrum.from_values(np.exp(rng.uniform(-1, 1, 9)))
        beta = rng.standard_normal(9)
        m = make_model(sp, beta=beta, beta0=2.0 * beta, sigma0=rng.uniform(0.5, 2.0, 9))
        x = rng.standard_normal(9)
        np.testing.assert_array_equal(m.sigma0.product(x), x @ dense_sigma0(m))
        assert m.null_risk() == float(m.beta0 @ dense_sigma0(m) @ m.beta0)
        wb = beta / (sp.eigenvalues + 0.3)
        assert _blocks(_weights(m), [0.3]).q2[0] == pytest.approx(
            float(wb @ dense_sigma0(m) @ wb), rel=1e-15)
        assert m.has_covariate_shift

    def test_negative_diagonal_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_model(Spectrum.identity(3), beta=np.ones(3), sigma0=[1.0, -0.5, 1.0])


class TestRotationInvariance:
    def test_functionals_agree_across_factorizations(self):
        # eigenvector sign flips give a second valid orthogonal factorization
        rng = np.random.default_rng(11)
        p = 12
        spectrum, w1 = build_ar1(p, 0.6)
        w2 = w1 * np.where(np.arange(p) % 2 == 0, 1.0, -1.0)[None, :]
        s0_std = rng.standard_normal((p, p))
        s0_std = s0_std @ s0_std.T / p + 0.1 * np.eye(p)
        beta_std = rng.standard_normal(p)

        vals = []
        for w in (w1, w2):
            m = make_model(
                spectrum,
                beta=w.T @ beta_std,
                sigma0=w.T @ s0_std @ w,
                sigma2=0.3,
            )
            bl = _blocks(_weights(m), [0.7])
            vals.append((bl.n2[0], bl.b2[0], bl.q2[0]))
        np.testing.assert_allclose(vals[0], vals[1], rtol=1e-8)


class TestShiftModelValidation:
    def test_non_psd_sigma0_rejected(self):
        sp = Spectrum.identity(3)
        # held as its diagonal, and dense
        for bad in (np.diag([1.0, 1.0, -0.01]), [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]):
            with pytest.raises(InvalidParameterError, match="not PSD"):
                make_model(sp, beta=np.ones(3), sigma0=bad, sigma2=0.0)

    def test_explicit_signal_requires_beta(self):
        sp = Spectrum.identity(3)
        with pytest.raises(InvalidParameterError, match="explicit signal requires beta"):
            ShiftModel(spectrum=sp, sigma0=sp.eigenvalues, beta=None, beta0=None,
                       sigma2=0.1, sigma0_sq=0.0)

    def test_noiseless_snr_is_infinite(self):
        assert make_model(Spectrum.identity(3), beta=np.ones(3)).snr == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            make_model(Spectrum.identity(3), beta=np.ones(4), sigma2=0.0)

    def test_sigma0_diag_is_exact_diagonal(self):
        rng = np.random.default_rng(0)
        s0 = rng.standard_normal((6, 6))
        s0 = s0 @ s0.T / 6 + 0.2 * np.eye(6)
        m = make_model(Spectrum.identity(6), beta=np.ones(6), sigma0=s0, sigma2=0.0)
        np.testing.assert_array_equal(m.sigma0.diagonal, np.diag(dense_sigma0(m)))

    def test_isotropic_excludes_explicit_beta(self):
        with pytest.raises(InvalidParameterError):
            make_model(Spectrum.identity(3), beta=np.ones(3), alpha2=1.0, sigma2=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_diagonal_sigma0_rejected(self, bad):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            make_model(Spectrum.identity(4), beta=np.ones(4), sigma0=[bad, 1.0, 1.0, 1.0])

    # a full matrix would reach eigvalsh; a diagonal one is stored as its diagonal
    @pytest.mark.parametrize("base, at", [(np.eye(4) + 0.1, (0, 1)), (np.eye(4), (0, 0))],
                             ids=["full", "identity"])
    def test_dense_sigma0_holding_nan_rejected(self, base, at):
        s0 = base.copy()
        s0[at] = s0[at[::-1]] = math.nan
        with pytest.raises(InvalidParameterError, match="non-finite"):
            make_model(Spectrum.identity(4), beta=np.ones(4), sigma0=s0)

    @pytest.mark.parametrize("key", ["sigma2", "sigma0_sq"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_noise_levels_must_be_finite_and_nonnegative(self, key, bad):
        with pytest.raises(InvalidParameterError, match="noise levels"):
            make_model(Spectrum.identity(4), beta=np.ones(4), **{key: bad})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_signal_energy_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(InvalidParameterError, match="signal_alpha2"):
            make_model(Spectrum.identity(4), alpha2=bad, sigma2=0.5)

    @pytest.mark.parametrize("build, name", [
        pytest.param(partial(Spectrum.from_values, ["a", "b"]), "eigenvalues", id="spectrum"),
        *(pytest.param(partial(make_model, Spectrum.identity(3), **{"beta": np.ones(3), key: bad}),
                       key, id=f"{key}-{kind}")
          for key in ("sigma0", "beta", "beta0")
          for kind, bad in (("string", "abc"), ("ragged", [[1.0, 2.0], [3.0]]),
                            ("complex", [1j, 1.0, 1.0]), ("complex-array", np.array([1j, 1.0, 1.0])),
                            ("object", object()), ("numeric-strings", ["1", "2", "3"]),
                            ("bytes", [b"1", b"2", b"3"]), ("bools", [True, False, True]))),
        *(pytest.param(partial(make_model, Spectrum.identity(3), **{key: "x"}), key, id=key)
          for key in ("alpha2", "sigma2", "sigma0_sq")),
        # a string that spells a number, or a bool, is not a number either
        pytest.param(partial(Spectrum.from_values, ["1", "2"]), "eigenvalues",
                     id="spectrum-numeric-strings"),
        *(pytest.param(partial(make_model, Spectrum.identity(3), **{key: bad}), key,
                       id=f"{key}-{kind}")
          for key in ("alpha2", "sigma2", "sigma0_sq")
          for kind, bad in (("numeric-string", "0.5"), ("bool", True))),
        # the same, given to the model type itself
        *(pytest.param(partial(ShiftModel, Spectrum.identity(3), np.ones(3), None, None,
                               **{"sigma2": 0.5, "sigma0_sq": 0.0, key: bad}),
                       name, id=f"model-{key}-{kind}")
          for key, name in (("sigma2", "sigma2"), ("sigma0_sq", "sigma0_sq"),
                            ("signal_alpha2", "alpha2"))
          for kind, bad in (("numeric-string", "0.5"), ("bool", True))),
        pytest.param(partial(tilde_v, make_model(Spectrum.identity(3), beta=np.ones(3)),
                             1.0, 2.0, math.nan), "subsample aspect", id="tilde-v-nan-psi"),
        # well-typed, but of no admissible size or symmetry
        pytest.param(partial(Spectrum.from_values, []), "eigenvalues", id="spectrum-empty"),
        pytest.param(partial(Spectrum.identity, 0), "p", id="identity-p0"),
        pytest.param(partial(build_ar1, 1, 0.5), "p", id="ar1-p1"),
        # a count is an integer, not a float of integral value or a bool
        pytest.param(partial(Spectrum.identity, 2.5), "p", id="identity-p-float"),
        pytest.param(partial(Spectrum.identity, True), "p", id="identity-p-bool"),
        pytest.param(partial(Spectrum.identity, np.float64(3.0)), "p", id="identity-p-np-float"),
        pytest.param(partial(build_ar1, 2.5, 0.5), "p", id="ar1-p-float"),
        pytest.param(partial(make_model, Spectrum.identity(3), beta=np.ones(3),
                             sigma0=[[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                     "sigma0", id="sigma0-non-symmetric"),
        pytest.param(partial(make_model, Spectrum.identity(3), beta=np.ones(3), sigma0=np.eye(2)),
                     "sigma0", id="sigma0-wrong-shape"),
    ])
    def test_malformed_inputs_raise_typed_errors_naming_them(self, build, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match=f"^{name} must be"):
                build()

    @pytest.mark.parametrize("form", [_Diagonal, _ParityRankOne, _Dense])
    def test_every_form_pretty_prints(self, form):
        # hypothesis prints the models held by a falsifying example this way
        sp = Spectrum.identity(6)
        model = {
            _Diagonal: lambda: make_model(sp, beta=np.ones(6), sigma2=0.1),
            _ParityRankOne: lambda: build_model(ar1_pair_config(6, 0.5, 0.3)),
            _Dense: lambda: make_model(sp, beta=np.ones(6), sigma0=np.full((6, 6), 0.1) + np.eye(6)),
        }[form]()
        assert isinstance(model.sigma0, form)
        text = " ".join(pretty(model).split())  # as one line, however it was wrapped
        assert text.startswith("ShiftModel(")
        shown = " ".join(repr(model.sigma0.diagonal).split())
        assert f"sigma0={form.__name__}(diagonal={shown})" in text


class TestBuildModel:
    def test_no_shift_identity(self):
        cfg = {
            "p": 4,
            "spectrum": {"kind": "identity"},
            "signal": {"kind": "explicit", "values": [1.0, 0.0, 0.0, 0.0]},
            "shift": {"kind": "none"},
            "sigma2": 0.5,
        }
        m = build_model(cfg)
        np.testing.assert_array_equal(dense_sigma0(m), np.eye(4))
        np.testing.assert_array_equal(m.beta0, m.beta)
        assert not m.has_covariate_shift and not m.has_regression_shift

    def test_regression_shift_doubling(self):
        cfg = {
            "p": 6,
            "spectrum": {"kind": "ar1", "rho": 0.5},
            "signal": {"kind": "eigvec-combination", "indices": [1, 6], "weights": [0.5, 0.5]},
            "shift": {"kind": "regression", "beta0": {"kind": "scale", "factor": 2.0}},
            "sigma2": 0.01,
        }
        m = build_model(cfg)
        np.testing.assert_allclose(m.beta0 - m.beta, m.beta, atol=1e-14)
        assert m.has_regression_shift and not m.has_covariate_shift

    def test_identity_sigma0_rotates_to_identity(self):
        cfg = {
            "p": 2,
            "spectrum": {"kind": "ar1", "rho": 0.5},
            "signal": {"kind": "eigvec-combination", "indices": [1], "weights": [1.0]},
            "shift": {"kind": "covariate", "sigma0": {"kind": "identity"}},
            "sigma2": 0.0,
        }
        m = build_model(cfg)
        np.testing.assert_allclose(dense_sigma0(m), np.eye(2), atol=1e-12)

    def test_eigvec_combination_in_eigenbasis(self):
        cfg = {
            "p": 5,
            "spectrum": {"kind": "ar1", "rho": 0.3},
            "signal": {"kind": "eigvec-combination", "indices": [1, 5], "weights": [0.5, 0.5]},
            "shift": {"kind": "none"},
            "sigma2": 0.0,
        }
        m = build_model(cfg)
        expected = np.zeros(5)
        expected[0] = expected[-1] = 0.5
        np.testing.assert_array_equal(m.beta, expected)

    def test_test_covariance_eigenbasis_signal(self):
        # isotropic train covariance, banded test covariance, signal split
        # between the extreme test-covariance eigendirections
        cfg = {
            "p": 8,
            "spectrum": {"kind": "identity"},
            "signal": {
                "kind": "eigvec-combination",
                "indices": [1, 8],
                "weights": [0.5, 0.5],
                "basis": "sigma0",
            },
            "shift": {"kind": "covariate", "sigma0": {"kind": "ar1", "rho": 0.5}},
            "sigma2": 0.01,
        }
        m = build_model(cfg)
        assert m.spectrum.is_identity
        ref, _ = build_ar1(8, 0.5)
        np.testing.assert_allclose(np.diag(dense_sigma0(m)), ref.eigenvalues, atol=1e-12)
        assert m.beta[0] == 0.5 and m.beta[-1] == 0.5

    def test_dimension_mismatch_is_invalid_config(self):
        cfg = {
            "p": 4,
            "spectrum": {"kind": "identity"},
            "signal": {"kind": "explicit", "values": [1.0, 2.0]},
            "shift": {"kind": "none"},
            "sigma2": 0.0,
        }
        with pytest.raises(InvalidParameterError):
            build_model(cfg)

    @pytest.mark.parametrize(
        "patch",
        [
            {"spectrum": {"kind": "mystery"}},
            {"spectrum": {"kind": "ar1"}},  # missing rho
            {"spectrum": {"kind": "ar1", "rho": 1.0}},
            {"shift": {"kind": "regression"}},  # missing beta0 spec
            {"shift": {"kind": "covariate"}},  # missing sigma0 spec
            {"signal": {"kind": "isotropic"}},  # missing alpha2 caught at build
            {"p": 1},
            {"shift": {"kind": "covariate", "sigma0": {"kind": "ar1"}}},  # missing rho
            {"shift": {"kind": "covariate", "sigma0": {"kind": "ar1", "rho": 1.0}}},
        ],
    )
    def test_invalid_configs_rejected(self, patch):
        base = {
            "p": 4,
            "spectrum": {"kind": "identity"},
            "signal": {"kind": "explicit", "values": [1.0, 0.0, 0.0, 0.0]},
            "shift": {"kind": "none"},
            "sigma2": 0.1,
        }
        base.update(patch)
        with pytest.raises(InvalidParameterError):
            build_model(base)

    def test_explicit_vectors_rotate_into_the_eigenbasis(self):
        rng = np.random.default_rng(2)
        values, shifted = rng.standard_normal(7), rng.standard_normal(7)
        cfg = {
            "p": 7,
            "spectrum": {"kind": "ar1", "rho": 0.4},
            "signal": {"kind": "explicit", "values": list(values)},
            "shift": {"kind": "regression", "beta0": {"kind": "explicit", "values": list(shifted)}},
        }
        m = build_model(cfg)
        _, w = build_ar1(7, 0.4)
        np.testing.assert_array_equal(m.beta, w.T @ values)
        np.testing.assert_array_equal(m.beta0, w.T @ shifted)

    def test_large_ar1_model_is_built_without_a_dense_matrix(self):
        # one 4000 x 4000 float64 array alone would take 128 MB
        p = 4000
        cfg = {
            "p": p,
            "spectrum": {"kind": "ar1", "rho": 0.5},
            "signal": {"kind": "eigvec-combination", "indices": [1, p], "weights": [0.5, 0.5]},
            "shift": {"kind": "none"},
            "sigma2": 0.01,
        }
        tracemalloc.start()
        try:
            model = build_model(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        # the extreme eigenvalues approach (1 - rho) / (1 + rho) and its inverse
        assert model.spectrum.r_min + model.spectrum.r_max == pytest.approx(10.0 / 3.0, abs=1e-4)
        assert -model.spectrum.r_min < lambda_min(model.spectrum, 2.0) < 0.0

    def test_sigma0_basis_requires_identity_train_cov(self):
        cfg = {
            "p": 4,
            "spectrum": {"kind": "ar1", "rho": 0.5},
            "signal": {"kind": "eigvec-combination", "indices": [1], "weights": [1.0],
                       "basis": "sigma0"},
            "shift": {"kind": "covariate", "sigma0": {"kind": "ar1", "rho": 0.5}},
            "sigma2": 0.1,
        }
        with pytest.raises(InvalidParameterError):
            build_model(cfg)

    @pytest.mark.parametrize("kind", ["none", "regression"])
    def test_sigma0_basis_needs_a_test_covariance_shift(self, kind):
        # without a covariate shift the test covariance is the train one, so
        # the ar1 sigma0 that would define the basis describes nothing
        cfg = {
            "p": 6,
            "spectrum": {"kind": "identity"},
            "signal": {"kind": "eigvec-combination", "indices": [1], "weights": [1.0],
                       "basis": "sigma0"},
            "shift": {"kind": kind, "sigma0": {"kind": "ar1", "rho": 0.5},
                      "beta0": {"kind": "scale", "factor": 2.0}},
            "sigma2": 0.1,
        }
        with pytest.raises(InvalidParameterError, match="covariate or joint shift"):
            build_model(cfg)

    def test_integral_float_dimension_is_accepted(self):
        # JSON does not tell 5 from 5.0; only a fractional value is an error
        cfg = {"p": 5.0, "signal": {"kind": "eigvec-combination", "indices": [2.0],
                                    "weights": [1.0]}}
        m = build_model(cfg)
        assert m.p == 5 and m.beta[1] == 1.0

    def test_explicit_files(self, tmp_path):
        spec_path = tmp_path / "spectrum.csv"
        spec_path.write_text("0.5\n1.0\n2.0\n")
        sig_path = tmp_path / "signal.csv"
        sig_path.write_text("1.0\n0.0\n0.0\n")
        cfg = {
            "p": 3,
            "spectrum": {"kind": "file", "path": str(spec_path)},
            "signal": {"kind": "explicit", "path": str(sig_path)},
            "shift": {"kind": "none"},
            "sigma2": 0.1,
        }
        m = build_model(cfg)
        np.testing.assert_array_equal(m.spectrum.eigenvalues, [0.5, 1.0, 2.0])
        np.testing.assert_array_equal(m.beta, [1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "patch, key",
        [
            ({"sigma_2": 0.5}, "sigma_2"),
            ({"spectrum": {"kind": "ar1", "rho": 0.5, "values": [1.0], "p": 4}}, "p"),
            ({"signal": {"kind": "isotropic", "alpha2": 1.0, "weight": [1.0]}}, "weight"),
            ({"shift": {"kind": "none", "beta_0": {"factor": 2.0}}}, "beta_0"),
            ({"shift": {"kind": "covariate", "sigma0": {"kind": "identity", "rho0": 0.1}}}, "rho0"),
            ({"shift": {"kind": "regression", "beta0": {"scale": 2.0}}}, "scale"),
        ],
    )
    def test_unknown_keys_rejected(self, patch, key):
        cfg = {"p": 4, "signal": {"kind": "explicit", "values": [1.0, 0.0, 0.0, 0.0]}}
        cfg.update(patch)
        with pytest.raises(InvalidParameterError, match=f"unknown key.*'{key}'"):
            build_model(cfg)

    @pytest.mark.parametrize("patch, match", [
        ({"signal": {"kind": "eigvec-combination", "indices": [1, 2], "weights": [1.0]}},
         "matching lists"),
        ({"signal": {"kind": "eigvec-combination", "indices": [1], "weights": [1.0],
                     "basis": "test"}}, "must be 'sigma' or 'sigma0'"),
        ({"signal": {"kind": "explicit", "values": [1.0, 0.0, 0.0, 0.0], "basis": "sigma0"},
          "shift": {"kind": "covariate", "sigma0": {"kind": "ar1", "rho": 0.5}}},
         "needs an eigvec-combination signal"),
        ({"signal": {"kind": "eigvec-combination", "indices": [1], "weights": [1.0],
                     "basis": "sigma0"},
          "shift": {"kind": "joint", "sigma0": {"kind": "ar1", "rho": 0.5},
                    "beta0": {"kind": "explicit", "values": [1.0, 0.0, 0.0, 0.0]}}},
         "only scaled beta0"),
        ({"signal": {"kind": "isotropic", "alpha2": 1.0},
          "shift": {"kind": "regression", "beta0": {"kind": "scale", "factor": 2.0}}},
         "needs an explicit signal"),
    ], ids=["unequal-combination-lists", "unknown-basis", "sigma0-basis-explicit-signal",
            "sigma0-basis-explicit-beta0", "regression-shift-isotropic-signal"])
    def test_inconsistent_sections_name_the_rule(self, patch, match):
        cfg = dict({"p": 4, "spectrum": {"kind": "identity"}, "sigma2": 0.1}, **patch)
        with pytest.raises(InvalidParameterError, match=match):
            build_model(cfg)

    def test_eigenvector_indices_must_be_integers(self):
        cfg = {"p": 4, "signal": {"kind": "eigvec-combination", "indices": [2.0], "weights": [1.0]}}
        np.testing.assert_array_equal(build_model(cfg).beta, [0.0, 1.0, 0.0, 0.0])
        cfg["signal"]["indices"] = [1.7]
        with pytest.raises(InvalidParameterError, match="index 1.7"):
            build_model(cfg)

    @pytest.mark.parametrize(
        "doc, key",
        [
            # the CLI tests (TestErrors) cover a malformed p, sigma2 and section
            ({"p": 4, "shift": {"kind": "regression", "beta0": {"factor": [2.0]}}}, "'factor'"),
            ({"p": 4, "spectrum": {"kind": "explicit", "values": ["a", 1, 2, 3]}}, "spectrum values"),
            ({"p": 4, "spectrum": {"kind": "explicit"}}, "spectrum needs"),
            ({"p": 4, "sigma2": 10**400}, "'sigma2'"),  # beyond the float range
        ],
    )
    def test_malformed_documents_name_their_key(self, doc, key):
        doc = dict(doc, signal={"kind": "explicit", "values": [1.0, 0.0, 0.0, 0.0]})
        with pytest.raises(InvalidParameterError, match=key):
            build_model(doc)

    def test_unreadable_file_is_invalid_config(self, tmp_path):
        path = tmp_path / "spectrum.txt"
        path.write_text("0.5\nabc\n")
        cfg = {"p": 2, "spectrum": {"kind": "file", "path": str(path)},
               "signal": {"kind": "isotropic", "alpha2": 1.0}}
        with pytest.raises(InvalidParameterError, match="spectrum file"):
            build_model(cfg)

    @pytest.mark.parametrize("spectrum", [
        {"kind": "identity"}, {"kind": "explicit", "values": [0.5, 1.0, 2.0, 3.0, 4.0]}])
    def test_ar1_test_covariance_in_the_standard_basis(self, spectrum):
        cfg = {
            "p": 5,
            "spectrum": spectrum,
            "signal": {"kind": "explicit", "values": [1.0, 0.0, 0.0, 0.0, 0.0]},
            "shift": {"kind": "covariate", "sigma0": {"kind": "ar1", "rho": -0.4}},
        }
        idx = np.arange(5)
        expected = (-0.4) ** np.abs(idx[:, None] - idx[None, :])
        np.testing.assert_array_equal(dense_sigma0(build_model(cfg)), expected)

    def test_diagonal_test_covariance_from_values(self):
        cfg = {
            "p": 3,
            "spectrum": {"kind": "identity"},
            "signal": {"kind": "explicit", "values": [1.0, 0.0, 0.0]},
            "shift": {"kind": "covariate", "sigma0": {"kind": "diagonal",
                                                      "values": [0.5, 1.0, 2.0]}},
        }
        m = build_model(cfg)
        np.testing.assert_array_equal(m.sigma0.diagonal, [0.5, 1.0, 2.0])
        assert isinstance(m.sigma0, _Diagonal) and m.has_covariate_shift


class TestListedSpectrumOrder:
    """An ``explicit`` or ``file`` spectrum may be listed in any order: the
    standard-basis inputs (explicit signal and beta0, an ``ar1`` sigma0)
    follow the listing, and the model holds them in the ascending
    eigenbasis."""

    def test_signal_follows_the_listed_eigenvalues(self):
        listed = {"p": 2, "spectrum": {"kind": "explicit", "values": [2, 1]},
                  "signal": {"kind": "explicit", "values": [1, 0]}, "sigma2": 0.1}
        ascending = {"p": 2, "spectrum": {"kind": "explicit", "values": [1, 2]},
                     "signal": {"kind": "explicit", "values": [0, 1]}, "sigma2": 0.1}
        totals = [risk_decomposition(build_model(doc), 0.1, 0.5).total
                  for doc in (listed, ascending)]
        assert totals[0] == totals[1] == pytest.approx(0.08620514693416809, rel=1e-14)

    def test_file_spectrum_and_vectors(self, tmp_path):
        files = {"spectrum": "3\n0.5\n1\n", "signal": "1\n0.2\n-0.5\n", "beta0": "0\n1\n2\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        m = build_model({
            "p": 3, "spectrum": {"kind": "file", "path": str(tmp_path / "spectrum")},
            "signal": {"kind": "explicit", "path": str(tmp_path / "signal")},
            "shift": {"kind": "regression",
                      "beta0": {"kind": "explicit", "path": str(tmp_path / "beta0")}},
            "sigma2": 0.2,
        })
        np.testing.assert_array_equal(m.spectrum.eigenvalues, [0.5, 1.0, 3.0])
        np.testing.assert_array_equal(m.beta, [0.2, -0.5, 1.0])
        np.testing.assert_array_equal(m.beta0, [1.0, 2.0, 0.0])

    def test_ar1_test_covariance_follows_the_listing(self):
        values, signal, beta0 = [2.0, 0.5, 4.0, 1.0], [1.0, 0.3, -0.2, 0.5], [0.0, 1.0, 0.5, 2.0]
        m = build_model({
            "p": 4, "spectrum": {"kind": "explicit", "values": values},
            "signal": {"kind": "explicit", "values": signal},
            "shift": {"kind": "joint", "sigma0": {"kind": "ar1", "rho": 0.6},
                      "beta0": {"kind": "explicit", "values": beta0}},
            "sigma2": 0.1,
        })
        order = np.argsort(values)
        ref = make_model(Spectrum.from_values(values), beta=np.array(signal)[order],
                         beta0=np.array(beta0)[order],
                         sigma0=dense_ar1(4, 0.6)[np.ix_(order, order)], sigma2=0.1)
        np.testing.assert_array_equal(dense_sigma0(m), dense_sigma0(ref))
        for lam, phi in ((0.1, 0.5), (0.3, 2.0)):
            assert (risk_decomposition(m, lam, phi).total
                    == risk_decomposition(ref, lam, phi).total)

    @pytest.mark.parametrize("spectrum", ["identity", "ar1", "explicit"])
    def test_multi_column_file_is_invalid_config(self, tmp_path, spectrum):
        # p values in two columns are not a vector, whatever basis they rotate into
        path = tmp_path / "signal"
        path.write_text("1 0\n0 0\n")
        cfg = {"p": 4, "spectrum": {"kind": spectrum, "rho": 0.5, "values": [4, 3, 2, 1]},
               "signal": {"kind": "explicit", "path": str(path)}}
        with pytest.raises(InvalidParameterError, match="one value per line"):
            build_model(cfg)


class TestReadmeConfigFormat:
    """The README's "CLI" section documents the config format; it must
    match the parser."""

    @pytest.fixture(scope="class")
    def cli_section(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]

    def test_example_builds(self, cli_section):
        example = cli_section.split("```json\n", 1)[1].split("```", 1)[0]
        model = build_model(json.loads(example))
        assert model.p == 500 and not model.has_covariate_shift

    def test_table_lists_exactly_the_accepted_keys(self, cli_section):
        documented = set()
        for line in cli_section.splitlines():
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            if len(cells) == 4 and cells[1].startswith("`"):
                section = "model config" if cells[0] == "top level" else cells[0].strip("`")
                documented.add((section, cells[1].strip("`")))
        accepted = {(section, key) for section, keys in _KEYS.items() for key in keys}
        assert documented == accepted
