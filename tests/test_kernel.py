"""Properties of the vectorized risk kernel over its whole domain.

The kernel evaluates the four risk parts and their mu-derivatives at an
array of levels; ``risk_at_mu`` is its one-point view of the parts, and
one-level slopes are read from a one-level kernel call. Models are drawn
with p from 1 to 200, train spectra with condition numbers up to 1e12,
aspect ratios from 1e-3 to 1e3, every shift kind and isotropic signals;
levels range from just above the branch edge to far above it, more of
them than one block of the kernel holds. The kernel evaluates only the
resolvent functionals its caller reads; each must keep the bits of the
full evaluation of all of them, kept here as ``full_rows``.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import level_slopes
from ridgeshift import (
    Spectrum,
    build_ar1,
    build_model,
    check_in_dist_alignment,
    check_reg_shift_alignment,
    lambda_min,
    lambda_of_mu,
    make_model,
    mu_zero,
    risk_at_mu,
    solve_mu,
    tilde_v,
)
from ridgeshift import risk

SHIFT_KINDS = ("none", "covariate", "regression", "joint", "isotropic")
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def kernel_cases(draw):
    """(model, phi, levels): levels on the branch at aspect phi."""
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.integers(1, 200))
    log_cond = draw(st.floats(0.0, 12.0))
    kind = draw(st.sampled_from(SHIFT_KINDS))
    phi = 10.0 ** draw(st.floats(-3.0, 3.0))
    n = draw(st.integers(1, 3 * risk._BLOCK))
    rng = np.random.default_rng(seed)

    r = 10.0 ** (log_cond * rng.uniform(0.0, 1.0, p) - 0.5 * log_cond)
    sp = Spectrum.from_values(r)
    sigma0 = None
    if kind in ("covariate", "joint", "isotropic"):
        a = rng.standard_normal((p, p))
        sigma0 = a @ a.T / p + 0.05 * np.eye(p)
    if kind == "isotropic":
        model = make_model(sp, alpha2=float(rng.uniform(0.2, 3.0)), sigma0=sigma0,
                           sigma2=float(rng.uniform(0.0, 1.0)), sigma0_sq=0.1)
    else:
        beta = rng.standard_normal(p)
        beta0 = beta + 0.5 * rng.standard_normal(p) if kind in ("regression", "joint") else None
        model = make_model(sp, beta=beta, beta0=beta0, sigma0=sigma0,
                           sigma2=float(rng.uniform(0.0, 1.0)), sigma0_sq=0.1)

    mu0 = mu_zero(sp, phi)
    gaps = (abs(mu0) + sp.r_min) * 10.0 ** rng.uniform(-4.0, 4.0, n)
    return model, phi, mu0 + gaps


def branch_levels(draw, sp, phi):
    """Levels on the branch at aspect phi, from just above its edge to far
    above it, more of them than one block of the kernel holds."""
    n = draw(st.integers(1, 3 * risk._BLOCK))
    mu0 = mu_zero(sp, phi)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return mu0 + (abs(mu0) + sp.r_min) * 10.0 ** rng.uniform(-4.0, 4.0, n)


@st.composite
def ar1_pair_cases(draw):
    """(model, phi, levels) for an AR(1) train covariance with an AR(1) test
    covariance, stored as a diagonal plus one rank-one term per parity class."""
    p = draw(st.integers(2, 200))
    rho = draw(st.floats(0.01, 0.95))
    rho0 = draw(st.floats(-0.95, 0.95))
    phi = 10.0 ** draw(st.floats(-3.0, 3.0))
    indices = sorted({1, p, draw(st.integers(1, p))})
    model = build_model({
        "p": p,
        "spectrum": {"kind": "ar1", "rho": rho},
        "signal": {"kind": "eigvec-combination", "indices": indices,
                   "weights": [1.0, -0.5, 0.25][: len(indices)]},
        "shift": {"kind": draw(st.sampled_from(["covariate", "joint"])),
                  "sigma0": {"kind": "ar1", "rho": rho0},
                  "beta0": {"kind": "scale", "factor": -1.5}},
        "sigma2": 0.01,
    })
    assert model._sigma0_parity is not None
    return model, phi, branch_levels(draw, model.spectrum, phi)


@st.composite
def signed_zero_cases(draw):
    """(model, phi, levels) whose kernel weights hold rows of zeros of
    either sign: signals with -0.0, 0.0 and negative entries, no regression
    shift or one on a single coordinate, test covariances with zeros on the
    diagonal, and isotropic signals of zero energy."""
    p = draw(st.integers(1, 40))
    phi = 10.0 ** draw(st.floats(-3.0, 3.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sp = Spectrum.from_values(np.exp(rng.uniform(-2.0, 2.0, p)))
    sigma0 = draw(st.sampled_from([None, "zero", "sparse"]))
    if sigma0 == "zero":
        sigma0 = np.zeros(p)
    elif sigma0 == "sparse":
        sigma0 = np.where(rng.uniform(size=p) < 0.5, 0.0, rng.uniform(0.5, 2.0, p))
    if draw(st.booleans()):
        model = make_model(sp, alpha2=draw(st.sampled_from([0.0, 1.0])), sigma0=sigma0,
                           sigma2=0.1)
    else:
        choice = rng.integers(0, 3, p)
        beta = np.where(choice == 0, -0.0, np.where(choice == 1, 0.0, -rng.uniform(0.5, 2.0, p)))
        beta0 = None
        if draw(st.booleans()):
            beta0 = beta.copy()
            beta0[rng.integers(0, p)] += 1.0
        model = make_model(sp, beta=beta, beta0=beta0, sigma0=sigma0, sigma2=0.1)
    return model, phi, branch_levels(draw, sp, phi)


def full_rows(model, mus):
    """Every functional of ``risk._Blocks`` at ``mus``, as the kernel
    evaluated them before it read rows on demand: all 13 rows at every
    level, from one stack of weights, whatever the caller reads."""
    r = model.spectrum.eigenvalues
    p = r.size
    s0d = model.sigma0_diag
    zero = np.zeros(p)
    beta = sigma0 = rank1 = None
    if model.is_isotropic_signal:
        a = model.alpha2 / p
        sig, sand, c1, c2, align = a * r, a * s0d, zero, zero, zero
    else:
        b = model.beta
        d = model.beta0 - b
        dvec = model.sigma0_product(d)
        parity = model._sigma0_parity
        if parity is not None:
            sand = b * b * parity.diag
            vb = np.zeros((p, 2))
            for c in (0, 1):
                vb[c::2, c] = b[c::2] * parity.vec[c::2]
            rank1 = vb, np.array(parity.coef)
        elif model.sigma0_dense is None:
            sand = b * b * s0d
        else:
            sand, beta, sigma0 = zero, b, model.sigma0_dense
        sig, c1, c2, align = b * b * r, b * dvec, b * r * dvec, b * r * r * d
    w2 = np.stack([r * r / p, r / p, s0d * r / p, sig, sand, c2, align])
    mus = np.asarray(mus, dtype=float)
    out = np.empty((13, mus.size))
    block = max(1, min(risk._BLOCK, risk._BLOCK_CELLS // p))
    for lo in range(0, mus.size, block):
        inv = 1.0 / (r + mus[lo:lo + block, None])
        inv2 = inv * inv
        o = out[:, lo:lo + block]
        o[0] = (inv * c1).sum(axis=1)
        o[1:8] = (inv2[:, None, :] * w2).sum(axis=2).T
        o[8:13] = ((inv2 * inv)[:, None, :] * w2[:5]).sum(axis=2).T
        if sigma0 is not None:
            wb = beta * inv
            mwb = (wb @ sigma0) * wb
            o[5] = mwb.sum(axis=1)
            o[12] = (mwb * inv).sum(axis=1)
        elif rank1 is not None:
            vb, coef = rank1
            m = inv @ vb
            o[5] += (m * m) @ coef
            o[12] += (m * (inv2 @ vb)) @ coef
    return out


def _close(got, want, scale, rtol):
    return abs(got - want) <= rtol * scale


class TestKernelProperties:
    @PROPERTY_SETTINGS
    @given(kernel_cases())
    def test_array_matches_one_point_views(self, case):
        model, phi, mus = case
        mu0 = mu_zero(model.spectrum, phi)
        parts = risk._kernel(risk._weights(model), mus, phi)
        for i, mu in enumerate(mus):
            one = risk_at_mu(model, float(mu), phi)
            d_one = level_slopes(model, float(mu), phi)
            # Round-off is measured against the absolute sum of the parts
            # (slopes: of the parts over the distance to the branch edge, the
            # scale on which they vary), since a part may cancel to nearly
            # zero, and grows like 1 / denom, the cancellation in
            # denom = 1 - phi tr[S^2 (S+mu I)^-2]/p near the edge.
            rtol = 1e-13 / parts.denom[i]
            scale = abs(one.bias) + abs(one.variance) + abs(one.shift) + one.kappa2
            for got, want in ((parts.bias[i], one.bias), (parts.variance[i], one.variance),
                              (parts.shift[i], one.shift), (parts.total[i], one.total)):
                assert _close(got, want, scale, rtol), (i, mu, got, want)
            d_scale = scale / (mu - mu0) + sum(abs(d) for d in d_one)
            for got, want in zip((parts.d_bias[i], parts.d_variance[i], parts.d_shift[i]), d_one):
                assert _close(got, want, d_scale, rtol), (i, mu, got, want)

    @PROPERTY_SETTINGS
    @given(kernel_cases())
    def test_parts_sum_to_the_total(self, case):
        model, phi, mus = case
        for mu in mus[:: max(1, mus.size // 8)]:
            d = risk_at_mu(model, float(mu), phi)
            assert d.total == d.bias + d.variance + d.shift + d.kappa2
            assert d.variance >= 0.0 and d.bias >= 0.0

    @PROPERTY_SETTINGS
    @given(kernel_cases())
    def test_derivatives_match_central_differences(self, case):
        model, phi, mus = case
        mu0 = mu_zero(model.spectrum, phi)
        for mu in mus[:: max(1, mus.size // 8)]:
            mu = float(mu)
            # R varies on the scale of the distance to the branch edge
            gap = mu - mu0
            h = 1e-5 * gap
            up = risk_at_mu(model, mu + h, phi)
            dn = risk_at_mu(model, mu - h, phi)
            slopes = level_slopes(model, mu, phi)
            scale = (abs(up.bias) + abs(up.variance) + abs(up.shift)) / gap + sum(map(abs, slopes))
            for got, hi, lo in zip(slopes, (up.bias, up.variance, up.shift),
                                   (dn.bias, dn.variance, dn.shift)):
                fd = (hi - lo) / (2.0 * h)
                assert _close(got, fd, scale, 1e-6), (mu, got, fd)

    @PROPERTY_SETTINGS
    @given(kernel_cases())
    def test_tilde_v_is_the_variance_scale(self, case):
        model, phi, mus = case
        for mu in mus[:: max(1, mus.size // 8)]:
            tv = tilde_v(model, float(mu), phi)
            assert tv * model.sigma2 == risk_at_mu(model, float(mu), phi).variance


class TestLargeDimension:
    P = 100_000

    @pytest.fixture(scope="class")
    def weights_and_levels(self):
        rng = np.random.default_rng(4)
        p = self.P
        beta = rng.standard_normal(p) / np.sqrt(p)
        model = make_model(Spectrum.from_values(rng.uniform(0.5, 2.0, p)), beta=beta,
                           beta0=1.5 * beta, sigma0=rng.uniform(0.5, 2.0, p), sigma2=0.3)
        return risk._weights(model), np.geomspace(1e-3, 1e3, 64)

    def test_blocks_bound_the_temporaries(self, weights_and_levels):
        wt, mus = weights_and_levels
        tracemalloc.start()
        try:
            risk._blocks(wt, mus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_rows_match_one_level_calls(self, weights_and_levels):
        wt, mus = weights_and_levels
        rows = np.array(risk._blocks(wt, mus))
        for i, mu in enumerate(mus):
            np.testing.assert_array_equal(rows[:, i], np.array(risk._blocks(wt, [mu]))[:, 0])


#: the rows each caller of the kernel reads, and every row
CALLER_ROWS = (risk._SLOPE_ROWS, risk._PART_ROWS, ("b2", "b3", "s2", "s3"), ("a2",),
               risk._ALL_ROWS)


class TestRowsOnDemand:
    @PROPERTY_SETTINGS
    @given(st.one_of(kernel_cases(), ar1_pair_cases(), signed_zero_cases()))
    def test_rows_read_keep_the_bits_of_the_full_evaluation(self, case):
        model, phi, mus = case
        want = full_rows(model, mus)
        wt = risk._weights(model)
        for rows in CALLER_ROWS:
            got = risk._blocks(wt, mus, rows)
            for name, row in zip(risk._ALL_ROWS, want):
                if name in rows:
                    assert getattr(got, name).tobytes() == row.tobytes(), (rows, name)
                else:
                    assert getattr(got, name) is None, (rows, name)


class TestKernelWork:
    """Distinct weight rows each kernel caller evaluates, read off the plans
    that the weights carry; the kernel used to evaluate all 13 rows for
    every caller."""

    @pytest.fixture(scope="class")
    def spectrum(self):
        return build_ar1(48, 0.5)[0]

    @staticmethod
    def evaluated(model):
        return {rows: len(plan.terms) for rows, plan in risk._weights(model).plans.items()}

    @staticmethod
    def signal(p, seed=0):
        return np.random.default_rng(seed).standard_normal(p)

    def test_regression_shift_alignment_evaluates_one_row(self, spectrum):
        beta = self.signal(48)
        model = make_model(spectrum, beta=beta, beta0=beta + self.signal(48, 1), sigma2=0.1)
        check_reg_shift_alignment(model)
        assert self.evaluated(model) == {("a2",): 1}

    def test_in_distribution_alignment_evaluates_four_rows(self, spectrum):
        model = make_model(spectrum, beta=self.signal(48), sigma2=0.1)
        check_in_dist_alignment(model, 2.0)
        assert self.evaluated(model) == {("b2", "b3", "s2", "s3"): 4}

    @pytest.mark.parametrize("shift, rows", [("none", 4), ("regression", 6)])
    def test_slope_scan(self, spectrum, shift, rows):
        # in distribution S0 = S, so n2 (n3) repeats t2 (t3) and q2 (q3)
        # repeats b2 (b3), and c1, c2 have zero weights; a regression shift
        # adds c1 and c2
        beta = self.signal(48)
        beta0 = beta + self.signal(48, 1) if shift == "regression" else None
        model = make_model(spectrum, beta=beta, beta0=beta0, sigma2=0.1)
        risk._scan(risk._weights(model), np.geomspace(0.1, 10.0, 240), 2.0)
        assert self.evaluated(model) == {risk._SLOPE_ROWS: rows}

    def test_one_level_risk_evaluates_two_rows_in_distribution(self, spectrum):
        model = make_model(spectrum, beta=self.signal(48), sigma2=0.1)
        risk_at_mu(model, 0.5, 2.0)
        assert self.evaluated(model) == {risk._PART_ROWS: 2}


class TestClosedFormMaps:
    @PROPERTY_SETTINGS
    @given(kernel_cases())
    def test_lambda_of_mu_inverts_the_solver_over_arrays(self, case):
        model, phi, mus = case
        sp = model.spectrum
        lams = lambda_of_mu(sp, mus, phi)
        assert np.all(np.diff(lams[np.argsort(mus)]) >= 0.0)  # mu increasing in lam
        for mu, lam in zip(mus[:: max(1, mus.size // 8)], lams[:: max(1, mus.size // 8)]):
            assert lam == lambda_of_mu(sp, float(mu), phi)
            if lam > lambda_min(sp, phi) + 1e-6 * (1.0 + abs(lam)):
                assert solve_mu(sp, float(lam), phi).mu == pytest.approx(mu, rel=1e-8, abs=1e-12)

