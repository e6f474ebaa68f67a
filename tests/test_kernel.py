"""Properties of the vectorized risk kernel over its whole domain.

The kernel evaluates the four risk parts and their mu-derivatives at an
array of levels; ``risk_at_mu`` is its one-point view of the parts, and
one-level slopes are read from a one-level kernel call. Models are drawn
with p from 1 to 200, train spectra with condition numbers up to 1e12,
aspect ratios from 1e-3 to 1e3, every shift kind and isotropic signals;
levels range from just above the branch edge to far above it, more of
them than one block of the kernel holds.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import level_slopes
from ridgeshift import (
    Spectrum,
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

