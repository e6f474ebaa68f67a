"""Accuracy of the fixed-point roots against 50-digit references.

Each reference is the root of the same equation over the same float inputs
(eigenvalues, aspect, penalty), refined by Newton's method in mpmath from
the library's root. Spectra are drawn with p from 1 to 40 and condition
numbers up to 1e12, aspects from 1e-3 to 1e3 and 1 +- 1e-6, and penalties
from 1e-9 to 1e3 of the scale |lambda_min| + |mu_zero| + r_min above the
minimum. Each bound is a small multiple of eps times a condition number
computed from the reference: the evaluation noise of the equation divided
by its slope at the root, plus a few ulps of the root.
"""

import mpmath
import numpy as np
from hypothesis import given, seed, settings, strategies as st

from ridgeshift import Spectrum, lambda_min, mu_zero, solve_mu

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
EPS = float(np.finfo(float).eps)
DPS = 50
#: multiple of eps in every bound
ULPS = 4.0


@st.composite
def spectra(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.integers(1, 40))
    log_cond = draw(st.floats(0.0, 12.0))
    rng = np.random.default_rng(seed)
    return Spectrum.from_values(10.0 ** (log_cond * rng.uniform(0.0, 1.0, p) - 0.5 * log_cond))


aspects = st.one_of(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
                    st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6]))


def moments(r, mu):
    """(t1, t2, t3) = mean of r^k / (r + mu)^j for (k, j) = (1, 1), (2, 2), (2, 3)."""
    q = [ri / (ri + mu) for ri in r]
    p = len(r)
    return (mpmath.fsum(q) / p, mpmath.fsum(x * x for x in q) / p,
            mpmath.fsum(x * x / (ri + mu) for x, ri in zip(q, r)) / p)


def newton(f, x):
    """Root of ``f`` (value and slope) by Newton's method from ``x``."""
    for _ in range(100):
        fx, dfx = f(x)
        step = fx / dfx
        x -= step
        if abs(step) <= mpmath.mpf(10) ** (5 - DPS) * (1 + abs(x)):
            return x
    raise AssertionError(f"no convergence from {x}")


def edge_reference(sp, phi):
    """(mu0, lambda_min, t1 and t3 at mu0) in mpmath."""
    r = [mpmath.mpf(float(x)) for x in sp.eigenvalues]

    def g(mu):
        _, t2, t3 = moments(r, mu)
        return phi * t2 - 1, -2 * phi * t3

    mu0 = newton(g, mpmath.mpf(mu_zero(sp, phi)))
    t1, _, t3 = moments(r, mu0)
    return mu0, mu0 * (1 - phi * t1), t1, t3


def assert_within(got, want, bound, case):
    err = abs(mpmath.mpf(got) - want)
    assert err <= bound, (case, got, float(want), float(err), float(bound))


class TestEdgeOracle:
    @PROPERTY_SETTINGS
    @seed(240401233)
    @given(spectra(), aspects)
    def test_mu_zero_and_lambda_min(self, sp, phi):
        with mpmath.workdps(DPS):
            mu0, lmin, t1, t3 = edge_reference(sp, phi)
            # g = phi t2 - 1 sums terms near 1: its noise, eps (phi t2 + 1),
            # over its slope 2 phi t3
            mu_bound = ULPS * EPS * (1 / (phi * t3) + abs(mu0))
            assert_within(mu_zero(sp, phi), mu0, mu_bound, ("mu_zero", sp.eigenvalues, phi))
            # the penalty equation is stationary at the edge, so the edge
            # error enters at second order, with lam'' = 2 phi t3
            lam_bound = ULPS * EPS * abs(mu0) * (1 + phi * t1) + phi * t3 * mu_bound**2
            assert_within(lambda_min(sp, phi), lmin, lam_bound,
                          ("lambda_min", sp.eigenvalues, phi))


class TestPenaltyOracle:
    @PROPERTY_SETTINGS
    @seed(240401233)
    @given(spectra(), aspects, st.lists(st.floats(-9.0, 3.0), min_size=1, max_size=3))
    def test_solve_mu(self, sp, phi, gaps):
        r = [mpmath.mpf(float(x)) for x in sp.eigenvalues]
        lmin = lambda_min(sp, phi)
        scale = abs(lmin) + abs(mu_zero(sp, phi)) + sp.r_min
        with mpmath.workdps(DPS):
            mu0 = edge_reference(sp, phi)[0]
            for gap in gaps:
                lam = lmin + scale * 10.0**gap
                got = solve_mu(sp, lam, phi).mu

                def f(mu):
                    t1, t2, _ = moments(r, mu)
                    return mu * (1 - phi * t1) - lam, 1 - phi * t2

                mu = newton(f, mpmath.mpf(got))
                assert mu > mu0, ("reference below the edge", sp.eigenvalues, phi, lam)
                t1, t2, _ = moments(r, mu)
                # f = mu (1 - phi t1) - lam: its noise is a few eps of its terms
                noise = abs(mu) * (1 + phi * t1) + abs(lam)
                bound = ULPS * EPS * (noise / (1 - phi * t2) + abs(mu))
                assert_within(got, mu, bound, ("solve_mu", sp.eigenvalues, phi, lam))
