"""Properties of the fixed-point solver over its whole domain.

Spectra are drawn with p from 1 to 200 and condition numbers up to 1e12,
aspect ratios from 1e-3 to 1e3, and penalties from just above the minimum
lambda_min(phi) (a gap of 1e-12 of the scale |lambda_min| + |mu_zero| +
r_min) up to 1e6.
"""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from ridgeshift import Spectrum, lambda_min, lambda_of_mu, mu_zero, solve_mu

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
EPS = float(np.finfo(float).eps)
LAM_MAX = 1e6


@st.composite
def spectra(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.integers(1, 200))
    log_cond = draw(st.floats(0.0, 12.0))
    rng = np.random.default_rng(seed)
    return Spectrum.from_values(10.0 ** (log_cond * rng.uniform(0.0, 1.0, p) - 0.5 * log_cond))


aspects = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@st.composite
def solver_cases(draw):
    """(spectrum, phi, penalties): increasing penalties above lambda_min(phi),
    each gap to the minimum at least 12% above the one before."""
    sp = draw(spectra())
    phi = draw(aspects)
    lmin = lambda_min(sp, phi)
    scale = abs(lmin) + abs(mu_zero(sp, phi)) + sp.r_min
    top = math.log10((LAM_MAX - lmin) / scale)
    start = draw(st.floats(-12.0, top))
    step = draw(st.floats(0.05, 2.0))
    n = draw(st.integers(2, 8))
    exps = start + step * np.arange(n)
    lams = lmin + scale * 10.0 ** exps[exps <= top]
    return sp, phi, [float(lam) for lam in lams]


class TestSolverProperties:
    @PROPERTY_SETTINGS
    @seed(240401233)
    @given(solver_cases())
    def test_mu_strictly_increases_with_lam(self, case):
        sp, phi, lams = case
        mus = [solve_mu(sp, lam, phi).mu for lam in lams]
        assert all(a < b for a, b in zip(mus, mus[1:])), (lams, mus)
        assert all(mu > mu_zero(sp, phi) or (lam == 0.0 and mu == 0.0)
                   for lam, mu in zip(lams, mus))

    @PROPERTY_SETTINGS
    @seed(240401233)
    @given(solver_cases())
    def test_lambda_of_mu_gives_the_penalty_back(self, case):
        # the root is exact to a few ulps of mu, and the penalty equation is
        # evaluated to a few eps of |lam| + |mu|
        sp, phi, lams = case
        for lam in lams:
            mu = solve_mu(sp, lam, phi).mu
            back = lambda_of_mu(sp, mu, phi)
            assert abs(back - lam) <= 32.0 * EPS * (abs(lam) + abs(mu)), (lam, mu, back)


class TestMinimumPenaltyProperties:
    @PROPERTY_SETTINGS
    @seed(240401233)
    @given(spectra(), aspects)
    def test_nonpositive(self, sp, phi):
        assert lambda_min(sp, phi) <= 0.0

    @PROPERTY_SETTINGS
    @seed(240401233)
    @given(spectra())
    def test_zero_at_unit_aspect(self, sp):
        # the edge at phi = 1 is zero to the noise of the edge equation, and
        # lambda_min is second order in it
        assert abs(lambda_min(sp, 1.0)) <= 1e-15 * sp.r_max

    @PROPERTY_SETTINGS
    @seed(240401233)
    @given(st.integers(1, 200), aspects, st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
    def test_closed_form_on_identity_spectra(self, p, phi, c):
        # S = c I: lambda_min = -c (1 - sqrt(phi))^2, evaluated as
        # mu0 (1 - phi c / (c + mu0)) to a few eps of its two terms
        got = lambda_min(Spectrum(np.full(p, c)), phi)
        want = -c * (1.0 - math.sqrt(phi)) ** 2
        tol = 16.0 * EPS * (abs(want) + c * abs(math.sqrt(phi) - 1.0) * math.sqrt(phi))
        assert abs(got - want) <= tol, (p, phi, c, got, want)
