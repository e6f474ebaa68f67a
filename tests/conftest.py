import math

import numpy as np
import pytest
from hypothesis import strategies as st

from ridgeshift import Spectrum, build_ar1, make_model, risk


@pytest.fixture
def identity_model():
    """No-shift model on an isotropic spectrum, unit-energy signal."""
    sp = Spectrum.identity(8)
    beta = np.zeros(8)
    beta[0] = 1.0
    return make_model(sp, beta=beta, sigma2=0.25)


@pytest.fixture(scope="session")
def banded_extreme_model():
    """Banded-correlation spectrum with the signal split evenly between the
    extreme eigendirections; the workhorse anisotropic test model."""
    spectrum, _ = build_ar1(100, 0.5)
    beta = np.zeros(100)
    beta[0] = 0.5
    beta[-1] = 0.5
    return make_model(spectrum, beta=beta, sigma2=0.01)


def random_psd(rng: np.random.Generator, p: int, ridge: float = 0.05) -> np.ndarray:
    a = rng.standard_normal((p, p))
    return a @ a.T / p + ridge * np.eye(p)


def random_spectrum(rng: np.random.Generator, p: int, lo: float = 0.3, hi: float = 4.0) -> Spectrum:
    vals = np.exp(rng.uniform(np.log(lo), np.log(hi), size=p))
    return Spectrum.from_values(vals)


def level_slopes(model, mu: float, phi: float) -> tuple[float, float, float]:
    """(d bias/d mu, d variance/d mu, d shift/d mu) at one level, read from
    the risk kernel."""
    parts = risk._kernel(risk._weights(model), [mu], phi)
    return float(parts.d_bias[0]), float(parts.d_variance[0]), float(parts.d_shift[0])


@st.composite
def window_models(draw):
    """Models with p from 1 to 120, train condition numbers up to 1e12 at
    scales e^-3 to e^3, with or without a regression shift, all drawn from
    one seed, so that they spread over these ranges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = int(rng.integers(1, 121))
    log_cond, log_scale = rng.uniform(0.0, 12.0), rng.uniform(-3.0, 3.0)
    sp = Spectrum.from_values(math.exp(log_scale) * 10.0 ** (log_cond * rng.uniform(0.0, 1.0, p)))
    beta = rng.standard_normal(p) / math.sqrt(p)
    beta0 = beta + 0.5 * rng.standard_normal(p) / math.sqrt(p) if rng.random() < 0.5 else None
    return make_model(sp, beta=beta, beta0=beta0, sigma2=rng.uniform(0.01, 1.0))


def rescaled(model, k: int):
    """``model`` with S scaled by c = 4^k and the coefficients by c^-1/2 = 2^-k,
    both exactly, which keeps every risk; and c."""
    c = 4.0**k
    return make_model(Spectrum.from_values(c * model.spectrum.eigenvalues),
                      beta=2.0**-k * model.beta, beta0=2.0**-k * model.beta0,
                      sigma2=model.sigma2), c
