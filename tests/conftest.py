import numpy as np
import pytest

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
