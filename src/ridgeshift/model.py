"""Train/test distribution pairs expressed in the eigenbasis of the train covariance.

Everything downstream works in the basis where the train covariance is
diagonal. The test covariance is kept dense in that basis, or as its
diagonal alone when it is diagonal there, and signal vectors are stored as
projection coefficients in the same basis. The trace and quadratic-form
functionals of a model are evaluated by the risk kernel
(:mod:`ridgeshift.risk`).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import InvalidParameterError, SingularResolventError

_PSD_RTOL = 1e-10
_IDENTITY_ATOL = 1e-12

def _as_float_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidParameterError(f"{name} must be a non-empty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of the train covariance, ascending and strictly positive.

    ``_edges`` memoizes the branch edge ``mu_zero`` per aspect ratio; it is
    filled by :func:`ridgeshift.fixed_point.mu_zero` and lives and dies with
    the spectrum.
    """

    eigenvalues: np.ndarray
    _edges: dict[float, float] = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        vals = _as_float_vector(self.eigenvalues, "eigenvalues")
        if np.any(vals <= 0.0):
            raise InvalidParameterError("eigenvalues must be strictly positive")
        if np.any(np.diff(vals) < 0.0):
            raise InvalidParameterError("eigenvalues must be in ascending order")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def p(self) -> int:
        return self.eigenvalues.size

    @property
    def r_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def r_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def is_identity(self) -> bool:
        return bool(np.all(np.abs(self.eigenvalues - 1.0) <= _IDENTITY_ATOL))

    @classmethod
    def identity(cls, p: int) -> "Spectrum":
        if p < 1:
            raise InvalidParameterError("p must be >= 1")
        return cls(np.ones(p))

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        return cls(np.sort(np.asarray(values, dtype=float)))

    def _check_shift(self, mu: float) -> None:
        if not math.isfinite(mu) or mu <= -self.r_min:
            raise SingularResolventError(
                f"resolvent shift mu={mu} is at or below -r_min={-self.r_min}"
            )

    def resolvent_trace(self, mu: float, power: int = 1, sigma_power: int = 1) -> float:
        """Averaged trace ``tr[S^a (S + mu I)^-power] / p`` of the diagonal train covariance."""
        self._check_shift(mu)
        r = self.eigenvalues
        return float((r**sigma_power / (r + mu) ** power).sum()) / r.size


# pi = _PI_HI + _PI_LO with 25 significant bits in _PI_HI, so k * _PI_HI is
# exact for every integer k < 2**28
_PI_HI = float.fromhex("0x1.921fb5p+1")
_PI_LO = 3.178650954705639e-08
_SPLITTER = 2.0**27 + 1.0  # Veltkamp: the high part keeps 26 significant bits


class _AR1Eigensystem:
    """Closed-form eigensystem of the AR(1) correlation matrix A = rho**|i-j|.

    The Kac-Murdock-Szego matrix A is a dense Toeplitz matrix whose inverse
    is tridiagonal: (1 - rho^2) A^-1 has diagonal (1, 1 + rho^2, ...,
    1 + rho^2, 1) and off-diagonal -rho. Its eigenvectors are the columns
    x_j = sin(j theta) - rho sin((j - 1) theta), j = 1..p, at the p roots
    theta_k of sin((p+1) theta) - 2 rho sin(p theta) + rho^2 sin((p-1) theta),
    one in each interval ((k-1) pi / p, k pi / (p+1)); the eigenvalues are
    (1 - rho^2) / ((1 - rho)^2 + 4 rho sin^2(theta_k / 2)). Kac, Murdock &
    Szego, J. Rational Mech. Anal. 2 (1953); Grenander & Szego, Toeplitz
    Forms and Their Applications (1958).

    The left side of that equation is -D(theta) sin((p+1) theta - 2 psi(theta))
    with D = |1 - rho e^{-i theta}|^2 > 0 and psi = atan2(1 - rho cos theta,
    rho sin theta), so theta_k is the root of the phase (p+1) theta - (k-1) pi
    - 2 psi(theta), whose slope lies in (p, p + 1 + 2 rho / (1 - rho)]. All p
    roots are solved at once by Newton steps kept inside the brackets by
    bisection. The phase is summed in split arithmetic (the products
    (p+1) theta and (k-1) pi each carried as two doubles), which keeps each
    eigenvalue within a few ulp.

    Everything is stored in ascending eigenvalue order (descending theta):
    ``first_row`` is the first row u of the orthonormal eigenvector matrix W,
    positive by the sign convention, and ``parity`` is +1 for a symmetric and
    -1 for a skew-symmetric eigenvector, so the last row of W is parity * u.
    The column norms are n_k^2 = (p D_k + 1 - rho^2) / 2, which gives
    u_k = sin(theta_k) / n_k. All of this is O(p); W itself is formed in
    O(p^2) on first use of ``eigenvectors``.
    """

    def __init__(self, p: int, rho: float) -> None:
        if p < 2:
            raise InvalidParameterError("p must be >= 2")
        if not (0.0 < rho < 1.0):
            raise InvalidParameterError("rho must lie strictly inside (0, 1)")
        k = np.arange(p, 0, -1, dtype=float)  # root index, largest theta first
        lo = (k - 1.0) * (math.pi / p)
        hi = k * (math.pi / (p + 1))
        off_hi = (k - 1.0) * _PI_HI
        off_lo = (k - 1.0) * _PI_LO
        theta = 0.5 * (lo + hi)
        tiny = 2.0 * np.finfo(float).eps
        for _ in range(100):
            half2 = np.sin(0.5 * theta) ** 2
            split = theta * _SPLITTER
            th_hi = split - (split - theta)
            th_lo = theta - th_hi
            phase = (((p + 1) * th_hi - off_hi) + ((p + 1) * th_lo - off_lo)) - 2.0 * np.arctan2(
                (1.0 - rho) + 2.0 * rho * half2, rho * np.sin(theta)
            )
            lo = np.where(phase < 0.0, theta, lo)
            hi = np.where(phase > 0.0, theta, hi)
            dist = (1.0 - rho) ** 2 + 4.0 * rho * half2
            step = phase / ((p + 1) + 2.0 * rho * (np.cos(theta) - rho) / dist)
            nxt = theta - step
            nxt = np.where((nxt >= lo) & (nxt <= hi), nxt, 0.5 * (lo + hi))
            converged = bool(np.all(np.abs(step) <= tiny * theta))
            theta = nxt
            if converged:
                break
        dist = (1.0 - rho) ** 2 + 4.0 * rho * np.sin(0.5 * theta) ** 2
        one_minus_rho2 = (1.0 - rho) * (1.0 + rho)
        self.p = p
        self.rho = rho
        self.theta = theta
        self.eigenvalues = one_minus_rho2 / dist
        self.first_row = np.sin(theta) / np.sqrt(0.5 * (p * dist + one_minus_rho2))
        self.parity = np.where(k % 2.0 == 1.0, 1.0, -1.0)

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        """W, columns ordered like the eigenvalues, first row positive.

        Centred on (p + 1) / 2, the column of root k is (-1)^(k // 2) times
        cos(t theta_k) (symmetric) or sin(t theta_k) (skew), t = j - (p + 1) / 2,
        of squared norm (p + lambda_k) / 2; the upper half of the rows is
        evaluated and the lower half mirrored by parity.
        """
        p = self.p
        half = (p + 1) // 2
        t = np.arange(1, half + 1) - 0.5 * (p + 1)
        sym = self.parity > 0.0
        top = np.empty((half, p))
        top[:, sym] = np.cos(np.multiply.outer(t, self.theta[sym]))
        top[:, ~sym] = np.sin(np.multiply.outer(t, self.theta[~sym]))
        sign = np.where(np.arange(p, 0, -1) % 4 < 2, 1.0, -1.0)
        top *= sign / np.sqrt(0.5 * (p + self.eigenvalues))
        w = np.empty((p, p))
        w[:half] = top
        w[half:] = top[: p - half][::-1] * self.parity
        return w

    def rotated_ar1(self, rho0: float) -> np.ndarray:
        """W' S0 W for the test covariance S0 = rho0**|i-j|, -1 < rho0 < 1.

        From the tridiagonal inverses, W' S0^-1 W = (diag(d) + g (u u' + v v'))
        / (1 - rho0^2) with d_k = (1 - rho0)^2 + 4 rho0 sin^2(theta_k / 2),
        g = rho0 (rho - rho0) and v = parity * u. Eigenvectors of opposite
        parity do not couple, and within one parity class the rank-one term
        is 2 g u u', so each class block is a Sherman-Morrison inverse.
        """
        # d = 1 - 2 rho0 cos(theta) + rho0^2, as a sum of nonnegative terms
        half = np.sin(0.5 * self.theta) if rho0 >= 0.0 else np.cos(0.5 * self.theta)
        d = (1.0 - abs(rho0)) ** 2 + 4.0 * abs(rho0) * (half * half)
        g2 = 2.0 * rho0 * (self.rho - rho0)
        w = self.first_row / d
        out = np.zeros((self.p, self.p))
        for start in (0, 1):  # parity alternates along the ascending order
            u, wc, block = self.first_row[start::2], w[start::2], out[start::2, start::2]
            kappa = g2 / (1.0 + g2 * float(u @ wc))
            np.multiply.outer(wc, wc, out=block)
            block *= -kappa
            block[np.diag_indices(wc.size)] += 1.0 / d[start::2]
        out *= (1.0 - rho0) * (1.0 + rho0)
        return out


def build_ar1(p: int, rho: float) -> tuple[Spectrum, np.ndarray]:
    """Eigensystem of the AR(1) correlation matrix with entries rho**|i-j|.

    Built from the Kac-Murdock-Szego closed form in O(p^2) (see
    ``_AR1Eigensystem``). Returns the ascending spectrum and the matching
    orthonormal eigenvector matrix: columns ordered like the eigenvalues,
    each with a positive first component.
    """
    ar1 = _AR1Eigensystem(p, rho)
    return Spectrum(ar1.eigenvalues), ar1.eigenvectors


@dataclass(frozen=True, eq=False)
class ShiftModel:
    """Joint train/test specification in the train eigenbasis.

    ``beta``/``beta0`` are None exactly when the signal is isotropic-random,
    in which case ``signal_alpha2`` holds the signal energy and all
    signal-weighted functionals are evaluated in expectation.

    The test covariance ``sigma0_matrix`` is given dense, or as the vector
    of its diagonal when it is diagonal in this basis. A diagonal one is
    stored as ``sigma0_diag`` alone (``sigma0_dense`` is None), and reading
    ``sigma0_matrix`` builds the dense matrix afresh; functionals use
    :meth:`sigma0_product` instead. ``_memo`` keeps values derived once per
    model (the risk kernel's weights); it lives and dies with the model.
    """

    spectrum: Spectrum
    sigma0_matrix: InitVar[np.ndarray]
    beta: np.ndarray | None
    beta0: np.ndarray | None
    sigma2: float
    sigma0_sq: float
    signal_alpha2: float | None = None
    sigma0_diag: np.ndarray = field(init=False)
    sigma0_dense: np.ndarray | None = field(init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self, sigma0_matrix) -> None:
        p = self.spectrum.p
        s0 = np.asarray(sigma0_matrix, dtype=float)
        if s0.ndim == 2 and s0.shape == (p, p) and (
            np.count_nonzero(s0) == np.count_nonzero(np.diagonal(s0))
        ):
            s0 = np.diagonal(s0)
        if s0.shape == (p,):
            dense = None
            diag = s0.copy()
            eigs = np.sort(diag)
        elif s0.shape == (p, p):
            scale = float(np.max(np.abs(s0))) or 1.0
            if np.max(np.abs(s0 - s0.T)) > 1e-8 * scale:
                raise InvalidParameterError("sigma0_matrix must be symmetric")
            dense = 0.5 * (s0 + s0.T)
            dense.setflags(write=False)
            diag = np.ascontiguousarray(np.diag(dense))
            eigs = np.linalg.eigvalsh(dense)
        else:
            raise InvalidParameterError(
                f"sigma0_matrix must be {p}x{p} (or its diagonal), got {s0.shape}"
            )
        if eigs[0] < -_PSD_RTOL * max(eigs[-1], 1e-300):
            raise InvalidParameterError(
                f"sigma0_matrix is not PSD up to round-off (min eig {eigs[0]:.3e})"
            )
        diag.setflags(write=False)
        object.__setattr__(self, "sigma0_dense", dense)
        object.__setattr__(self, "sigma0_diag", diag)

        if self.sigma2 < 0.0 or self.sigma0_sq < 0.0:
            raise InvalidParameterError("noise levels must be nonnegative")

        if self.signal_alpha2 is not None:
            if self.beta is not None or self.beta0 is not None:
                raise InvalidParameterError(
                    "isotropic-random signal excludes explicit beta/beta0"
                )
            if self.signal_alpha2 < 0.0:
                raise InvalidParameterError("signal_alpha2 must be nonnegative")
        else:
            if self.beta is None:
                raise InvalidParameterError("explicit signal requires beta")
            b = _as_float_vector(self.beta, "beta")
            if b.size != p:
                raise InvalidParameterError("beta dimension does not match spectrum")
            b = b.copy()
            b.setflags(write=False)
            object.__setattr__(self, "beta", b)
            b0 = b if self.beta0 is None else _as_float_vector(self.beta0, "beta0")
            if b0.size != p:
                raise InvalidParameterError("beta0 dimension does not match spectrum")
            b0 = b0.copy()
            b0.setflags(write=False)
            object.__setattr__(self, "beta0", b0)

    @property
    def p(self) -> int:
        return self.spectrum.p

    @property
    def is_isotropic_signal(self) -> bool:
        return self.signal_alpha2 is not None

    @property
    def alpha2(self) -> float:
        """Signal energy ||beta||^2 (its expectation for isotropic signals)."""
        if self.is_isotropic_signal:
            return float(self.signal_alpha2)
        return float(self.beta @ self.beta)

    @property
    def snr(self) -> float:
        if self.sigma2 == 0.0:
            return float("inf")
        return self.alpha2 / self.sigma2

    @property
    def has_covariate_shift(self) -> bool:
        r = self.spectrum.eigenvalues
        if self.sigma0_dense is None:
            diff = self.sigma0_diag - r
        else:
            diff = self.sigma0_dense - np.diag(r)
        return bool(np.max(np.abs(diff)) > 1e-12 * max(self.spectrum.r_max, 1.0))

    @property
    def has_regression_shift(self) -> bool:
        if self.is_isotropic_signal:
            return False
        scale = float(np.max(np.abs(self.beta))) or 1.0
        return bool(np.max(np.abs(self.beta0 - self.beta)) > 1e-12 * scale)

    def sigma0_product(self, x: np.ndarray) -> np.ndarray:
        """The vector x' S0 (= S0 x, S0 being symmetric)."""
        if self.sigma0_dense is None:
            return x * self.sigma0_diag
        return x @ self.sigma0_dense

    @property
    def kappa2(self) -> float:
        """Irreducible risk (b0-b)' S0 (b0-b) + sigma0_sq."""
        if not self.has_regression_shift:
            return self.sigma0_sq
        d = self.beta0 - self.beta
        return self.sigma0_sq + float(self.sigma0_product(d) @ d)

    def null_parts(self) -> tuple[float, float]:
        """Bias b' S0 b and cross term 2 b' S0 (b0-b) of the zero predictor
        (in expectation for isotropic signals, where the cross term vanishes)."""
        if self.is_isotropic_signal:
            return self.alpha2 * float(np.mean(self.sigma0_diag)), 0.0
        b_s0 = self.sigma0_product(self.beta)
        return float(b_s0 @ self.beta), 2.0 * float(b_s0 @ (self.beta0 - self.beta))

    def null_risk(self) -> float:
        """Risk of the zero predictor, beta0' S0 beta0 + sigma0_sq, summed as
        bias + shift + kappa2 like every other risk decomposition."""
        bias, shift = self.null_parts()
        return bias + shift + self.kappa2


def _sigma0_matrix(self: ShiftModel) -> np.ndarray:
    """The dense test covariance in the train eigenbasis (read-only)."""
    if self.sigma0_dense is not None:
        return self.sigma0_dense
    dense = np.diag(self.sigma0_diag)
    dense.setflags(write=False)
    return dense


# ``sigma0_matrix`` is an init-only argument of the dataclass; reading it
# back goes through this property
ShiftModel.sigma0_matrix = property(_sigma0_matrix)


def make_model(
    spectrum: Spectrum,
    *,
    beta=None,
    beta0=None,
    sigma0=None,
    sigma2: float = 0.0,
    sigma0_sq: float = 0.0,
    alpha2: float | None = None,
) -> ShiftModel:
    """Convenience constructor. ``sigma0`` may be None (= train covariance),
    a vector (diagonal in the train eigenbasis), or a dense matrix."""
    s0 = spectrum.eigenvalues if sigma0 is None else np.asarray(sigma0, dtype=float)
    return ShiftModel(
        spectrum=spectrum,
        sigma0_matrix=s0,
        beta=None if beta is None else np.asarray(beta, dtype=float),
        beta0=None if beta0 is None else np.asarray(beta0, dtype=float),
        sigma2=float(sigma2),
        sigma0_sq=float(sigma0_sq),
        signal_alpha2=None if alpha2 is None else float(alpha2),
    )


# -- configuration ----------------------------------------------------------

_SPECTRUM_KINDS = ("identity", "ar1", "explicit", "file")
_SIGNAL_KINDS = ("isotropic", "eigvec-combination", "explicit")
_SHIFT_KINDS = ("none", "covariate", "regression", "joint")
_SIGMA0_KINDS = ("identity", "ar1", "diagonal")
_BETA0_KINDS = ("scale", "explicit")


@dataclass(frozen=True)
class SpectrumSpec:
    kind: str
    rho: float | None = None
    values: tuple[float, ...] | None = None
    path: str | None = None


@dataclass(frozen=True)
class SignalSpec:
    kind: str
    alpha2: float | None = None
    indices: tuple[int, ...] | None = None
    weights: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None
    path: str | None = None
    basis: str = "sigma"


@dataclass(frozen=True)
class Sigma0Spec:
    kind: str
    rho: float | None = None
    values: tuple[float, ...] | None = None
    path: str | None = None


@dataclass(frozen=True)
class Beta0Spec:
    kind: str
    factor: float | None = None
    values: tuple[float, ...] | None = None
    path: str | None = None


@dataclass(frozen=True)
class ShiftSpec:
    kind: str
    sigma0: Sigma0Spec | None = None
    beta0: Beta0Spec | None = None


@dataclass(frozen=True)
class ModelConfig:
    """Structured model description parsed from a JSON document."""

    p: int
    spectrum: SpectrumSpec
    signal: SignalSpec
    shift: ShiftSpec
    sigma2: float
    sigma0_sq: float

    def __post_init__(self) -> None:
        if self.p < 2:
            raise InvalidParameterError("p must be >= 2")
        if self.spectrum.kind not in _SPECTRUM_KINDS:
            raise InvalidParameterError(f"unknown spectrum kind {self.spectrum.kind!r}")
        if self.spectrum.kind == "ar1" and not (
            self.spectrum.rho is not None and 0.0 < self.spectrum.rho < 1.0
        ):
            raise InvalidParameterError("ar1 spectrum needs rho in (0, 1)")
        s0 = self.shift.sigma0
        if s0 is not None and s0.kind == "ar1" and not (s0.rho is not None and -1.0 < s0.rho < 1.0):
            raise InvalidParameterError("ar1 sigma0 needs rho in (-1, 1)")
        if self.signal.kind not in _SIGNAL_KINDS:
            raise InvalidParameterError(f"unknown signal kind {self.signal.kind!r}")
        if self.signal.basis not in ("sigma", "sigma0"):
            raise InvalidParameterError("signal basis must be 'sigma' or 'sigma0'")
        if self.shift.kind not in _SHIFT_KINDS:
            raise InvalidParameterError(f"unknown shift kind {self.shift.kind!r}")
        if self.shift.kind in ("covariate", "joint") and self.shift.sigma0 is None:
            raise InvalidParameterError(f"{self.shift.kind} shift needs a sigma0 spec")
        if self.shift.kind in ("regression", "joint") and self.shift.beta0 is None:
            raise InvalidParameterError(f"{self.shift.kind} shift needs a beta0 spec")
        if self.sigma2 < 0.0 or self.sigma0_sq < 0.0:
            raise InvalidParameterError("noise levels must be nonnegative")

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        def tup(x):
            return None if x is None else tuple(x)

        try:
            spec = raw.get("spectrum", {})
            sig = raw.get("signal", {})
            shift = raw.get("shift", {"kind": "none"})
            s0raw = shift.get("sigma0")
            b0raw = shift.get("beta0")
            return cls(
                p=int(raw["p"]),
                spectrum=SpectrumSpec(
                    kind=spec.get("kind", "identity"),
                    rho=spec.get("rho"),
                    values=tup(spec.get("values")),
                    path=spec.get("path"),
                ),
                signal=SignalSpec(
                    kind=sig.get("kind", "isotropic"),
                    alpha2=sig.get("alpha2"),
                    indices=tup(sig.get("indices")),
                    weights=tup(sig.get("weights")),
                    values=tup(sig.get("values")),
                    path=sig.get("path"),
                    basis=sig.get("basis", "sigma"),
                ),
                shift=ShiftSpec(
                    kind=shift.get("kind", "none"),
                    sigma0=None
                    if s0raw is None
                    else Sigma0Spec(
                        kind=s0raw.get("kind", "identity"),
                        rho=s0raw.get("rho"),
                        values=tup(s0raw.get("values")),
                        path=s0raw.get("path"),
                    ),
                    beta0=None
                    if b0raw is None
                    else Beta0Spec(
                        kind=b0raw.get("kind", "scale"),
                        factor=b0raw.get("factor"),
                        values=tup(b0raw.get("values")),
                        path=b0raw.get("path"),
                    ),
                ),
                sigma2=float(raw.get("sigma2", 0.0)),
                sigma0_sq=float(raw.get("sigma0_sq", 0.0)),
            )
        except (KeyError, TypeError) as exc:
            raise InvalidParameterError(f"malformed model config: {exc}") from exc

    @classmethod
    def from_json_file(cls, path) -> "ModelConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _load_column(path: str) -> np.ndarray:
    # one value per line
    return np.loadtxt(path, dtype=float, ndmin=1)


def _spectrum_from_spec(spec: SpectrumSpec, p: int) -> tuple[Spectrum, _AR1Eigensystem | None]:
    """Returns the spectrum plus, for an ``ar1`` train covariance, its
    closed-form eigensystem (None means the standard basis already
    diagonalizes the train covariance)."""
    if spec.kind == "identity":
        return Spectrum.identity(p), None
    if spec.kind == "ar1":
        ar1 = _AR1Eigensystem(p, float(spec.rho))
        return Spectrum(ar1.eigenvalues), ar1
    if spec.kind == "explicit":
        if spec.values is None:
            raise InvalidParameterError("explicit spectrum needs values")
        vals = _as_float_vector(spec.values, "spectrum values")
        if vals.size != p:
            raise InvalidParameterError("spectrum values do not match p")
        return Spectrum.from_values(vals), None
    vals = _load_column(spec.path)
    if vals.size != p:
        raise InvalidParameterError("spectrum file does not match p")
    return Spectrum.from_values(vals), None


def _combination_vector(p: int, indices, weights) -> np.ndarray:
    if indices is None or weights is None or len(indices) != len(weights):
        raise InvalidParameterError("eigvec-combination needs matching indices and weights")
    beta = np.zeros(p)
    for one_based, w in zip(indices, weights):
        if not (1 <= int(one_based) <= p):
            raise InvalidParameterError(f"eigenvector index {one_based} outside 1..{p}")
        beta[int(one_based) - 1] += float(w)
    return beta


def build_model(config: ModelConfig) -> ShiftModel:
    """Realize a parsed configuration as a ShiftModel in the train eigenbasis.

    A test covariance given in the standard basis (kind ``ar1``) is rotated
    into the train eigenbasis as ``W' S0 W``; for an ``ar1`` train
    covariance W and the rotation come from the closed form, and W is formed
    only when a standard-basis vector needs rotating. A signal specified as an
    eigenvector combination of the *test* covariance (``basis: sigma0``)
    requires an isotropic train covariance; the working basis is then the
    test eigenbasis.
    """
    p = config.p
    ar1: _AR1Eigensystem | None = None

    if config.signal.basis == "sigma0":
        # Work in the test covariance eigenbasis; valid only when the train
        # covariance is isotropic (it stays diagonal under any rotation).
        if config.spectrum.kind != "identity":
            raise InvalidParameterError(
                "signal basis 'sigma0' requires an identity train covariance"
            )
        if config.shift.sigma0 is None or config.shift.sigma0.kind != "ar1":
            raise InvalidParameterError("signal basis 'sigma0' needs an ar1 sigma0 spec")
        if config.signal.kind != "eigvec-combination":
            raise InvalidParameterError("signal basis 'sigma0' needs an eigvec-combination signal")
        if config.shift.beta0 is not None and config.shift.beta0.kind != "scale":
            raise InvalidParameterError("signal basis 'sigma0' supports only scaled beta0")
        spectrum = Spectrum.identity(p)
        sigma0 = _AR1Eigensystem(p, float(config.shift.sigma0.rho)).eigenvalues
        beta = _combination_vector(p, config.signal.indices, config.signal.weights)
    else:
        spectrum, ar1 = _spectrum_from_spec(config.spectrum, p)

        if config.signal.kind == "isotropic":
            beta = None
        elif config.signal.kind == "eigvec-combination":
            beta = _combination_vector(p, config.signal.indices, config.signal.weights)
        else:
            vals = (
                _load_column(config.signal.path)
                if config.signal.values is None
                else _as_float_vector(config.signal.values, "signal values")
            )
            if vals.size != p:
                raise InvalidParameterError("signal values do not match p")
            # explicit signals are given in the standard basis
            beta = vals if ar1 is None else ar1.eigenvectors.T @ vals

        if config.shift.kind in ("covariate", "joint"):
            s0spec = config.shift.sigma0
            if s0spec.kind == "identity":
                sigma0 = np.ones(p)
            elif s0spec.kind == "ar1" and ar1 is not None:
                sigma0 = ar1.rotated_ar1(float(s0spec.rho))
            elif s0spec.kind == "ar1":
                idx = np.arange(p)
                sigma0 = float(s0spec.rho) ** np.abs(idx[:, None] - idx[None, :])
            elif s0spec.kind == "diagonal":
                vals = (
                    _load_column(s0spec.path)
                    if s0spec.values is None
                    else _as_float_vector(s0spec.values, "sigma0 values")
                )
                if vals.size != p:
                    raise InvalidParameterError("sigma0 values do not match p")
                # diagonal entries are interpreted in the train eigenbasis
                sigma0 = vals
            else:
                raise InvalidParameterError(f"unknown sigma0 kind {s0spec.kind!r}")
        else:
            sigma0 = spectrum.eigenvalues

    beta0 = None
    if config.shift.kind in ("regression", "joint"):
        if beta is None:
            raise InvalidParameterError("regression shift needs an explicit signal")
        b0spec = config.shift.beta0
        if b0spec.kind == "scale":
            if b0spec.factor is None:
                raise InvalidParameterError("beta0 scale spec needs a factor")
            beta0 = float(b0spec.factor) * beta
        elif b0spec.kind == "explicit":
            vals = (
                _load_column(b0spec.path)
                if b0spec.values is None
                else _as_float_vector(b0spec.values, "beta0 values")
            )
            if vals.size != p:
                raise InvalidParameterError("beta0 values do not match p")
            beta0 = vals if ar1 is None else ar1.eigenvectors.T @ vals
        else:
            raise InvalidParameterError(f"unknown beta0 kind {b0spec.kind!r}")

    alpha2 = config.signal.alpha2 if config.signal.kind == "isotropic" else None
    if config.signal.kind == "isotropic" and alpha2 is None:
        raise InvalidParameterError("isotropic signal needs alpha2")

    return ShiftModel(
        spectrum=spectrum,
        sigma0_matrix=sigma0,
        beta=beta,
        beta0=beta0,
        sigma2=config.sigma2,
        sigma0_sq=config.sigma0_sq,
        signal_alpha2=alpha2,
    )
