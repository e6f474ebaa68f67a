"""Train/test distribution pairs expressed in the eigenbasis of the train covariance.

Everything downstream works in the basis where the train covariance is
diagonal. The test covariance is held there in one of three forms, which
only this module tells apart: diagonal, a diagonal plus one rank-one term
per parity class (an AR(1) one in an AR(1) train eigenbasis), or dense.
Signal vectors are stored as projection coefficients in the same basis.
The trace and quadratic-form functionals of a model are evaluated by
the risk kernel (:mod:`ridgeshift.risk`). :func:`build_model` builds a model
from a parsed JSON config, whose format the README's "CLI" section
documents.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, SingularResolventError

_PSD_RTOL = 1e-10
_IDENTITY_ATOL = 1e-12

def _as_float_array(values, name: str, scalar: bool = False):
    """``values`` as a float array, or as a float when ``scalar``. Values
    that numpy reads as neither integers nor floats (strings, bytes,
    booleans, complex numbers, objects), ragged lists and arrays given for a
    scalar raise InvalidParameterError naming ``name``."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or scalar and arr.ndim:
        raise InvalidParameterError(
            f"{name} must be a number, got {values!r}" if scalar else f"{name} must be numbers")
    return float(arr) if scalar else np.asarray(arr, dtype=float)


def _as_float_vector(values, name: str) -> np.ndarray:
    arr = _as_float_array(values, name)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidParameterError(f"{name} must be a non-empty 1-d array")
    if not np.all(np.isfinite(arr)):
        raise InvalidParameterError(f"{name} contains non-finite entries")
    return arr


def _check_count(name: str, value: int, minimum: int) -> None:
    """Reject a count that is not a Python or numpy integer (a float such as
    2.0 or a bool included) or that lies below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues of the train covariance, ascending and strictly positive.

    ``_edges`` memoizes the branch edge record ``(mu_zero, lambda_min)`` per
    aspect ratio; it is filled by :mod:`ridgeshift.fixed_point` and lives and
    dies with the spectrum.
    """

    eigenvalues: np.ndarray
    _edges: dict[float, tuple[float, float]] = field(default_factory=dict, init=False, repr=False)

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
        _check_count("p", p, 1)
        return cls(np.ones(p))

    @classmethod
    def from_values(cls, values) -> "Spectrum":
        return cls(np.sort(_as_float_vector(values, "eigenvalues")))

    def _check_shift(self, mu: float) -> None:
        if not math.isfinite(mu) or mu <= -self.r_min:
            raise SingularResolventError(
                f"resolvent shift mu={mu} is at or below -r_min={-self.r_min}"
            )


@dataclass(eq=False)
class _TestCovariance:
    """A test covariance S0 in the train eigenbasis, in one of three forms,
    shown by its form and ``diagonal`` (set once, read-only). Each gives
    ``product(x)`` = x' S0, ``off_diagonal_max()`` and ``sandwich(b)``, its
    part in the risk kernel: the diagonal weights of q2 = b' R S0 R b and
    q3 = b' R^2 S0 R b, and None or ``rows(inv, inv2, q2, q3)``, which takes
    on one block of levels the sums of those weights (None where not read)
    and returns the completed q2 and q3 (the kernel keeps those read)."""

    diagonal: np.ndarray

    def __post_init__(self) -> None:
        self.diagonal.setflags(write=False)


class _Diagonal(_TestCovariance):
    """S0 = diag(``diagonal``)."""

    def product(self, x: np.ndarray) -> np.ndarray:
        return x * self.diagonal

    def off_diagonal_max(self) -> float:
        return 0.0

    def sandwich(self, b: np.ndarray):
        return b * b * self.diagonal, None


class _ParityRankOne(_TestCovariance):
    """S0 = diag(diag) + sum_c coef[c] v_c v_c', c = 0, 1, where v_c is
    ``vec`` on the parity class c (the indices c, c + 2, ...) and zero
    elsewhere: a diagonal plus one rank-one term per class. Entries between
    the two classes are zero, so every functional is O(p)."""

    def __init__(self, diag: np.ndarray, vec: np.ndarray, coef: tuple[float, float]) -> None:
        self.diag, self.vec, self.coef = diag, vec, coef
        diagonal = diag.copy()
        for c, k in enumerate(coef):
            diagonal[c::2] += k * vec[c::2] ** 2
        super().__init__(diagonal)

    def product(self, x: np.ndarray) -> np.ndarray:
        """The vector x' S0."""
        out = x * self.diag
        for c, k in enumerate(self.coef):
            v = self.vec[c::2]
            out[c::2] += (k * float(x[c::2] @ v)) * v
        return out

    def off_diagonal_max(self) -> float:
        """The largest |entry| off the diagonal."""
        out = 0.0
        for c, k in enumerate(self.coef):
            v = np.abs(self.vec[c::2])
            if v.size > 1:  # the two largest |v| of the class give its largest entry
                top = np.partition(v, v.size - 2)[-2:]
                out = max(out, abs(k) * float(top[0] * top[1]))
        return out

    def sandwich(self, b: np.ndarray):
        vb = np.zeros((b.size, 2))
        for c in (0, 1):
            vb[c::2, c] = b[c::2] * self.vec[c::2]

        def rows(inv, inv2, q2, q3):
            # add the sum over classes c of coef_c (v_c' R b)(v_c' R^k b), k = 1, 2
            m = inv @ vb
            return (None if q2 is None else q2 + (m * m) @ self.coef,
                    None if q3 is None else q3 + (m * (inv2 @ vb)) @ self.coef)

        return b * b * self.diag, rows


class _Dense(_TestCovariance):
    """S0 = ``matrix``, symmetric, with some entry off its diagonal nonzero
    (so p >= 2)."""

    def __init__(self, matrix: np.ndarray) -> None:
        matrix.setflags(write=False)
        self.matrix = matrix
        super().__init__(np.ascontiguousarray(np.diag(matrix)))

    def product(self, x: np.ndarray) -> np.ndarray:
        return x @ self.matrix

    def off_diagonal_max(self) -> float:
        # a view of the entries off the diagonal: in the flattened matrix
        # each diagonal entry is followed by p entries, the last of them the
        # next diagonal entry
        p = self.diagonal.size
        off = self.matrix.ravel()[1:].reshape(p - 1, p + 1)[:, :p]
        return max(float(off.max()), -float(off.min()))

    def sandwich(self, b: np.ndarray):
        def rows(inv, inv2, q2, q3):
            # the whole sandwich, through one BLAS product, replaces the
            # diagonal functionals (of zero weights); q2 is one sum of it
            wb = b * inv
            mwb = (wb @ self.matrix) * wb
            return mwb.sum(axis=1), None if q3 is None else (mwb * inv).sum(axis=1)

        return np.zeros(b.size), rows


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
        _check_count("p", p, 2)
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

    def rotated_ar1(self, rho0: float) -> _ParityRankOne:
        """W' S0 W for the test covariance S0 = rho0**|i-j|, -1 < rho0 < 1, in
        O(p): a diagonal plus one rank-one term per parity class.

        From the tridiagonal inverses, W' S0^-1 W = (diag(d) + g (u u' + v v'))
        / (1 - rho0^2) with d_k = (1 - rho0)^2 + 4 rho0 sin^2(theta_k / 2),
        g = rho0 (rho - rho0) and v = parity * u. Eigenvectors of opposite
        parity do not couple, and within one parity class the rank-one term
        is 2 g u u', so each class block is a Sherman-Morrison inverse:
        W' S0 W = (1 - rho0^2) (diag(1/d) - kappa_e w_e w_e' - kappa_o w_o w_o')
        with w = u / d on each class and kappa = 2 g / (1 + 2 g u'w) there.
        It is positive definite, being a rotation of S0.
        """
        # d = 1 - 2 rho0 cos(theta) + rho0^2, as a sum of nonnegative terms
        half = np.sin(0.5 * self.theta) if rho0 >= 0.0 else np.cos(0.5 * self.theta)
        d = (1.0 - abs(rho0)) ** 2 + 4.0 * abs(rho0) * (half * half)
        g2 = 2.0 * rho0 * (self.rho - rho0)
        w = self.first_row / d
        scale = (1.0 - rho0) * (1.0 + rho0)
        coef = tuple(  # parity alternates along the ascending order
            -scale * g2 / (1.0 + g2 * float(self.first_row[c::2] @ w[c::2])) for c in (0, 1)
        )
        return _ParityRankOne(scale / d, w, coef)


def build_ar1(p: int, rho: float) -> tuple[Spectrum, np.ndarray]:
    """Eigensystem of the AR(1) correlation matrix with entries rho**|i-j|.

    Built from the Kac-Murdock-Szego closed form in O(p^2) (see
    ``_AR1Eigensystem``). Returns the ascending spectrum and the matching
    orthonormal eigenvector matrix: columns ordered like the eigenvalues,
    each with a positive first component.
    """
    ar1 = _AR1Eigensystem(p, rho)
    return Spectrum(ar1.eigenvalues), ar1.eigenvectors


def _dense_or_diagonal(sigma0, p: int) -> _TestCovariance:
    """The form of the test covariance ``sigma0``; an array is checked to be
    finite, symmetric and PSD, and held as a diagonal when it is one."""
    if isinstance(sigma0, _TestCovariance):
        return sigma0
    s0 = _as_float_array(sigma0, "sigma0")
    if not np.all(np.isfinite(s0)):
        raise InvalidParameterError("sigma0 contains non-finite entries")
    if s0.shape == (p, p) and np.count_nonzero(s0) == np.count_nonzero(np.diagonal(s0)):
        s0 = np.diagonal(s0)
    if s0.shape == (p,):
        form = _Diagonal(s0.copy())
        eigs = np.sort(form.diagonal)
    elif s0.shape == (p, p):
        scale = float(np.max(np.abs(s0))) or 1.0
        if np.max(np.abs(s0 - s0.T)) > 1e-8 * scale:
            raise InvalidParameterError("sigma0 must be symmetric")
        form = _Dense(0.5 * (s0 + s0.T))
        eigs = np.linalg.eigvalsh(form.matrix)
    else:
        raise InvalidParameterError(
            f"sigma0 must be {p}x{p} (or its diagonal), got {s0.shape}"
        )
    if eigs[0] < -_PSD_RTOL * max(eigs[-1], 1e-300):
        raise InvalidParameterError(
            f"sigma0 is not PSD up to round-off (min eig {eigs[0]:.3e})"
        )
    return form


@dataclass(frozen=True, eq=False)
class ShiftModel:
    """Joint train/test specification in the train eigenbasis.

    ``beta``/``beta0`` are None exactly when the signal is isotropic-random,
    in which case ``signal_alpha2`` holds the signal energy and all
    signal-weighted functionals are evaluated in expectation.

    The test covariance ``sigma0`` may be given as a p x p matrix, as the
    vector of its diagonal, or in one of the forms of this module; it is
    held in its form (see ``_TestCovariance``), which alone knows its
    structure. ``_memo`` keeps values derived once per model (the risk
    kernel's weights); it lives and dies with the model.
    """

    spectrum: Spectrum
    sigma0: _TestCovariance
    beta: np.ndarray | None
    beta0: np.ndarray | None
    sigma2: float
    sigma0_sq: float
    signal_alpha2: float | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("sigma2", "sigma0_sq"):
            object.__setattr__(self, name, _as_float_array(getattr(self, name), name, scalar=True))
        if self.signal_alpha2 is not None:  # named alpha2, like make_model's argument
            object.__setattr__(self, "signal_alpha2",
                               _as_float_array(self.signal_alpha2, "alpha2", scalar=True))
        p = self.spectrum.p
        object.__setattr__(self, "sigma0", _dense_or_diagonal(self.sigma0, p))

        if not (0.0 <= self.sigma2 < math.inf and 0.0 <= self.sigma0_sq < math.inf):
            raise InvalidParameterError("noise levels must be finite and nonnegative")

        if self.signal_alpha2 is not None:
            if self.beta is not None or self.beta0 is not None:
                raise InvalidParameterError(
                    "isotropic-random signal excludes explicit beta/beta0"
                )
            if not (0.0 <= self.signal_alpha2 < math.inf):
                raise InvalidParameterError("signal_alpha2 must be finite and nonnegative")
        else:
            if self.beta is None:
                raise InvalidParameterError("explicit signal requires beta")
            for name, given in (("beta", self.beta), ("beta0", self.beta0)):
                # beta0 defaults to (a copy of) beta
                v = _as_float_vector(self.beta if given is None else given, name).copy()
                if v.size != p:
                    raise InvalidParameterError(f"{name} dimension does not match spectrum")
                v.setflags(write=False)
                object.__setattr__(self, name, v)

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
        offset = self._sigma0_offset(self.spectrum.eigenvalues)
        return offset > 1e-12 * max(self.spectrum.r_max, 1.0)

    @property
    def has_regression_shift(self) -> bool:
        if self.is_isotropic_signal:
            return False
        scale = float(np.max(np.abs(self.beta))) or 1.0
        return bool(np.max(np.abs(self.beta0 - self.beta)) > 1e-12 * scale)

    def _sigma0_offset(self, t) -> float:
        """max |S0 - diag(t)| over all entries, for a vector or a scalar t."""
        return max(float(np.max(np.abs(self.sigma0.diagonal - t))), self.sigma0.off_diagonal_max())

    @property
    def kappa2(self) -> float:
        """Irreducible risk (b0-b)' S0 (b0-b) + sigma0_sq."""
        if not self.has_regression_shift:
            return self.sigma0_sq
        d = self.beta0 - self.beta
        return self.sigma0_sq + float(self.sigma0.product(d) @ d)

    def null_parts(self) -> tuple[float, float]:
        """Bias b' S0 b and cross term 2 b' S0 (b0-b) of the zero predictor
        (in expectation for isotropic signals, where the cross term vanishes)."""
        if self.is_isotropic_signal:
            return self.alpha2 * float(np.mean(self.sigma0.diagonal)), 0.0
        b_s0 = self.sigma0.product(self.beta)
        return float(b_s0 @ self.beta), 2.0 * float(b_s0 @ (self.beta0 - self.beta))

    def null_risk(self) -> float:
        """Risk of the zero predictor, beta0' S0 beta0 + sigma0_sq, summed as
        bias + shift + kappa2 like every other risk decomposition."""
        bias, shift = self.null_parts()
        return bias + shift + self.kappa2


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
    return ShiftModel(
        spectrum=spectrum,
        sigma0=spectrum.eigenvalues if sigma0 is None else sigma0,
        beta=beta,
        beta0=beta0,
        sigma2=sigma2,
        sigma0_sq=sigma0_sq,
        signal_alpha2=alpha2,
    )


# -- configuration ----------------------------------------------------------

#: the keys each section of a JSON model config may hold (README, "CLI")
_KEYS = {
    "model config": ("p", "spectrum", "signal", "shift", "sigma2", "sigma0_sq"),
    "spectrum": ("kind", "rho", "values", "path"),
    "signal": ("kind", "alpha2", "indices", "weights", "values", "path", "basis"),
    "shift": ("kind", "sigma0", "beta0"),
    "sigma0": ("kind", "rho", "values", "path"),
    "beta0": ("kind", "factor", "values", "path"),
}


def _section(name: str, raw) -> dict:
    """``raw``, checked to be a JSON object holding only keys of section ``name``."""
    if not isinstance(raw, dict):
        raise InvalidParameterError(f"{name} must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_KEYS[name]))
    if unknown:
        raise InvalidParameterError(
            f"unknown key(s) {', '.join(map(repr, unknown))} in {name}"
            f" (allowed: {', '.join(_KEYS[name])})"
        )
    return raw


def _kind(section: dict, name: str, kinds: tuple[str, ...], default: str) -> str:
    kind = section.get("kind", default)
    if kind not in kinds:
        raise InvalidParameterError(f"unknown {name} kind {kind!r} (one of {', '.join(kinds)})")
    return kind


def _number(section: dict, name: str, key: str, default: float | None = None) -> float:
    """``section[key]`` as a float, ``default`` when absent; required without a default."""
    value = section.get(key, default)
    if value is None:
        raise InvalidParameterError(f"{name} needs {key!r}")
    return _as_float_array(value, f"{name} {key!r}", scalar=True)


def _vector(name: str, p: int, values=None, path=None) -> np.ndarray:
    """p values given inline, else read from a file with one value per line."""
    if values is not None:
        vals = _as_float_vector(values, f"{name} values")
    elif path is not None:
        try:
            vals = np.loadtxt(path, dtype=float, ndmin=1)
        except (TypeError, ValueError) as exc:
            raise InvalidParameterError(f"{name} file {path!r}: {exc}") from None
        if vals.ndim != 1:
            raise InvalidParameterError(f"{name} file {path!r} must hold one value per line")
    else:
        raise InvalidParameterError(f"{name} needs 'values' or 'path'")
    if vals.size != p:
        raise InvalidParameterError(f"{name} has {vals.size} values, p is {p}")
    return vals


def _combination_vector(p: int, signal: dict) -> np.ndarray:
    """Sum of weighted unit vectors at the 1-based ``indices``."""
    idx = _as_float_array(signal.get("indices"), "eigvec-combination indices")
    weights = _as_float_array(signal.get("weights"), "eigvec-combination weights")
    if idx.ndim != 1 or idx.shape != weights.shape:
        raise InvalidParameterError("eigvec-combination needs matching lists of indices and weights")
    bad = idx[(idx != np.round(idx)) | (idx < 1) | (idx > p)]
    if bad.size:
        raise InvalidParameterError(f"eigenvector index {bad[0]:g} is not an integer in 1..{p}")
    beta = np.zeros(p)
    for i, w in zip(idx.astype(int), weights):
        beta[i - 1] += w
    return beta


def build_model(doc: dict) -> ShiftModel:
    """Realize a parsed JSON model config (README, "CLI") as a ShiftModel in
    the train eigenbasis.

    A test covariance given in the standard basis (kind ``ar1``) is rotated
    into the train eigenbasis as ``W' S0 W``. For an ``ar1`` train
    covariance W and the rotation come from the closed form: the rotation is
    stored in O(p) as a diagonal plus one rank-one term per parity class,
    with no dense matrix and no eigenvalue check, and W is formed only when
    a standard-basis vector needs rotating. For an ``explicit`` or ``file``
    spectrum W is the permutation that sorts the listed eigenvalues, so
    standard-basis vectors and the dense S0 follow the listed order. A signal
    specified as an eigenvector combination of the *test* covariance
    (``basis: sigma0``) requires an isotropic train covariance; the working
    basis is then the test eigenbasis. Every malformed document raises InvalidParameterError.
    """
    doc = _section("model config", doc)
    p = doc.get("p")  # a JSON number with an integral value, like an eigenvector index
    if isinstance(p, bool) or not (isinstance(p, int) or isinstance(p, float) and p.is_integer()):
        raise InvalidParameterError(f"model config needs an integer 'p', got {p!r}")
    p = int(p)
    if p < 2:
        raise InvalidParameterError("p must be >= 2")
    spec = _section("spectrum", doc.get("spectrum", {}))
    signal = _section("signal", doc.get("signal", {}))
    shift = _section("shift", doc.get("shift", {}))
    s0spec, b0spec = (
        None if shift.get(key) is None else _section(key, shift[key]) for key in ("sigma0", "beta0")
    )
    spectrum_kind = _kind(spec, "spectrum", ("identity", "ar1", "explicit", "file"), "identity")
    signal_kind = _kind(signal, "signal", ("isotropic", "eigvec-combination", "explicit"), "isotropic")
    shift_kind = _kind(shift, "shift", ("none", "covariate", "regression", "joint"), "none")
    covariate_shift = shift_kind in ("covariate", "joint")
    regression_shift = shift_kind in ("regression", "joint")
    if covariate_shift and s0spec is None:
        raise InvalidParameterError(f"{shift_kind} shift needs a sigma0 spec")
    if regression_shift and b0spec is None:
        raise InvalidParameterError(f"{shift_kind} shift needs a beta0 spec")
    rho0 = None  # of an ar1 test covariance, also when the shift kind leaves it unused
    if s0spec is not None and s0spec.get("kind", "identity") == "ar1":
        rho0 = _number(s0spec, "sigma0", "rho")
        if not -1.0 < rho0 < 1.0:
            raise InvalidParameterError(f"ar1 sigma0 needs rho in (-1, 1), got {rho0}")
    basis = signal.get("basis", "sigma")
    if basis not in ("sigma", "sigma0"):
        raise InvalidParameterError(f"signal basis must be 'sigma' or 'sigma0', got {basis!r}")
    ar1: _AR1Eigensystem | None = None
    try:
        order = np.arange(p)  # standard-basis index of each ascending eigenvalue
    except ValueError:  # numpy refuses the size before it allocates anything
        raise InvalidParameterError(f"model config 'p' is too large, got {p:.3g}") from None
    alpha2 = None

    def rotate(vals: np.ndarray) -> np.ndarray:
        """A standard-basis vector in the train eigenbasis."""
        return vals[order] if ar1 is None else ar1.eigenvectors.T @ vals

    if basis == "sigma0":
        # Work in the test covariance eigenbasis; valid only when the train
        # covariance is isotropic (it stays diagonal under any rotation).
        if spectrum_kind != "identity":
            raise InvalidParameterError(
                "signal basis 'sigma0' requires an identity train covariance"
            )
        if rho0 is None or not covariate_shift:
            raise InvalidParameterError(
                "signal basis 'sigma0' needs a covariate or joint shift with an ar1 sigma0"
            )
        if signal_kind != "eigvec-combination":
            raise InvalidParameterError("signal basis 'sigma0' needs an eigvec-combination signal")
        if b0spec is not None and b0spec.get("kind", "scale") != "scale":
            raise InvalidParameterError("signal basis 'sigma0' supports only scaled beta0")
        spectrum = Spectrum.identity(p)
        sigma0 = _AR1Eigensystem(p, rho0).eigenvalues
        beta = _combination_vector(p, signal)
    else:
        if spectrum_kind == "identity":
            spectrum = Spectrum.identity(p)
        elif spectrum_kind == "ar1":
            ar1 = _AR1Eigensystem(p, _number(spec, "spectrum", "rho"))
            spectrum = Spectrum(ar1.eigenvalues)
        else:
            if spectrum_kind == "explicit":
                listed = _vector("spectrum", p, values=spec.get("values"))
            else:
                listed = _vector("spectrum", p, path=spec.get("path"))
            order = np.argsort(listed, kind="stable")
            spectrum = Spectrum(listed[order])

        if signal_kind == "isotropic":
            beta = None
            alpha2 = _number(signal, "isotropic signal", "alpha2")
        elif signal_kind == "eigvec-combination":
            beta = _combination_vector(p, signal)
        else:
            # explicit signals are given in the standard basis
            beta = rotate(_vector("signal", p, signal.get("values"), signal.get("path")))

        if covariate_shift:
            s0kind = _kind(s0spec, "sigma0", ("identity", "ar1", "diagonal"), "identity")
            if s0kind == "identity":
                sigma0 = np.ones(p)
            elif s0kind == "ar1" and ar1 is not None:
                sigma0 = ar1.rotated_ar1(rho0)
            elif s0kind == "ar1":
                sigma0 = rho0 ** np.abs(order[:, None] - order[None, :])
            else:
                # diagonal entries are interpreted in the train eigenbasis
                sigma0 = _vector("sigma0", p, s0spec.get("values"), s0spec.get("path"))
        else:
            sigma0 = spectrum.eigenvalues

    beta0 = None
    if regression_shift:
        if beta is None:
            raise InvalidParameterError("regression shift needs an explicit signal")
        if _kind(b0spec, "beta0", ("scale", "explicit"), "scale") == "scale":
            beta0 = _number(b0spec, "beta0", "factor") * beta
        else:
            beta0 = rotate(_vector("beta0", p, b0spec.get("values"), b0spec.get("path")))

    return ShiftModel(
        spectrum=spectrum,
        sigma0=sigma0,
        beta=beta,
        beta0=beta0,
        sigma2=_number(doc, "model config", "sigma2", 0.0),
        sigma0_sq=_number(doc, "model config", "sigma0_sq", 0.0),
        signal_alpha2=alpha2,
    )
