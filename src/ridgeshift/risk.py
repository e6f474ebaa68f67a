"""Deterministic out-of-distribution risk equivalents and their optimizers.

The prediction risk of the (possibly negatively) penalized least-squares fit
decomposes into four deterministic terms, all functions of the implicit
regularization level mu and the data aspect ratio phi:

    bias     = mu^2 b'(S+mu I)^-1 (tv S + S0) (S+mu I)^-1 b
    variance = sigma2 * tv
    shift    = 2 mu b'(S+mu I)^-1 S0 (b0 - b)        (regression-shift cross term)
    kappa2   = (b0-b)' S0 (b0-b) + sigma0_sq         (irreducible)

with ``tv`` from :func:`tilde_v`. The same expressions evaluated at the
level solved at a subsample aspect psi >= phi give the risk of the full
average of fits over all size-k subsamples (psi = p/k), which is how
penalties and subsample ratios trade off along equivalence contours.

Isotropic-random signals replace the rank-one signal matrix by its
expectation, energy/p times the identity.

All four terms and their mu-derivatives come from one vectorized kernel
over an array of levels. It evaluates only the resolvent functionals that
its caller reads, each distinct nonzero weight vector once per power of the
resolvent; weights that are equal across functionals (S0 = S, isotropic
signals) or all zero (no regression shift) cost nothing extra. The
optimizers scan levels rather than penalties or subsample ratios: on the
admissible branch the penalty is the explicit increasing function lam(mu) =
mu (1 - phi tr[S (S+mu I)^-1] / p), and at a fixed penalty the subsample
aspect is psi(mu) = (1 - lam/mu) / (tr[S (S+mu I)^-1] / p), so no probe
solves for mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .errors import (
    BelowMinimumPenaltyError,
    BranchViolationError,
    InvalidParameterError,
    SolverFailureError,
)
from .fixed_point import (
    PSI_INFINITE,
    _check_phi,
    _edge_level,
    _solve_monotone,
    lambda_min,
    lambda_of_mu,
    mu_zero,
    solve_mu,
)
from .model import ShiftModel

BoundaryFlag = Literal["interior", "at-lambda-min", "at-infinity-null", "at-floor", "degenerate"]


@dataclass(frozen=True)
class RiskDecomposition:
    """Additive risk decomposition; ``total`` is the exact sum of the parts."""

    bias: float
    variance: float
    shift: float
    kappa2: float
    total: float

    @classmethod
    def from_parts(cls, bias: float, variance: float, shift: float, kappa2: float):
        return cls(bias=bias, variance=variance, shift=shift, kappa2=kappa2,
                   total=bias + variance + shift + kappa2)


# -- the kernel ----------------------------------------------------------------

#: Levels per block of the kernel: at most _BLOCK, and at large p only as
#: many as fit in _BLOCK_CELLS (level, coordinate) cells, one at least.
#: This bounds its (block, p) temporaries.
_BLOCK = 32
_BLOCK_CELLS = 2**18


class _Blocks(NamedTuple):
    """Resolvent functionals at an array of levels, R = (S + mu I)^-1.
    Traces are averaged over p; signal forms are plain quadratic forms."""

    mu: np.ndarray
    c1: np.ndarray  # b' R S0 (b0 - b)
    t2: np.ndarray  # tr[S^2 R^2] / p
    s2: np.ndarray  # tr[S R^2] / p
    n2: np.ndarray  # tr[S0 S R^2] / p
    b2: np.ndarray  # b' S R^2 b
    q2: np.ndarray  # b' R S0 R b
    c2: np.ndarray  # b' S R^2 S0 (b0 - b)
    a2: np.ndarray  # b' S^2 R^2 (b0 - b)
    t3: np.ndarray  # tr[S^2 R^3] / p
    s3: np.ndarray  # tr[S R^3] / p
    n3: np.ndarray  # tr[S0 S R^3] / p
    b3: np.ndarray  # b' S R^3 b
    q3: np.ndarray  # b' R^2 S0 R b


#: Each functional of _Blocks as (k, weights): the diagonal resolvent sum
#: sum_i w_i / (r_i + mu)^k, to which q2 and q3 add the S0 sandwich when S0
#: is not diagonal.
_ROWS = {
    "c1": (1, "c1"), "t2": (2, "t"), "s2": (2, "s"), "n2": (2, "n"), "b2": (2, "sig"),
    "q2": (2, "sand"), "c2": (2, "c2"), "a2": (2, "align"), "t3": (3, "t"), "s3": (3, "s"),
    "n3": (3, "n"), "b3": (3, "sig"), "q3": (3, "sand"),
}
_ALL_ROWS = _Blocks._fields[1:]


class _Plan(NamedTuple):
    """How :func:`_blocks` evaluates a tuple of rows: ``terms`` are the
    distinct (k, weights) pairs with nonzero weights, each evaluated once;
    ``rows`` names the term of each row read from one, ``zeros`` the
    signed zero of each row with all-zero weights, and ``sandwich`` the
    rows of q2 and q3 that need the S0 sandwich."""

    terms: tuple[tuple[int, np.ndarray], ...]
    rows: tuple[tuple[str, int], ...]
    zeros: tuple[tuple[str, float], ...]
    sandwich: tuple[str, ...]


class _Weights(NamedTuple):
    """Per-model inputs of the kernel. ``w`` maps each weight name of
    ``_ROWS`` to its vector (bitwise-equal vectors to one shared array) or,
    when every entry is zero, to the signed zero that a sum of its products
    gives. ``beta`` and ``sigma0`` are set only when the S0 sandwich needs
    the dense test covariance, and ``rank1`` only when S0 has one rank-one
    term per parity class: the p x 2 matrix of b times each class's vector,
    and the two coefficients. ``plans`` keeps the plan of each tuple of
    rows asked for."""

    r: np.ndarray
    w: dict[str, np.ndarray | float]
    beta: np.ndarray | None
    sigma0: np.ndarray | None
    rank1: tuple[np.ndarray, np.ndarray] | None
    sigma2: float
    kappa2: float
    plans: dict[tuple[str, ...], _Plan]


def _weights(model: ShiftModel) -> _Weights:
    """The kernel's weights of ``model``, built on first use."""
    wt = model._memo.get("kernel")
    if wt is None:
        # concurrent callers may both build them; they store equal values
        wt = model._memo["kernel"] = _make_weights(model)
    return wt


def _make_weights(model: ShiftModel) -> _Weights:
    r = model.spectrum.eigenvalues
    p = r.size
    s0d = model.sigma0_diag
    zero = np.zeros(p)
    beta = sigma0 = rank1 = None
    if model.is_isotropic_signal:
        # E[b' A b] = alpha2 tr[A] / p; the cross terms with b0 - b vanish
        a = model.alpha2 / p
        sig, sand, c1, c2, align = a * r, a * s0d, zero, zero, zero
    else:
        b = model.beta
        d = model.beta0 - b
        dvec = model.sigma0_product(d)
        parity = model._sigma0_parity
        if parity is not None:
            # the diagonal part joins the diagonal functionals
            sand = b * b * parity.diag
            vb = np.zeros((p, 2))
            for c in (0, 1):
                vb[c::2, c] = b[c::2] * parity.vec[c::2]
            rank1 = vb, np.array(parity.coef)
        elif model.sigma0_dense is None:
            sand = b * b * s0d  # a diagonal S0 needs no dense sandwich
        else:
            sand, beta, sigma0 = zero, b, model.sigma0_dense
        sig, c1, c2, align = b * b * r, b * dvec, b * r * dvec, b * r * r * d
    named = {"c1": c1, "t": r * r / p, "s": r / p, "n": s0d * r / p, "sig": sig,
             "sand": sand, "c2": c2, "align": align}
    shared: dict[bytes, np.ndarray] = {}
    # the products of all-zero weights are zeros of the weights' signs, as
    # the resolvent's powers are positive: their sum does not depend on mu
    w = {name: shared.setdefault(v.tobytes(), v) if v.any() else float(v.sum())
         for name, v in named.items()}
    return _Weights(r, w, beta, sigma0, rank1, model.sigma2, model.kappa2, {})


def _plan(wt: _Weights, rows: tuple[str, ...]) -> _Plan:
    """The plan of ``rows``, built on first use."""
    plan = wt.plans.get(rows)
    if plan is None:
        # concurrent callers may both build it; they store equal plans
        index: dict[tuple[int, int], int] = {}  # (k, id of the weights) -> term
        terms, read, zeros = [], [], []
        for name in rows:
            k, key = _ROWS[name]
            w = wt.w[key]
            if isinstance(w, float):
                zeros.append((name, w))
                continue
            j = index.setdefault((k, id(w)), len(terms))
            if j == len(terms):
                terms.append((k, w))
            read.append((name, j))
        dense_or_rank1 = wt.sigma0 is not None or wt.rank1 is not None
        sandwich = tuple(name for name in ("q2", "q3") if dense_or_rank1 and name in rows)
        plan = wt.plans[rows] = _Plan(tuple(terms), tuple(read), tuple(zeros), sandwich)
    return plan


def _blocks(wt: _Weights, mus, rows: tuple[str, ...] = _ALL_ROWS) -> _Blocks:
    """The functionals ``rows`` of :class:`_Blocks` at finite levels above
    -r_min, evaluated a block of levels at a time; every other field is
    None. Each distinct nonzero (power, weights) pair is summed once, and a
    row with all-zero weights is filled with its signed zero."""
    plan = _plan(wt, rows)
    mus = np.asarray(mus, dtype=float)
    n = mus.size
    sums = np.empty((len(plan.terms), n))
    sandwich = {name: np.empty(n) for name in plan.sandwich}
    # the highest power of R read; the rank-one sandwich reads R^2
    top = max([k for k, _ in plan.terms] + [2 if sandwich else 1])
    block = max(1, min(_BLOCK, _BLOCK_CELLS // wt.r.size))
    for lo in range(0, n, block):
        cut = slice(lo, lo + block)
        inv = 1.0 / (wt.r + mus[cut, None])
        powers = [inv]
        while len(powers) < top:
            powers.append(powers[-1] * inv)
        for j, (k, w) in enumerate(plan.terms):
            # numpy's pairwise sums along p: BLAS dot products, which
            # accumulate in order, leave the traces several ulps off at p in
            # the thousands
            sums[j, cut] = (powers[k - 1] * w).sum(axis=1)
        if wt.sigma0 is not None and sandwich:
            # the S0 sandwich through one BLAS product per block
            wb = wt.beta * inv
            mwb = (wb @ wt.sigma0) * wb
            if "q2" in sandwich:
                sandwich["q2"][cut] = mwb.sum(axis=1)
            if "q3" in sandwich:
                sandwich["q3"][cut] = (mwb * inv).sum(axis=1)
        elif sandwich:
            # sum over classes c of coef_c (v_c' R b)(v_c' R^k b), k = 1, 2
            vb, coef = wt.rank1
            m = inv @ vb
            if "q2" in sandwich:
                sandwich["q2"][cut] = (m * m) @ coef
            if "q3" in sandwich:
                sandwich["q3"][cut] = (m * (powers[1] @ vb)) @ coef
    out = {name: sums[j] for name, j in plan.rows}
    out.update((name, np.full(n, zero)) for name, zero in plan.zeros)
    for name, extra in sandwich.items():
        # a dense S0 has no diagonal part; a rank-one one adds to its own
        out[name] = extra if wt.sigma0 is not None else out[name] + extra
    return _Blocks(mus, *map(out.get, _ALL_ROWS))


class _Parts(NamedTuple):
    """Risk parts and their mu-derivatives (None when not asked for) over an
    array of levels. ``denom`` = 1 - phi tr[S^2 R^2] / p is positive exactly
    on the branch; ``tv`` is the variance scale, variance = sigma2 * tv."""

    bias: np.ndarray
    variance: np.ndarray
    shift: np.ndarray
    kappa2: float
    denom: np.ndarray
    tv: np.ndarray
    d_bias: np.ndarray | None = None
    d_variance: np.ndarray | None = None
    d_shift: np.ndarray | None = None

    @property
    def total(self) -> np.ndarray:
        return self.bias + self.variance + self.shift + self.kappa2

    @property
    def d_total(self) -> np.ndarray:
        return self.d_bias + self.d_variance + self.d_shift


#: the rows that the kernel reads for its parts, and for their slopes too
_PART_ROWS = ("c1", "t2", "n2", "b2", "q2")
_SLOPE_ROWS = _PART_ROWS + ("c2", "t3", "n3", "b3", "q3")


def _kernel(wt: _Weights, mus, phi: float, slopes: bool = True) -> _Parts:
    """Risk parts at the levels ``mus``, with their mu-derivatives when
    ``slopes`` is set; only the rows of :class:`_Blocks` that these read are
    evaluated."""
    bl = _blocks(wt, mus, _SLOPE_ROWS if slopes else _PART_ROWS)
    mu = bl.mu
    mu2 = mu * mu
    denom = 1.0 - phi * bl.t2
    with np.errstate(divide="ignore", invalid="ignore"):
        tv = phi * bl.n2 / denom
        inner = tv * bl.b2 + bl.q2
        parts = _Parts(mu2 * inner, wt.sigma2 * tv, 2.0 * mu * bl.c1, wt.kappa2, denom, tv)
        if not slopes:
            return parts
        d_tv = -2.0 * phi * (bl.n3 + tv * bl.t3) / denom
        return parts._replace(
            d_bias=2.0 * mu * inner + mu2 * (d_tv * bl.b2 - 2.0 * (tv * bl.b3 + bl.q3)),
            d_variance=wt.sigma2 * d_tv,
            d_shift=2.0 * bl.c2,
        )


def _at_mu(model: ShiftModel, mu: float, phi: float) -> _Parts:
    """The kernel's parts at one finite level on the branch."""
    _check_phi(phi)
    model.spectrum._check_shift(mu)
    parts = _kernel(_weights(model), [mu], phi, slopes=False)
    if parts.denom[0] <= 0.0:
        raise BranchViolationError(
            f"nonpositive denominator {parts.denom[0]:.3e}: mu={mu} is below the branch "
            f"edge at phi={phi}"
        )
    return parts


def tilde_v(model: ShiftModel, mu: float, phi: float, psi: float | None = None) -> float:
    """Variance-scale companion of the fixed point:

        tv = phi * tr[S0 S (S+mu I)^-2] / p  /  (1 - phi * tr[S^2 (S+mu I)^-2] / p)

    ``mu`` must be the level solved at aspect ``psi`` (psi = phi for plain
    ridge); the denominator is positive on that branch and a nonpositive
    value signals a level below the branch edge. One point of the kernel.
    """
    _check_phi(phi)
    if psi is not None and psi != PSI_INFINITE and psi < phi - 1e-12:
        raise InvalidParameterError(f"subsample aspect {psi} must be >= data aspect {phi}")
    if mu == math.inf:
        return 0.0
    return float(_at_mu(model, mu, phi).tv[0])


def risk_at_mu(model: ShiftModel, mu: float, phi: float) -> RiskDecomposition:
    """Risk equivalents parameterized directly by the level mu (admissible for
    some aspect >= phi): one point of the vectorized kernel. At mu = inf, a
    penalty (or subsampling) strong enough to kill the fit, the null risk."""
    if mu == math.inf:
        bias, shift = model.null_parts()
        return RiskDecomposition.from_parts(bias, 0.0, shift, model.kappa2)
    parts = _at_mu(model, mu, phi)
    return RiskDecomposition.from_parts(
        float(parts.bias[0]), float(parts.variance[0]), float(parts.shift[0]), parts.kappa2
    )


def risk_decomposition(model: ShiftModel, lam: float, phi: float) -> RiskDecomposition:
    """Plain-ridge risk equivalents at penalty ``lam``; requires
    lam > lambda_min(phi)."""
    mu = solve_mu(model.spectrum, lam, phi).mu
    return risk_at_mu(model, mu, phi)


def ensemble_risk(model: ShiftModel, lam: float, phi: float, psi: float) -> RiskDecomposition:
    """Risk equivalents of the full subsample-average fit at subsample aspect
    psi in [phi, inf]. The level is solved at aspect psi; psi = phi recovers
    :func:`risk_decomposition` exactly. The boundary lam = lambda_min(psi) is
    admissible (finite) whenever psi > phi.
    """
    if psi != PSI_INFINITE and psi < phi - 1e-12:
        raise InvalidParameterError(f"invalid subsample ratio: psi={psi} below phi={phi}")
    sol = solve_mu(model.spectrum, lam, psi, boundary_ok=psi > phi)
    return risk_at_mu(model, sol.mu, phi)


# -- optimizers ---------------------------------------------------------------

#: scan controls (see optimal_lambda); optimal_psi scans GRID_POINTS levels per piece
GRID_POINTS = 240
T_MIN = 1e-6
T_MAX = 1e6


@dataclass(frozen=True)
class OptimalPoint:
    lambda_star: float
    risk_star: float
    mu_star: float
    boundary_flag: BoundaryFlag
    #: every refined local minimum, best first, as (lam, risk, mu)
    local_minima: tuple[tuple[float, float, float], ...] = ()


def _scan(wt: _Weights, mus: np.ndarray, phi: float) -> tuple[np.ndarray, np.ndarray]:
    """Total risk (+inf off the branch) and its mu-derivative over levels."""
    parts = _kernel(wt, mus, phi)
    return np.where(parts.denom > 0.0, parts.total, np.inf), parts.d_total


def _minima(wt: _Weights, phi: float, mus: np.ndarray, risks: np.ndarray,
            slopes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levels and risks of the local minima of a scan (``risks`` and
    ``slopes`` at ``mus``). Each is refined to the root of dR/dmu in the
    grid cell beside it where the slope changes sign; a minimum whose slope
    has no sign change beside it (an end of the scan, or a flat stretch)
    stays on its grid level."""
    n = mus.size
    left = np.r_[True, risks[1:] <= risks[:-1]]
    right = np.r_[risks[:-1] <= risks[1:], True]

    def slope(mu: float) -> float:
        return float(_kernel(wt, [mu], phi).d_total[0])

    found_mu, found_risk = [], []
    for i in np.flatnonzero(left & right & np.isfinite(risks)):
        mu, risk = float(mus[i]), float(risks[i])
        j = i + 1 if slopes[i] < 0.0 else i - 1
        if 0 <= j < n and slopes[i] * slopes[j] < 0.0:
            a, b = min(i, j), max(i, j)
            root = _solve_monotone(slope, float(mus[a]), float(mus[b]),
                                   float(slopes[a]), float(slopes[b]), increasing=True,
                                   secant=True)
            at_root = float(_kernel(wt, [root], phi, slopes=False).total[0])
            if at_root < risk:
                mu, risk = root, at_root
        found_mu.append(mu)
        found_risk.append(risk)
    return np.array(found_mu), np.array(found_risk)


def optimal_lambda(
    model: ShiftModel,
    phi: float,
    lambda_floor: float | None = None,
) -> OptimalPoint:
    """Minimize the total risk over penalties above the admissible minimum.

    Scans levels, not penalties: GRID_POINTS levels spaced logarithmically
    in mu - mu_zero(phi) between the levels of the penalties
    lambda_min + [T_MIN, T_MAX] * (1 + |lambda_min|), where
    ``lambda_floor``, when given and higher, replaces the lower end. The
    penalty is the increasing closed form lam(mu), so only the two ends of
    the window are solved for. Every local minimum is refined to a root of
    the analytic dR/dmu; the global best is returned with all refined local
    minima. The null risk of lam = inf competes too: when it is lower, the
    optimum is lam = mu = inf, flagged ``at-infinity-null`` and listed first
    among the local minima.
    """
    sp = model.spectrum
    lmin = lambda_min(sp, phi)
    scale = 1.0 + abs(lmin)
    t_lo = T_MIN * scale
    t_hi = T_MAX * scale
    floor_active = False
    if lambda_floor is not None:
        if math.isnan(lambda_floor):
            raise InvalidParameterError("lambda_floor is NaN")
        t_floor = lambda_floor - lmin
        if t_floor > t_hi:
            raise InvalidParameterError("lambda_floor above the search window")
        if t_floor > t_lo:
            t_lo = t_floor
            floor_active = True

    lam_lo, lam_hi = lmin + t_lo, lmin + t_hi
    mu0 = mu_zero(sp, phi)
    mu_lo = solve_mu(sp, lam_lo, phi).mu
    mu_hi = solve_mu(sp, lam_hi, phi).mu
    mus = mu0 + np.geomspace(mu_lo - mu0, mu_hi - mu0, GRID_POINTS)
    mus[0], mus[-1] = mu_lo, mu_hi
    wt = _weights(model)
    risks, slopes = _scan(wt, mus, phi)
    if not np.isfinite(risks).any():
        raise SolverFailureError(f"no scanned level has a finite risk at phi={phi}")

    if float(np.nanmax(risks) - np.nanmin(risks)) <= 1e-14 * (1.0 + abs(float(np.nanmin(risks)))):
        return OptimalPoint(
            lambda_star=lam_lo, risk_star=float(risks[0]), mu_star=mu_lo,
            boundary_flag="degenerate",
        )

    found_mu, found_risk = _minima(wt, phi, mus, risks, slopes)
    lams = lambda_of_mu(sp, found_mu, phi)
    lams[found_mu == mu_lo] = lam_lo
    lams[found_mu == mu_hi] = lam_hi

    # drop near-duplicate minima, keep best-first
    kept: list[tuple[float, float, float, float]] = []
    for k in np.argsort(found_risk, kind="stable"):
        t = float(lams[k] - lmin)
        if all(abs(math.log(t) - math.log(other[0])) > 1e-6 for other in kept):
            kept.append((t, float(lams[k]), float(found_risk[k]), float(found_mu[k])))

    minima = tuple((lam, f, mu) for _, lam, f, mu in kept)
    t_star, lam_star, risk_star, mu_star = kept[0]
    null = model.null_risk()
    if null < risk_star:
        # the penalty lam = inf beyond the window, where the fit is zero
        return OptimalPoint(
            lambda_star=math.inf, risk_star=null, mu_star=math.inf,
            boundary_flag="at-infinity-null", local_minima=((math.inf, null, math.inf),) + minima,
        )
    flag: BoundaryFlag = "interior"
    if floor_active and t_star <= t_lo * (1.0 + 1e-9):
        flag = "at-floor"
    elif t_star <= 10.0 * T_MIN * scale:
        flag = "at-lambda-min"
    elif t_star >= 0.1 * t_hi and abs(risk_star - null) <= 1e-8 * (1.0 + abs(null)):
        flag = "at-infinity-null"

    return OptimalPoint(
        lambda_star=lam_star,
        risk_star=risk_star,
        mu_star=mu_star,
        boundary_flag=flag,
        local_minima=minima,
    )


def optimal_psi(model: ShiftModel, lam: float, phi: float) -> tuple[float, float]:
    """Minimize the subsample-average risk over psi in [phi, inf] at a fixed
    penalty.

    The risk depends on psi only through the level mu(lam, psi), and the
    aspect of a level is explicit, psi(mu) = (1 - lam/mu) / (tr[S R]/p) with
    R = (S + mu I)^-1. The search runs over the reachable levels (psi(mu) >=
    phi, on the branch at psi(mu)) and mu = inf (psi = inf, the null risk):
    a half-line, plus for lam < 0 and phi < 1 the negative levels of psi in
    [phi, a], lambda_min(a) = lam, apart from the half-line of psi >= b.
    Each piece is scanned on a log grid from its lower end and refined like
    :func:`optimal_lambda`; no probe solves for mu. With lam = 0 and phi < 1
    every psi in [phi, 1] has mu = 0, reported as psi = phi.
    """
    sp = model.spectrum
    mu0 = mu_zero(sp, phi)
    try:
        mu_phi = solve_mu(sp, lam, phi, boundary_ok=True).mu
    except BelowMinimumPenaltyError:
        mu_phi = None  # lam < lambda_min(phi): psi = phi is out of reach

    pieces: list[tuple[float, float]] = []
    if lam >= 0.0 or (mu_phi is not None and mu_phi > 0.0):
        pieces.append((mu_phi, math.inf))
    else:
        # lam < 0: every psi >= b > 1 is reachable, at levels from mu_zero(b) > 0 on
        pieces.append((_edge_level(sp, lam, max(mu0, 0.0)), math.inf))
        if mu_phi is not None and mu_phi > mu0:
            # psi in [phi, a], a < 1, maps onto the levels [mu_zero(a), mu_phi];
            # at mu_phi = mu0 the piece is the one level where the variance diverges
            pieces.append((_edge_level(sp, lam, mu0, mu_phi), mu_phi))

    wt = _weights(model)
    n = GRID_POINTS
    # at large psi the level grows like psi * tr[S]/p, so the half-line scan
    # spans the aspects up to about phi + 1e6 (1 + phi)
    spread = (1.0 + phi) * float(np.mean(sp.eigenvalues))
    best_mu, best_risk = math.nan, math.inf
    for lo, hi in pieces:
        if math.isinf(hi):
            # at lam = lambda_min(phi) the half-line starts on the edge of the
            # data aspect, where the variance diverges: that end is left out
            start = [] if lo == mu0 else [lo]
            mus = np.concatenate([start, lo + spread * np.geomspace(1e-9, 1e6, n)])
        else:
            mus = np.concatenate([[lo], lo + (hi - lo) * np.geomspace(1e-9, 1.0, n)])
            mus[-1] = hi
        found_mu, found_risk = _minima(wt, phi, mus, *_scan(wt, mus, phi))
        if found_risk.size and found_risk.min() < best_risk:
            k = int(np.argmin(found_risk))
            best_mu, best_risk = float(found_mu[k]), float(found_risk[k])

    if math.isinf(best_risk):
        raise SolverFailureError(f"no scanned level has a finite risk at lam={lam}, phi={phi}")
    null = model.null_risk()
    if null < best_risk:
        return PSI_INFINITE, float(null)
    if best_mu == mu_phi:
        return float(phi), best_risk
    psi = (1.0 - lam / best_mu) / sp.resolvent_trace(best_mu, power=1, sigma_power=1)
    return max(float(psi), float(phi)), best_risk
