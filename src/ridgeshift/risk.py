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
import sys
from dataclasses import dataclass, field
from typing import Callable, Literal, NamedTuple

import numpy as np

from .errors import (
    BelowMinimumPenaltyError,
    BranchViolationError,
    InvalidParameterError,
    SolverFailureError,
)
from .fixed_point import (
    PSI_INFINITE,
    _edge_level,
    _solve_monotone,
    lambda_min,
    lambda_of_mu,
    mu_zero,
    solve_mu,
)
from .model import ShiftModel, _check_aspect, _check_subsample_aspect, _is_number

BoundaryFlag = Literal["interior", "at-lambda-min", "at-infinity-null", "at-floor", "degenerate"]


@dataclass(frozen=True)
class RiskDecomposition:
    """Additive risk decomposition; ``total`` sums bias + variance + shift + kappa2 in that order."""

    bias: float
    variance: float
    shift: float
    kappa2: float
    total: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", self.bias + self.variance + self.shift + self.kappa2)


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
#: sum_i w_i / (r_i + mu)^k, which the test covariance's sandwich completes
#: for q2 and q3 when S0 is not diagonal.
_ROWS = {
    "c1": (1, "c1"), "t2": (2, "t"), "s2": (2, "s"), "n2": (2, "n"), "b2": (2, "sig"),
    "q2": (2, "sand"), "c2": (2, "c2"), "a2": (2, "align"), "t3": (3, "t"), "s3": (3, "s"),
    "n3": (3, "n"), "b3": (3, "sig"), "q3": (3, "sand"),
}
_ALL_ROWS = _Blocks._fields[1:]


class _Plan(NamedTuple):
    """How :func:`_blocks` evaluates a tuple of rows: ``terms`` are the
    distinct (k, weights) pairs with nonzero weights, each evaluated once;
    ``rows`` names the term of each row read from one, and ``zeros`` the
    signed zero of each row with all-zero weights."""

    terms: tuple[tuple[int, np.ndarray], ...]
    rows: tuple[tuple[str, int], ...]
    zeros: tuple[tuple[str, float], ...]


class _Weights(NamedTuple):
    """Per-model inputs of the kernel. ``w`` maps each weight name of
    ``_ROWS`` to its vector (bitwise-equal vectors to one shared array) or,
    when every entry is zero, to the signed zero that a sum of its products
    gives. ``sandwich`` is None when q2 and q3 are diagonal functionals
    alone, else the test covariance's function that completes them block by
    block (see ``ridgeshift.model._TestCovariance``). ``plans`` keeps the
    plan of each tuple of rows asked for."""

    r: np.ndarray
    w: dict[str, np.ndarray | float]
    sandwich: Callable | None
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
    s0 = model.sigma0
    zero = np.zeros(p)
    if model.is_isotropic_signal:
        # E[b' A b] = alpha2 tr[A] / p; the cross terms with b0 - b vanish
        a = model.alpha2 / p
        sig, sand, c1, c2, align, sandwich = a * r, a * s0.diagonal, zero, zero, zero, None
    else:
        b = model.beta
        d = model.beta0 - b
        dvec = s0.product(d)
        sand, sandwich = s0.sandwich(b)
        sig, c1, c2, align = b * b * r, b * dvec, b * r * dvec, b * r * r * d
    named = {"c1": c1, "t": r * r / p, "s": r / p, "n": s0.diagonal * r / p, "sig": sig,
             "sand": sand, "c2": c2, "align": align}
    shared: dict[bytes, np.ndarray] = {}
    # the products of all-zero weights are zeros of the weights' signs, as
    # the resolvent's powers are positive: their sum does not depend on mu
    w = {name: shared.setdefault(v.tobytes(), v) if v.any() else float(np.add.reduce(v))
         for name, v in named.items()}
    return _Weights(r, w, sandwich, model.sigma2, model.kappa2, {})


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
        plan = wt.plans[rows] = _Plan(tuple(terms), tuple(read), tuple(zeros))
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
    out = {name: sums[j] for name, j in plan.rows}
    out.update((name, np.full(n, zero)) for name, zero in plan.zeros)
    # the diagonal functionals of the rows q2 and q3 read, which the sandwich completes
    diagonal = {name: out[name] for name in ("q2", "q3") if wt.sandwich and name in out}
    out.update((name, np.empty(n)) for name in diagonal)
    # the highest power of R read; the sandwich reads R^2
    top = max([k for k, _ in plan.terms] + [2 if diagonal else 1])
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
            sums[j, cut] = np.add.reduce(powers[k - 1] * w, axis=1)
        if diagonal:
            read = [diagonal[name][cut] if name in diagonal else None for name in ("q2", "q3")]
            for name, q in zip(("q2", "q3"), wt.sandwich(inv, powers[1], *read)):
                if name in diagonal:
                    out[name][cut] = q
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


#: the largest level whose square is finite (the bias multiplies by mu^2)
_MU_MAX = math.sqrt(sys.float_info.max)


def _check_level(mu: float) -> None:
    """The kernel's range: levels up to _MU_MAX."""
    if mu > _MU_MAX:
        raise InvalidParameterError(f"level mu={mu} is too large: its square overflows")


def _at_mu(model: ShiftModel, mu: float, phi: float) -> _Parts:
    """The kernel's parts at one finite level on the branch, at most _MU_MAX."""
    if not _is_number(mu):
        raise InvalidParameterError(f"level mu must be a number, got {mu!r}")
    model.spectrum._check_shift(mu)
    _check_level(mu)
    parts = _kernel(_weights(model), [mu], phi, slopes=False)
    if parts.denom[0] <= 0.0:
        raise BranchViolationError(
            f"nonpositive denominator {parts.denom[0]:.3e}: mu={mu} is below the branch "
            f"edge at phi={phi}"
        )
    return parts


def tilde_v(model: ShiftModel, mu: float, phi: float) -> float:
    """Variance-scale companion of the fixed point:

        tv = phi * tr[S0 S (S+mu I)^-2] / p  /  (1 - phi * tr[S^2 (S+mu I)^-2] / p)

    ``mu`` must be a level solved at some aspect psi >= phi (psi = phi for
    plain ridge); the denominator is positive on that branch and a
    nonpositive value signals a level below the branch edge. One point of
    the kernel.
    """
    _check_aspect(phi)
    if mu == math.inf:
        return 0.0
    return float(_at_mu(model, mu, phi).tv[0])


def risk_at_mu(model: ShiftModel, mu: float, phi: float) -> RiskDecomposition:
    """Risk equivalents parameterized directly by the level mu (admissible for
    some aspect >= phi): one point of the vectorized kernel. At mu = inf, a
    penalty (or subsampling) strong enough to kill the fit, the null risk."""
    _check_aspect(phi)
    if mu == math.inf:
        bias, shift = model.null_parts()
        return RiskDecomposition(bias, 0.0, shift, model.kappa2)
    parts = _at_mu(model, mu, phi)
    return RiskDecomposition(
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
    _check_subsample_aspect(psi, phi)
    sol = solve_mu(model.spectrum, lam, psi, boundary_ok=psi > phi)
    return risk_at_mu(model, sol.mu, phi)


# -- optimizers ---------------------------------------------------------------

#: scan controls (see optimal_lambda): levels per scan, optimal_psi's
#: negative piece included, and the window's ends in units of the spectrum
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
    _check_level(float(mus.max()))
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


def optimal_lambda(model: ShiftModel, phi: float,
                   lambda_floor: float | None = None) -> OptimalPoint:
    """Minimize the total risk over penalties above the admissible minimum.

    Scans levels, not penalties: GRID_POINTS levels spaced logarithmically
    in mu - mu_zero(phi) between the levels of the penalties
    lambda_min + T_MIN (r_min + |lambda_min|) and
    lambda_min + T_MAX (r_max + |lambda_min|). This window is in the units
    of the spectrum: scaling S by c and beta by c^-1/2 scales the optimum by
    c and keeps its risk and flag. ``lambda_floor``, when given and higher,
    replaces the lower end; one above the upper end is invalid. The penalty
    is the increasing closed form lam(mu), so only the two ends of the
    window are solved for. Every local minimum is refined to a root of the
    analytic dR/dmu; the global best is returned with all refined local
    minima. The null risk of lam = inf competes too: when it is lower, the
    optimum is lam = mu = inf, flagged ``at-infinity-null`` and listed first
    among the local minima.
    """
    if lambda_floor is not None and (not _is_number(lambda_floor) or math.isnan(lambda_floor)):
        raise InvalidParameterError(f"lambda_floor must be a number, got {lambda_floor!r}")
    point = _optimum(model, phi, lambda_floor, f"phi={phi}")
    if point is None:
        raise InvalidParameterError("lambda_floor above the search window")
    return point


def _optimum(model: ShiftModel, phi: float, floor: float | None,
             where: str) -> OptimalPoint | None:
    """The scan of :func:`optimal_lambda` from the penalty ``floor`` (None
    for no floor), or None for a floor above the window; ``where`` names the
    inputs when no scanned level has a finite risk."""
    sp = model.spectrum
    lmin = lambda_min(sp, phi)
    t_lo, t_hi = T_MIN * (sp.r_min + abs(lmin)), T_MAX * (sp.r_max + abs(lmin))
    lam_lo, lam_hi = lmin + t_lo, lmin + t_hi
    floor_active = floor is not None and floor > lam_lo
    if floor_active:
        if floor > lam_hi:
            return None
        lam_lo = float(floor)

    mu0 = mu_zero(sp, phi)
    mu_lo = solve_mu(sp, lam_lo, phi).mu
    mu_hi = solve_mu(sp, lam_hi, phi).mu
    mus = mu0 + np.geomspace(mu_lo - mu0, mu_hi - mu0, GRID_POINTS)
    mus[0], mus[-1] = mu_lo, mu_hi
    wt = _weights(model)
    risks, slopes = _scan(wt, mus, phi)
    if not np.isfinite(risks).any():
        raise SolverFailureError(f"no scanned level has a finite risk at {where}")
    if float(np.nanmax(risks) - np.nanmin(risks)) <= 1e-14 * (1.0 + abs(float(np.nanmin(risks)))):
        return OptimalPoint(lam_lo, float(risks[0]), mu_lo, "degenerate")

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
        return OptimalPoint(math.inf, null, math.inf, "at-infinity-null",
                            ((math.inf, null, math.inf),) + minima)
    flag: BoundaryFlag = "interior"
    if floor_active and t_star <= (lam_lo - lmin) * (1.0 + 1e-9):
        flag = "at-floor"
    elif t_star <= 10.0 * t_lo:
        flag = "at-lambda-min"
    elif t_star >= 0.1 * t_hi and abs(risk_star - null) <= 1e-8 * (1.0 + abs(null)):
        flag = "at-infinity-null"
    return OptimalPoint(lam_star, risk_star, mu_star, flag, minima)


def optimal_psi(model: ShiftModel, lam: float, phi: float) -> tuple[float, float]:
    """Minimize the subsample-average risk over psi in [phi, inf] at a fixed
    penalty.

    The risk depends on psi only through the level mu(lam, psi), and the
    aspect of a level is explicit, psi(mu) = (1 - lam/mu) / (tr[S R]/p) with
    R = (S + mu I)^-1. The search runs over the reachable levels (psi(mu) >=
    phi, on the branch at psi(mu)) and mu = inf (psi = inf, the null risk):
    a half-line, plus for lam < 0 and phi < 1 the negative levels of psi in
    [phi, a], lambda_min(a) = lam, apart from the half-line of psi >= b.
    The half-line starts at mu(lam, phi), or at the edge level of b when no
    such level is positive at lam < 0. The risk at a level is that of plain
    ridge at the penalty lam(mu) of aspect phi, so the half-line's scan is
    ``optimal_lambda(model, phi, lambda_floor=lam(start))``; for an anchor
    whose floor is above that window, the start level alone competes with
    the null risk. The negative piece is scanned on a log grid from its
    lower end and refined the same way; no probe solves for mu. With lam = 0
    and phi < 1 every psi in [phi, 1] has mu = 0, reported as psi = phi.
    """
    sp = model.spectrum
    mu0 = mu_zero(sp, phi)
    try:
        mu_phi = solve_mu(sp, lam, phi, boundary_ok=True).mu
    except BelowMinimumPenaltyError:
        mu_phi = None  # lam < lambda_min(phi): psi = phi is out of reach

    wt = _weights(model)
    negative: list[tuple[float, float]] = []  # (risk, level) of the negative piece's minima
    if lam >= 0.0 or (mu_phi is not None and mu_phi > 0.0):
        start, floor = mu_phi, lam
    else:
        # lam < 0: every psi >= b > 1 is reachable, at levels from mu_zero(b) > 0 on
        start = _edge_level(sp, lam, max(mu0, 0.0))
        floor = lambda_of_mu(sp, start, phi)
        if mu_phi is not None and mu_phi > mu0:
            # psi in [phi, a], a < 1, maps onto the levels [mu_zero(a), mu_phi];
            # at mu_phi = mu0 the piece is the one level where the variance diverges
            lo = _edge_level(sp, lam, mu0, mu_phi)
            mus = np.concatenate([[lo], lo + (mu_phi - lo) * np.geomspace(1e-9, 1.0, GRID_POINTS)])
            mus[-1] = mu_phi
            found_mu, found_risk = _minima(wt, phi, mus, *_scan(wt, mus, phi))
            negative = list(zip(found_risk, found_mu))

    point = _optimum(model, phi, floor, f"lam={lam}, phi={phi}")
    # above the window, the start level alone competes with the null risk
    found = [(point.risk_star, point.mu_star) if point is not None
             else (_scan(wt, np.r_[start], phi)[0][0], start)] + negative
    # the first of equal risks: the half-line's before the negative piece's
    best_risk, best_mu = min(found, key=lambda f: f[0])
    if not math.isfinite(best_risk):
        raise SolverFailureError(f"no scanned level has a finite risk at lam={lam}, phi={phi}")
    null = model.null_risk()
    if null < best_risk or best_mu == math.inf:
        return PSI_INFINITE, float(null)
    if best_mu == mu_phi:
        return float(phi), float(best_risk)
    r = sp.eigenvalues
    psi = (1.0 - lam / best_mu) / (float(np.add.reduce(r / (r + best_mu))) / r.size)
    return max(float(psi), float(phi)), float(best_risk)
