"""Finite-sample Monte Carlo harness for the deterministic risk equivalents.

Data are generated in the train eigenbasis (X = Z diag(sqrt(r)), linear
response plus noise), fitted with the pseudoinverse ridge that accepts
negative penalties, and scored with the exact conditional risk quadratic
form. Replicates derive independent random streams from
(master seed, cell-group index, replicate index), so results are
bit-identical regardless of execution order or thread count.

One dataset per (aspect-ratio group, replicate) is shared across the whole
penalty grid. A short grid takes one direct solve per penalty on a Gram
matrix, and a dense negative-to-positive sweep eigendecomposes the design
once and reuses that for every penalty. The full sample forms its own Gram
matrix. M subsamples of k <= p rows on a short grid solve on blocks of one
dual Gram X X' / k per replicate and map their summed dual coefficients
back with one product, when that n x n Gram stays within 32 MiB and it and
the gathered blocks cost no more than the M subsample Grams; other
subsamples fit their own designs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParameterError
from .fixed_point import lambda_min
from .model import (ShiftModel, _as_float_vector, _check_aspect, _check_count,
                    _check_subsample_aspect, _is_number)
from .risk import ensemble_risk

#: ratio of extreme retained design eigenvalues beyond which a fit is flagged
ILL_CONDITION_RATIO = 1e12
#: relative cutoff under which a shifted eigenvalue counts as a pseudoinverse zero
PINV_RTOL = 1e-10

#: finite-sample margin of the admissible penalties (see mc_experiment)
EDGE_GUARD = 0.05
#: longest penalty grid fitted by one direct solve per penalty; on one BLAS
#: thread a shared eigendecomposition wins from 8-11 penalties (n = 300-800)
DIRECT_SOLVES_MAX = 7
#: largest n x n dual Gram that the subsample fits of one replicate share
_DUAL_GRAM_MAX_BYTES = 32 * 2**20
#: multiply-adds that one entry of a subsample's block costs when gathered
#: from the shared dual Gram (one BLAS thread, n = 150-2000, p = 100-1000)
_GATHER_MULADDS = 200


class NearSingularRidgeWarning(RuntimeWarning):
    """Penalty sits numerically inside the design spectrum bulk."""


@dataclass(frozen=True)
class EnsembleConfig:
    psi: float
    n_subsamples: int = 100

    def __post_init__(self) -> None:
        _check_aspect(self.psi, "subsample aspect ratio psi")
        _check_count("n_subsamples", self.n_subsamples, 1)


@dataclass(frozen=True)
class SimConfig:
    """Plain cells at aspect ``phi``, ensemble cells at ``ensemble.psi``, or both."""

    p: int
    phi: float
    reps: int
    seed: int
    ensemble: EnsembleConfig | None = None
    include_plain: bool = True  # False: ensemble cells only (deep-negative penalties)
    threads: int = 1

    def __post_init__(self) -> None:
        for name, minimum in (("p", 1), ("reps", 1), ("seed", 0), ("threads", 1)):
            _check_count(name, getattr(self, name), minimum)
        _check_aspect(self.phi, "aspect ratio phi")
        # p / phi overflows at a subnormal phi, and round(inf) raises
        if not (self.p / self.phi < math.inf and self.n >= 1):
            raise InvalidParameterError("n = round(p/phi) must be >= 1 and finite")
        if self.ensemble is not None:
            k = self.p / self.ensemble.psi
            if not (k < math.inf and 1 <= round(k) <= self.n):
                raise InvalidParameterError("subsample size k must satisfy 1 <= k <= n")

    @property
    def n(self) -> int:
        return round(self.p / self.phi)


@dataclass(frozen=True)
class CellResult:
    lam: float
    psi: float
    empirical_mean: float
    empirical_se: float
    theory_total: float
    rel_error: float
    failed: bool = False
    replicate_risks: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SimResult:
    cells: tuple[CellResult, ...]


def generate_data(
    model: ShiftModel,
    n: int,
    *,
    rng: np.random.Generator | int | None = None,
    beta: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (X, y) in the train eigenbasis: X = Z diag(sqrt(r)) with
    standard normal entries, y = X beta + noise * sqrt(sigma2).

    ``beta`` overrides the model signal (isotropic-random models must pass
    the realized draw here; it must hold p finite numbers)."""
    _check_count("n", n, 1)
    rng = np.random.default_rng(rng)  # a Generator passes through unaltered
    if beta is None and model.is_isotropic_signal:
        raise InvalidParameterError("isotropic-random model needs an explicit beta draw")
    beta = model.beta if beta is None else _as_float_vector(beta, "beta")
    if beta.size != model.p:
        raise InvalidParameterError(f"beta has {beta.size} values, p is {model.p}")
    x = rng.standard_normal((n, model.p))
    x *= np.sqrt(model.spectrum.eigenvalues)
    y = x @ beta
    if model.sigma2 > 0.0:
        y = y + math.sqrt(model.sigma2) * rng.standard_normal(n)
    return x, y


class RidgeFactorization:
    """Eigendecomposition of the design, reusable across a penalty grid.

    Primal (p x p) when p <= n, dual (n x n gram) otherwise; both express the
    pseudoinverse ridge fit
        (X'X/n + lam I)^+ X'y / n = X'(XX'/n + lam I)^+ y / n
    so the whole negative-to-positive penalty range is one masked rescale.
    """

    def __init__(self, x: np.ndarray):
        n, p = x.shape
        self.n = n
        self.dual = p > n
        self.xt = x.T
        self.eigvals, self.eigvecs = np.linalg.eigh(x @ x.T / n if self.dual else x.T @ x / n)

    def solve(self, y: np.ndarray, lam: float) -> np.ndarray:
        s = self.eigvals
        shifted = s + lam
        cutoff = PINV_RTOL * max(float(np.max(np.abs(s))), abs(lam), 1e-300)
        mask = np.abs(shifted) > cutoff
        inv = np.zeros_like(shifted)
        inv[mask] = 1.0 / shifted[mask]
        near_singular = bool(np.any(~mask)) and lam != 0.0  # -lam inside the bulk
        if not near_singular and np.any(mask):
            kept = np.abs(shifted[mask])
            near_singular = float(np.max(kept) / np.min(kept)) > ILL_CONDITION_RATIO
        if near_singular:
            warnings.warn(
                f"penalty {lam} is near-singular for this design",
                NearSingularRidgeWarning,
                stacklevel=2,
            )
        if self.dual:
            coeffs = self.eigvecs.T @ y
            return self.xt @ (self.eigvecs @ (inv * coeffs)) / self.n
        coeffs = self.eigvecs.T @ (self.xt @ y) / self.n
        return self.eigvecs @ (inv * coeffs)


def _penalty_solves(gram: np.ndarray, rhs: np.ndarray, lams: Sequence[float]):
    """Solutions of (gram + lam I) a = rhs, one per penalty in turn, None
    where that matrix is exactly singular. Each penalty goes onto the
    diagonal of ``gram`` in place, the bits of adding lam * I."""
    diag = gram.diagonal().copy()
    for lam in lams:
        gram.flat[:: len(gram) + 1] = diag + lam
        try:
            yield np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            yield None


def _fits(x: np.ndarray, y: np.ndarray, lams: Sequence[float]) -> np.ndarray:
    """Pseudoinverse ridge fits of (x, y), one row per penalty. Up to
    DIRECT_SOLVES_MAX penalties take one direct solve each on the Gram
    matrix, with the factorization as the fallback at exact singularity; a
    longer grid shares one :class:`RidgeFactorization`."""
    if len(lams) > DIRECT_SOLVES_MAX:
        fact = RidgeFactorization(x)
        return np.stack([fact.solve(y, lam) for lam in lams])
    n, p = x.shape
    dual = p > n
    gram = x @ x.T / n if dual else x.T @ x / n
    rhs = y if dual else x.T @ y / n
    fits = np.empty((len(lams), p))
    fact = None  # built at the first exactly singular penalty, then reused
    for row, lam, sol in zip(fits, lams, _penalty_solves(gram, rhs, lams)):
        if sol is None:
            fact = fact or RidgeFactorization(x)
            row[:] = fact.solve(y, lam)
        else:
            row[:] = x.T @ sol / n if dual else sol
    return fits


def _subsample_fits(
    x: np.ndarray, y: np.ndarray, subsets: Sequence[np.ndarray], lams: Sequence[float]
) -> np.ndarray:
    """Summed pseudoinverse ridge fits of the subsamples (x[I], y[I]) of k
    rows each, one row per penalty.

    Each dual Gram X_I X_I' / k is the block G[I, I] of G = X X' / k, and
    sum_I X_I' (G[I, I] + lam I)^-1 y_I / k = X' sum_I scatter(a_I) / k, so
    the dual coefficients a_I gather at rows I of one (penalties x n) array
    that maps back with one product; an exactly singular block takes its
    subsample's pseudoinverse fit, added in p-space. That route needs
    k <= p, a grid of direct solves and G within _DUAL_GRAM_MAX_BYTES, and
    it is taken when G and the gathered blocks, n^2 p + M k^2 _GATHER_MULADDS
    multiply-adds, cost no more than the M subsample Grams, M k^2 p;
    otherwise every subsample is fitted on its own."""
    n, p = x.shape
    k = len(subsets[0])
    subsample_grams = len(subsets) * k * k
    shared = (k <= p and len(lams) <= DIRECT_SOLVES_MAX and 8 * n * n <= _DUAL_GRAM_MAX_BYTES
              and n * n * p + subsample_grams * _GATHER_MULADDS <= subsample_grams * p)
    if not shared:
        return sum(_fits(x[sub], y[sub], lams) for sub in subsets)
    gram = x @ x.T
    gram /= k  # the bits of x @ x.T / k without a second n x n array
    coeffs = np.zeros((len(lams), n))
    pinv_fits = np.zeros((len(lams), p))
    for sub in subsets:
        fact = None  # built at the subsample's first exactly singular penalty
        solves = _penalty_solves(gram[np.ix_(sub, sub)], y[sub], lams)
        for row, (lam, sol) in enumerate(zip(lams, solves)):
            if sol is None:
                fact = fact or RidgeFactorization(x[sub])
                pinv_fits[row] += fact.solve(y[sub], lam)
            else:
                coeffs[row, sub] += sol
        del solves  # and with it the block, before the next one is gathered
    fits = coeffs @ x
    fits /= k
    fits += pinv_fits
    return fits


def empirical_risk(
    beta_hat: np.ndarray, model: ShiftModel, beta0: np.ndarray | None = None
) -> float:
    """Exact conditional prediction risk (d' S0 d + sigma0_sq) in the train
    eigenbasis; ``beta0`` overrides the model target. Both hold p finite numbers."""
    if beta0 is None:
        if model.is_isotropic_signal:
            raise InvalidParameterError("isotropic-random model needs an explicit beta0 draw")
        beta0 = model.beta0
    if np.shape(beta_hat) != (model.p,) or np.shape(beta0) != (model.p,):
        raise InvalidParameterError(f"dimension mismatch: beta_hat {np.shape(beta_hat)}, "
                                    f"beta0 {np.shape(beta0)}, p={model.p}")
    d = _as_float_vector(beta_hat, "beta_hat") - _as_float_vector(beta0, "beta0")
    return float(model.sigma0.product(d) @ d) + model.sigma0_sq


def _admissible_bound(model: ShiftModel, aspect: float) -> float:
    lmin = lambda_min(model.spectrum, aspect)
    return lmin + EDGE_GUARD * abs(lmin)


def mc_experiment(
    model: ShiftModel,
    config: SimConfig,
    lambda_grid: Sequence[float],
) -> SimResult:
    """Estimate empirical risks on a penalty grid (plus optional ensemble
    cells) and attach the deterministic equivalents.

    Plain cells must respect the finite-sample guard
    lam >= lambda_min(phi) + EDGE_GUARD * |lambda_min(phi)| (smallest design
    eigenvalues fluctuate around the asymptotic edge); ensemble penalties
    failing their own guard at psi are skipped. Plain ridge is the
    one-sample group at psi = phi. Within one group all penalties share
    each replicate's dataset and subsamples, and every cell that did not
    fail keeps its replicate risks.
    """
    if not (_is_number(lambda_grid, scalar=False) and np.ndim(lambda_grid) == 1
            and all(map(_is_number, lambda_grid))):
        raise InvalidParameterError(f"lambda_grid must be a list of numbers, got {lambda_grid!r}")
    lambda_grid = [float(l) for l in lambda_grid]
    if not lambda_grid:
        raise InvalidParameterError("empty penalty grid")
    if config.p != model.p:
        raise InvalidParameterError(f"config p={config.p} but the model has p={model.p}")
    phi = config.phi
    n = config.n
    ens = config.ensemble

    # data-sharing groups (psi, k, subsamples, penalties)
    groups: list[tuple[float, int, int, list[float]]] = []
    if config.include_plain:
        bound = _admissible_bound(model, phi)
        offenders = [l for l in lambda_grid if l < bound - 1e-12]
        if offenders:
            raise InvalidParameterError(
                f"penalties {offenders} below the finite-sample bound {bound:.6g}"
            )
        groups.append((phi, n, 1, lambda_grid))
    elif ens is None:
        raise InvalidParameterError("include_plain=False needs ensemble cells")
    if ens is not None:
        _check_subsample_aspect(ens.psi, phi)
        psi = float(ens.psi)
        gbound = _admissible_bound(model, psi)
        admissible = [l for l in lambda_grid if l >= gbound - 1e-12]
        if admissible:
            groups.append((psi, round(model.p / psi), ens.n_subsamples, admissible))

    # the equivalents come first, so that a numeric failure surfaces before any fit
    theory = [[ensemble_risk(model, lam, phi, psi).total for lam in lams]
              for psi, _, _, lams in groups]

    def run_replicate(gidx: int, rep: int) -> list[float] | None:
        """Risks of the group's penalties on one dataset; None when a fit
        fails to factorize."""
        seq = np.random.SeedSequence(entropy=(config.seed, gidx, rep))
        rng = np.random.default_rng(seq)
        if model.is_isotropic_signal:
            beta = rng.standard_normal(model.p) * math.sqrt(model.alpha2 / model.p)
        else:
            beta = model.beta
        x, y = generate_data(model, n, rng=rng, beta=beta)
        beta0 = beta if model.is_isotropic_signal else model.beta0
        _, k, subsamples, lams = groups[gidx]
        try:
            if k == n:
                # plain ridge, or an ensemble whose every subsample is the full sample
                fits = _fits(x, y, lams)
            else:
                subsets = [rng.choice(n, size=k, replace=False) for _ in range(subsamples)]
                fits = _subsample_fits(x, y, subsets, lams)
                fits /= subsamples
        except np.linalg.LinAlgError:
            return None
        return [empirical_risk(bh, model, beta0=beta0) for bh in fits]

    tasks = [(g, rep) for g in range(len(groups)) for rep in range(config.reps)]
    if config.threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(lambda task: run_replicate(*task), tasks))
    else:
        results = [run_replicate(*task) for task in tasks]

    out_cells: list[CellResult] = []
    for gidx, ((psi, _, _, lams), ths) in enumerate(zip(groups, theory)):
        reps = results[gidx * config.reps:(gidx + 1) * config.reps]
        failed = any(r is None for r in reps)
        for j, (lam, th) in enumerate(zip(lams, ths)):
            mean = se = rel = math.nan
            if not failed:
                risks = np.array([r[j] for r in reps])
                mean = float(np.mean(risks))
                se = 0.0
                if config.reps > 1:
                    se = float(np.std(risks, ddof=1) / math.sqrt(config.reps))
                rel = abs(mean - th) / th if th > 0.0 else math.nan
            out_cells.append(
                CellResult(
                    lam=lam, psi=psi, empirical_mean=mean, empirical_se=se,
                    theory_total=th, rel_error=rel, failed=failed,
                    replicate_risks=None if failed else tuple(risks),
                )
            )
    return SimResult(cells=tuple(out_cells))
