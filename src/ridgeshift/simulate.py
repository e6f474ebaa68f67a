"""Finite-sample Monte Carlo harness for the deterministic risk equivalents.

Data are generated in the train eigenbasis (X = Z diag(sqrt(r)), linear
response plus noise), fitted with the pseudoinverse ridge that accepts
negative penalties, and scored with the exact conditional risk quadratic
form. Replicates derive independent random streams from
(master seed, cell-group index, replicate index), so results are
bit-identical regardless of execution order or thread count.

One dataset per (aspect-ratio group, replicate) is shared across the whole
penalty grid: each (sub)sample design is eigendecomposed once and every
penalty reuses the factorization, which is what makes dense
negative-to-positive sweeps cheap; a one-point grid takes a direct solve.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import InvalidParameterError
from .fixed_point import lambda_min
from .model import ShiftModel
from .risk import ensemble_risk, risk_decomposition

Dist = Literal["gaussian", "rademacher", "student-t"]

#: ratio of extreme retained design eigenvalues beyond which a fit is flagged
ILL_CONDITION_RATIO = 1e12
#: relative cutoff under which a shifted eigenvalue counts as a pseudoinverse zero
PINV_RTOL = 1e-10

#: finite-sample margin of the admissible penalties (see mc_experiment)
EDGE_GUARD = 0.05

MAX_THREADS_ENV = "RIDGESHIFT_MAX_THREADS"


class NearSingularRidgeWarning(RuntimeWarning):
    """Penalty sits numerically inside the design spectrum bulk."""


@dataclass(frozen=True)
class EnsembleConfig:
    psi: float
    n_subsamples: int = 100

    def __post_init__(self) -> None:
        if self.n_subsamples < 1:
            raise InvalidParameterError("n_subsamples must be >= 1")


@dataclass(frozen=True)
class SimConfig:
    p: int
    phi: float
    reps: int
    seed: int
    z_dist: Dist = "gaussian"
    noise_dist: Dist = "gaussian"
    student_df: float = 8.0
    ensemble: EnsembleConfig | None = None
    include_plain: bool = True  # False: ensemble cells only (deep-negative penalties)
    keep_replicates: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        if self.p < 1 or self.reps < 1:
            raise InvalidParameterError("p and reps must be positive")
        if self.phi <= 0.0:
            raise InvalidParameterError("phi must be positive")
        if self.n < 1:
            raise InvalidParameterError("n = round(p/phi) must be >= 1")
        # 4th-moment margin for heavy-tailed entries
        if (self.z_dist == "student-t" or self.noise_dist == "student-t") and self.student_df < 4.5:
            raise InvalidParameterError("student-t df must be >= 4.5")
        if self.ensemble is not None:
            k = round(self.p / self.ensemble.psi)
            if not (1 <= k <= self.n):
                raise InvalidParameterError("subsample size k must satisfy 1 <= k <= n")

    @property
    def n(self) -> int:
        return round(self.p / self.phi)


@dataclass(frozen=True)
class CellResult:
    lam: float
    phi: float
    psi: float
    n: int
    k: int
    n_subsamples: int
    reps: int
    empirical_mean: float
    empirical_se: float
    theory_total: float
    rel_error: float
    failed: bool = False
    replicate_risks: tuple[float, ...] | None = None


@dataclass(frozen=True)
class SimResult:
    cells: tuple[CellResult, ...]
    seed: int

    def to_rows(self) -> list[tuple[float, ...]]:
        return [
            (c.lam, c.phi, c.psi, c.empirical_mean, c.empirical_se, c.theory_total, c.rel_error)
            for c in self.cells
        ]

    def dump_replicates_csv(self, path) -> None:
        """Raw replicate risks, one row per (cell, replicate)."""
        with open(path, "w") as fh:
            fh.write("cell_id,lambda,phi,psi,rep,risk\n")
            for cid, c in enumerate(self.cells):
                if c.replicate_risks is None:
                    continue
                for rep, risk in enumerate(c.replicate_risks):
                    fh.write(
                        f"{cid},{c.lam:.17g},{c.phi:.17g},{c.psi:.17g},{rep},{risk:.17g}\n"
                    )


def _standardized_entries(rng: np.random.Generator, shape, dist: Dist, df: float) -> np.ndarray:
    if dist == "gaussian":
        return rng.standard_normal(shape)
    if dist == "rademacher":
        return rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    if dist == "student-t":
        # unit variance: t_df has variance df/(df-2)
        return rng.standard_t(df, size=shape) * math.sqrt((df - 2.0) / df)
    raise InvalidParameterError(f"unknown distribution {dist!r}")


def generate_data(
    model: ShiftModel,
    n: int,
    *,
    z_dist: Dist = "gaussian",
    noise_dist: Dist = "gaussian",
    rng: np.random.Generator | int | None = None,
    student_df: float = 8.0,
    beta: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (X, y) in the train eigenbasis: X = Z diag(sqrt(r)) with
    standardized i.i.d. entries, y = X beta + noise * sqrt(sigma2).

    ``beta`` overrides the model signal (isotropic-random models must pass
    the realized draw here)."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if beta is None:
        if model.is_isotropic_signal:
            raise InvalidParameterError("isotropic-random model needs an explicit beta draw")
        beta = model.beta
    z = _standardized_entries(rng, (n, model.p), z_dist, student_df)
    x = z * np.sqrt(model.spectrum.eigenvalues)[None, :]
    y = x @ beta
    if model.sigma2 > 0.0:
        y = y + math.sqrt(model.sigma2) * _standardized_entries(rng, (n,), noise_dist, student_df)
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
        if self.dual:
            gram = x @ x.T / n
        else:
            gram = x.T @ x / n
        self.eigvals, self.eigvecs = np.linalg.eigh(gram)

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


def _fits(x: np.ndarray, y: np.ndarray, lams: Sequence[float]) -> np.ndarray:
    """Pseudoinverse ridge fits of (x, y), one row per penalty. Several
    penalties share one :class:`RidgeFactorization`; a single penalty takes
    a direct linear solve (much cheaper than an eigendecomposition), with
    the factorization as the fallback at exact singularity."""
    if len(lams) == 1:
        n, p = x.shape
        lam = lams[0]
        try:
            # the penalty goes onto the diagonal of the fresh Gram matrix in
            # place: the same bits as adding lam * I, without the identity
            if p <= n:
                gram = x.T @ x / n
                gram.flat[:: p + 1] += lam
                return np.linalg.solve(gram, x.T @ y / n)[None]
            gram = x @ x.T / n
            gram.flat[:: n + 1] += lam
            return (x.T @ np.linalg.solve(gram, y) / n)[None]
        except np.linalg.LinAlgError:
            pass
    fact = RidgeFactorization(x)
    return np.stack([fact.solve(y, lam) for lam in lams])


def empirical_risk(
    beta_hat: np.ndarray, model: ShiftModel, beta0: np.ndarray | None = None
) -> float:
    """Exact conditional prediction risk (d' S0 d + sigma0_sq) in the train
    eigenbasis; ``beta0`` overrides the model target."""
    if beta0 is None:
        if model.is_isotropic_signal:
            raise InvalidParameterError("isotropic-random model needs an explicit beta0 draw")
        beta0 = model.beta0
    d = np.asarray(beta_hat, dtype=float) - beta0
    if d.size != model.p:
        raise InvalidParameterError("dimension mismatch")
    return float(model.sigma0_product(d) @ d) + model.sigma0_sq


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
    failing their own guard at psi are skipped. Within one aspect-ratio
    group all penalties share each replicate's dataset and subsamples.
    """
    lambda_grid = [float(l) for l in lambda_grid]
    if not lambda_grid:
        raise InvalidParameterError("empty penalty grid")
    if config.p != model.p:
        raise InvalidParameterError(f"config p={config.p} but the model has p={model.p}")
    phi = config.phi
    n = config.n
    ens = config.ensemble

    # data-sharing groups (psi, penalties); psi None is plain ridge at aspect phi
    groups: list[tuple[float | None, list[float]]] = []
    if config.include_plain:
        bound = _admissible_bound(model, phi)
        offenders = [l for l in lambda_grid if l < bound - 1e-12]
        if offenders:
            raise InvalidParameterError(
                f"penalties {offenders} below the finite-sample bound {bound:.6g}"
            )
        groups.append((None, lambda_grid))
    elif ens is None:
        raise InvalidParameterError("include_plain=False needs ensemble cells")
    if ens is not None:
        psi = float(ens.psi)
        if psi < phi - 1e-12:
            raise InvalidParameterError(f"psi={psi} below phi={phi}")
        gbound = _admissible_bound(model, psi)
        admissible = [l for l in lambda_grid if l >= gbound - 1e-12]
        if admissible:
            groups.append((psi, admissible))

    # the equivalents come first, so that a numeric failure surfaces before any fit
    theory = [
        [risk_decomposition(model, lam, phi).total if psi is None
         else ensemble_risk(model, lam, phi, psi).total for lam in lams]
        for psi, lams in groups
    ]

    def run_replicate(gidx: int, rep: int) -> list[float] | None:
        """Risks of the group's penalties on one dataset; None when a fit
        fails to factorize."""
        seq = np.random.SeedSequence(entropy=(config.seed, gidx, rep))
        rng = np.random.default_rng(seq)
        if model.is_isotropic_signal:
            beta = rng.standard_normal(model.p) * math.sqrt(model.alpha2 / model.p)
        else:
            beta = model.beta
        x, y = generate_data(
            model,
            n,
            z_dist=config.z_dist,
            noise_dist=config.noise_dist,
            rng=rng,
            student_df=config.student_df,
            beta=beta,
        )
        beta0 = beta if model.is_isotropic_signal else model.beta0
        psi, lams = groups[gidx]
        k = n if psi is None else round(model.p / psi)
        if k == n:
            # plain ridge, or an ensemble whose every subsample is the full sample
            subsets = [slice(None)]
        else:
            subsets = [rng.choice(n, size=k, replace=False) for _ in range(ens.n_subsamples)]
        fits = np.zeros((len(lams), model.p))
        try:
            for sub in subsets:
                fits += _fits(x[sub], y[sub], lams)
        except np.linalg.LinAlgError:
            return None
        fits /= len(subsets)
        return [empirical_risk(bh, model, beta0=beta0) for bh in fits]

    tasks = [(g, rep) for g in range(len(groups)) for rep in range(config.reps)]
    max_threads = int(os.environ.get(MAX_THREADS_ENV, "0")) or None
    threads = config.threads if max_threads is None else min(config.threads, max_threads)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda task: run_replicate(*task), tasks))
    else:
        results = [run_replicate(*task) for task in tasks]

    out_cells: list[CellResult] = []
    for gidx, ((psi, lams), ths) in enumerate(zip(groups, theory)):
        reps = results[gidx * config.reps:(gidx + 1) * config.reps]
        failed = any(r is None for r in reps)
        for j, (lam, th) in enumerate(zip(lams, ths)):
            mean = se = rel = math.nan
            kept = None
            if not failed:
                risks = np.array([r[j] for r in reps])
                mean = float(np.mean(risks))
                se = 0.0
                if config.reps > 1:
                    se = float(np.std(risks, ddof=1) / math.sqrt(config.reps))
                rel = abs(mean - th) / th if th > 0.0 else math.nan
                if config.keep_replicates:
                    kept = tuple(risks)
            out_cells.append(
                CellResult(
                    lam=lam, phi=phi, psi=phi if psi is None else psi, n=n,
                    k=n if psi is None else round(model.p / psi),
                    n_subsamples=1 if psi is None else ens.n_subsamples,
                    reps=config.reps, empirical_mean=mean, empirical_se=se,
                    theory_total=th, rel_error=rel, failed=failed,
                    replicate_risks=kept,
                )
            )
    return SimResult(cells=tuple(out_cells), seed=config.seed)
