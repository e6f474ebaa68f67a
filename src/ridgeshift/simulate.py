"""Finite-sample Monte Carlo harness for the deterministic risk equivalents.

Data are generated in the train eigenbasis (X = Z diag(sqrt(r)), linear
response plus noise), fitted with the pseudoinverse ridge that accepts
negative penalties, and scored with the exact conditional risk quadratic
form. Replicates derive independent random streams from
(master seed, cell-group index, replicate index), so results are
bit-identical regardless of execution order or thread count.

One dataset per (aspect-ratio group, replicate) is shared across the whole
penalty grid: the design is eigendecomposed once and every penalty reuses
the factorization, which is what makes dense negative-to-positive sweeps
cheap.
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
    edge_guard: float = 0.05
    keep_replicates: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        if self.p < 1 or self.reps < 1:
            raise InvalidParameterError("p and reps must be positive")
        if self.phi <= 0.0:
            raise InvalidParameterError("phi must be positive")
        if round(self.p / self.phi) < 1:
            raise InvalidParameterError("n = round(p/phi) must be >= 1")
        # 4th-moment margin for heavy-tailed entries
        if (self.z_dist == "student-t" or self.noise_dist == "student-t") and self.student_df < 4.5:
            raise InvalidParameterError("student-t df must be >= 4.5")
        if self.ensemble is not None:
            k = round(self.p / self.ensemble.psi)
            n = round(self.p / self.phi)
            if not (1 <= k <= n):
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
        if self.dual:
            gram = x @ x.T / n
            self.eigvals, self.eigvecs = np.linalg.eigh(gram)
            self.xt = x.T
        else:
            cov = x.T @ x / n
            self.eigvals, self.eigvecs = np.linalg.eigh(cov)
            self.xt = x.T

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


def ridge_fit(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Pseudoinverse ridge fit accepting any real penalty; the zero-penalty
    overparameterized case returns the minimum-norm interpolator."""
    return RidgeFactorization(x).solve(y, lam)


def _ridge_solve_direct(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Single-penalty fit by a direct linear solve (much cheaper than an
    eigendecomposition when the penalty grid has one point); falls back to
    the pseudoinverse factorization at exact singularity."""
    n, p = x.shape
    try:
        # the penalty goes onto the diagonal of the fresh Gram matrix in
        # place: the same bits as adding lam * I, without the identity
        if p <= n:
            gram = x.T @ x / n
            gram.flat[:: p + 1] += lam
            return np.linalg.solve(gram, x.T @ y / n)
        gram = x @ x.T / n
        gram.flat[:: n + 1] += lam
        return x.T @ np.linalg.solve(gram, y) / n
    except np.linalg.LinAlgError:
        return ridge_fit(x, y, lam)


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


@dataclass(frozen=True)
class _Cell:
    lam: float
    psi: float | None  # None = plain ridge
    group: int  # data-sharing group index


def _admissible_bound(model: ShiftModel, aspect: float, guard: float) -> float:
    lmin = lambda_min(model.spectrum, aspect)
    return lmin + guard * abs(lmin)


def mc_experiment(
    model: ShiftModel,
    config: SimConfig,
    lambda_grid: Sequence[float],
    psi_grid: Sequence[float] | None = None,
) -> SimResult:
    """Estimate empirical risks on a penalty grid (plus optional ensemble
    cells) and attach the deterministic equivalents.

    Plain cells must respect the finite-sample guard
    lam >= lambda_min(phi) + guard * |lambda_min(phi)| (smallest design
    eigenvalues fluctuate around the asymptotic edge); ensemble combinations
    failing their own guard are skipped. Within one aspect-ratio group all
    penalties share each replicate's dataset and factorization.
    """
    lambda_grid = [float(l) for l in lambda_grid]
    if not lambda_grid:
        raise InvalidParameterError("empty penalty grid")
    phi = config.phi
    n = config.n

    psis: list[float] = []
    if psi_grid is not None:
        psis = [float(p) for p in psi_grid]
    elif config.ensemble is not None:
        psis = [float(config.ensemble.psi)]
    n_subsamples = config.ensemble.n_subsamples if config.ensemble is not None else 100

    cells: list[_Cell] = []
    groups: list[float | None] = []
    if config.include_plain:
        bound = _admissible_bound(model, phi, config.edge_guard)
        offenders = [l for l in lambda_grid if l < bound - 1e-12]
        if offenders:
            raise InvalidParameterError(
                f"penalties {offenders} below the finite-sample bound {bound:.6g}"
            )
        groups.append(None)  # plain ridge at aspect phi
        cells.extend(_Cell(lam=l, psi=None, group=0) for l in lambda_grid)
    elif not psis:
        raise InvalidParameterError("include_plain=False needs ensemble cells")
    for psi in psis:
        if psi < phi - 1e-12:
            raise InvalidParameterError(f"psi={psi} below phi={phi}")
        gbound = _admissible_bound(model, psi, config.edge_guard)
        admissible = [l for l in lambda_grid if l >= gbound - 1e-12]
        if not admissible:
            continue
        groups.append(psi)
        gidx = len(groups) - 1
        cells.extend(_Cell(lam=l, psi=psi, group=gidx) for l in admissible)

    theory: dict[tuple[float, float], float] = {}
    for cell in cells:
        psi = phi if cell.psi is None else cell.psi
        key = (cell.lam, psi)
        if key not in theory:
            if cell.psi is None:
                theory[key] = risk_decomposition(model, cell.lam, phi).total
            else:
                theory[key] = ensemble_risk(model, cell.lam, phi, psi).total

    # replicate task: one dataset per (group, rep); sweep all penalties in it
    group_cells: dict[int, list[int]] = {}
    for idx, cell in enumerate(cells):
        group_cells.setdefault(cell.group, []).append(idx)

    def run_replicate(gidx: int, rep: int) -> dict[int, float]:
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
        out: dict[int, float] = {}
        psi = groups[gidx]
        k = n if psi is None else round(model.p / psi)
        if k == n:
            # plain ridge, or an ensemble whose every subsample is the full sample
            fact = RidgeFactorization(x)
            for idx in group_cells[gidx]:
                bh = fact.solve(y, cells[idx].lam)
                out[idx] = empirical_risk(bh, model, beta0=beta0)
            return out
        # one set of index draws shared across the penalty sweep
        subsets = [rng.choice(n, size=k, replace=False) for _ in range(n_subsamples)]
        # a one-point penalty grid does not pay for eigendecompositions
        single_lam = len(group_cells[gidx]) == 1
        facts = None if single_lam else [RidgeFactorization(x[i]) for i in subsets]
        for idx in group_cells[gidx]:
            lam = cells[idx].lam
            bh = np.zeros(model.p)
            if facts is None:
                for sub in subsets:
                    bh += _ridge_solve_direct(x[sub], y[sub], lam)
            else:
                for sub, fact in zip(subsets, facts):
                    bh += fact.solve(y[sub], lam)
            bh /= n_subsamples
            out[idx] = empirical_risk(bh, model, beta0=beta0)
        return out

    tasks = [(g, rep) for g in group_cells for rep in range(config.reps)]
    max_threads = int(os.environ.get(MAX_THREADS_ENV, "0")) or None
    threads = config.threads if max_threads is None else min(config.threads, max_threads)

    results: dict[tuple[int, int], dict[int, float]] = {}
    failed_groups: set[int] = set()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {pool.submit(run_replicate, g, rep): (g, rep) for g, rep in tasks}
            for fut, key in futures.items():
                try:
                    results[key] = fut.result()
                except np.linalg.LinAlgError:
                    failed_groups.add(key[0])
    else:
        for g, rep in tasks:
            try:
                results[(g, rep)] = run_replicate(g, rep)
            except np.linalg.LinAlgError:
                failed_groups.add(g)

    out_cells: list[CellResult] = []
    for idx, cell in enumerate(cells):
        psi = phi if cell.psi is None else cell.psi
        k = n if cell.psi is None else round(model.p / cell.psi)
        m = 1 if cell.psi is None else n_subsamples
        th = theory[(cell.lam, psi)]
        if cell.group in failed_groups:
            out_cells.append(
                CellResult(
                    lam=cell.lam, phi=phi, psi=psi, n=n, k=k, n_subsamples=m,
                    reps=config.reps, empirical_mean=math.nan, empirical_se=math.nan,
                    theory_total=th, rel_error=math.nan, failed=True,
                )
            )
            continue
        risks = np.array([results[(cell.group, rep)][idx] for rep in range(config.reps)])
        mean = float(np.mean(risks))
        se = float(np.std(risks, ddof=1) / math.sqrt(config.reps)) if config.reps > 1 else 0.0
        rel = abs(mean - th) / th if th > 0.0 else math.nan
        out_cells.append(
            CellResult(
                lam=cell.lam, phi=phi, psi=psi, n=n, k=k, n_subsamples=m,
                reps=config.reps, empirical_mean=mean, empirical_se=se,
                theory_total=th, rel_error=rel,
                replicate_risks=tuple(risks) if config.keep_replicates else None,
            )
        )
    return SimResult(cells=tuple(out_cells), seed=config.seed)
