"""Command-line front end.

Subcommands take a JSON model config plus numeric flags and emit
machine-readable tables (CSV by default, JSON with a fixed schema). All
floats are printed with 17 significant digits so reruns are byte-identical.
``main`` builds the model from ``--config`` and writes the table; each
``_cmd_*`` computes its params, columns and rows from the model (and
``simulate`` writes its ``--dump-replicates`` file).

Exit codes: 0 success, 1 invalid configuration or arguments, 2 numeric
failure (the failing cell is named on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import suppress
from typing import Sequence

import numpy as np

from . import __version__
from .conditions import (
    LEVEL_POINTS,
    check_cov_shift_overparam,
    check_in_dist_alignment,
    check_reg_shift_alignment,
    check_reg_shift_general_balance,
    predict_sign,
)
from .errors import BelowMinimumPenaltyError, InvalidParameterError, RidgeShiftError
from .fixed_point import (
    equivalence_path,
    lambda_min,
    mu_zero,
    solve_mu,
)
from .model import ShiftModel, build_model
from .risk import (
    ensemble_risk,
    optimal_lambda,
    optimal_psi,
    risk_decomposition,
    tilde_v,
)

#: What a subcommand computes: the table's params, its columns and its rows.
_Table = tuple[dict, list[str], list[tuple]]


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _parse_grid(spec: str) -> np.ndarray:
    """start:stop:count[:log] -> inclusive grid."""
    parts = spec.split(":")
    try:
        if len(parts) not in (3, 4):
            raise ValueError
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InvalidParameterError(
            f"bad grid spec {spec!r}; want start:stop:count[:log]") from None
    if count < 1:
        raise InvalidParameterError("grid count must be >= 1")
    if len(parts) == 4:
        if parts[3] != "log":
            raise InvalidParameterError(f"bad grid suffix {parts[3]!r}")
        if start <= 0.0 or stop <= 0.0:
            raise InvalidParameterError("log grid needs positive endpoints")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _csv(columns: list[str], rows: list[tuple]) -> str:
    return "".join(",".join(map(_fmt, line)) + "\n" for line in [columns, *rows])


def _write_table(args, command: str, params: dict, columns: list[str], rows: list[tuple]) -> None:
    if args.format == "json":
        def clean(v):
            # keep strict-JSON validity: no NaN/Infinity literals
            if isinstance(v, float):
                if math.isnan(v):
                    return None
                if math.isinf(v):
                    return "inf" if v > 0 else "-inf"
            return v

        payload = {
            "command": command,
            "params": {k: clean(v) for k, v in params.items()},
            "columns": columns,
            "rows": [[clean(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        text = _csv(columns, rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_fixpoint(model: ShiftModel, args) -> _Table:
    phi = args.phi
    psi = args.psi if args.psi is not None else phi
    if psi != phi:  # ensemble_risk applies the subsample-aspect rule before its solve
        ensemble_risk(model, args.lam, phi, psi)
    sol = solve_mu(model.spectrum, args.lam, psi, boundary_ok=psi > phi)
    v = math.inf if sol.mu == 0.0 else 1.0 / sol.mu  # 0 at mu = inf
    tv = tilde_v(model, sol.mu, phi)
    return (
        {"lambda": args.lam, "phi": phi, "psi": psi},
        ["lambda", "phi", "psi", "mu", "v", "tilde_v", "residual"],
        [(args.lam, phi, psi, sol.mu, v, tv, sol.residual)],
    )


def _cmd_lambdamin(model: ShiftModel, args) -> _Table:
    sp = model.spectrum
    rows = [(phi, mu_zero(sp, phi), lambda_min(sp, phi))
            for phi in map(float, _parse_grid(args.grid))]
    return {"grid": args.grid}, ["phi", "mu_zero", "lambda_min"], rows


def _cmd_risk(model: ShiftModel, args) -> _Table:
    rows = []
    for lam in map(float, _parse_grid(args.grid)):
        d = risk_decomposition(model, lam, args.phi)
        rows.append((lam, args.phi, d.bias, d.variance, d.shift, d.kappa2, d.total))
    return ({"phi": args.phi, "grid": args.grid},
            ["lambda", "phi", "bias", "variance", "shift", "kappa2", "total"], rows)


def _cmd_optimize(model: ShiftModel, args) -> _Table:
    phi = args.phi
    point = optimal_lambda(model, phi, args.lambda_floor)
    lmin = lambda_min(model.spectrum, phi)
    naive = -model.spectrum.r_min * (1.0 - math.sqrt(phi)) ** 2
    columns = [
        "row_type", "lambda", "psi", "risk", "mu", "boundary",
        "lambda_min", "naive_lambda_min",
    ]
    rows: list[tuple] = [
        ("optimum", point.lambda_star, phi, point.risk_star, point.mu_star,
         point.boundary_flag, lmin, naive)
    ]
    for lam, risk, mu in point.local_minima[1:]:
        rows.append(("local-min", lam, phi, risk, mu, "", lmin, naive))
    if args.joint:
        # anchor penalty per the subsampling equivalence: ridgeless when
        # underparameterized, the minimum penalty otherwise
        anchor = 0.0 if phi < 1.0 else lmin
        psi_star, risk_star = optimal_psi(model, anchor, phi)
        rows.append(("joint-optimum", anchor, psi_star, risk_star, math.nan, "", lmin, naive))
    return {"phi": phi}, columns, rows


def _cmd_conditions(model: ShiftModel, args) -> _Table:
    phi, points = args.phi, args.grid_points
    pred = predict_sign(model, phi, points)
    # the reports the sign route read are printed, not computed again
    decided = {r.condition_id: r for r in pred.reports}
    rows: list[tuple] = []

    def add(condition_id: str, check, *check_args) -> None:
        # raised only by the check's solve of mu(0, phi), on the branch edge: no row
        with suppress(BelowMinimumPenaltyError):
            report = decided.get(condition_id) or check(*check_args)
            rows.append(("condition", report.condition_id, str(report.holds),
                         report.worst_margin, report.grid))

    if phi > 1.0 and not model.is_isotropic_signal:
        add("in-dist-alignment", check_in_dist_alignment, model, phi, points)
    if model.spectrum.is_identity and phi > 1.0:
        add("cov-shift-overparam", check_cov_shift_overparam, model, phi)
    if model.has_regression_shift:
        add("reg-shift-alignment", check_reg_shift_alignment, model, points)
    add("reg-shift-general-balance", check_reg_shift_general_balance, model, phi, points)
    rows.append(("sign-prediction", pred.predicted_sign, pred.regime, math.nan,
                 pred.applied_rule))
    return {"phi": phi}, ["record", "id", "value", "worst_margin", "detail"], rows


def _cmd_path(model: ShiftModel, args) -> _Table:
    path = equivalence_path(model.spectrum, args.phi, lambda_bar=args.lambda_bar,
                            psi_bar=args.psi_bar, samples=args.samples)
    rows = [(theta, lam, psi, solve_mu(model.spectrum, lam, psi, boundary_ok=True).mu)
            for theta, lam, psi in path.points]
    return (
        {"phi": args.phi, "lambda_bar": path.lambda_bar, "psi_bar": path.psi_bar,
         "mu_star": path.mu_star},
        ["theta", "lambda", "psi", "mu"], rows,
    )


def _cmd_simulate(model: ShiftModel, args) -> _Table:
    # the Monte Carlo layer loads only for the command that runs it
    from .simulate import EnsembleConfig, SimConfig, mc_experiment

    lams = _parse_grid(args.grid)
    ensemble = None
    if args.psi is not None:
        ensemble = EnsembleConfig(psi=args.psi, n_subsamples=args.subsamples)
    config = SimConfig(
        p=model.p, phi=args.phi, reps=args.reps, seed=args.seed,
        ensemble=ensemble, include_plain=not args.ensemble_only, threads=args.threads,
    )
    result = mc_experiment(model, config, [float(l) for l in lams])
    if args.dump_replicates:
        reps = [(cid, c.lam, args.phi, c.psi, rep, risk) for cid, c in enumerate(result.cells)
                if not c.failed for rep, risk in enumerate(c.replicate_risks)]
        with open(args.dump_replicates, "w") as fh:
            fh.write(_csv(["cell_id", "lambda", "phi", "psi", "rep", "risk"], reps))
    return (
        {"phi": args.phi, "seed": args.seed, "reps": args.reps},
        ["lambda", "phi", "psi", "empirical_mean", "empirical_se", "theory_total", "rel_error"],
        [(c.lam, args.phi, c.psi, c.empirical_mean, c.empirical_se, c.theory_total, c.rel_error)
         for c in result.cells],
    )


def _cmd_sweep(model: ShiftModel, args) -> _Table:
    lams = _parse_grid(args.grid)
    if args.psi_grid is not None:
        if args.phi is None:
            raise InvalidParameterError("--psi-grid mode needs --phi")
        ys = _parse_grid(args.psi_grid)

        def total(lam: float, psi: float) -> float:
            return ensemble_risk(model, lam, args.phi, psi).total
    elif args.phi_grid is not None:
        ys = _parse_grid(args.phi_grid)

        def total(lam: float, phi: float) -> float:
            return risk_decomposition(model, lam, phi).total
    else:
        raise InvalidParameterError("sweep needs --psi-grid or --phi-grid")
    rows: list[tuple] = []
    for lam in map(float, lams):
        for y in map(float, ys):
            try:
                cell = total(lam, y)
            except RidgeShiftError:
                cell = math.nan  # inadmissible or failed cell
            rows.append((lam, y, cell))
    return {"grid": args.grid}, ["x", "y", "total"], rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ridgeshift",
        description="Deterministic risk equivalents and optimal ridge penalties "
        "under distribution shift",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="model config JSON path")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("fixpoint", help="solve the penalty equation at one point")
    common(p)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--psi", type=float, default=None)
    p.set_defaults(func=_cmd_fixpoint)

    p = sub.add_parser("lambdamin", help="minimum penalty over an aspect-ratio grid")
    common(p)
    p.add_argument("--grid", required=True, help="phi grid start:stop:count[:log]")
    p.set_defaults(func=_cmd_lambdamin)

    p = sub.add_parser("risk", help="risk decomposition over a penalty grid")
    common(p)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--grid", required=True, help="lambda grid start:stop:count[:log]")
    p.set_defaults(func=_cmd_risk)

    p = sub.add_parser("optimize", help="minimize risk over the penalty")
    common(p)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--lambda-floor", type=float, default=None)
    p.add_argument("--joint", action="store_true",
                   help="also minimize over the subsample aspect ratio")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("conditions", help="alignment checks and sign prediction")
    common(p)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--grid-points", type=int, default=LEVEL_POINTS)
    p.set_defaults(func=_cmd_conditions)

    p = sub.add_parser("path", help="penalty/subsample equivalence contour")
    common(p)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--lambda-bar", type=float, default=None)
    p.add_argument("--psi-bar", type=float, default=None)
    p.add_argument("--samples", type=int, default=33)
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("simulate", help="Monte Carlo validation of the equivalents")
    common(p)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--grid", required=True, help="lambda grid start:stop:count[:log]")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--psi", type=float, default=None, help="ensemble subsample aspect ratio")
    p.add_argument("--subsamples", type=int, default=100)
    p.add_argument("--ensemble-only", action="store_true",
                   help="skip the plain-ridge cells (penalties only valid at --psi)")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--dump-replicates", default=None, help="CSV path for raw replicate risks")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="2-d grid of theory totals (long format)")
    common(p)
    p.add_argument("--phi", type=float, default=None, help="data aspect ratio for --psi-grid mode")
    p.add_argument("--grid", required=True, help="lambda grid start:stop:count[:log]")
    p.add_argument("--psi-grid", default=None, help="psi grid start:stop:count[:log]")
    p.add_argument("--phi-grid", default=None, help="phi grid start:stop:count[:log]")
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            model = build_model(json.load(fh))
        _write_table(args, args.command, *args.func(model, args))
    except (InvalidParameterError, OSError, json.JSONDecodeError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except RidgeShiftError as exc:
        print(f"error: numeric failure in {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
