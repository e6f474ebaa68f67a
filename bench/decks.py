"""Seeded task decks for the three workloads, and the output check of every
task.

A deck is a sequence of rounds. Every round of a workload has the same
composition (the same models or configs and the same task kinds), in a
shuffled order and with its continuous parameters drawn from the workload
seed, so runs on different seeds do comparable work. The program receives
only the generated inputs.

Library calls go through module attributes (``risk.optimal_lambda``, not a
name imported from it), so the traced run sees every call the deck makes.
"""

from __future__ import annotations

import math
import random

# -- seeding -------------------------------------------------------------------


def _rng(seed: int, *stream: int) -> random.Random:
    """Independent stream per (seed, stream...) that does not depend on how
    many values other streams drew."""
    return random.Random(repr((seed, *stream)))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# -- theory-deck -------------------------------------------------------------

#: Task kinds of one round, per model. ``path`` appears twice so that the
#: median task falls inside the path tasks, not on the gap between the
#: cheap curve and path tasks and the slower optimize tasks.
THEORY_KINDS = ("optimize", "curve", "joint", "path", "path")
P48_SHIFTS = ("none", "covariate", "regression", "joint")
P500_MODELS = ("ar1-in-dist", "ar1-reg-shift", "identity-cov-shift", "ar1-isotropic")
PHI_RANGE = (0.2, 10.0)
PHI_STRATA = 4
CURVE_POINTS = 20
PATH_SAMPLES = 33

#: tolerances of the theory-deck output checks
PATH_RTOL = 1e-8
ISOTROPIC_RTOL = 1e-4
PARTS_RTOL = 1e-12
NONNEGATIVE_SLACK = 1e-8


def theory_model_names() -> list[str]:
    names = [f"p48-{shift}-{i}" for i in range(2) for shift in P48_SHIFTS]
    return names + [f"p500-{name}" for name in P500_MODELS]


def build_theory_models(seed: int) -> dict:
    """The twelve models: two random p = 48 spectra per shift kind, and the
    four p = 500 figure models."""
    import numpy as np

    from ridgeshift import model as rmodel

    models = {}
    rng = np.random.default_rng(_rng(seed, 0).getrandbits(64))
    p = 48
    for name in theory_model_names()[:8]:
        shift = name.split("-")[1]
        spectrum = rmodel.Spectrum.from_values(np.exp(rng.uniform(np.log(0.3), np.log(4.0), p)))
        beta = rng.standard_normal(p)
        beta *= math.sqrt(rng.uniform(0.5, 2.0)) / np.linalg.norm(beta)
        sigma0 = beta0 = None
        if shift in ("covariate", "joint"):
            a = rng.standard_normal((p, p))
            sigma0 = a @ a.T / p + 0.05 * np.eye(p)
        if shift in ("regression", "joint"):
            d = rng.standard_normal(p)
            beta0 = beta + 0.5 * np.linalg.norm(beta) * d / np.linalg.norm(d)
        models[name] = rmodel.make_model(
            spectrum, beta=beta, beta0=beta0, sigma0=sigma0, sigma2=float(rng.uniform(0.05, 1.0))
        )

    # the p = 500 figure models: signal split between the extreme modes
    p = 500
    ar1, _ = rmodel.build_ar1(p, 0.5)
    pair = np.zeros(p)
    pair[0] = pair[-1] = 0.5
    models["p500-ar1-in-dist"] = rmodel.make_model(ar1, beta=pair, sigma2=0.01)
    models["p500-ar1-reg-shift"] = rmodel.make_model(ar1, beta=pair, beta0=2.0 * pair, sigma2=0.01)
    models["p500-identity-cov-shift"] = rmodel.make_model(
        rmodel.Spectrum.identity(p), beta=pair, sigma0=ar1.eigenvalues, sigma2=0.01
    )
    models["p500-ar1-isotropic"] = rmodel.make_model(ar1, alpha2=1.0, sigma2=1.0)
    return models


def theory_round(seed: int, index: int) -> list[dict]:
    """Every (model, kind) pair once, shuffled, each with its own phi.

    phi is log-uniform on PHI_RANGE, stratified: the range is cut into
    PHI_STRATA equal log-slices and each pair visits every slice once in
    PHI_STRATA consecutive rounds, so a run's cost depends little on the
    seed."""
    pairs = [(m, k) for m in theory_model_names() for k in THEORY_KINDS]
    offsets = [_rng(seed, 6, i).randrange(PHI_STRATA) for i in range(len(pairs))]
    rng = _rng(seed, 1, index)
    lo, hi = (math.log(x) for x in PHI_RANGE)
    phis = [math.exp(lo + (hi - lo) * ((off + index) % PHI_STRATA + rng.random()) / PHI_STRATA)
            for off in offsets]
    order = list(range(len(pairs)))
    rng.shuffle(order)
    tasks = []
    for i, j in enumerate(order):
        name, kind = pairs[j]
        task = {"id": f"r{index}-{i}", "kind": kind, "model": name, "phi": phis[j]}
        if kind == "path":
            task["psi_bar"] = task["phi"] * _log_uniform(rng, 1.5, 8.0)
        tasks.append(task)
    return tasks


def run_theory_task(task: dict, models: dict):
    from ridgeshift import conditions, fixed_point, risk

    m = models[task["model"]]
    phi = task["phi"]
    kind = task["kind"]
    if kind == "optimize":
        point = risk.optimal_lambda(m, phi)
        pred = conditions.predict_sign(m, phi)
        return {"lambda_star": point.lambda_star, "sign": pred.predicted_sign,
                "isotropic_target": phi / m.snr if m.is_isotropic_signal else None}
    if kind == "curve":
        lmin = fixed_point.lambda_min(m.spectrum, phi)
        scale = 1.0 + abs(lmin)
        parts = []
        for i in range(CURVE_POINTS):
            t = 10.0 ** (-3.0 + 5.0 * i / (CURVE_POINTS - 1))
            d = risk.risk_decomposition(m, lmin + t * scale, phi)
            parts.append((d.bias, d.variance, d.shift, d.kappa2, d.total))
        return {"lambda_min": lmin, "parts": parts}
    if kind == "joint":
        anchor = 0.0 if phi < 1.0 else fixed_point.lambda_min(m.spectrum, phi)
        psi_star, risk_star = risk.optimal_psi(m, anchor, phi)
        return {"psi_star": psi_star, "risk_star": risk_star, "null_risk": m.null_risk()}
    if kind == "path":
        path = fixed_point.equivalence_path(m.spectrum, phi, psi_bar=task["psi_bar"],
                                            samples=PATH_SAMPLES)
        totals = [risk.ensemble_risk(m, lam, phi, psi).total for _, lam, psi in path.points]
        return {"totals": totals}
    raise ValueError(f"unknown theory task kind {kind!r}")


def check_theory_task(task: dict, out, models) -> str | None:
    """None when the output is right, else what is wrong with it. Every
    library check gets the workload's models; this one does not need them."""
    kind = task["kind"]
    if kind == "optimize":
        lam = out["lambda_star"]
        target = out["isotropic_target"]
        if target is not None and abs(lam - target) > ISOTROPIC_RTOL * target:
            return f"isotropic optimum {lam!r} differs from phi/snr = {target!r}"
        if out["sign"] == "negative" and not lam < 0.0:
            return f"predict_sign says negative but the optimum is {lam!r}"
        if out["sign"] == "nonnegative" and lam < -NONNEGATIVE_SLACK:
            return f"predict_sign says nonnegative but the optimum is {lam!r}"
        return None
    if kind == "curve":
        if not out["lambda_min"] <= 0.0:
            return f"lambda_min {out['lambda_min']!r} is positive"
        for bias, var, shift, kappa2, total in out["parts"]:
            parts = bias + var + shift + kappa2
            if not abs(parts - total) <= PARTS_RTOL * (1.0 + abs(total)):
                return f"parts sum to {parts!r}, total is {total!r}"
        return None
    if kind == "joint":
        psi, r = out["psi_star"], out["risk_star"]
        if not (math.isfinite(r) and psi >= task["phi"]):
            return f"optimal_psi returned psi={psi!r}, risk={r!r}"
        if r > out["null_risk"] * (1.0 + 1e-12):
            return f"joint optimum {r!r} above the null risk {out['null_risk']!r}"
        return None
    if kind == "path":
        totals = out["totals"]
        worst = max(abs(t - totals[0]) for t in totals)
        if not worst <= PATH_RTOL * abs(totals[0]):
            return f"risk varies by {worst!r} along the path (anchor total {totals[0]!r})"
        return None
    return f"unknown kind {kind!r}"


# -- montecarlo --------------------------------------------------------------

#: One round of Monte Carlo cells: (name, cell kind, model, p, phi, reps,
#: psi, subsamples, penalties). Plain sweeps with penalties None run from
#: half the exact lambda_min(phi) of the identity spectrum,
#: -(1 - sqrt(phi))^2, up to 1.0 (see PLAIN_SWEEP). The cells come in three
#: cost tiers of three, so the median and the tail task each fall inside
#: one tier rather than between two.
MC_CELLS = (
    # about 50 ms (one pool thread)
    ("plain-p200-phi2", "plain", "identity", 200, 2.0, 16, None, None, None),
    ("ens1-p300-phi2", "ensemble-single", "identity", 300, 2.0, 4, 4.0, 50, (-0.5,)),
    ("iso-p200-phi0.5", "plain-isotropic", "ar1-isotropic", 200, 0.5, 8, None, None,
     (0.1, 0.3, 0.5, 0.8, 1.2, 2.0)),
    # about 250 ms
    ("plain-p300-phi0.5", "plain", "identity", 300, 0.5, 12, None, None, None),
    ("plain-p400-phi2", "plain", "identity", 400, 2.0, 32, None, None, None),
    ("ens3-p400-phi2", "ensemble-multi", "identity", 400, 2.0, 4, 4.0, 30, (-0.5, 0.0, 0.5)),
    # about 500 ms
    ("plain-p400-phi0.5", "plain", "identity", 400, 0.5, 16, None, None, None),
    ("ens1-p400-phi0.5", "ensemble-single", "identity", 400, 0.5, 4, 1.0, 20, (0.5,)),
    ("ens3-p300-phi0.5", "ensemble-multi", "identity", 300, 0.5, 8, 1.0, 5, (0.25, 0.5, 1.0)),
)

#: Plain sweep: fractions of lambda_min(phi), then nonnegative penalties.
PLAIN_SWEEP = ((0.5, 0.35, 0.15), (0.0, 0.25, 1.0))

#: Accepted |empirical mean - expected risk| per cell kind: this share of
#: the expected risk (finite-p bias) plus MC_SE standard errors of the
#: replicate mean. An ensemble cell's expected risk is that of its own
#: number of subsamples M, not the M -> infinity limit that mc_experiment
#: reports as ``theory_total`` (see expected_mc_risk).
MC_RTOL = {"plain": 0.10, "plain-isotropic": 0.10, "ensemble-single": 0.10,
           "ensemble-multi": 0.10}
MC_SE = 5.0

#: SimConfig.threads. One pool thread, like BLAS: with two busy vCPUs this
#: virtual machine lost four to five times more CPU time to the hypervisor
#: than with one, which made wall times swing by more than the bounds allow
#: (see bench/README.md).
MC_THREADS = 1


def build_mc_models(seed: int) -> dict:
    """The models of MC_CELLS; they do not depend on the seed."""
    import numpy as np

    from ridgeshift import model as rmodel

    models = {}
    for _, _, kind, p, *_ in MC_CELLS:
        key = f"{kind}-{p}"
        if key in models:
            continue
        if kind == "identity":
            beta = np.zeros(p)
            beta[0] = 1.0
            models[key] = rmodel.make_model(rmodel.Spectrum.identity(p), beta=beta, sigma2=0.25)
        else:
            spectrum, _ = rmodel.build_ar1(p, 0.5)
            models[key] = rmodel.make_model(spectrum, alpha2=1.0, sigma2=1.0)
    return models


def mc_round(seed: int, index: int) -> list[dict]:
    """Every cell of MC_CELLS once, shuffled, with jittered penalties and
    its own simulation seed."""
    rng = _rng(seed, 2, index)
    cells = list(MC_CELLS)
    rng.shuffle(cells)
    tasks = []
    for i, (name, kind, model, p, phi, reps, psi, subsamples, lams) in enumerate(cells):
        jitter = rng.uniform(0.9, 1.1)
        if lams is None:
            fractions, nonnegative = PLAIN_SWEEP
            lmin = -((1.0 - math.sqrt(phi)) ** 2)
            lams = [f * lmin for f in fractions] + list(nonnegative)
        lams = [lam * jitter for lam in lams]
        tasks.append({"id": f"r{index}-{i}", "kind": kind, "cell": name,
                      "model": f"{model}-{p}", "p": p, "phi": phi, "reps": reps,
                      "psi": psi, "subsamples": subsamples, "lambdas": lams,
                      "sim_seed": rng.getrandbits(31)})
    return tasks


def mc_fits(task: dict) -> int:
    """Ridge fits the cell asks for: replicates x subsamples x penalties."""
    return task["reps"] * (task["subsamples"] or 1) * len(task["lambdas"])


def run_mc_task(task: dict, models: dict):
    from ridgeshift import simulate

    ensemble = None
    if task["psi"] is not None:
        ensemble = simulate.EnsembleConfig(psi=task["psi"], n_subsamples=task["subsamples"])
    config = simulate.SimConfig(
        p=task["p"], phi=task["phi"], reps=task["reps"], seed=task["sim_seed"],
        ensemble=ensemble, include_plain=ensemble is None, threads=MC_THREADS,
    )
    result = simulate.mc_experiment(models[task["model"]], config, task["lambdas"])
    return [(c.lam, c.psi, c.failed, c.empirical_mean, c.empirical_se, c.theory_total)
            for c in result.cells]


def expected_mc_risk(task: dict, models: dict, lam: float, theory: float) -> float:
    """Theory risk of the cell's own fit. The average of M exchangeable
    subsample fits has risk R_1 / M + (1 - 1/M) R_cross, where R_1 is the
    risk of one fit (plain ridge at aspect psi) and the cross term R_cross
    tends to ``theory`` (the full ensemble, M -> infinity) in the
    proportional limit. On the ens3-p300-phi0.5 cell (psi = 1, five
    subsamples) it is up to 13% above ``theory``."""
    m = task["subsamples"]
    if task["psi"] is None or m is None:
        return theory
    from ridgeshift import risk

    single = risk.risk_decomposition(models[task["model"]], lam, task["psi"]).total
    return single / m + (1.0 - 1.0 / m) * theory


def check_mc_task(task: dict, out, models) -> str | None:
    if len(out) != len(task["lambdas"]):
        return f"{len(out)} cells for {len(task['lambdas'])} penalties"
    rtol = MC_RTOL[task["kind"]]
    for lam, psi, failed, mean, se, theory in out:
        if failed:
            return f"cell lambda={lam!r} psi={psi!r} failed"
        expected = expected_mc_risk(task, models, lam, theory)
        if not abs(mean - expected) <= rtol * expected + MC_SE * se:
            return (f"cell lambda={lam!r} psi={psi!r}: empirical {mean!r} (se {se!r}) vs "
                    f"expected {expected!r} (theory_total {theory!r}), "
                    f"beyond {rtol:.0%} + {MC_SE:g} se")
    return None


# -- cli-batch -----------------------------------------------------------------

CLI_SUBCOMMANDS = ("fixpoint", "lambdamin", "risk", "optimize", "conditions", "path",
                   "simulate", "sweep")
P3000 = 3000


def cli_configs(seed: int) -> dict[str, dict]:
    """The model configs: p = 500 AR(1) without shift and with a joint shift,
    and a p = 3000 file spectrum with an isotropic signal. Values of the
    file spectrum are listed under the key ``spectrum_values``."""
    rng = _rng(seed, 3)
    pair = {"kind": "eigvec-combination", "indices": [1, 500], "weights": [0.5, 0.5]}
    ar1 = {"p": 500, "spectrum": {"kind": "ar1", "rho": 0.5}, "signal": pair,
           "shift": {"kind": "none"}, "sigma2": 0.01, "sigma0_sq": 0.0}
    joint = dict(ar1, shift={"kind": "joint", "sigma0": {"kind": "ar1", "rho": 0.3},
                             "beta0": {"kind": "scale", "factor": 2.0}})
    values = sorted(_log_uniform(rng, 0.3, 4.0) for _ in range(P3000))
    big = {"p": P3000, "spectrum": {"kind": "file", "path": "spectrum3000.txt"},
           "signal": {"kind": "isotropic", "alpha2": 1.0}, "shift": {"kind": "none"},
           "sigma2": 0.5, "sigma0_sq": 0.0, "spectrum_values": values}
    return {"ar1": ar1, "ar1-joint": joint, "file3000": big}


def _cli_args(sub: str, rng: random.Random, psi_sweep: bool) -> list[str]:
    phi = _log_uniform(rng, 0.5, 5.0)
    if sub == "fixpoint":
        return ["--phi", repr(phi), "--lambda", repr(rng.uniform(0.05, 1.0))]
    if sub == "lambdamin":
        return ["--grid", f"{rng.uniform(0.1, 0.3)!r}:{rng.uniform(5.0, 10.0)!r}:50:log"]
    if sub == "risk":
        # among the slower short commands, where the median task of a run
        # falls; its cost swings by a third with phi (slowest near phi = 1),
        # so phi is fixed per config
        return ["--phi", "3.0" if psi_sweep else "2.0",
                "--grid", f"{rng.uniform(0.02, 0.1)!r}:5:100"]
    # optimize --joint, conditions on a fine grid and the sweeps are the
    # slowest p = 500 commands: twelve a run, so the tail task (the eleventh
    # slowest of about 56) falls among them; fixed aspect ratios keep their
    # cost independent of the seed
    if sub == "optimize":
        return ["--phi", "3.0" if psi_sweep else "2.0", "--joint"]
    if sub == "conditions":
        return ["--phi", "3.0" if psi_sweep else "2.0", "--grid-points", "1600"]
    if sub == "path":
        return ["--phi", repr(phi), "--psi-bar", repr(phi * _log_uniform(rng, 1.5, 8.0))]
    if sub == "simulate":
        return ["--phi", "2", "--grid", f"0:{rng.uniform(0.5, 1.5)!r}:4", "--reps", "4",
                "--seed", str(rng.getrandbits(31))]
    if sub == "sweep":
        grid = ["--grid", f"{rng.uniform(0.05, 0.2)!r}:2:20"]
        if psi_sweep:
            # psi below phi gives NaN cells on purpose; they are counted
            return grid + ["--phi", "2.0", "--psi-grid", "1.0:16:20"]
        return grid + ["--phi-grid", "0.2:5:20"]
    raise ValueError(sub)


def cli_commands(seed: int) -> list[dict]:
    """The commands of one round: every subcommand on both p = 500 configs,
    one in CSV and the other in JSON, plus lambdamin and optimize at
    p = 3000. Every round repeats the same commands, so repeats can be
    compared byte for byte."""
    rng = _rng(seed, 4)
    commands = []
    for i, sub in enumerate(CLI_SUBCOMMANDS):
        formats = ("csv", "json") if i % 2 == 0 else ("json", "csv")
        for config, fmt in zip(("ar1", "ar1-joint"), formats):
            args = _cli_args(sub, rng, psi_sweep=config == "ar1-joint")
            commands.append({"sub": sub, "config": config, "format": fmt, "args": args})
    commands.append({"sub": "lambdamin", "config": "file3000", "format": "csv",
                     "args": ["--grid", "0.2:5:10:log"]})
    commands.append({"sub": "optimize", "config": "file3000", "format": "json",
                     "args": ["--phi", repr(_log_uniform(rng, 0.5, 5.0))]})
    for i, cmd in enumerate(commands):
        cmd["key"] = i
    return commands


#: Short p = 500 commands that run twice a round: they then make up most of
#: a run's tasks, so the median task falls inside their cluster of task
#: times, not at its slow edge, where the times are sparse.
CLI_TWICE = ("fixpoint", "lambdamin", "risk", "path", "simulate")


def cli_round(seed: int, index: int, commands: list[dict]) -> list[dict]:
    rng = _rng(seed, 5, index)
    order = [cmd for cmd in commands
             for _ in range(2 if cmd["sub"] in CLI_TWICE and cmd["config"] != "file3000" else 1)]
    rng.shuffle(order)
    return [dict(cmd, id=f"r{index}-{i}", kind=cmd["sub"]) for i, cmd in enumerate(order)]


def cli_argv(task: dict, config_dir: str) -> list[str]:
    return [task["sub"], "--config", f"{config_dir}/{task['config']}.json",
            "--format", task["format"], *task["args"]]


def check_cli_task(task: dict, out, schema_validator, first_stdout: dict) -> str | None:
    """Exit code 0, JSON output valid against the CLI schema, and the same
    bytes as the first run of the same command."""
    code, stdout, stderr = out
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-300:]}"
    if task["format"] == "json":
        import json

        errors = sorted(schema_validator.iter_errors(json.loads(stdout)), key=str)
        if errors:
            return f"JSON output violates the schema: {errors[0].message}"
    first = first_stdout.setdefault(task["key"], stdout)
    if first != stdout:
        return "stdout differs from an earlier run of the same command"
    return None


def sweep_nan_cells(task: dict, stdout: str) -> int:
    """NaN totals in a sweep's output (inadmissible grid cells)."""
    if task["sub"] != "sweep":
        return 0
    if task["format"] == "json":
        import json

        return sum(1 for row in json.loads(stdout)["rows"] if row[2] is None)
    return sum(1 for line in stdout.splitlines()[1:] if line.split(",")[2] == "nan")
