"""Metric definitions of the benchmark and their computation from worker
results. BENCHMARK.json lists the same names and units (a test checks it)."""

from __future__ import annotations

from decks import CLI_SUBCOMMANDS, mc_fits
from stats import median, tail_percentile

#: (name, unit, better) of every end-to-end metric, reported with --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("tasks_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("cpu_s_per_task", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_FUNCTIONS = {
    "model": ("make_model", "build_model", "build_ar1"),
    "fixed_point": ("solve_mu", "solve_mu_grid", "mu_zero", "lambda_min", "tilde_v",
                    "equivalence_path"),
    "risk": ("optimal_lambda", "optimal_psi", "risk_decomposition", "risk_mu_derivative",
             "risk_at_mu", "ensemble_risk"),
    "conditions": ("predict_sign",),
    "simulate": ("mc_experiment", "generate_data", "RidgeFactorization", "empirical_risk"),
}
RISK_KERNEL_P = (48, 500, 3000)
PLAIN_KINDS = ("plain", "plain-isotropic")
ENSEMBLE_KINDS = ("ensemble-single", "ensemble-multi")


def _per_layer():
    out = []
    for layer, names in _FUNCTIONS.items():
        for name in names:
            out.append((f"{layer}.{name}.calls", "count", "lower"))
            out.append((f"{layer}.{name}.self_ms", "ms", "lower"))
    out += [
        ("fixed_point.solve_mu.mean_us", "us", "lower"),
        ("fixed_point.solve_mu.per_optimal_lambda", "ratio", "lower"),
        ("fixed_point.mu_zero.per_solve_mu", "ratio", "lower"),
        *((f"risk.risk_at_mu.mean_us.p{p}", "us", "lower") for p in RISK_KERNEL_P),
        ("risk.ensemble_risk.raised", "count", "lower"),
        ("risk.ensemble_risk.useful_ratio", "ratio", "higher"),
        ("conditions.checks.calls", "count", "lower"),
        ("conditions.checks.self_ms", "ms", "lower"),
        ("simulate.plain_task_ms", "ms", "lower"),
        ("simulate.ensemble_task_ms", "ms", "lower"),
        ("simulate.fits", "count", "higher"),
        ("simulate.fits_per_s", "1/s", "higher"),
        ("simulate.near_singular_warnings", "count", "lower"),
        ("cli.python_start_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        *((f"cli.{sub}.ms", "ms", "lower") for sub in CLI_SUBCOMMANDS),
        ("cli.sweep.nan_cells", "count", "lower"),
        ("trace.tasks_per_s_traced", "1/s", "higher"),
        ("trace.tasks_per_s_untraced", "1/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.unattributed_ms", "ms", "lower"),
    ]
    return tuple(out)


#: (name, unit, better) of every per-layer metric, reported with --trace 1.
PER_LAYER = _per_layer()


def end_to_end(run: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """Metric values of a timed run, plus notes that belong next to them."""
    ms = [t["ms"] for t in run["tasks"]]
    n = len(ms)
    pct, tail, _ = tail_percentile(ms)
    rounds = run["rounds"]
    values = {
        "setup_s": median(setup_samples),
        "tasks_per_s": median([tasks / wall for tasks, wall, _ in rounds]),
        "latency_p50_ms": median(ms),
        "latency_tail_ms": tail,
        "cpu_s_per_task": median([cpu / tasks for tasks, _, cpu in rounds]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    failed = sum(t["error"] is not None for t in run["tasks"])
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "tasks_per_s": f"median of {len(rounds)} rounds; {n} tasks in {run['wall_s']:.2f} s",
        "cpu_s_per_task": f"median of {len(rounds)} rounds",
        "latency_p50_ms": f"n={n}",
        "latency_tail_ms": f"p{pct:.2f}, n={n}",
        "failed_fraction": f"{failed / n:.6g} ({failed}/{n})",
        "peak_rss_mb": "largest CLI process" if run["workload"] == "cli-batch"
        else "workload process",
    }
    return values, notes


def per_layer(trace: dict) -> dict:
    """Per-layer values: function self times and counts from the traced
    executions, whole-task and whole-process times from the untraced
    executions of the same tasks."""
    summary = trace.get("summary") or {"functions": {}, "tagged": {}, "nested": {},
                                       "near_singular": 0}
    funcs = summary["functions"]

    def fn(name, key):
        return funcs.get(name, {}).get(key, 0)

    values = {}
    for layer, names in _FUNCTIONS.items():
        for name in names:
            values[f"{layer}.{name}.calls"] = fn(f"{layer}.{name}", "calls")
            values[f"{layer}.{name}.self_ms"] = 1e3 * fn(f"{layer}.{name}", "self_s")

    def ratio(num, den):
        return num / den if den else 0.0

    values["fixed_point.solve_mu.mean_us"] = 1e6 * ratio(
        fn("fixed_point.solve_mu", "incl_s"), fn("fixed_point.solve_mu", "calls"))
    nested = summary["nested"]
    values["fixed_point.solve_mu.per_optimal_lambda"] = ratio(
        nested.get("fixed_point.solve_mu|risk.optimal_lambda", 0),
        fn("risk.optimal_lambda", "calls"))
    values["fixed_point.mu_zero.per_solve_mu"] = ratio(
        nested.get("fixed_point.mu_zero|fixed_point.solve_mu", 0),
        fn("fixed_point.solve_mu", "calls"))
    by_p = summary["tagged"].get("risk.risk_at_mu", {})
    for p in RISK_KERNEL_P:
        count, incl = by_p.get(str(p), (0, 0.0))
        values[f"risk.risk_at_mu.mean_us.p{p}"] = 1e6 * ratio(incl, count)
    calls = fn("risk.ensemble_risk", "calls")
    raised = fn("risk.ensemble_risk", "raised")
    values["risk.ensemble_risk.raised"] = raised
    values["risk.ensemble_risk.useful_ratio"] = ratio(calls - raised, calls)
    checks = [f for name, f in funcs.items() if name.startswith("conditions.check_")]
    values["conditions.checks.calls"] = sum(f["calls"] for f in checks)
    values["conditions.checks.self_ms"] = 1e3 * sum(f["self_s"] for f in checks)

    tasks = trace["untraced"]
    workload = trace["workload"]

    def task_ms(kinds):
        return median([t["ms"] for t in tasks if t["task"]["kind"] in kinds])

    values["simulate.plain_task_ms"] = task_ms(PLAIN_KINDS)
    values["simulate.ensemble_task_ms"] = task_ms(ENSEMBLE_KINDS)
    if workload == "montecarlo":
        fits = sum(mc_fits(t["task"]) for t in tasks)
        values["simulate.fits"] = fits
        values["simulate.fits_per_s"] = fits / (1e-3 * sum(t["ms"] for t in tasks))
    else:
        values["simulate.fits"] = 0
        values["simulate.fits_per_s"] = 0.0
    values["simulate.near_singular_warnings"] = summary["near_singular"]

    values["cli.python_start_ms"] = trace.get("python_start_ms", 0.0)
    values["cli.import_ms"] = trace.get("import_ms", 0.0)
    for sub in CLI_SUBCOMMANDS:
        values[f"cli.{sub}.ms"] = task_ms((sub,)) if workload == "cli-batch" else 0.0
    values["cli.sweep.nan_cells"] = sum(t.get("nan_cells", 0) for t in tasks)

    tps_traced = 1e3 * len(trace["tasks"]) / sum(t["ms"] for t in trace["tasks"])
    tps_untraced = 1e3 * len(tasks) / sum(t["ms"] for t in tasks)
    values["trace.tasks_per_s_traced"] = tps_traced
    values["trace.tasks_per_s_untraced"] = tps_untraced
    values["trace.overhead_pct"] = 100.0 * (1.0 - tps_traced / tps_untraced)
    values["trace.unattributed_ms"] = trace.get("unattributed_ms", 0.0)
    return values
