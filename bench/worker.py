"""One workload process of the benchmark: set up, say READY, run the deck in
a closed loop with a single client, check every output and print one RESULT
line of JSON.

    python bench/worker.py --workload theory-deck --seed 1 --mode run \
        --seconds 30 --workdir .bench_work/x

Modes: ``probe`` stops after set-up (set-up timing only); ``run`` measures
whole rounds for about ``--seconds`` and times probes of its own set-up
between tasks; ``trace`` runs every task of the fixed trace deck twice, with
the tracing wrappers installed and without. ``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time

import decks
from stats import median

#: Compute threads of the BLAS library in every workload process and in the
#: CLI processes of cli-batch; set before numpy is imported.
BLAS_THREADS = 1
BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Rounds of the fixed deck that the trace mode runs.
TRACE_ROUNDS = {"theory-deck": 1, "montecarlo": 4, "cli-batch": 1}
#: Fewest rounds a timed run makes; cli-batch needs two so that every
#: command is repeated and compared byte for byte.
MIN_ROUNDS = {"theory-deck": 1, "montecarlo": 1, "cli-batch": 2}
START_PROBES = 5
#: Set-up probes a timed run makes, spread evenly over its measured time:
#: on a shared virtual machine speed can drift by tens of percent within
#: seconds, so a burst of set-ups taken at one moment samples one speed only.
SETUP_PROBES = 11
SCHEMA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "src", "ridgeshift", "schemas", "cli_output.schema.json")


def blas_env() -> dict[str, str]:
    return {var: str(BLAS_THREADS) for var in BLAS_ENV_VARS}


class Library:
    """Library calls in this process, on models built at set-up."""

    def __init__(self, seed: int, build, make_round, run_task, check_task):
        self.seed = seed
        self.models = build(seed)
        self._round, self._run, self._check = make_round, run_task, check_task

    def round(self, index: int) -> list[dict]:
        return self._round(self.seed, index)

    def run(self, task: dict):
        return self._run(task, self.models)

    def check(self, records) -> list[str | None]:
        return [self._check(task, out, self.models) for task, out in records]


class CliBatch:
    """One ``python -m ridgeshift.cli`` process per task, one at a time. In
    the traced run each command goes through ``cli_launcher.py`` instead."""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.traced = False
        self.env = dict(os.environ, **blas_env())
        configs = decks.cli_configs(seed)
        for name, config in configs.items():
            values = config.pop("spectrum_values", None)
            if values is not None:
                with open(os.path.join(workdir, config["spectrum"]["path"]), "w") as fh:
                    fh.write("".join(f"{v!r}\n" for v in values))
                config["spectrum"]["path"] = os.path.join(workdir, config["spectrum"]["path"])
            with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
                json.dump(config, fh)
        self.commands = decks.cli_commands(seed)
        self.launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     "cli_launcher.py")
        self.calls = 0

    def round(self, index: int) -> list[dict]:
        return decks.cli_round(self.seed, index, self.commands)

    def run(self, task: dict):
        argv = decks.cli_argv(task, self.workdir)
        if self.traced:
            summary_path = os.path.join(self.workdir, f"trace-{self.calls}.json")
            cmd = [sys.executable, self.launcher, summary_path, *argv]
        else:
            summary_path = None
            cmd = [sys.executable, "-m", "ridgeshift.cli", *argv]
        self.calls += 1
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env, timeout=150)
        return proc.returncode, proc.stdout, proc.stderr, summary_path

    def check(self, records) -> list[str | None]:
        import jsonschema

        with open(SCHEMA) as fh:
            validator = jsonschema.Draft202012Validator(json.load(fh))
        first: dict = {}
        return [decks.check_cli_task(task, out[:3], validator, first)
                for task, out in records]


WORKLOADS = ("theory-deck", "montecarlo", "cli-batch")


def make_workload(name: str, seed: int, workdir: str):
    if name == "theory-deck":
        return Library(seed, decks.build_theory_models, decks.theory_round,
                       decks.run_theory_task, decks.check_theory_task)
    if name == "montecarlo":
        return Library(seed, decks.build_mc_models, decks.mc_round, decks.run_mc_task,
                       decks.check_mc_task)
    return CliBatch(seed, workdir)


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its waited-for children."""
    return sum(u.ru_utime + u.ru_stime for u in (resource.getrusage(resource.RUSAGE_SELF),
                                                 resource.getrusage(resource.RUSAGE_CHILDREN)))


def steal_ticks() -> int | None:
    """Ticks the hypervisor withheld from this machine's CPUs (Linux)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else None


def run_one(workload, task: dict) -> tuple:
    t0 = time.perf_counter()
    try:
        out, err = workload.run(task), None
    except Exception as exc:  # recorded as a failed task with its inputs
        out, err = None, f"{type(exc).__name__}: {exc}"
    return task, t0, time.perf_counter(), out, err


def closed_loop(workload, seconds: float, min_rounds: int, pause, pauses: int):
    """Run whole rounds, one task at a time, and stop at the round boundary
    nearest to ``seconds`` (at least ``min_rounds``). Between tasks, call
    ``pause`` up to ``pauses`` times, spread evenly over ``seconds``; its
    wall and CPU time are left out of the rounds. Returns the task records
    and (tasks, wall seconds, CPU seconds) per round."""
    records = []
    rounds = []
    elapsed = 0.0
    paused = 0
    while True:
        r0, c0 = time.perf_counter(), cpu_seconds()
        skip_wall = skip_cpu = 0.0
        tasks = workload.round(len(rounds))
        for task in tasks:
            records.append(run_one(workload, task))
            now = elapsed + time.perf_counter() - r0 - skip_wall
            if paused < pauses and now >= (paused + 0.5) * seconds / pauses:
                p0, q0 = time.perf_counter(), cpu_seconds()
                pause()
                skip_wall += time.perf_counter() - p0
                skip_cpu += cpu_seconds() - q0
                paused += 1
        wall = time.perf_counter() - r0 - skip_wall
        rounds.append((len(tasks), wall, cpu_seconds() - c0 - skip_cpu))
        elapsed += wall
        if len(rounds) >= min_rounds and elapsed + 0.5 * elapsed / len(rounds) >= seconds:
            return records, rounds


def setup_seconds(argv: list[str]) -> float:
    """Seconds from starting the probe worker ``argv`` until it says READY."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(60.0, proc.kill)
    killer.start()
    ready = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY"):
                ready = time.perf_counter() - t0
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return ready


def paired_loop(workload, set_traced, rounds: int):
    """Run every task of the fixed trace deck twice, with the wrappers
    installed and without, alternating which goes first, so that a drift in
    machine speed affects both sides alike."""
    traced, untraced = [], []
    for index in range(rounds):
        for task in workload.round(index):
            for on in (True, False) if len(traced) % 2 == 0 else (False, True):
                set_traced(on)
                (traced if on else untraced).append(run_one(workload, task))
    set_traced(False)
    return traced, untraced


def machine_block(workload: str) -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "simconfig_threads": decks.MC_THREADS if workload == "montecarlo" else None,
    }


def median_process_ms(argv: list[str], env: dict, repeats: int = START_PROBES) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, env=env, capture_output=True, timeout=60)
        times.append(1e3 * (time.perf_counter() - t0))
    return median(times)


def entries(workload, records) -> list[dict]:
    """Task records with their check results, ready for JSON."""
    reasons = iter(workload.check([(task, out) for task, _, _, out, err in records
                                   if err is None]))
    out_entries = []
    for task, t0, t1, out, err in records:
        entry = {"task": task, "ms": 1e3 * (t1 - t0),
                 "error": err if err is not None else next(reasons)}
        if isinstance(workload, CliBatch) and out is not None:
            entry["nan_cells"] = decks.sweep_nan_cells(task, out[1])
            entry["stdout_sha256"] = hashlib.sha256(out[1].encode()).hexdigest()
        out_entries.append(entry)
    return out_entries


def cli_summary(records) -> tuple[dict | None, float]:
    """Merge the span summaries the traced CLI processes wrote; also return
    the traced task time that no span covered."""
    from tracing import merge_summaries

    summary = None
    unattributed = 0.0
    for _, t0, t1, out, err in records:
        if err is not None or not os.path.exists(out[3]):
            continue
        with open(out[3]) as fh:
            part = json.load(fh)
        unattributed += 1e3 * ((t1 - t0) - part.pop("covered_s"))
        summary = part if summary is None else merge_summaries(summary, part)
    return summary, unattributed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    os.environ.update(blas_env())

    tracer = None
    if args.mode == "trace" and args.workload != "cli-batch":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()  # model construction in set-up is traced too
    workload = make_workload(args.workload, args.seed, args.workdir)
    workload.round(0)
    print("READY", flush=True)
    if args.mode == "probe":
        return 0

    result = {"workload": args.workload, "mode": args.mode}
    steal0, began = steal_ticks(), time.perf_counter()
    if args.mode == "run":
        probe_dir = os.path.join(args.workdir, "probe")
        os.mkdir(probe_dir)
        probe_argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                      "--seed", str(args.seed), "--mode", "probe", "--workdir", probe_dir]
        setups = []

        def probe() -> None:
            setups.append(setup_seconds(probe_argv))

        records, rounds = closed_loop(workload, args.seconds, MIN_ROUNDS[args.workload],
                                      probe, SETUP_PROBES)
        while len(setups) < SETUP_PROBES:  # a run that ended early
            probe()
        # the probes are smaller than the largest CLI process, so they do
        # not raise the children's high-water mark on cli-batch
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-batch" else resource.RUSAGE_SELF
        result.update(rounds=rounds, wall_s=sum(r[1] for r in rounds), setup_probes=setups,
                      peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
                      tasks=entries(workload, records))
    else:
        if tracer is not None:
            def set_traced(on: bool) -> None:
                if on != tracer.installed:
                    tracer.install() if on else tracer.uninstall()
        else:
            def set_traced(on: bool) -> None:
                workload.traced = on
        records, plain = paired_loop(workload, set_traced, TRACE_ROUNDS[args.workload])
        result.update(tasks=entries(workload, records), untraced=entries(workload, plain))
        if tracer is not None:
            from tracing import root_coverage

            result["summary"] = tracer.summary()
            windows = [(t0, t1) for _, t0, t1, _, _ in records]
            covered = root_coverage(tracer.spans, windows)
            result["unattributed_ms"] = sum(1e3 * ((t1 - t0) - c)
                                            for (t0, t1), c in zip(windows, covered))
        else:
            result["summary"], result["unattributed_ms"] = cli_summary(records)
            start = median_process_ms([sys.executable, "-c", "pass"], workload.env)
            result["python_start_ms"] = start
            result["import_ms"] = median_process_ms(
                [sys.executable, "-c", "import ridgeshift.cli"], workload.env) - start
    steal1, wall = steal_ticks(), time.perf_counter() - began
    result["machine"] = machine_block(args.workload)
    if steal0 is not None and steal1 is not None:
        ticks = os.sysconf("SC_CLK_TCK") * wall * (os.cpu_count() or 1)
        result["machine"]["steal_pct"] = 100.0 * (steal1 - steal0) / ticks
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
