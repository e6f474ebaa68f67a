"""ridgeshift benchmark: one workload per call, each in fresh interpreters.

    python3 bench/run.py --workload theory-deck --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (``src/ridgeshift`` must exist). With
``--trace 0`` it times the workload and prints the end-to-end metrics; with
``--trace 1`` it runs every task of the fixed trace deck with the layer
wrappers installed and without, and prints the per-layer metrics. Every task's
output is checked. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import report
from worker import WORKLOADS, blas_env

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src,
                **blas_env())


def spawn(workload: str, seed: int, mode: str, seconds: float, workdir: Path,
          timeout: float) -> tuple[float, dict]:
    """Run one worker process; return its set-up time (start to READY) and
    its RESULT object."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
           "--workdir", str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                            cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY"):
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None or result is None:
        raise BenchError(f"{mode} worker for {workload} exited with code {proc.returncode}")
    return ready, result


def failures(tasks: list[dict]) -> list[dict]:
    return [{"task": t["task"], "reason": t["error"]} for t in tasks if t["error"] is not None]


def emit(workload: str, metrics: dict, units: dict, notes: dict, failed: list[dict],
         attempted: int, machine: dict) -> None:
    print(f"# ridgeshift benchmark, workload {workload}")
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"{name:42s} {value:14.6g} {units[name]:6s}" + (f"  ({note})" if note else ""))
    if "failed_fraction" in notes:
        print(f"{'failed_fraction':42s} {notes['failed_fraction']}")
    for f in failed:
        print("FAILED " + json.dumps(f))
    print("machine " + json.dumps(machine))
    line = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(line))


def timed(args, workdir: Path) -> None:
    setup, run = spawn(args.workload, args.seed, "run", args.seconds, workdir,
                       timeout=args.seconds + 120)
    values, notes = report.end_to_end(run, [setup, *run["setup_probes"]])
    units = {name: unit for name, unit, _ in report.END_TO_END}
    emit(args.workload, values, units, notes, failures(run["tasks"]), len(run["tasks"]),
         run["machine"])


def traced(args, workdir: Path) -> None:
    _, result = spawn(args.workload, args.seed, "trace", args.seconds, workdir, timeout=170)
    values = report.per_layer(result)
    units = {name: unit for name, unit, _ in report.PER_LAYER}
    # stdout must not depend on whether the wrappers are installed
    differ = [{"task": a["task"], "reason": "stdout differs with tracing installed"}
              for a, b in zip(result["tasks"], result["untraced"])
              if a.get("stdout_sha256") != b.get("stdout_sha256")]
    notes = {"trace.overhead_pct": f"{len(result['tasks'])} tasks, each traced and untraced"}
    emit(args.workload, values, units, notes,
         failures(result["tasks"]) + failures(result["untraced"]) + differ,
         len(result["tasks"]) + len(result["untraced"]), result["machine"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ridgeshift benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ridgeshift" / "__init__.py").is_file():
        print(f"error: no ridgeshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        (traced if args.trace else timed)(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
