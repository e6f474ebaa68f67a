"""Run the benchmark on several seeds and print each end-to-end metric's
median and quartile spread (IQR as a share of the median) against a third
of its bound in BENCHMARK.json.

    python3 bench/steadiness.py --workload montecarlo --seeds 1 2 3 4 5

Runs are sequential: parallel runs would share the cores they measure.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(ROOT / spec["command"][1]), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        machine = next((json.loads(line[len("machine "):]) for line in lines
                        if line.startswith("machine ")), {})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} steal_pct={machine.get('steal_pct', 0.0):.1f} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) >= 2:
        for name, vals in values.items():
            spread = quartile_spread(vals)
            limit = bounds[name] / 3.0
            flag = "ok" if spread <= limit else "WIDE"
            print(f"{name:18s} median {median(vals):12.6g}  spread {spread:7.4f}  "
                  f"bound/3 {limit:7.4f}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
