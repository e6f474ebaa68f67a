"""Run one ridgeshift CLI command with the benchmark's tracing installed.

    python bench/cli_launcher.py SUMMARY_JSON SUBCOMMAND [ARGS...]

Installs the same wrappers as the traced library workloads, calls
``ridgeshift.cli.main(argv)`` and writes the span summary, plus the time
covered by root spans, to SUMMARY_JSON. Standard output is the command's
own. ``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys

from tracing import Tracer, root_coverage


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from ridgeshift import cli

    try:
        return cli.main(argv)
    finally:
        summary = tracer.summary()
        summary["covered_s"] = root_coverage(tracer.spans, [(float("-inf"), float("inf"))])[0]
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
