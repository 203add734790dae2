"""Runs ONE workload inside the clean interpreter that ``run.py`` starts.

Prints progress to stderr and exactly one line to stdout: the JSON result
prefixed with ``RESULT_MARKER``.  Not meant to be called by hand — use
``run.py``, which sets the environment up first.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

RESULT_MARKER = "E2E-RESULT "


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    from env import fingerprint
    from pipeline import run_e2e
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](smoke=args.smoke)
    workdir = Path(args.workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            from layers import run_traced

            outcome = run_traced(
                workload, args.seed, workdir,
                Path(args.spans_out) if args.spans_out else None,
            )
        else:
            outcome = run_e2e(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = outcome["ops"]
    result = {
        "workload": workload.name,
        "traced": bool(args.trace),
        "smoke": bool(args.smoke),
        "metrics": outcome["metrics"],
        "info": outcome["info"],
        "ops_attempted": ops.attempted,
        "ops_failed": ops.failed,
        "failures": ops.failures,
        "tree": outcome.get("tree", []),
        "wall_s": time.perf_counter() - started,
        "fingerprint": fingerprint(args.seed),
    }
    sys.stdout.write(RESULT_MARKER + json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
