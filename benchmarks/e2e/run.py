#!/usr/bin/env python3
"""End-to-end benchmark driver.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--traced]
                                  [--seconds T] [--out FILE] [--smoke]

Runs the selected workloads (default: all four) one after another, each in a
fresh interpreter with a clean environment (one BLAS thread, no ``REPRO_*``
variable), prints every metric as ``workload metric value unit``, checks the
outputs for correctness and prints, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

End-to-end metrics come from an untraced run (``--trace 0``, the default);
``--traced`` / ``--trace 1`` runs the same inputs with the benchmark's own
spans around every layer and reports the per-layer metrics instead.  With more
than one workload the metrics of the final JSON are keyed ``workload/metric``;
with ``--workload`` they carry the plain names of ``BENCHMARK.json``.

``--out FILE`` additionally writes the full result (statistics, fingerprint,
span tree; with ``--traced`` also ``FILE``-derived ``.spans.json`` and Chrome
``.trace.json`` files per workload).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from env import REPO_ROOT, clean_env  # noqa: E402
from worker import RESULT_MARKER  # noqa: E402

WORKER_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
               spans_out: Path | None) -> dict:
    """One workload in a fresh interpreter; raises ``RuntimeError`` on failure."""
    workdir = HERE / ".work" / f"{workload}-{uuid.uuid4().hex[:8]}"
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", str(workdir),
    ]
    if smoke:
        command.append("--smoke")
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    try:
        done = subprocess.run(
            command, env=clean_env(), cwd=str(REPO_ROOT), capture_output=True,
            text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise RuntimeError(f"{workload}: no result within {WORKER_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # leave nothing behind unless another run uses it
        except OSError:
            pass
    lines = [l for l in done.stdout.splitlines() if l.startswith(RESULT_MARKER)]
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload}: worker exited with code {done.returncode}\n"
            + done.stderr[-4000:]
        )
    return json.loads(lines[-1][len(RESULT_MARKER):])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload name (default: all of BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", default=None, help="write the full result JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one trial; for test_harness.py only")
    args = parser.parse_args(argv)

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    selected = [args.workload] if args.workload else names
    trace = 1 if args.traced else args.trace
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    expected = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    out_path = Path(args.out).resolve() if args.out else None

    results = []
    for name in selected:
        spans_out = None
        if out_path is not None and trace:
            spans_out = out_path.with_name(f"{out_path.stem}.{name}")
        results.append(run_worker(name, args.seed, seconds, trace, args.smoke, spans_out))

    attempted = failed = 0
    correct = True
    flat = {}
    for result in results:
        name = result["workload"]
        missing = [k for k in expected if k not in result["metrics"]]
        if missing:
            raise RuntimeError(f"{name}: metrics missing from the run: {missing}")
        for key in expected:
            metric = result["metrics"][key]
            print(f"{name} {key} {metric['value']!r} {metric['unit']}")
            flat[key if args.workload else f"{name}/{key}"] = {
                "value": metric["value"], "unit": metric["unit"]}
        for key, metric in result["metrics"].items():
            if key not in expected:  # measured, reported, but not in BENCHMARK.json
                print(f"{name} {key} {metric['value']!r} {metric['unit']} (unbounded)")
        print(f"{name} ops_attempted {result['ops_attempted']} count")
        print(f"{name} ops_failed {result['ops_failed']} count")
        for failure in result["failures"]:
            print(f"{name} FAILED {failure}")
        if trace:
            print(f"# {name}: span tree (share of the construct span / of the chain)")
            for line in result["tree"]:
                print(f"#   {line}")
        attempted += result["ops_attempted"]
        failed += result["ops_failed"]
        correct = correct and result["ops_failed"] == 0

    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps({
            "seed": args.seed, "seconds": seconds, "traced": bool(trace),
            "smoke": args.smoke, "workloads": results,
        }, indent=1))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": flat,
    }))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        raise SystemExit(1)
