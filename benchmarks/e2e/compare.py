#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the baseline, ``B`` the candidate; both must be untraced runs of the
same seed.  Every workload x end-to-end metric gets its own row:

* the deterministic counts of a run (``info.counts``: construction launches
  and samples) and any metric of unit ``count`` must be *exactly* equal — for
  one seed any difference is a change of behaviour, reported as ``CHANGED``;
* every other metric may worsen by at most its ``bound`` from
  ``BENCHMARK.json`` (direction-aware: ``serve_rps`` is better when higher);
* a metric whose within-run quartile range, on either side, is wider than its
  bound is ``unresolved`` rather than ``ok`` — unless the candidate's whole
  range lies on the better side — and a worsening beyond the bound counts as a
  ``REGRESSION`` there only when the two quartile ranges do not overlap.

Exits 1 on a ``REGRESSION``, a ``CHANGED`` count, or a larger
``ops_failed / ops_attempted`` on any workload; 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent


def _quartiles(metric: dict) -> Tuple[float, float]:
    stats = metric.get("stats") or {}
    value = metric["value"]
    return float(stats.get("q1", value)), float(stats.get("q3", value))


def compare_metric(spec: dict, base: dict, cand: dict) -> Tuple[str, Optional[float]]:
    """Status and the relative worsening of one metric (positive = worse)."""
    a, b = float(base["value"]), float(cand["value"])
    if spec["unit"] == "count":
        if a == b:
            return "ok", 0.0
        return "CHANGED", (b - a) / a if a else None
    lower_is_better = spec["better"] == "lower"
    worsening = (b - a) / a if lower_is_better else (a - b) / a
    a_q1, a_q3 = _quartiles(base)
    b_q1, b_q3 = _quartiles(cand)
    bound = spec["bound"]
    noisy = (a_q3 - a_q1) / a > bound or (b_q3 - b_q1) / b > bound
    if lower_is_better:
        disjoint_worse, entirely_better = b_q1 > a_q3, b_q3 < a_q1
    else:
        disjoint_worse, entirely_better = b_q3 < a_q1, b_q1 > a_q3
    if worsening > bound:
        return ("REGRESSION" if not noisy or disjoint_worse else "unresolved"), worsening
    if noisy and not entirely_better:
        return "unresolved", worsening
    return "ok", worsening


def failure_rate(workload: dict) -> float:
    return workload["ops_failed"] / max(1, workload["ops_attempted"])


def compare(spec: dict, base: dict, cand: dict) -> Tuple[List[str], bool]:
    lines: List[str] = []
    failed = False
    base_by_name: Dict[str, dict] = {w["workload"]: w for w in base["workloads"]}
    cand_by_name: Dict[str, dict] = {w["workload"]: w for w in cand["workloads"]}
    lines.append(f"{'workload':<18}{'metric':<22}{'baseline':>14}{'candidate':>14}"
                 f"{'worse by':>10}{'bound':>8}  status")
    for name in [w["name"] for w in spec["workloads"]]:
        if name not in base_by_name and name not in cand_by_name:
            continue  # not part of either run set
        if name not in base_by_name or name not in cand_by_name:
            lines.append(f"{name:<18}missing on one side")
            failed = True
            continue
        a, b = base_by_name[name], cand_by_name[name]
        for metric in spec["end_to_end"]:
            key = metric["name"]
            status, worsening = compare_metric(metric, a["metrics"][key], b["metrics"][key])
            failed = failed or status in ("REGRESSION", "CHANGED")
            shown = "n/a" if worsening is None else f"{100 * worsening:+.1f}%"
            bound = "exact" if metric["unit"] == "count" else f"{100 * metric['bound']:.0f}%"
            lines.append(
                f"{name:<18}{key:<22}{a['metrics'][key]['value']:>14.6g}"
                f"{b['metrics'][key]['value']:>14.6g}{shown:>10}{bound:>8}  {status}"
            )
        counts_a, counts_b = a["info"].get("counts", {}), b["info"].get("counts", {})
        for key in sorted(set(counts_a) | set(counts_b)):
            same = counts_a.get(key) == counts_b.get(key)
            failed = failed or not same
            lines.append(
                f"{name:<18}{key:<22}{counts_a.get(key, 'missing'):>14}"
                f"{counts_b.get(key, 'missing'):>14}{'':>10}{'exact':>8}  "
                f"{'ok' if same else 'CHANGED'}"
            )
        rate_a, rate_b = failure_rate(a), failure_rate(b)
        worse = rate_b > rate_a
        failed = failed or worse
        lines.append(
            f"{name:<18}{'ops_failed/attempted':<22}"
            f"{a['ops_failed']:>8}/{a['ops_attempted']:<5}"
            f"{b['ops_failed']:>8}/{b['ops_attempted']:<5}{'':>18}  "
            f"{'MORE FAILURES' if worse else 'ok'}"
        )
    return lines, failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, cand = (json.loads(Path(p).read_text()) for p in argv)
    for label, run in (("A", base), ("B", cand)):
        if run.get("traced"):
            print(f"{label} is a traced run; end-to-end metrics need untraced runs",
                  file=sys.stderr)
            return 2
    if base.get("seed") != cand.get("seed"):
        print(f"seeds differ ({base.get('seed')} vs {cand.get('seed')}): counts are "
              "only comparable for one seed", file=sys.stderr)
        return 2
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    lines, failed = compare(spec, base, cand)
    print("\n".join(lines))
    print("RESULT:", "regression" if failed else "no regression")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
