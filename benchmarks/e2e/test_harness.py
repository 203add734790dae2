"""Checks of the benchmark harness itself (``python -m pytest benchmarks/e2e -q``).

Everything runs at the ``--smoke`` size (N=512, one trial), which exists for
this file only: the numbers are meaningless, the plumbing is the same.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(HERE)]

import compare  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(tmp: Path, workload: str, trace: int, seed: int = 7) -> dict:
    out = tmp / f"{workload}-{trace}-{seed}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return {
        "stdout": done.stdout.splitlines(),
        "last": json.loads(done.stdout.splitlines()[-1]),
        "full": json.loads(out.read_text()),
        "out": out,
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("e2e")
    return {(w, t): run(tmp, w, t) for w in NAMES for t in (0, 1)}


def test_spec_names_and_units():
    assert set(NAMES) == set(WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + NAMES
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for metric in metrics:
        assert UNIT_RE.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_emitted_once(runs, workload, trace):
    result = runs[(workload, trace)]
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    last = result["last"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == set(wanted)
    for name, metric in last["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == wanted[name]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    # ... and printed exactly once as "workload metric value unit".
    printed = [l.split()[1] for l in result["stdout"] if l.startswith(workload + " ")]
    for name in wanted:
        assert printed.count(name) == 1, name


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in NAMES:
        for name, metric in runs[(workload, 0)]["last"]["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_span_tree_is_consistent(runs):
    for workload in NAMES:
        out = runs[(workload, 1)]["out"]
        spans = json.loads(out.with_name(f"{out.stem}.{workload}.spans.json").read_text())
        chrome = json.loads(out.with_name(f"{out.stem}.{workload}.trace.json").read_text())
        assert len(chrome["traceEvents"]) == len(spans) > 0
        by_id = {s["id"]: s for s in spans}
        covered = {}
        for span in spans:
            assert span["end"] >= span["start"]
            assert span["self"] >= -1e-9, span
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
                assert span["trial"] == parent["trial"]
                covered[parent["id"]] = covered.get(parent["id"], 0.0) + span["end"] - span["start"]
        for parent_id, total in covered.items():
            parent = by_id[parent_id]
            assert total <= parent["end"] - parent["start"] + 1e-9
        # children + self time add up to the construct span
        construct = next(s for s in spans if s["name"] == "construct")
        kids = [s for s in spans if s["parent"] == construct["id"]]
        assert math.isclose(
            sum(k["end"] - k["start"] for k in kids) + construct["self"],
            construct["end"] - construct["start"], rel_tol=1e-9, abs_tol=1e-9)


def test_span_recorder_self_time():
    rec = SpanRecorder()
    with rec.span("outer") as outer:
        with rec.span("inner", items=3):
            pass
        with rec.span("inner", items=4) as second:
            with rec.span("leaf"):
                pass
    assert [s.name for s in rec.children(outer)] == ["inner", "inner"]
    assert rec.count(outer, "inner", "items") == 7
    assert rec.count(outer, "leaf") == 1
    assert rec.self_time(outer) >= 0 and rec.self_time(second) >= 0
    assert math.isclose(
        rec.self_time(outer) + sum(c.duration for c in rec.children(outer)), outer.duration)


def test_counts_repeat_for_one_seed_and_inputs_change_with_it(runs, tmp_path):
    workload = "ie3d_dense"
    count_names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
                   if m["unit"] == "count"}
    for trace in (0, 1):
        again = run(tmp_path, workload, trace)
        first = runs[(workload, trace)]
        for name in count_names & set(first["last"]["metrics"]):
            assert (first["last"]["metrics"][name]["value"]
                    == again["last"]["metrics"][name]["value"]), name
        if not trace:
            assert (first["full"]["workloads"][0]["info"]["counts"]
                    == again["full"]["workloads"][0]["info"]["counts"])
    for cls in WORKLOADS.values():
        a, b, c = (cls(smoke=True).setup(seed) for seed in (7, 7, 11))
        assert np.array_equal(a.points, b.points) and np.array_equal(a.rhs, b.rhs)
        assert np.array_equal(a.reference, b.reference)
        assert not np.array_equal(a.points, c.points)
        assert not np.array_equal(a.probes, c.probes)


def test_compare_flags_regressions(runs, tmp_path):
    base = runs[("h2_update", 0)]["full"]
    assert compare.compare(SPEC, base, base)[1] is False
    slower = json.loads(json.dumps(base))
    metric = slower["workloads"][0]["metrics"]["construct_s"]
    metric["value"] *= 2
    metric["stats"] = {k: v * 2 if k != "n" else v for k, v in metric["stats"].items()}
    lines, failed = compare.compare(SPEC, base, slower)
    assert failed and any("REGRESSION" in l and "construct_s" in l for l in lines)
    changed = json.loads(json.dumps(base))
    changed["workloads"][0]["info"]["counts"]["construct_launches"] += 1
    assert compare.compare(SPEC, base, changed)[1] is True
    broken = json.loads(json.dumps(base))
    broken["workloads"][0]["ops_failed"] = 1
    assert compare.compare(SPEC, base, broken)[1] is True
    faster = json.loads(json.dumps(base))
    faster["workloads"][0]["metrics"]["serve_rps"]["value"] *= 2
    assert compare.compare(SPEC, base, faster)[1] is False
