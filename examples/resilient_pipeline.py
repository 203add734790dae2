"""Guarded execution end-to-end: inject faults, watch the pipeline recover.

The resilience subsystem turns failures into policy.  This walkthrough runs
one compress → factor → solve pipeline three times:

1. **clean** — the reference answer, no resilience configured;
2. **chaos** — the deterministic fault injector breaks a packed launch *and*
   poisons a sketched sample block mid-construction, while the ``recover``
   policy retries from a restored RNG/sample-bank state.  The recovered
   operator acts **bit-identically** to the clean one;
3. **stagnation** — a stall-convergence fault caps CG far below convergence
   and the guarded solve escalates through the rungs CG → preconditioned
   CG → GMRES(m) → direct until one delivers the requested tolerance; the
   printed record starts with the stalled CG.

A :class:`repro.SpanTracer` rides along so every construction retry is a
recovery span (category ``"resilience"``) next to the construction phases.
Each count is read from its owner: the injector's ``fired(kind)`` for the
faults, the trace for the retries and the solve's ``extra["escalation"]``
record for the rungs.

Run with:  python examples/resilient_pipeline.py [N]
"""

import sys

import numpy as np

from repro import (
    ExecutionPolicy,
    ExponentialKernel,
    Session,
    SpanTracer,
    uniform_cube_points,
)
from repro.observe import find_spans
from repro.resilience import FAULT_KINDS, RecoveryPolicy


def run(points, b, *, policy, label, factor=True):
    print(f"--- {label} " + "-" * max(0, 60 - len(label)))
    sess = Session(points, policy=policy, seed=2)
    result = sess.compress(ExponentialKernel(1.0), 1e-8).result
    print(
        f"constructed via {result.construction_path!r}: "
        f"ranks {result.rank_range}, converged={result.converged}"
    )
    if factor:
        sess.factor(noise=1e-6)
    else:
        sess._shift = 1e-6  # same system, but leave CG unpreconditioned
    solve = sess.solve(b, tol=1e-8)
    print(
        f"solved with {solve.method!r}: {solve.iterations} iterations, "
        f"residual {solve.final_residual:.2e}, converged={solve.converged}"
    )
    return result, solve


def main(n: int = 2048) -> None:
    points = uniform_cube_points(n, dim=2, seed=11)
    b = np.random.default_rng(3).standard_normal(n)

    # 1. The clean reference.
    _, clean = run(points, b, policy=ExecutionPolicy(), label="clean")

    # 2. Chaos mode: break the packed sweep once and poison one sketched
    # sample block.  The recover policy retries both from restored state, so
    # the final solution is bitwise identical to the clean run.
    tracer = SpanTracer()
    chaos = ExecutionPolicy(
        tracer=tracer,
        recovery="recover",
        faults="fail-nth-launch:nth=1;nan-in-gemm-output:nth=2",
    )
    _, recovered = run(points, b, policy=chaos, label="chaos (injected faults)")
    assert np.array_equal(recovered.x, clean.x), "recovery must be bitwise"
    print("recovered solution is bit-identical to the clean run")
    print()
    print("recovery spans in the trace (one per recovery):")
    for span in find_spans(tracer, category="resilience"):
        print(f"  {span.name} (stage={span.attributes.get('stage', '?')})")

    # 3. Stagnation: cap CG at 3 iterations; the solve escalates until a
    # preconditioned rung reaches tol.
    stalled = ExecutionPolicy(
        recovery=RecoveryPolicy(rung_maxiter=40),
        faults="stall-convergence:iters=3",
    )
    _, escalated = run(
        points, b, policy=stalled, label="stall-convergence", factor=False
    )
    ladder = escalated.extra.get("escalation", {})
    print(f"escalated from {escalated.extra.get('escalated_from')!r}; rungs:")
    for rung in ladder.get("rungs", ()):
        print(
            f"  {rung['rung']:>6}: converged={rung['converged']} "
            f"in {rung['iterations']} iterations "
            f"(residual {rung['final_residual']:.2e})"
        )

    print()
    print("faults fired, per policy:")
    for label, policy in (("chaos", chaos), ("stall-convergence", stalled)):
        fired = {kind: policy.faults.fired(kind) for kind in FAULT_KINDS}
        print(f"  {label}: " + ", ".join(
            f"{kind}={count}" for kind, count in fired.items() if count
        ))


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2048)
