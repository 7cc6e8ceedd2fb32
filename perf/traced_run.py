"""The traced run: per-layer metrics from in-process calls to ``spectel.cli.main``.

Each op runs twice in this process, once under the span wrappers of
:mod:`spans` and once without them, alternating which goes first.  Both
outputs must be identical, so the wrappers provably do not change results;
the ratio of the two wall times is the tracing overhead.
"""

from __future__ import annotations

import itertools
import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import harness
import spans


def supported_context_count(target_path: Path) -> int:
    """Contexts with positive mass over all levels, counted from the input alone."""
    data = json.loads(target_path.read_text())
    probs = np.asarray(data["probs"], dtype=float).reshape(data["axes"])
    n = probs.ndim
    total = 0
    for size in range(n):
        for lam in itertools.combinations(range(n), size):
            drop = tuple(i for i in range(n) if i not in lam)
            total += int(np.count_nonzero(probs.sum(axis=drop) > 0.0)) if lam else 1
    return total


def _call(cli, op: harness.Op) -> tuple[float, int | str]:
    start = perf_counter()
    try:
        code = cli.main(list(op.argv))
    except SystemExit as exc:
        code = f"SystemExit({exc.code})"
    except Exception:  # the run must report a crashing op, not die with it
        code = traceback.format_exc(limit=3)
    return perf_counter() - start, code


def _warm_blas() -> None:
    """One-off OpenBLAS thread start-up, paid before either pass is timed."""
    rng = np.random.default_rng(0)
    for order in (64, 512):
        a = rng.random((order, order))
        np.linalg.eigvalsh(a + a.T)


def run(workload: harness.Workload, seed: int, seconds: float, workdir: Path, reference, src: Path) -> dict:
    sys.path.insert(0, str(src))
    import spectel.cli  # noqa: F401  (imports every layer module before wrapping)

    tasks, coverage = harness.build_tasks(workload, seed, workdir)
    _warm_blas()
    tracer = spans.Tracer()
    records = []
    t0 = perf_counter()
    i = 0
    while i == 0 or perf_counter() - t0 < seconds:
        for op in tasks[i % len(tasks)]:
            records.append(_run_pair(op, tracer, reference, traced_first=len(records) % 2 == 0))
        i += 1
    for op in coverage:
        records.append(_run_pair(op, tracer, reference, traced_first=len(records) % 2 == 0))

    traced_wall = sum(r["traced_wall_s"] for r in records)
    untraced_wall = sum(r["untraced_wall_s"] for r in records)
    contexts = sum(
        supported_context_count(Path(r["op"].argv[2])) for r in records if r["op"].command == "verify-finite"
    )
    lines = sum(r["output"]["lines"] for r in records if r["op"].command == "sample" and r["output"])
    metrics = spans.layer_metrics(tracer, contexts, lines)
    covered = spans.SpanTable(tracer).covered_time(transparent=spans.DISPATCH)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    metrics["trace.unattributed_s"] = traced_wall - covered

    np.savez_compressed(workdir.parent / "spans.npz", **tracer.arrays())
    failed = sum(bool(r["failures"]) for r in records)
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": failed,
        "counts": {"ops": len(records), "coverage_ops": len(coverage), "tasks": i},
        "work_counters": spans.work_counters(tracer),
        "span_totals": spans.name_totals(tracer),
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "ops": [
            {
                "command": r["op"].command,
                "key": r["op"].key,
                "coverage": r["op"] in coverage,
                "traced_wall_s": r["traced_wall_s"],
                "untraced_wall_s": r["untraced_wall_s"],
                "failures": r["failures"],
            }
            for r in records
        ],
    }


def _run_pair(op: harness.Op, tracer: spans.Tracer, reference, traced_first: bool) -> dict:
    import spectel.cli as cli

    outputs = {}
    walls = {}
    failures = []
    for traced in (traced_first, not traced_first):
        op.out.unlink(missing_ok=True)
        if traced:
            with spans.traced(tracer) as modules:
                wall, code = _call(modules["cli"], op)
        else:
            wall, code = _call(cli, op)
        walls[traced] = wall
        if code != 0:
            failures.append(f"{'traced' if traced else 'untraced'}: exit {code}")
            outputs[traced] = None
            continue
        fails, outputs[traced] = harness.check_op(op, 0, reference)
        failures.extend(fails)
    if outputs[True] is not None and outputs[False] is not None:
        diff = harness.compare(outputs[False], outputs[True], tol=0.0)
        failures.extend(f"traced output differs from untraced at {d}" for d in diff[:5])
    return {
        "op": op,
        "traced_wall_s": walls[True],
        "untraced_wall_s": walls[False],
        "output": outputs[True],
        "failures": failures,
    }
