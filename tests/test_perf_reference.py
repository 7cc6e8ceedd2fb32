"""The benchmark's pinned outputs, checked by the test suite.

``perf/reference/`` stores the deterministic part of every seed-0 op, and
the benchmark compares its numbers to 1e-12 and its argmin contexts
exactly.  Where gaps tie (``Gap(m, m)`` is 1 for every context), last-bit
rounding picks the argmin, so an arithmetic change can move it with every
value still correct.  This runs ``verify-finite`` on every seed-0 target
of finite-large and on the first of finite-many and of finite-sparse, whose
zero-mass contexts, zero-weight dense solves and support sub-stacks the
other two lack, and compares each with the stored reference, so such a
move fails here first.  It also runs ``verify-finite`` and ``sample`` under
the traced benchmark's span wrappers (``perf/spans.py``), whose hooks name
package classes, so renaming or removing one fails here, not only in a
traced benchmark run.  It reads ``perf/`` and writes only into a temporary
directory.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from spectel.cli import EXIT_OK, main

from conftest import sparse_mixed_target, target_to_dict

PERF_DIR = Path(__file__).resolve().parents[1] / "perf"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"spectel_perf_{name}", PERF_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up in sys.modules while the class is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


harness = _load("harness")
spans = _load("spans")


def check_seed0_target(tmp_path, workload, index):
    tasks, _ = harness.build_tasks(harness.WORKLOADS[workload], harness.REFERENCE_SEED, tmp_path)
    op = tasks[index][0]
    assert op.command == "verify-finite"
    assert main(op.argv) == EXIT_OK
    expected = harness.load_reference(workload)[op.key]
    assert harness.compare(expected, harness.deterministic_part(op.command, op.out)) == []


@pytest.mark.parametrize("workload", ["finite-many", "finite-large", "finite-sparse"])
def test_first_seed0_target_matches_reference(tmp_path, workload):
    check_seed0_target(tmp_path, workload, 0)


@pytest.mark.parametrize("index", range(1, harness.POOL_SIZE))
def test_later_seed0_finite_large_target_matches_reference(tmp_path, index):
    check_seed0_target(tmp_path, "finite-large", index)


def test_traced_run_finds_its_hooks(tmp_path):
    # The traced benchmark wraps the package's public functions and the
    # constructors it names, and checks every kernels result against
    # kernels.WeightedKernel: a hook that names something gone crashes here.
    target = tmp_path / "target.json"
    target.write_text(json.dumps(target_to_dict(sparse_mixed_target())))
    runs = [
        ["verify-finite", "--target", str(target), "--out", str(tmp_path / "report.json")],
        ["sample", "--target", str(target), "--steps", "100", "--out", str(tmp_path / "chain.njson")],
    ]
    tracer = spans.Tracer()
    with spans.traced(tracer) as modules:
        for argv in runs:
            assert modules["cli"].main(argv) == EXIT_OK
    assert main is modules["cli"].main
    metrics = spans.layer_metrics(tracer, 1, 100)
    assert metrics["target.ingest_s"] > 0 and metrics["kernels.sample_gibbs_chain_s"] > 0
    assert spans.work_counters(tracer)["sampler_steps"] == 100
