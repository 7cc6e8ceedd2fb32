"""The benchmark's pinned outputs, checked by the test suite.

``perf/reference/`` stores the deterministic part of every seed-0 op, and
the benchmark compares its numbers to 1e-12 and its argmin contexts
exactly.  Where gaps tie (``Gap(m, m)`` is 1 for every context), last-bit
rounding picks the argmin, so an arithmetic change can move it with every
value still correct.  This runs ``verify-finite`` on every seed-0 target
of finite-large and on the first of finite-many, and compares each with
the stored reference, so such a move fails here first.  It reads ``perf/``
and writes only into a temporary directory.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from spectel.cli import EXIT_OK, main

PERF_DIR = Path(__file__).resolve().parents[1] / "perf"


def _load_harness():
    spec = importlib.util.spec_from_file_location("spectel_perf_harness", PERF_DIR / "harness.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up in sys.modules while the class is built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


harness = _load_harness()


def check_seed0_target(tmp_path, workload, index):
    tasks, _ = harness.build_tasks(harness.WORKLOADS[workload], harness.REFERENCE_SEED, tmp_path)
    op = tasks[index][0]
    assert op.command == "verify-finite"
    assert main(op.argv) == EXIT_OK
    expected = harness.load_reference(workload)[op.key]
    assert harness.compare(expected, harness.deterministic_part(op.command, op.out)) == []


@pytest.mark.parametrize("workload", ["finite-many", "finite-large"])
def test_first_seed0_target_matches_reference(tmp_path, workload):
    check_seed0_target(tmp_path, workload, 0)


@pytest.mark.parametrize("index", range(1, harness.POOL_SIZE))
def test_later_seed0_finite_large_target_matches_reference(tmp_path, index):
    check_seed0_target(tmp_path, "finite-large", index)
