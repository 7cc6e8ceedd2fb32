"""Self-test of the benchmark harness on tiny inputs.

    python3 -m pytest -q perf/selftest.py

Uses (2,2,2) targets and the shortest cube chain the CLI accepts, so it
runs in well under a minute.  The file name keeps it out of the package's
own test run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import traced_run  # noqa: E402

TINY = harness.Workload(
    "tiny",
    "(2,2,2) targets and a 1e6-step cube chain",
    ("verify-finite", "verify-cube", "sample"),
    harness.Family((2, 2, 2)),
    cube_steps=1_000_000,
    sample_steps=2_000,
    coverage=("sample",),
    coverage_sample_steps=500,
)
SEED = 5  # any seed but the reference seed
# Share of the traced wall time that may fall outside every span.
UNATTRIBUTED_MAX_SHARE = 0.02

BENCHMARK = json.loads((harness.PERF_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny_workload(monkeypatch):
    monkeypatch.setitem(harness.WORKLOADS, TINY.name, TINY)
    return TINY


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_matches_the_emitted_metric_names():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(harness.WORKLOADS)


def test_children_run_one_at_a_time(tmp_path, monkeypatch):
    started, unreaped = [], []

    class CheckedPopen(subprocess.Popen):
        """Before each start, every earlier child must already be reaped."""

        def __init__(self, *args, **kwargs):
            for pid in started:
                try:
                    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
                    unreaped.append(pid)
                except ChildProcessError:
                    pass
            super().__init__(*args, **kwargs)
            started.append(self.pid)

    monkeypatch.setattr(subprocess, "Popen", CheckedPopen)
    result = run.timed_run(TINY, SEED, 0.0, tmp_path, None)
    assert result["failed"] == 0
    assert len(started) == 1 + run.SETUP_REPS + len(TINY.commands) and not unreaped
    ops = sorted(result["ops"], key=lambda op: op["start_s"])
    assert [op["command"] for op in ops] == list(TINY.commands)
    for earlier, later in zip(ops, ops[1:]):
        assert earlier["end_s"] <= later["start_s"]


def test_perturbed_report_copy_is_a_failed_op(tmp_path):
    tasks, _ = harness.build_tasks(TINY, SEED, tmp_path)
    env = harness.spectel_env(run.SRC)
    verify, _, sample = tasks[0]
    for op in (verify, sample):
        assert harness.run_child(op.argv, env, tmp_path / "err.txt")[3] == 0
    reference = {op.key: harness.deterministic_part(op.command, op.out) for op in (verify, sample)}
    assert harness.check_op(verify, 0, reference) == ([], reference[verify.key])

    report = json.loads(verify.out.read_text())
    entry = report["targets"][0]
    key = next(iter(entry["gap"]))
    entry["gap"][key] += 1e-9
    copy = tmp_path / "perturbed-report.json"
    copy.write_text(json.dumps(report))
    failures, _ = harness.check_op(harness.Op(verify.command, verify.argv, copy, key=verify.key), 0, reference)
    assert failures and f".gap.{key}" in failures[0]

    lines = sample.out.read_bytes().splitlines(keepends=True)
    lines[-1] = lines[-1].replace(b"0", b"1", 1) if b"0" in lines[-1] else lines[-1].replace(b"1", b"0", 1)
    copy = tmp_path / "perturbed-sample.txt"
    copy.write_bytes(b"".join(lines))
    perturbed = harness.Op(sample.command, sample.argv, copy, key=sample.key, expected_lines=sample.expected_lines)
    failures, _ = harness.check_op(perturbed, 0, reference)
    assert failures and "sha256" in failures[0]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(tiny_workload, capsys, trace, section):
    code = run.main(["--workload", "tiny", "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0
    line = _last_json_line(out)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    for name, unit in expected.items():
        assert f"  {name} = " in out and out.split(f"  {name} = ", 1)[1].split("\n", 1)[0].endswith(f" {unit}")


def test_dispatch_span_does_not_cover_its_own_time():
    tracer = spans.Tracer()
    for name, parent, start, end in [
        ("cli.main", -1, 0.0, 10.0),
        ("cli.cmd_sample", 0, 1.0, 7.0),
        ("kernels.sample_gibbs_chain", 1, 2.0, 5.0),
        ("target.load_target", -1, 10.0, 11.0),
    ]:
        tracer.name_id.append(tracer.intern(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    table = spans.SpanTable(tracer)
    assert table.covered_time() == 11.0
    # cli.main's own 4 s (0-1 and 7-10) are left unattributed.
    assert table.covered_time(transparent=spans.DISPATCH) == 7.0


def test_traced_runs_repeat_counts_and_match_untraced_outputs(tmp_path):
    first = traced_run.run(TINY, SEED, 0.0, tmp_path / "a" / "work", None, run.SRC)
    second = traced_run.run(TINY, SEED, 0.0, tmp_path / "b" / "work", None, run.SRC)
    # failed == 0 includes: traced and untraced outputs are identical for every op.
    assert first["failed"] == 0 and second["failed"] == 0
    assert first["work_counters"] == second["work_counters"]
    assert first["work_counters"]["eigensolves"] > 0
    assert first["metrics"]["trace.overhead_ratio"] > 0
    unattributed = first["metrics"]["trace.unattributed_s"]
    assert 0 <= unattributed < UNATTRIBUTED_MAX_SHARE * first["traced_wall_s"]
