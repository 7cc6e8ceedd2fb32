"""Regenerate the stored reference outputs for the reference seed.

    python3 perf/reference.py [WORKLOAD ...]

Runs every op of the reference seed's input pool, and the traced run's
coverage ops, once through the CLI and stores the deterministic part of each
output (report numbers without ``wallclock_s``; a SHA-256 of ``sample``
output) under ``perf/reference/``, keyed by command, input digest and
arguments.  Only regenerate when the program's results are meant to change.
"""

from __future__ import annotations

import json
import sys

import harness
from run import OUT_DIR, SRC


def main(names: list[str]) -> int:
    env = harness.spectel_env(SRC)
    for name in names or sorted(harness.WORKLOADS):
        workload = harness.WORKLOADS[name]
        workdir = OUT_DIR / "reference" / name
        tasks, coverage = harness.build_tasks(workload, harness.REFERENCE_SEED, workdir)
        ops = {}
        for op in [op for task in tasks for op in task] + coverage:
            wall, _, _, rc = harness.run_child(op.argv, env, workdir / "stderr.txt")
            failures, output = harness.check_op(op, rc, None)
            if failures:
                print(f"{name}: {op.key} failed: {failures}", file=sys.stderr)
                return 1
            ops[op.key] = output
            print(f"{name}: {op.command} {wall:.2f} s", flush=True)
        path = harness.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        body = {"seed": harness.REFERENCE_SEED, "tolerance": harness.REFERENCE_TOL, "ops": ops}
        path.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
