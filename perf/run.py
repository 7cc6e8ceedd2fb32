"""spectel benchmark: CLI end-to-end timings, or a traced per-layer run.

    python3 perf/run.py --workload finite-many --seed 0 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; the program is taken
from the checkout's ``src`` directory, nothing needs installing.  Inputs are
generated from ``--seed`` and handed to the program as target JSON files.

``--trace 0`` times the CLI as a user runs it: one child process at a time
(closed loop, one client), tasks drawn from the seeded input pool until
``--seconds`` have passed.  ``--trace 1`` runs the same kind of inputs
in-process through ``spectel.cli.main`` twice, once with span wrappers around
every public function and once without, checks that both give identical
outputs, and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
list every metric by name with its unit.  A result file with the environment
record and every op goes to ``.perf_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import harness
from harness import WORKLOADS, OpResult

ROOT = harness.PERF_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perf_out"
# Bare `spectel --version` processes timed per run; setup_s is their median.
# They are spread over the run, in step with the tasks, so that they see the
# same host speed as the ops do.
SETUP_REPS = 11

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {
    "target.contexts": "count",
    "target.enumerate_s": "s",
    "target.ingest_s": "s",
    "target.self_s": "s",
    "target.free_indices_calls": "count",
    "target.conditional_tensor_calls_per_context": "ratio",
    "kernels.gibbs_kernel_s": "s",
    "kernels.gibbs_kernel_calls": "count",
    "kernels.walk_kernel_s": "s",
    "kernels.walk_kernel_calls": "count",
    "kernels.spectral_summary_s": "s",
    "kernels.eigensolve_s": "s",
    "kernels.eigensolves": "count",
    "kernels.eigensolves_per_summary": "ratio",
    "kernels.eigensolve_n3": "count",
    "kernels.kernels_built": "count",
    "kernels.max_kernel_order": "count",
    "kernels.dense_bytes_peak_computed": "bytes",
    "kernels.sample_gibbs_chain_s": "s",
    "kernels.sampler_steps_per_s": "steps/s",
    "bounds.gap_profile_self_s": "s",
    "bounds.telescope_verify_s": "s",
    "bounds.s_route_s": "s",
    "bounds.g_route_s": "s",
    "bounds.eta_route_s": "s",
    "bounds.assemble_bounds_self_s": "s",
    "cube_corner.run_corner_chain_s": "s",
    "cube_corner.chain_steps_per_s": "steps/s",
    "cube_corner.fit_s": "s",
    "cube_corner.eigenrelation_s": "s",
    "cube_corner.tv_check_s": "s",
    "cli.self_s": "s",
    "cli.lines_emitted": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_s": "s",
}


def blas_threads() -> dict:
    """Thread settings of every OpenBLAS loaded in this process, queried directly."""
    found = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower() and "/" in line})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc.__class__.__name__})"
    return proc.stdout.strip() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {
            k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "blas_threads_in_benchmark_process": blas_threads(),
        "platform": platform.platform(),
    }


def timed_run(workload, seed: int, seconds: float, workdir: Path, reference) -> dict:
    env = harness.spectel_env(SRC)
    tasks, _ = harness.build_tasks(workload, seed, workdir)
    err = workdir / "stderr.txt"
    setup: list[float] = []

    def version() -> float:
        wall, _, _, rc = harness.run_child(["--version"], env, err)
        if rc != 0:
            raise SystemExit(f"perf: `spectel --version` exited with {rc}: {err.read_text()[-500:]}")
        return wall

    version()  # first start compiles the package's bytecode; users pay that once

    results: list[OpResult] = []
    task_walls = []
    setup_spent = 0.0  # version starts do not count towards --seconds
    t0 = perf_counter()
    i = 0
    while i == 0 or perf_counter() - t0 - setup_spent < seconds:
        share = min((perf_counter() - t0 - setup_spent) / seconds, 1.0) if seconds > 0 else 1.0
        while len(setup) < SETUP_REPS * share:
            setup.append(version())
            setup_spent += setup[-1]
        task_wall = 0.0
        for op in tasks[i % len(tasks)]:
            op.out.unlink(missing_ok=True)  # a stale output must not pass for this op's
            wall, start, end, rc = harness.run_child(op.argv, env, err)
            failures, _ = harness.check_op(op, rc, reference)
            if rc != 0:
                failures.append(err.read_text()[-300:].strip())
            results.append(OpResult(op, wall, start, end, rc, failures))
            task_wall += wall
        task_walls.append(task_wall)
        i += 1
    while len(setup) < SETUP_REPS:
        setup.append(version())
    measured_s = perf_counter() - t0

    failed = sum(not r.ok for r in results)
    metrics = {
        "setup_s": harness.median(setup),
        "op_s": harness.median(task_walls),
        # Largest max-RSS of any child waited for, the version starts included.
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    return {
        "metrics": metrics,
        "attempted": len(results),
        "failed": failed,
        "counts": {"tasks": len(task_walls), "ops": len(results), "setup_processes": SETUP_REPS + 1},
        "measured_s": measured_s,
        "setup_samples_s": setup,
        "task_walls_s": task_walls,
        "ops": [
            {
                "command": r.op.command,
                "key": r.op.key,
                "expected_lines": r.op.expected_lines,
                "wall_s": r.wall_s,
                "start_s": r.start - t0,
                "end_s": r.end - t0,
                "returncode": r.returncode,
                "failures": r.failures,
            }
            for r in results
        ],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spectel" / "cli.py").is_file():
        print(f"perf: no spectel sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    # The program's own default (one worker thread) is what users get; the
    # span stack of the traced run also relies on it.
    os.environ.pop("SPECTEL_THREADS", None)
    workload = WORKLOADS[args.workload]
    run_dir = OUT_DIR / args.workload / f"seed{args.seed}-trace{args.trace}"
    reference = None
    if args.seed == harness.REFERENCE_SEED:
        reference = harness.load_reference(args.workload)
        if not reference:
            print(f"perf: reference file for {args.workload} is missing", file=sys.stderr)
            return 2
    if args.trace:
        import traced_run

        result = traced_run.run(workload, args.seed, args.seconds, run_dir / "work", reference, SRC)
        units = PER_LAYER_UNITS
    else:
        result = timed_run(workload, args.seed, args.seconds, run_dir / "work", reference)
        units = END_TO_END_UNITS

    result["environment"] = environment(args.seed)
    result["config"] = {
        "workload": args.workload,
        "why": workload.why,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_checks": "applied" if reference is not None else
        f"not applied: only seed {harness.REFERENCE_SEED} has stored outputs; exit code, all_passed "
        "and sample line counts are checked",
    }
    run_dir.mkdir(parents=True, exist_ok=True)
    result_path = run_dir / "result.json"
    result_path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"reference checks: {result['config']['reference_checks']}")
    for name, unit in units.items():
        print(f"  {name} = {result['metrics'][name]!r} {unit}")
    print(f"  fail_ratio = {result['failed'] / result['attempted']!r} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted)  result file {result_path}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
