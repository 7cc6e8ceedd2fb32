"""Run the benchmark over several seeds and summarise every metric.

    python3 perf/collect.py [--workloads finite-many,chains] [--seeds 0-9]
                            [--seconds 30] [--trace-seed 0] [--out FILE]

For each workload, runs ``run.py`` once per seed (end-to-end, untraced) and
once with ``--trace 1`` for ``--trace-seed`` (unless it is negative), one run
at a time.  The default workloads are all four in harness.py, including
finite-sparse, which BENCHMARK.json does not list.  Prints, per workload,
every end-to-end metric and every per-command metric named in
perf/README.md with its unit: the median over
runs, the quartiles, and the spread (interquartile distance over the median,
as ``statistics.quantiles(values, n=4)`` gives it).  Tails are taken over the
ops of all runs pooled.  ``--out`` writes the whole summary, with each run's
environment record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import harness
from run import END_TO_END_UNITS, OUT_DIR, PER_LAYER_UNITS, ROOT

RUN = Path(__file__).resolve().parent / "run.py"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
# Per-command metrics, derived here from the ops stored in each run's result file.
PER_COMMAND_UNITS = {
    "verify_finite_s": "s",
    "verify_finite_s_tail": "s",
    "verify_cube_s": "s",
    "verify_cube_s_tail": "s",
    "sample_steps_per_s": "steps/s",
    "fail_ratio": "ratio",
}
COMMAND_OF = {"verify_finite_s": "verify-finite", "verify_cube_s": "verify-cube", "sample_steps_per_s": "sample"}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((OUT_DIR / workload / f"seed{seed}-trace{trace}" / "result.json").read_text())
    return {"line": line, "result": result}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "runs": len(values)}


def per_run_median(ops: list[dict], command: str) -> float:
    """Median wall time of one run's ops of ``command``; for sample, steps per second."""
    ops = [op for op in ops if op["command"] == command]
    if command == "sample":
        return harness.median([op["expected_lines"] / op["wall_s"] for op in ops])
    return harness.median([op["wall_s"] for op in ops])


def summarise(runs: list[dict]) -> dict:
    out = {"end_to_end": {}, "per_command": {}}
    for name in END_TO_END_UNITS:
        out["end_to_end"][name] = spread([r["line"]["metrics"][name]["value"] for r in runs])
    ops = [op for r in runs for op in r["result"]["ops"]]
    for name in PER_COMMAND_UNITS:
        if name == "fail_ratio":
            failed = sum(bool(op["failures"]) for op in ops)
            out["per_command"][name] = {"value": failed / len(ops), "failed": failed, "attempted": len(ops)}
            continue
        command = COMMAND_OF[name.removesuffix("_tail")]
        if not any(op["command"] == command for op in ops):
            out["per_command"][name] = "no such ops in this workload"
        elif name.endswith("_tail"):
            # A run holds too few ops for a tail, so the ops of all runs are pooled.
            out["per_command"][name] = harness.tail([op["wall_s"] for op in ops if op["command"] == command])
        else:
            out["per_command"][name] = spread([per_run_median(r["result"]["ops"], command) for r in runs])
    out["ops_per_run"] = spread([r["line"]["attempted"] for r in runs])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(harness.WORKLOADS))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace-seed", type=int, default=harness.REFERENCE_SEED)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {"seconds": args.seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, args.seconds, 0) for seed in summary["seeds"]]
        entry = summarise(runs)
        entry["runs"] = [
            {"seed": s, "correct": r["line"]["correct"], "metrics": r["line"]["metrics"],
             "environment": r["result"]["environment"]}
            for s, r in zip(summary["seeds"], runs)
        ]
        print(f"{workload}  ({len(runs)} runs of {args.seconds:g} s; median [q1, q3] spread)")
        for section, units in (("end_to_end", END_TO_END_UNITS), ("per_command", PER_COMMAND_UNITS)):
            for name, unit in units.items():
                value = entry[section][name]
                if isinstance(value, dict) and "median" in value:
                    text = (f"{value['median']:.6g} {unit}  [{value['q1']:.6g}, {value['q3']:.6g}]  "
                            f"spread {value['spread']:.3f}")
                else:
                    text = f"{json.dumps(value)} {unit}"
                print(f"  {section:<11} {name:<22} {text}")
        if args.trace_seed >= 0:
            traced = one_run(workload, args.trace_seed, args.seconds, 1)
            entry["traced"] = {
                "seed": args.trace_seed,
                "correct": traced["line"]["correct"],
                "metrics": traced["line"]["metrics"],
                "work_counters": traced["result"]["work_counters"],
                "span_totals": traced["result"]["span_totals"],
                "traced_wall_s": traced["result"]["traced_wall_s"],
                "environment": traced["result"]["environment"],
            }
            for name, unit in PER_LAYER_UNITS.items():
                print(f"  per_layer   {name:<44} {traced['line']['metrics'][name]['value']:.6g} {unit}")
        summary["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
