"""Workloads, seeded inputs, the child-process runner and the output checks.

Every op is one ``spectel`` CLI invocation, started as a child process by a
single closed-loop client: the next child starts only after the previous one
has exited, so at most one child (with its BLAS threads) runs at a time.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

# Seed whose inputs have stored reference outputs (see reference/).
REFERENCE_SEED = 0
# Numbers in deterministic report fields must match the reference this closely.
REFERENCE_TOL = 1e-12
# Distinct inputs per workload and seed; op i uses input i mod POOL_SIZE.
POOL_SIZE = 6
# A child still running after this long is killed and its op counted as failed.
CHILD_TIMEOUT_S = 120.0

PERF_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = PERF_DIR / "reference"


@dataclass(frozen=True)
class Family:
    """Random finite targets: Dirichlet(1) on ``axes``, entries zeroed with ``zero_prob``."""

    axes: tuple[int, ...]
    zero_prob: float = 0.0

    def draw(self, rng: np.random.Generator) -> dict:
        size = int(np.prod(self.axes))
        probs = rng.dirichlet(np.ones(size))
        if self.zero_prob:
            probs[rng.random(size) < self.zero_prob] = 0.0
            probs /= probs.sum()
        return {"axes": list(self.axes), "probs": probs.tolist()}


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  A task is the group of ops run for one pool entry."""

    name: str
    why: str
    commands: tuple[str, ...]  # per task, in order: "verify-finite", "verify-cube", "sample"
    family: Family
    cube_n: int = 4
    cube_steps: int = 2_000_000
    sample_steps: int = 500_000
    # Small extra ops that only the traced run adds, so that every layer is
    # exercised (and every per-layer metric measured) on every workload.
    coverage: tuple[str, ...] = ()
    coverage_family: Family | None = None
    coverage_cube_steps: int = 1_000_000
    coverage_sample_steps: int = 50_000


F3333 = Family((3, 3, 3, 3))

# BENCHMARK.json lists finite-many and finite-large only.  The 2-vCPU
# baseline host's speed drifts by +-20% over minutes.  chains, which is
# pure-Python sampling, once spread beyond the 0.25 bound across 10 runs, and
# a full pass has room for only two workloads at the 45-second runs the
# finite ones need.  collect.py still runs all four.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "finite-many",
            "Dirichlet(1) on (2,)x8: 6,305 contexts of at most 256 states, so per-context Python "
            "orchestration dominates",
            ("verify-finite",),
            Family((2,) * 8),
            coverage=("verify-cube", "sample"),
        ),
        Workload(
            "finite-large",
            "Dirichlet(1) on (6,6,6,6): 1,105 contexts, top kernel of 1,296 states, so dense "
            "eigensolves and kernel memory dominate",
            ("verify-finite",),
            Family((6, 6, 6, 6)),
            coverage=("verify-cube", "sample"),
        ),
        Workload(
            "finite-sparse",
            "(3,)x6 with half the entries zeroed: unsupported contexts, zero-weight states and "
            "reducible chains on the same code paths",
            ("verify-finite",),
            Family((3,) * 6, zero_prob=0.5),
            coverage=("verify-cube", "sample"),
        ),
        Workload(
            "chains",
            "verify-cube --n 4 then sample on a (3,3,3,3) target: cube-corner and both samplers, "
            "no finite eigensolves",
            ("verify-cube", "sample"),
            F3333,
            coverage=("verify-finite",),
            coverage_family=F3333,
        ),
    )
}


@dataclass
class Op:
    """One CLI invocation and what the checks need to know about it."""

    command: str
    argv: list[str]
    out: Path
    input_sha: str | None = None
    key: str = ""
    expected_lines: int | None = None  # sample ops: one line per step


@dataclass
class OpResult:
    op: Op
    wall_s: float
    start: float
    end: float
    returncode: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_target(path: Path, target: dict) -> str:
    text = json.dumps(target)
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()


def build_tasks(workload: Workload, seed: int, workdir: Path) -> tuple[list[list[Op]], list[Op]]:
    """Write the seeded inputs; return the task pool and the traced run's coverage ops."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    workdir.mkdir(parents=True, exist_ok=True)
    tasks = []
    for i in range(POOL_SIZE):
        target_path = workdir / f"target{i}.json"
        sha = _write_target(target_path, workload.family.draw(rng))
        op_seed = int(rng.integers(0, 2**31))
        tasks.append(
            [
                make_op(cmd, workload, workdir / f"out{i}-{cmd}", target_path, sha, op_seed,
                        workload.cube_steps, workload.sample_steps)
                for cmd in workload.commands
            ]
        )
    coverage = []
    if workload.coverage:
        target_path, sha = workdir / "target0.json", tasks[0][0].input_sha
        if workload.coverage_family is not None:
            target_path = workdir / "coverage-target.json"
            sha = _write_target(target_path, workload.coverage_family.draw(rng))
        op_seed = int(rng.integers(0, 2**31))
        coverage = [
            make_op(cmd, workload, workdir / f"coverage-{cmd}", target_path, sha, op_seed,
                    workload.coverage_cube_steps, workload.coverage_sample_steps)
            for cmd in workload.coverage
        ]
    return tasks, coverage


def make_op(command, workload, out, target_path, sha, op_seed, cube_steps, sample_steps) -> Op:
    if command == "verify-finite":
        argv = ["verify-finite", "--target", str(target_path), "--out", str(out)]
        key = f"verify-finite target={sha}"
        return Op(command, argv, out, sha, key)
    if command == "verify-cube":
        argv = ["verify-cube", "--n", str(workload.cube_n), "--steps", str(cube_steps),
                "--seed", str(op_seed), "--out", str(out)]
        return Op(command, argv, out, None, f"verify-cube n={workload.cube_n} steps={cube_steps} seed={op_seed}")
    if command == "sample":
        argv = ["sample", "--target", str(target_path), "--steps", str(sample_steps),
                "--seed", str(op_seed), "--out", str(out)]
        key = f"sample target={sha} steps={sample_steps} seed={op_seed}"
        return Op(command, argv, out, sha, key, expected_lines=sample_steps)
    raise ValueError(f"unknown command {command!r}")


def spectel_env(src_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir)
    return env


def run_child(argv: list[str], env: dict, stderr_path: Path, timeout: float = CHILD_TIMEOUT_S):
    """Run ``python -m spectel.cli ARGV``; return (wall_s, start, end, returncode).

    A child still running after ``timeout`` seconds is killed (return code
    -9).  The wait itself blocks; ``subprocess.run(timeout=...)`` would poll
    in steps of up to 50 ms and so round every wall time.
    """
    with open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "spectel.cli", *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            env=env,
        )
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            returncode = proc.wait()
        finally:
            watchdog.cancel()
        end = perf_counter()
    return end - start, start, end, returncode


def deterministic_part(command: str, out: Path) -> dict:
    """The fields of an op's output that must not move beyond REFERENCE_TOL."""
    if command == "sample":
        with open(out, "rb") as fh:
            lines = sum(1 for _ in fh)
        return {"sha256": _sha256(out), "lines": lines}
    report = json.loads(out.read_text())
    if command == "verify-cube":
        return {"all_passed": report["all_passed"], "checks": report["checks"]}
    keys = ("axes", "gap", "S", "G", "eta", "bounds", "residuals", "argmin",
            "exact_gap", "min_psd_eigenvalue", "checks", "passed")
    return {
        "all_passed": report["all_passed"],
        "targets": [{k: entry[k] for k in keys} for entry in report["targets"]],
    }


def compare(expected, actual, tol: float = REFERENCE_TOL, path: str = "") -> list[str]:
    """Paths at which ``actual`` differs from ``expected`` (numbers: absolute ``tol``)."""
    if isinstance(expected, bool) or isinstance(actual, bool) or expected is None or isinstance(expected, str):
        return [] if expected == actual and type(expected) is type(actual) else [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, (int, float)):
        if not isinstance(actual, (int, float)):
            return [f"{path}: {expected!r} != {actual!r}"]
        if np.isnan(expected) and np.isnan(actual):
            return []
        return [] if abs(expected - actual) <= tol else [f"{path}: {expected!r} != {actual!r}"]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: list shape differs"]
        return list(itertools.chain.from_iterable(
            compare(e, a, tol, f"{path}[{i}]") for i, (e, a) in enumerate(zip(expected, actual))
        ))
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path}: keys differ"]
        return list(itertools.chain.from_iterable(compare(expected[k], actual[k], tol, f"{path}.{k}") for k in expected))
    return [f"{path}: unsupported type {type(expected).__name__}"]


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())["ops"] if path.exists() else {}


def check_op(op: Op, returncode: int, reference: dict | None) -> tuple[list[str], dict | None]:
    """Failure reasons of one finished op, and its deterministic output.

    Without a reference (non-default seed) only the exit code, ``all_passed``
    and the sample line count are checked.
    """
    if returncode != 0:
        return [f"exit code {returncode}"], None
    try:
        output = deterministic_part(op.command, op.out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"], None
    failures = []
    if op.command == "sample":
        if output["lines"] != op.expected_lines:
            failures.append(f"sample emitted {output['lines']} lines, expected {op.expected_lines}")
    elif output["all_passed"] is not True:
        failures.append("all_passed is false")
    if reference is not None:
        expected = reference.get(op.key)
        if expected is None:
            failures.append(f"no reference output for {op.key}")
        else:
            failures.extend(compare(expected, output)[:5])
    return failures, output


def median(values) -> float | None:
    return float(np.median(values)) if len(values) else None


def tail(values) -> dict:
    """Highest percentile with at least ten samples beyond it, with the sample count."""
    n = len(values)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    rank = n - 10
    return {"value": float(sorted(values)[rank - 1]), "percentile": 100.0 * rank / n, "samples": n}
