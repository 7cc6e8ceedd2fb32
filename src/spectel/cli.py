"""Command-line front end: ingest targets, run verification suites, emit reports.

Subcommands
-----------
verify-finite   gap profile + telescope residuals + bound sandwich on finite
                targets (from JSON files or seeded random generation)
verify-cube     closed forms, eigenrelation, TV/coupling contraction, and the
                empirical relaxation sandwich for the cube-corner target
sample          stream Gibbs-chain states as newline-delimited JSON
report-merge    combine several report files into one

``--seed`` (>= 0) is taken by every subcommand but report-merge; ``--tol`` only
by verify-finite and verify-cube, each with its own keys (see its --help).
``sample`` takes ``--n`` only for the cube and ``--l`` only for a target file;
``verify-finite`` takes ``--axes``, a comma list of sizes, only with ``--random``.
Reports are JSON only and carry the tool version and per-check pass flags;
the two verify reports also embed the seed, the command's tolerances and the
wall clock.  verify-cube passes a check only when each measured value
satisfies ``value <= tol`` (or ``value <= bound``), compared here, so a NaN
fails and a failed check records what it measured.  verify-finite records a
numerical-contract violation as a failed ``numerical_contract`` check, with
the message, in that target's entry, and still writes the report.  Exit
codes: 0 all checks pass, 1 some check failed (or, in verify-cube, a
polynomial basis degenerated: one line on stderr, no report), 2 malformed
input or bad arguments, one line on stderr (including an argument the parser
rejects, such as a negative ``--seed``, a ``true`` or ``false`` in a target's
``probs``, an input path that cannot be opened, such as a directory, an
``--out`` path that is empty, a directory or whose directory does not exist,
checked before any work starts, a ``--random`` COUNT below 1, a negative
``--steps``, a ``--tol`` key or flag the command does not read and a
``report-merge`` input that is not a JSON object or whose pass flag is not a
bool), 3 the run would hold more than ``MEMORY_CAP`` (3.2 GB) bytes, 4
statistical contract not met (a verify-cube ``--steps`` below 1e6).  Each
command works out the bytes it will hold from numbers it already has (a
target file's size; the largest matrix a scan solves; with ``--random``
also the joint tensor and the report's entries; a chain's steps) and checks
them once, before it allocates: a target file before it is parsed,
verify-finite ``--random`` before its first draw, verify-cube before any of
its checks runs.

Only verify-finite, verify-cube and sample load numpy, with the engine
modules they run, once dispatched; ``--version``, ``--help``, an argument the
parser rejects and report-merge do not.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

from . import __version__
from .errors import (
    FINITE_TOLERANCES,
    DomainError,
    NumericalContractError,
    ResourceLimitError,
    StatisticalContractError,
    _check_axes,
    _check_block_size,
    _check_memory,
    _read_json,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3
EXIT_STATISTICAL = 4

CUBE_TOLERANCES = {
    "exact": 1e-14,
    "eigenrelation": 1e-8,
    "orthonormality": 1e-10,
    "tv_match": 1e-8,
    "tv_bound_slack": 1e-10,
}
# Bytes a verify-finite report holds per target entry, per square of its
# coordinate count: the entry's dicts (the report is streamed out).  Under
# tracemalloc, --random runs of 11 to 301 entries on 2 to 7 coordinates
# added at most 2,002.
_ENTRY_BYTES_PER_N2 = 2_100


def _parse_tolerances(pairs: list[str] | None, defaults: dict[str, float]) -> dict[str, float]:
    tols = dict(defaults)
    for item in pairs or []:
        key, sep, raw = item.partition("=")
        if not sep:
            raise DomainError(f"--tol expects KEY=VAL, got {item!r}")
        if key not in tols:
            raise DomainError(
                f"unknown tolerance {key!r}; known keys: {', '.join(sorted(tols))}"
            )
        try:
            value = float(raw)
        except ValueError:
            raise DomainError(f"tolerance {key} must be a number, got {raw!r}") from None
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"tolerance {key} must be finite and > 0, got {raw!r}")
        tols[key] = value
    return tols


def _parse_axes(raw: str | None) -> tuple[int, ...]:
    """The sizes of ``--axes``, validated, their joint tensor checked in bytes."""
    if raw is None:
        raise DomainError("--random requires --axes, a comma list of alphabet sizes")
    try:
        sizes = tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise DomainError(f"--axes expects integer sizes, got {raw!r}") from None
    _check_axes(sizes)
    # Checked in bytes on at most 65 sizes, so a long list of huge sizes
    # takes no slow product: 2^65 floats are over any cap.
    _check_memory(8 * math.prod(sizes[:65]), "the joint tensor of --axes")
    return sizes


def _check_out_dir(out: str | None) -> None:
    """Reject an output path that is empty, a directory or in a missing one, before any work."""
    if out is None:
        return
    if not out:
        raise DomainError("--out needs a path; leave it out to write to stdout")
    if os.path.isdir(out):
        raise DomainError(f"--out {out} is a directory")
    # On the path as given: abspath drops a trailing separator or "." that open() resolves.
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise DomainError(f"--out {out}: directory {parent} does not exist")


def _opened(out: str | None):
    """The ``--out`` file opened for writing, or stdout left open, as a context manager."""
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8")


def _write_report(report: dict, out: str | None) -> None:
    """Stream the report as indented JSON, the bytes of ``json.dumps`` without its chunk list."""
    with _opened(out) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _base_report(command: str, **fields) -> dict:
    return {"tool": "spectel", "version": __version__, "command": command, **fields}


def cmd_verify_finite(args: argparse.Namespace) -> int:
    import numpy as np

    from .bounds import _largest_solve, _scan_bytes, assemble_bounds
    from .target import load_target, random_target

    tols = _parse_tolerances(args.tol, FINITE_TOLERANCES)
    started = time.monotonic()
    report = _base_report("verify-finite", seed=args.seed, tolerances=tols)

    if args.target:
        if args.axes is not None:
            raise DomainError("--axes goes only with --random; a target file sets its own")
        targets = [(args.target, load_target(args.target))]
    elif args.random is not None:
        axes = _parse_axes(args.axes)
        if args.random < 1:
            raise DomainError(f"--random COUNT must be >= 1, got {args.random}")
        # Targets are drawn one at a time, so one tensor and one scan are held
        # beside the entries the report keeps: all checked before the first draw.
        _check_memory(
            8 * math.prod(axes)
            + _scan_bytes(_largest_solve(axes))
            + args.random * _ENTRY_BYTES_PER_N2 * len(axes) ** 2,
            f"verify-finite --random with {len(axes)} coordinates",
        )
        _check_block_size(args.l, len(axes))
        rng = np.random.default_rng(args.seed)
        targets = ((f"random[{k}]", random_target(axes, rng)) for k in range(args.random))
    else:
        raise DomainError("verify-finite needs --target PATH or --random COUNT")

    entries = []
    for name, target in targets:
        entry = {"name": name, "axes": list(target.axes)}
        try:
            entry.update(assemble_bounds(target, args.l, tols))
        except NumericalContractError as exc:
            # One target's failure is a failed check; the other targets keep their entries.
            entry.update(checks={"numerical_contract": False}, error=str(exc), passed=False)
        entries.append(entry)

    report["l"] = args.l
    report["targets"] = entries
    report["all_passed"] = all(e["passed"] for e in entries)
    report["wallclock_s"] = round(time.monotonic() - started, 3)
    _write_report(report, args.out)
    return EXIT_OK if report["all_passed"] else EXIT_CHECKS_FAILED


def cmd_verify_cube(args: argparse.Namespace) -> int:
    import numpy as np

    from . import cube_corner as corner

    if not 3 <= args.n <= 8:
        raise DomainError(f"--n must lie in 3..8, got {args.n}")
    tols = _parse_tolerances(args.tol, CUBE_TOLERANCES)
    corner._check_estimate_steps(args.n, args.steps)
    started = time.monotonic()
    rng = np.random.default_rng(args.seed)
    report = _base_report("verify-cube", seed=args.seed, tolerances=tols)
    report["n"] = args.n
    report["steps"] = args.steps

    checks = {
        "closed_forms": corner._check_closed_forms(tols["exact"]),
        "influence_matrix": corner._check_influence(args.n, tols["exact"]),
        "eigenrelation": corner._check_eigenrelation(tols),
        "tv_contraction": corner._check_tv_sweep(rng, tols),
        "coupling_contraction_mc": corner._check_contraction_mc(rng),
    }

    product, floor = corner.corner_gap_lower_bound(args.n)
    lower = product if floor is None else floor
    estimate = corner.empirical_gap_estimate(args.n, args.steps, rng)
    ci = estimate["ci"]
    checks["empirical_sandwich"] = {
        "passed": bool(lower - ci <= estimate["gap_estimate"] <= 1.0 / args.n + ci),
        **estimate,
        "lower_bound": lower,
        "lower_bound_kind": "product_form" if floor is None else "simplified_floor",
        "product_form": product,
        "upper_bound": 1.0 / args.n,
    }

    report["checks"] = checks
    report["all_passed"] = all(c["passed"] for c in checks.values())
    report["wallclock_s"] = round(time.monotonic() - started, 3)
    _write_report(report, args.out)
    return EXIT_OK if report["all_passed"] else EXIT_CHECKS_FAILED


def cmd_sample(args: argparse.Namespace) -> int:
    import numpy as np

    rng = np.random.default_rng(args.seed)
    if args.target == "cube":
        from .cube_corner import run_corner_chain

        if args.n is None:
            raise DomainError("sampling the cube-corner target needs --n")
        if args.l is not None:
            raise DomainError("--l sets the block size of a finite target; the cube takes none")
        states = run_corner_chain(args.n, args.steps, rng)
    else:
        from .kernels import sample_gibbs_chain
        from .target import load_target

        if args.n is not None:
            raise DomainError("--n sets the cube dimension; a target file sets its own")
        target = load_target(args.target)
        states = sample_gibbs_chain(target, args.steps, rng, l=1 if args.l is None else args.l)
    with _opened(args.out) as stream:
        # Python's list repr of ints and finite floats is byte-for-byte what json.dumps writes.
        stream.writelines(f"{row.tolist()}\n" for row in states)
    return EXIT_OK


def cmd_report_merge(args: argparse.Namespace) -> int:
    merged = _base_report("report-merge")
    reports = []
    for path in args.reports:
        report = _read_json(path)
        if not isinstance(report, dict):
            raise DomainError(f"{path}: a report must be a JSON object")
        for key in ("all_passed", "passed"):
            if not isinstance(report.get(key, False), bool):
                raise DomainError(f"{path}: {key!r} must be true or false, got {report[key]!r}")
        reports.append({"path": path, "report": report})
    all_passed = all(
        entry["report"].get("all_passed", entry["report"].get("passed", False))
        for entry in reports
    )
    merged["reports"] = reports
    merged["all_passed"] = all_passed
    _write_report(merged, args.out)
    return EXIT_OK if all_passed else EXIT_CHECKS_FAILED


def _seed(raw: str) -> int:
    """The ``--seed`` type: numpy seeds a generator only from an integer >= 0."""
    if not raw.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {raw!r}")
    return int(raw)


class _Parser(argparse.ArgumentParser):
    """Rejects a malformed argument with a DomainError that names the subcommand."""

    def error(self, message: str):
        command = self.prog.partition(" ")[2]
        raise DomainError(f"{command}: {message}" if command else message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spectel",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"spectel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, seed: bool = True, tol: dict | None = None) -> None:
        if seed:
            p.add_argument("--seed", type=_seed, default=0, help="RNG seed, >= 0")
        p.add_argument("--out", type=str, default=None, help="write output to this path")
        if tol:
            p.add_argument(
                "--tol",
                action="append",
                metavar="KEY=VAL",
                help=f"override a tolerance; keys: {', '.join(sorted(tol))}",
            )

    p = sub.add_parser("verify-finite", help="telescope and bound checks on finite targets")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--target", type=str, help="path to a target JSON file")
    source.add_argument("--random", type=int, help="verify COUNT random Dirichlet(1) targets")
    p.add_argument(
        "--axes", type=str, default=None, help="alphabet sizes for --random, a comma list"
    )
    p.add_argument("--l", type=int, default=1, help="block size (default 1)")
    common(p, tol=FINITE_TOLERANCES)
    p.set_defaults(func=cmd_verify_finite)

    p = sub.add_parser("verify-cube", help="closed-form and Monte Carlo cube-corner checks")
    p.add_argument("--n", type=int, default=4, help="dimension, 3..8 (default 4)")
    p.add_argument(
        "--steps", type=int, default=2_000_000, help="Gibbs steps for the empirical estimate"
    )
    common(p, tol=CUBE_TOLERANCES)
    p.set_defaults(func=cmd_verify_cube)

    p = sub.add_parser("sample", help="stream chain states as newline-delimited JSON")
    p.add_argument(
        "--target",
        type=str,
        required=True,
        help='path to a target JSON file, or the builtin name "cube"',
    )
    p.add_argument("--n", type=int, default=None, help="dimension for the cube target")
    p.add_argument("--l", type=int, default=None, help="block size for a target file (default 1)")
    p.add_argument("--steps", type=int, default=1000, help="number of states to emit")
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("report-merge", help="combine report files into one")
    p.add_argument("reports", nargs="+", help="report JSON files to merge")
    common(p, seed=False)
    p.set_defaults(func=cmd_report_merge)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:
            raise DomainError(f"{args.command}: unrecognized arguments: {' '.join(extra)}")
        _check_out_dir(args.out)
        return args.func(args)
    except (DomainError, OSError) as exc:
        print(f"spectel: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ResourceLimitError as exc:
        print(f"spectel: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except StatisticalContractError as exc:
        print(f"spectel: statistical contract not met: {exc}", file=sys.stderr)
        return EXIT_STATISTICAL
    except NumericalContractError as exc:
        print(f"spectel: numerical contract violated: {exc}", file=sys.stderr)
        return EXIT_CHECKS_FAILED


if __name__ == "__main__":
    sys.exit(main())
