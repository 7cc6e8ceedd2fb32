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
``verify-finite`` takes ``--axes`` only with ``--random``, ``--n`` only with one SIZE.
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
``--out`` path that is a directory or whose directory does not exist,
checked before any work starts, a ``--random`` COUNT below 1, a negative
``--steps``, a ``--tol`` key or flag the command does not read and a
``report-merge`` input that is not a JSON object or whose pass flag is not a
bool), 3 the run would hold more than ``MEMORY_CAP`` (3.2 GB) bytes, 4
statistical contract not met (a verify-cube ``--steps`` below 1e6).  Each
command works out the bytes it will hold from numbers it already has (the
largest matrix a scan solves; with ``--random`` also the joint tensor and
the report's entries; a chain's steps) and checks them once, before it
allocates: verify-finite ``--random`` before its first draw, verify-cube
before any of its checks runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from . import cube_corner as corner
from .bounds import _largest_solve, _scan_bytes, assemble_bounds, spectral_radius
from .errors import (
    DomainError,
    NumericalContractError,
    ResourceLimitError,
    StatisticalContractError,
)
from .kernels import _check_memory, sample_gibbs_chain
from .target import _check_axes, _read_json, load_target, random_target

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3
EXIT_STATISTICAL = 4

FINITE_TOLERANCES = {"telescope": 1e-9, "bound_slack": 1e-9, "lemma": 1e-8, "psd": 1e-10}
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
# Random point pairs in the TV sweep and coupling draws per m in the Monte Carlo check.
TV_DRAWS = 100
MC_DRAWS = 100_000


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


def _parse_axes(raw: str | None, n: int | None) -> tuple[int, ...]:
    """The sizes of ``--axes`` (times ``--n``), validated, their joint tensor checked in bytes."""
    if raw is None:
        raise DomainError("--random requires --axes (and --n for a uniform size)")
    try:
        sizes = tuple(int(v) for v in raw.split(","))
    except ValueError:
        raise DomainError(f"--axes expects integer sizes, got {raw!r}") from None
    if "," in raw:
        if n is not None:
            raise DomainError("--n goes only with a single --axes SIZE, not a comma list")
        n = 1
    elif n is None:
        raise DomainError("--axes SIZE without commas needs --n for the coordinate count")
    # Checked on at most two copies of the sizes, and in bytes on at most 128
    # of them, so a huge --n or list builds no tuple or product that takes
    # long: 2^128 floats are over any cap.
    _check_axes(sizes * min(n, 2))
    _check_memory(8 * math.prod(sizes[:128]) ** min(n, 128), "the joint tensor of --axes")
    return sizes * n


def _check_out_dir(out: str | None) -> None:
    """Reject an output path that is a directory or lies in a missing one, before any work."""
    if not out:
        return
    if os.path.isdir(out):
        raise DomainError(f"--out {out} is a directory")
    parent = os.path.dirname(os.path.abspath(out))
    if not os.path.isdir(parent):
        raise DomainError(f"--out {out}: directory {parent} does not exist")


def _write_report(report: dict, out: str | None) -> None:
    """Stream the report as indented JSON, the bytes of ``json.dumps`` without its chunk list."""
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")


def _base_report(command: str, **fields) -> dict:
    return {"tool": "spectel", "version": __version__, "command": command, **fields}


def cmd_verify_finite(args: argparse.Namespace) -> int:
    tols = _parse_tolerances(args.tol, FINITE_TOLERANCES)
    started = time.monotonic()
    report = _base_report("verify-finite", seed=args.seed, tolerances=tols)

    if args.target:
        if args.n is not None or args.axes is not None:
            raise DomainError("--n and --axes go only with --random; a target file sets its own")
        targets = [(args.target, load_target(args.target))]
    elif args.random is not None:
        axes = _parse_axes(args.axes, args.n)
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
        rng = np.random.default_rng(args.seed)
        targets = ((f"random[{k}]", random_target(axes, rng)) for k in range(args.random))
    else:
        raise DomainError("verify-finite needs --target PATH or --random COUNT")

    entries = []
    for name, target in targets:
        entry = {"name": name, "axes": list(target.axes)}
        try:
            bound_report = assemble_bounds(
                target,
                args.l,
                slack=tols["bound_slack"],
                telescope_tol=tols["telescope"],
                lemma_tol=tols["lemma"],
                psd_tol=tols["psd"],
            )
        except NumericalContractError as exc:
            # One target's failure is a failed check; the other targets keep their entries.
            entry.update(checks={"numerical_contract": False}, error=str(exc), passed=False)
        else:
            entry.update(bound_report.to_json_dict())
        entries.append(entry)

    report["l"] = args.l
    report["targets"] = entries
    report["all_passed"] = all(e["passed"] for e in entries)
    report["wallclock_s"] = round(time.monotonic() - started, 3)
    _write_report(report, args.out)
    return EXIT_OK if report["all_passed"] else EXIT_CHECKS_FAILED


def _check_closed_forms(tol: float) -> dict:
    """Exact-arithmetic identities among the corner's closed forms."""
    ok = True
    details: dict = {}
    for m in range(2, 9):
        z1 = corner.poly_eigenvalue(1, m)
        consistency = abs(
            corner.correlation_coefficient_bound(m) * m - corner.sum_square_constant(m)
        )
        ok &= abs(z1 + 1.0 / m) <= tol and consistency <= tol
        details[str(m)] = {
            "zeta1": z1,
            "s_bound": corner.correlation_coefficient_bound(m),
            "constant_consistency": consistency,
        }
    ok &= abs(corner.correlation_coefficient_bound(2) - 0.75) <= tol
    floor4 = corner.corner_gap_lower_bound(4).simplified_floor
    ok &= abs(floor4 - 5.0 / 72.0) <= tol
    for n in range(3, 21):
        bound = corner.corner_gap_lower_bound(n)
        ok &= bound.product_form <= 1.0 / n
        if bound.simplified_floor is not None:
            ok &= bound.simplified_floor - bound.product_form <= tol
    return {"passed": bool(ok), "details": details}


def _check_influence(n: int, tol: float) -> dict:
    """Influence radii at m = 4, 5 and n, which the caller has checked lies in 3..8."""
    details = {}
    ok = True
    for m in sorted({4, 5, n}):
        radius = spectral_radius(corner.wasserstein_influence(m).entries)
        expected = (m - 1) / (m - 2)
        ok &= abs(radius - expected) <= tol
        details[str(m)] = {
            "spectral_radius": radius,
            "expected": expected,
            "beyond_stated_hypothesis": m < 4,
        }
    return {"passed": bool(ok), "details": details}


def _check_eigenrelation(tols: dict) -> dict:
    details = {}
    ok = True
    for m in range(2, 7):
        for budget in (0.3, 1.0):
            basis = corner.OrthoBasis(m, budget, 6)
            residual = corner.verify_eigenrelation(basis)
            ortho = basis.orthonormality_residual()
            ok &= residual <= tols["eigenrelation"] and ortho <= tols["orthonormality"]
            details[f"m={m},R={budget}"] = {
                "max_residual": residual,
                "orthonormality_residual": ortho,
            }
    return {"passed": bool(ok), "details": details}


def _check_tv_sweep(rng: np.random.Generator, tols: dict) -> dict:
    mismatches = []
    ok = True
    for _ in range(TV_DRAWS):
        m = int(rng.integers(3, 9))
        budget = float(rng.uniform(0.3, 1.0))
        x, xp = sorted(float(v) for v in rng.uniform(0.0, budget, 2))
        if not 0.0 < x < xp < budget:
            continue
        result = corner.tv_contraction_check(m, budget, x, xp)
        mismatch = abs(result.tv_quadrature - result.tv_formula)
        ok &= (
            mismatch <= tols["tv_match"]
            and result.tv_quadrature <= result.bound + tols["tv_bound_slack"]
        )
        mismatches.append(mismatch)
    # np.max keeps a NaN that the builtin max would drop.
    return {"passed": bool(ok), "worst_formula_mismatch": float(np.max(mismatches, initial=0.0))}


def _check_contraction_mc(rng: np.random.Generator) -> dict:
    details = {}
    ok = True
    for m in (4, 5):
        budget = 0.9
        x, xp = 0.2 * budget, 0.6 * budget
        d_in = corner.contraction_metric(budget, x, xp)
        out_a, out_b = corner.coupling_sample(budget, m, x, xp, rng, size=MC_DRAWS)
        d_out = np.abs(out_a - out_b) / (budget - np.maximum(out_a, out_b))
        ratios = d_out / d_in
        mean = float(ratios.mean())
        se = float(ratios.std(ddof=1) / np.sqrt(MC_DRAWS))
        ok &= mean <= 1.0 / (m - 2) + 3.0 * se
        details[str(m)] = {"mean_ratio": mean, "se": se, "ceiling": 1.0 / (m - 2)}
    return {"passed": bool(ok), "details": details}


def cmd_verify_cube(args: argparse.Namespace) -> int:
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
        "closed_forms": _check_closed_forms(tols["exact"]),
        "influence_matrix": _check_influence(args.n, tols["exact"]),
        "eigenrelation": _check_eigenrelation(tols),
        "tv_contraction": _check_tv_sweep(rng, tols),
        "coupling_contraction_mc": _check_contraction_mc(rng),
    }

    bound = corner.corner_gap_lower_bound(args.n)
    lower = bound.simplified_floor if bound.simplified_floor is not None else bound.product_form
    estimate = corner.empirical_gap_estimate(args.n, args.steps, rng)
    sandwich_ok = (
        lower - estimate.ci <= estimate.gap <= 1.0 / args.n + estimate.ci
    )
    checks["empirical_sandwich"] = {
        "passed": bool(sandwich_ok),
        "gap_estimate": estimate.gap,
        "rho": estimate.rho,
        "ci": estimate.ci,
        "lags_used": estimate.lags_used,
        "lower_bound": lower,
        "lower_bound_kind": "simplified_floor" if bound.simplified_floor is not None else "product_form",
        "product_form": bound.product_form,
        "upper_bound": 1.0 / args.n,
    }

    report["checks"] = checks
    report["all_passed"] = all(c["passed"] for c in checks.values())
    report["wallclock_s"] = round(time.monotonic() - started, 3)
    _write_report(report, args.out)
    return EXIT_OK if report["all_passed"] else EXIT_CHECKS_FAILED


def cmd_sample(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    if args.target == "cube":
        if args.n is None:
            raise DomainError("sampling the cube-corner target needs --n")
        if args.l is not None:
            raise DomainError("--l sets the block size of a finite target; the cube takes none")
        states = corner.run_corner_chain(args.n, args.steps, rng)
    else:
        if args.n is not None:
            raise DomainError("--n sets the cube dimension; a target file sets its own")
        target = load_target(args.target)
        states = sample_gibbs_chain(target, args.steps, rng, l=1 if args.l is None else args.l)
    stream = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        # Python's list repr of ints and finite floats is byte-for-byte what json.dumps writes.
        for row in states:
            stream.write(f"{row.tolist()}\n")
    finally:
        if args.out:
            stream.close()
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
    p.add_argument("--n", type=int, default=None, help="coordinate count for one --axes SIZE")
    p.add_argument(
        "--axes",
        type=str,
        default=None,
        help="alphabet sizes for --random: a single size (with --n) or a comma list",
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
    except json.JSONDecodeError as exc:
        print(f"spectel: malformed JSON: {exc}", file=sys.stderr)
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
