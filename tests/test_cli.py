"""CLI surfaces: exit codes, report structure, determinism, error paths."""

import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spectel
from spectel import cube_corner as corner
from spectel import (
    NumericalContractError,
    load_target,
    product_target,
    random_target,
    run_corner_chain,
    sample_gibbs_chain,
    target_to_dict,
)
from spectel.cli import (
    CUBE_TOLERANCES,
    EXIT_BAD_INPUT,
    EXIT_CHECKS_FAILED,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_STATISTICAL,
    FINITE_TOLERANCES,
    _check_eigenrelation,
    build_parser,
    main,
)


@pytest.fixture
def product3_path(tmp_path):
    t = product_target([[0.5, 0.5]] * 3)
    path = tmp_path / "product3.json"
    path.write_text(json.dumps(target_to_dict(t)))
    return str(path)


class TestVerifyFinite:
    def test_product_target_passes(self, product3_path, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["verify-finite", "--target", product3_path, "--l", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert report["tool"] == "spectel"
        assert "version" in report and "seed" in report
        assert "wallclock_s" in report
        assert set(report["tolerances"]) == {"telescope", "bound_slack", "lemma", "psd"}
        target_entry = report["targets"][0]
        for residual in target_entry["residuals"]["telescope"].values():
            assert residual >= -1e-9
        assert target_entry["bounds"]["upper"] == pytest.approx(1 / 3)

    def test_random_sweep_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify-finite",
                "--random",
                "5",
                "--n",
                "3",
                "--axes",
                "3",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert len(report["targets"]) == 5
        assert report["seed"] == 7
        assert report["all_passed"] is True

    def test_truncated_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"axes": [2, 2], "probs": [0.1,')
        assert main(["verify-finite", "--target", str(bad)]) == EXIT_BAD_INPUT

    def test_missing_arguments_exit_two(self):
        assert main(["verify-finite"]) == EXIT_BAD_INPUT

    def test_sizes_only_with_random(self, product3_path, capsys):
        # A target file sets its own axes, so --n and --axes would go unread.
        for flags in (["--n", "5"], ["--axes", "3,3"], ["--axes", "2", "--n", "3"]):
            argv = ["verify-finite", "--target", product3_path, *flags]
            assert main(argv) == EXIT_BAD_INPUT, argv
            err = capsys.readouterr().err
            assert err.startswith("spectel: ") and err.count("\n") == 1
            assert "Traceback" not in err

    def test_state_cap_exit_three(self, tmp_path):
        big = tmp_path / "big.json"
        probs = np.full(22500, 1.0 / 22500)
        big.write_text(json.dumps({"axes": [150, 150], "probs": probs.tolist()}))
        assert main(["verify-finite", "--target", str(big)]) == EXIT_RESOURCE

    def test_unknown_tolerance_exit_two(self, product3_path, capsys):
        # Each command takes only the keys it reads, so the other's keys are unknown.
        finite = ["verify-finite", "--target", product3_path]
        for argv, keys in (
            (finite + ["--tol", "nonsense=1e-3"], FINITE_TOLERANCES),
            (finite + ["--tol", "tv_match=5"], FINITE_TOLERANCES),
            (["verify-cube", "--tol", "psd=1e-3"], CUBE_TOLERANCES),
            (["verify-cube", "--tol", "bound_slack=1e-3"], CUBE_TOLERANCES),
        ):
            assert main(argv) == EXIT_BAD_INPUT, argv
            err = capsys.readouterr().err
            assert err.startswith("spectel: unknown tolerance") and err.count("\n") == 1
            assert err.endswith(f"; known keys: {', '.join(sorted(keys))}\n")
            assert "Traceback" not in err

    @pytest.mark.parametrize(
        "tol, expected", [("telescope=0.5", 0.5), ("bound_slack=0.5", 1e-9)]
    )
    def test_telescope_tolerance_reaches_the_check(self, product3_path, tmp_path, tol, expected):
        out = tmp_path / "report.json"
        main(["verify-finite", "--target", product3_path, "--tol", tol, "--out", str(out)])
        entry = json.loads(out.read_text())["targets"][0]
        assert entry["residuals"]["tol"] == expected

    @pytest.mark.parametrize(
        "body",
        [
            '{"axes": [2.7, 2], "probs": [0.25, 0.25, 0.25, 0.25]}',
            '{"axes": ["2", 2], "probs": [0.25, 0.25, 0.25, 0.25]}',
            '{"axes": [1e400, 2], "probs": [0.25, 0.25, 0.25, 0.25]}',
            '{"axes": [4294967296, 4294967296], "probs": []}',
            '{"axes": [2, 2], "probs": ["0.25", 0.25, 0.25, 0.25]}',
        ],
        ids=["float-size", "string-size", "inf-size", "int64-overflow", "string-prob"],
    )
    def test_coercible_target_exit_two(self, tmp_path, capsys, body):
        path = tmp_path / "t.json"
        path.write_text(body)
        assert main(["verify-finite", "--target", str(path)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("spectel: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_nonpositive_tolerance_exit_two(self, product3_path, capsys):
        for value in ("0", "abc", "nan", "inf"):
            code = main(
                ["verify-finite", "--target", product3_path, "--tol", f"telescope={value}"]
            )
            assert code == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err.startswith("spectel: ") and err.count("\n") == 1

    def test_random_state_cap_checked_before_drawing(self, capsys):
        # 10^9 states: the cap must fire before the joint tensor is allocated.
        code = main(["verify-finite", "--random", "1", "--axes", "1000,1000,1000"])
        assert code == EXIT_RESOURCE
        assert capsys.readouterr().err.count("\n") == 1

    def test_numerical_contract_exit_one(self, product3_path, capsys, monkeypatch):
        def violated(*args, **kwargs):
            raise NumericalContractError("detailed balance violated by 1.000e-03")

        monkeypatch.setattr("spectel.cli.assemble_bounds", violated)
        code = main(["verify-finite", "--target", product3_path])
        assert code == EXIT_CHECKS_FAILED
        err = capsys.readouterr().err
        assert err.startswith("spectel: numerical contract violated: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_missing_out_directory_checked_first(self, product3_path, tmp_path, capsys, monkeypatch):
        def verified(*args, **kwargs):
            raise AssertionError("the target was verified before --out was checked")

        monkeypatch.setattr("spectel.cli.assemble_bounds", verified)
        # A path in a missing directory, and a path that is a directory.
        for out in (tmp_path / "missing" / "x.json", tmp_path):
            code = main(["verify-finite", "--target", product3_path, "--out", str(out)])
            assert code == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err.startswith("spectel: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "count, n, axes",
        [
            pytest.param("1", None, "2,x", id="2,x"),
            pytest.param("1", "2", "x", id="x"),
            pytest.param("1", None, "-2,2", id="-2,2"),
            # --n goes only with a single size.
            pytest.param("1", "7", "2,2", id="n-with-axes-list"),
            # An empty axes tuple, then a COUNT that would verify nothing.
            pytest.param("1", "0", "3", id="n=0"),
            pytest.param("1", "-2", "3", id="n=-2"),
            pytest.param("-1", "2", "2", id="count=-1"),
            pytest.param("0", "2", "2", id="count=0"),
            # No sizes at all, and one size without a coordinate count.
            pytest.param("1", None, None, id="no-axes"),
            pytest.param("1", None, "3", id="size-without-n"),
        ],
    )
    def test_malformed_axes_exit_two(self, capsys, count, n, axes):
        sizes = ["--n", n] if n is not None else []
        sizes += [f"--axes={axes}"] if axes is not None else []
        code = main(["verify-finite", "--random", count, *sizes])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("spectel: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestSample:
    def test_finite_determinism(self, product3_path, tmp_path):
        out1, out2 = tmp_path / "a.njson", tmp_path / "b.njson"
        for out in (out1, out2):
            code = main(
                [
                    "sample",
                    "--target",
                    product3_path,
                    "--steps",
                    "50",
                    "--seed",
                    "3",
                    "--out",
                    str(out),
                ]
            )
            assert code == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_finite_states_valid(self, tmp_path):
        t = random_target([2, 3, 2], np.random.default_rng(0))
        path = tmp_path / "t.json"
        path.write_text(json.dumps(target_to_dict(t)))
        out = tmp_path / "chain.njson"
        main(["sample", "--target", str(path), "--steps", "40", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 40
        for line in lines:
            state = json.loads(line)
            assert all(0 <= v < size for v, size in zip(state, t.axes))

    def test_cube_states_stay_in_corner(self, tmp_path):
        out = tmp_path / "cube.njson"
        code = main(
            ["sample", "--target", "cube", "--n", "4", "--steps", "200", "--out", str(out)]
        )
        assert code == EXIT_OK
        for line in out.read_text().strip().splitlines():
            state = json.loads(line)
            assert sum(state) < 1.0 and all(v > 0 for v in state)

    def test_cube_determinism(self, tmp_path):
        outs = []
        for name in ("c1.njson", "c2.njson"):
            out = tmp_path / name
            main(
                ["sample", "--target", "cube", "--n", "3", "--steps", "20", "--seed", "9", "--out", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    # Each line must be exactly json.dumps of the sampler's row at the same
    # seed; numpy's own str(row) ("[1 0 2]") would not be.
    @pytest.mark.parametrize("l", [1, 2])
    def test_finite_lines_are_json_rows(self, tmp_path, l):
        t = random_target([2, 3, 2], np.random.default_rng(1))
        path = tmp_path / "t.json"
        path.write_text(json.dumps(target_to_dict(t)))
        out = tmp_path / "chain.njson"
        argv = ["sample", "--target", str(path), "--l", str(l), "--steps", "300", "--seed", "5"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        rows = sample_gibbs_chain(load_target(str(path)), 300, np.random.default_rng(5), l=l)
        assert out.read_text() == "".join(json.dumps(row.tolist()) + "\n" for row in rows)

    def test_cube_lines_are_json_rows(self, tmp_path):
        out = tmp_path / "cube.njson"
        argv = ["sample", "--target", "cube", "--n", "4", "--steps", "300", "--seed", "5"]
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        rows = run_corner_chain(4, 300, np.random.default_rng(5))
        assert out.read_text() == "".join(json.dumps(row.tolist()) + "\n" for row in rows)

    def test_cube_requires_n(self, product3_path, capsys):
        # The cube needs --n and takes no --l; a target file takes no --n.
        for argv in (
            ["sample", "--target", "cube", "--steps", "5"],
            ["sample", "--target", "cube", "--n", "3", "--l", "7"],
            ["sample", "--target", product3_path, "--n", "9"],
        ):
            assert main(argv) == EXIT_BAD_INPUT, argv
            err = capsys.readouterr().err
            assert err.startswith("spectel: ") and err.count("\n") == 1
            assert "Traceback" not in err

    def test_missing_file(self, tmp_path):
        assert main(["sample", "--target", str(tmp_path / "nope.json")]) == EXIT_BAD_INPUT


class TestVerifyCube:
    def test_insufficient_steps_exit_four(self, tmp_path, capsys):
        code = main(["verify-cube", "--n", "4", "--steps", "1000"])
        assert code == EXIT_STATISTICAL
        assert "statistical contract" in capsys.readouterr().err
        # A negative count is malformed input, not too little sampling.
        assert main(["verify-cube", "--n", "4", "--steps", "-5"]) == EXIT_BAD_INPUT

    def test_n_out_of_range_exit_two(self):
        assert main(["verify-cube", "--n", "9"]) == EXIT_BAD_INPUT
        assert main(["verify-cube", "--n", "2"]) == EXIT_BAD_INPUT

    def test_full_run_small_n(self, tmp_path):
        out = tmp_path / "cube.json"
        code = main(
            ["verify-cube", "--n", "3", "--steps", "1000000", "--seed", "1", "--out", str(out)]
        )
        report = json.loads(out.read_text())
        assert code == EXIT_OK
        assert report["all_passed"] is True
        assert set(report["tolerances"]) == {
            "exact", "eigenrelation", "orthonormality", "tv_match", "tv_bound_slack"
        }
        checks = report["checks"]
        sandwich = checks["empirical_sandwich"]
        assert sandwich["lower_bound"] == pytest.approx(5 / 36)
        assert sandwich["lower_bound_kind"] == "product_form"
        # At n = 3 the influence analysis sits outside its stated hypothesis.
        assert checks["influence_matrix"]["details"]["3"]["beyond_stated_hypothesis"]

    def test_n4_report_contains_floor(self, tmp_path):
        out = tmp_path / "cube4.json"
        code = main(
            ["verify-cube", "--n", "4", "--steps", "1000000", "--seed", "2", "--out", str(out)]
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        sandwich = report["checks"]["empirical_sandwich"]
        assert sandwich["lower_bound"] == pytest.approx(5 / 72)
        assert sandwich["upper_bound"] == pytest.approx(0.25)

    def test_contract_failures_become_failed_checks(self, tmp_path, monkeypatch):
        # A NaN residual compares false with every tolerance, so it fails.
        nan = float("nan")
        monkeypatch.setattr(corner, "verify_eigenrelation", lambda basis: nan)
        monkeypatch.setattr(
            corner, "tv_contraction_check", lambda m, R, x, xp: corner.TvCheck(nan, 0.0, 1.0)
        )
        out = tmp_path / "cube.json"
        code = main(
            ["verify-cube", "--n", "3", "--steps", "1000000", "--seed", "1", "--out", str(out)]
        )
        assert code == EXIT_CHECKS_FAILED
        checks = json.loads(out.read_text())["checks"]
        failed = {name for name, check in checks.items() if not check["passed"]}
        assert failed == {"eigenrelation", "tv_contraction"}
        assert math.isnan(checks["tv_contraction"]["worst_formula_mismatch"])
        details = checks["eigenrelation"]["details"].values()
        assert all(math.isnan(d["max_residual"]) for d in details)

    def test_tight_tolerances_record_measured_residuals(self, tmp_path):
        out = tmp_path / "cube.json"
        code = main(
            ["verify-cube", "--n", "3", "--steps", "1000000", "--seed", "1", "--out", str(out),
             "--tol", "eigenrelation=1e-30", "--tol", "tv_match=1e-30"]
        )
        assert code == EXIT_CHECKS_FAILED
        checks = json.loads(out.read_text())["checks"]
        failed = {name for name, check in checks.items() if not check["passed"]}
        assert failed == {"eigenrelation", "tv_contraction"}
        # The failing checks report what they measured, not a placeholder.
        residuals = [d["max_residual"] for d in checks["eigenrelation"]["details"].values()]
        residuals.append(checks["tv_contraction"]["worst_formula_mismatch"])
        assert all(math.isfinite(r) and 1e-30 < r <= 1e-8 for r in residuals)

    def test_one_basis_per_m_and_budget(self, monkeypatch):
        built = []

        class CountingBasis(corner.OrthoBasis):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(corner, "OrthoBasis", CountingBasis)
        assert _check_eigenrelation(CUBE_TOLERANCES)["passed"]
        assert len(built) == len(set(built)) == 10


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-cube", "--n", "3"],
        ["sample", "--target", "cube", "--n", "3"],
        ["sample", "--target", "{target}"],
    ],
    ids=["verify-cube", "sample-cube", "sample-target"],
)
def test_oversized_steps_exit_three(tmp_path, argv):
    # 10^13 stored values: refused before numpy is asked for the memory.
    path = tmp_path / "product2.json"
    path.write_text(json.dumps(target_to_dict(product_target([[0.5, 0.5]] * 2))))
    src = str(Path(spectel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "spectel.cli"]
    command += [a.format(target=path) for a in argv] + ["--steps", "10000000000000"]
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == EXIT_RESOURCE
    assert result.stderr.startswith("spectel: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


class TestReportMerge:
    def test_merge_pass_and_fail(self, product3_path, tmp_path):
        good = tmp_path / "good.json"
        assert main(["verify-finite", "--target", product3_path, "--out", str(good)]) == EXIT_OK
        fake = tmp_path / "fake.json"
        fake.write_text(json.dumps({"all_passed": False}))

        merged = tmp_path / "merged.json"
        code = main(["report-merge", str(good), str(fake), "--out", str(merged)])
        assert code == EXIT_CHECKS_FAILED
        data = json.loads(merged.read_text())
        assert data["all_passed"] is False
        assert len(data["reports"]) == 2
        assert "seed" not in data and "tolerances" not in data

        merged_ok = tmp_path / "merged_ok.json"
        code = main(["report-merge", str(good), "--out", str(merged_ok)])
        assert code == EXIT_OK

        # A report with neither pass flag counts as failed.
        fake.write_text("{}")
        code = main(["report-merge", str(good), str(fake), "--out", str(merged)])
        assert code == EXIT_CHECKS_FAILED

    def test_merge_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for text in ("{", "[1, 2]", '{"all_passed": "no"}', '{"passed": 1}'):
            bad.write_text(text)
            assert main(["report-merge", str(bad)]) == EXIT_BAD_INPUT, text
            err = capsys.readouterr().err
            assert err.startswith("spectel: ") and err.count("\n") == 1
            assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--target", "cube", "--n", "3", "--steps", "2", "--tol", "psd=1e-3"],
        ["report-merge", "r.json", "--seed", "1"],
        ["report-merge", "r.json", "--tol", "psd=1e-3"],
    ],
)
def test_flags_only_where_they_act(argv, capsys):
    assert main(argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"spectel: {argv[0]}: unrecognized arguments: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, start",
    [
        (["verify-finite", "--random", "1", "--axes", "2,2", "--l", "x"], "verify-finite: "),
        (["verify-finite", "--target", "t.json", "--random", "1"], "verify-finite: "),
        (["verify-cube", "--n"], "verify-cube: "),
        (["sample", "--steps", "5"], "sample: "),
        (["bogus"], "argument command: "),
        ([], "the following arguments are required: "),
    ],
)
def test_parser_rejection_one_line(argv, start, capsys):
    assert main(argv) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("spectel: " + start) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--version"], ["sample", "--help"]])
def test_help_and_version_exit_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_readme_cli_lines_parse():
    # A flag renamed or removed in the parser must be renamed in README too.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("spectel ")]
    assert len(lines) >= 6
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert args.command == line.split()[1]


@pytest.mark.parametrize(
    "argv",
    [["verify-finite", "--target", "{dir}"], ["report-merge", "{dir}"]],
    ids=["verify-finite", "report-merge"],
)
def test_directory_input_exit_two(tmp_path, argv):
    # Run as a process so that an uncaught OSError would show its traceback.
    src = str(Path(spectel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "spectel.cli"] + [a.format(dir=tmp_path) for a in argv]
    result = subprocess.run(command, env=env, capture_output=True, text=True)
    assert result.returncode == EXIT_BAD_INPUT
    assert result.stderr.startswith("spectel: ") and result.stderr.count("\n") == 1
    assert "Traceback" not in result.stderr


def test_import_loads_numpy_only():
    # scipy serves the tests only; importing the CLI must not load it.
    src = str(Path(spectel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import spectel.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
