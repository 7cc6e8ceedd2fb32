"""CLI surfaces: exit codes, report structure, determinism, error paths."""

import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spectel
from spectel import bounds
from spectel import cube_corner as corner
from spectel.cli import (
    CUBE_TOLERANCES,
    EXIT_BAD_INPUT,
    EXIT_CHECKS_FAILED,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_STATISTICAL,
    _write_report,
    build_parser,
    main,
)
from spectel.cube_corner import run_corner_chain
from spectel.errors import FINITE_TOLERANCES, NumericalContractError
from spectel.kernels import sample_gibbs_chain
from spectel.target import load_target, random_target

from conftest import peak, product_target, sparse_mixed_target, target_to_dict


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
        # One table owns the finite tolerances: the report's are the engine's defaults.
        assert report["tolerances"] == FINITE_TOLERANCES
        target_entry = report["targets"][0]
        # The entry is the engine's own, with the target's name and axes.
        expected = bounds.assemble_bounds(load_target(product3_path), 1)
        entry = {k: v for k, v in target_entry.items() if k not in ("name", "axes")}
        assert entry == expected
        for residual in target_entry["residuals"]["telescope"].values():
            assert residual >= -1e-9
        assert target_entry["bounds"]["upper"] == pytest.approx(1 / 3)

    @pytest.mark.parametrize("axes", [[2, 2], [2, 2, 2]])
    def test_point_mass_passes(self, tmp_path, axes):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"axes": axes, "probs": [1] + [0] * (2 ** len(axes) - 1)}))
        for l in range(1, len(axes) + 1):
            out = tmp_path / f"report{l}.json"
            code = main(["verify-finite", "--target", str(path), "--l", str(l), "--out", str(out)])
            assert code == EXIT_OK, l
            assert json.loads(out.read_text())["targets"][0]["bounds"]["upper"] == 1.0

    def test_random_sweep_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify-finite",
                "--random",
                "5",
                "--axes",
                "3,3,3",
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
        text = '{"axes": [2, 2], "probs": [0.1,'
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["verify-finite", "--target", str(bad)]) == EXIT_BAD_INPUT
        with pytest.raises(json.JSONDecodeError) as decode:
            json.loads(text)
        assert capsys.readouterr().err == f"spectel: {bad}: malformed JSON: {decode.value}\n"

    def test_nested_probs_exit_two(self, tmp_path, capsys):
        # probs is the flat tensor; a nested list of the right shape is not read.
        path = tmp_path / "nested.json"
        path.write_text('{"axes": [2, 2], "probs": [[0.25, 0.25], [0.25, 0.25]]}')
        assert main(["verify-finite", "--target", str(path)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("spectel: ") and err.count("\n") == 1

    def test_missing_arguments_exit_two(self):
        assert main(["verify-finite"]) == EXIT_BAD_INPUT

    def test_sizes_only_with_random(self, product3_path, capsys):
        # A target file sets its own axes, so --axes would go unread.
        for sizes in ("3,3", "2"):
            argv = ["verify-finite", "--target", product3_path, "--axes", sizes]
            assert main(argv) == EXIT_BAD_INPUT, argv
            assert capsys.readouterr().err == (
                "spectel: --axes goes only with --random; a target file sets its own\n"
            )

    def test_memory_cap_exit_three(self, tmp_path, capsys):
        # (2,)^15 solves a dense kernel of order 32,768; (150,150) has 22,500
        # states, but its largest solve, the Gram matrix at (2, 1), has order 300.
        for axes, code in (([2] * 15, EXIT_RESOURCE), ([150, 150], EXIT_OK)):
            path = tmp_path / "target.json"
            probs = np.full(math.prod(axes), 1.0 / math.prod(axes))
            path.write_text(json.dumps({"axes": axes, "probs": probs.tolist()}))
            out = str(tmp_path / "report.json")
            assert main(["verify-finite", "--target", str(path), "--out", out]) == code
            err = capsys.readouterr().err
            assert err == "" if code == EXIT_OK else err.startswith("spectel: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["verify-finite", "sample"])
    @pytest.mark.parametrize(
        "body",
        [
            # 2^20,000 states have more digits than str() converts, and the
            # axes would fill 60 kB of one line.
            json.dumps({"axes": [2] * 20_000, "probs": [1.0]}),
            # An integer that int() will not read.
            '{"axes": [' + "9" * 5_000 + ', 2], "probs": [1.0]}',
        ],
        ids=["wide", "long-integer"],
    )
    def test_unbounded_numbers_in_no_message(self, tmp_path, capsys, command, body):
        path = tmp_path / "wide.json"
        path.write_text(body)
        assert main([command, "--target", str(path)]) == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("spectel: ") and err.count("\n") == 1 and len(err) < 200, err

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
            '{"axes": [2, 2], "probs": [0.5, 0.5, false, false]}',
            '{"axes": [2, 2], "probs": [[true, 0], [0, 0]]}',
            '{"axes": [2, 2], "probs": ' + "[" * 600 + "1" + "]" * 600 + "}",
        ],
        ids=[
            "float-size",
            "string-size",
            "inf-size",
            "int64-overflow",
            "string-prob",
            "bool-prob",
            "bool-nested",
            "deep-nested",
        ],
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

    def test_random_state_cap_checked_before_drawing(self, capsys, monkeypatch):
        # The tensor of 10^9 states, of 2^100 and of 3^5,000 (its product
        # taken on 65 sizes), and 10^9 report entries: each refused before
        # the first draw, in under 1 MiB.
        monkeypatch.setattr(
            "spectel.target.random_target", lambda *args: pytest.fail("a target was drawn")
        )
        for sizes in (
            ["--axes", "1000,1000,1000"],
            ["--axes", ",".join(["2"] * 100)],
            ["--axes", ",".join(["3"] * 5_000)],
        ):
            used, code = peak(lambda: main(["verify-finite", "--random", "1", *sizes]))
            assert code == EXIT_RESOURCE and used < 2**20, (sizes[:2], used)
            err = capsys.readouterr().err
            assert err.startswith("spectel: ") and err.count("\n") == 1, err
        used, code = peak(lambda: main(["verify-finite", "--random", "1000000000", "--axes", "2,2"]))
        assert code == EXIT_RESOURCE and used < 2**20

    @pytest.mark.parametrize("l", ["0", "3"])
    def test_random_block_size_checked_before_drawing(self, capsys, monkeypatch, l):
        monkeypatch.setattr(
            np.random, "default_rng", lambda *args: pytest.fail("a generator was made")
        )
        argv = ["verify-finite", "--random", "1", "--axes", "2,2", "--l", l]
        assert main(argv) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"spectel: block size {l} out of range 1..2\n"

    def test_numerical_contract_exit_one(self, product3_path, capsys, monkeypatch):
        def violated(*args, **kwargs):
            raise NumericalContractError("detailed balance violated by 1.000e-03")

        monkeypatch.setattr("spectel.bounds.assemble_bounds", violated)
        code = main(["verify-finite", "--target", product3_path])
        assert code == EXIT_CHECKS_FAILED
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        assert report["all_passed"] is False
        assert report["targets"] == [
            {
                "name": product3_path,
                "axes": [2, 2, 2],
                "checks": {"numerical_contract": False},
                "error": "detailed balance violated by 1.000e-03",
                "passed": False,
            }
        ]

    def test_numerical_contract_keeps_other_targets(self, capsys, monkeypatch):
        argv = ["verify-finite", "--random", "3", "--axes", "2,2,2", "--seed", "4"]
        assert main(argv) == EXIT_OK
        clean = json.loads(capsys.readouterr().out)["targets"]
        verify = bounds.assemble_bounds
        calls = []

        def second_fails(*args, **kwargs):
            calls.append(args[0])
            if len(calls) == 2:
                raise NumericalContractError("gap -0.5 fell below 0")
            return verify(*args, **kwargs)

        monkeypatch.setattr("spectel.bounds.assemble_bounds", second_fails)
        assert main(argv) == EXIT_CHECKS_FAILED
        targets = json.loads(capsys.readouterr().out)["targets"]
        assert len(calls) == 3
        assert targets[0] == clean[0] and targets[2] == clean[2]
        assert targets[1] == {
            "name": "random[1]",
            "axes": [2, 2, 2],
            "checks": {"numerical_contract": False},
            "error": "gap -0.5 fell below 0",
            "passed": False,
        }

    def test_missing_out_directory_checked_first(self, product3_path, tmp_path, capsys, monkeypatch):
        def verified(*args, **kwargs):
            raise AssertionError("the target was verified before --out was checked")

        monkeypatch.setattr("spectel.bounds.assemble_bounds", verified)
        # A path in a missing directory, a path that is a directory, and no
        # path; a trailing separator or "." names the missing directory itself.
        missing = str(tmp_path / "missing")
        for out in (
            tmp_path / "missing" / "x.json",
            tmp_path,
            "",
            missing + os.sep,
            os.path.join(missing, "."),
        ):
            code = main(["verify-finite", "--target", product3_path, "--out", str(out)])
            assert code == EXIT_BAD_INPUT
            err = capsys.readouterr().err
            assert err.startswith("spectel: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "count, flags, message",
        [
            pytest.param("1", ["--axes=2,x"], "--axes expects integer sizes, got '2,x'", id="2,x"),
            pytest.param("1", ["--axes=x"], "--axes expects integer sizes, got 'x'", id="x"),
            pytest.param("1", ["--axes=-2,2"], None, id="-2,2"),
            # --axes is the one spelling of a shape; --n is the cube's dimension.
            pytest.param(
                "1",
                ["--n", "2", "--axes=2,2"],
                "verify-finite: unrecognized arguments: --n 2",
                id="n-with-axes-list",
            ),
            pytest.param(
                "1",
                ["--n", "0", "--axes=3"],
                "verify-finite: unrecognized arguments: --n 0",
                id="n=0",
            ),
            pytest.param(
                "1",
                ["--n", "-2", "--axes=3"],
                "verify-finite: unrecognized arguments: --n -2",
                id="n=-2",
            ),
            # A COUNT that would verify nothing.
            pytest.param(
                "-1", ["--axes=2,2"], "--random COUNT must be >= 1, got -1", id="count=-1"
            ),
            pytest.param("0", ["--axes=2,2"], "--random COUNT must be >= 1, got 0", id="count=0"),
            # No sizes at all, an empty list, and one size.
            pytest.param("1", [], None, id="no-axes"),
            pytest.param(
                "1", ["--axes="], "--axes expects integer sizes, got ''", id="empty-axes"
            ),
            pytest.param(
                "1", ["--axes=3"], "need at least 2 coordinates, got 1", id="size-without-n"
            ),
        ],
    )
    def test_malformed_axes_exit_two(self, capsys, count, flags, message):
        code = main(["verify-finite", "--random", count, *flags])
        assert code == EXIT_BAD_INPUT
        err = capsys.readouterr().err
        assert err.startswith("spectel: ") and err.count("\n") == 1
        assert "Traceback" not in err
        if message is not None:
            assert err == f"spectel: {message}\n"

    @pytest.mark.parametrize("l", ["0", "4"])
    def test_block_size_out_of_range_exit_two(self, product3_path, capsys, l):
        assert main(["verify-finite", "--target", product3_path, "--l", l]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == f"spectel: block size {l} out of range 1..3\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-finite", "--target", "{sparse}"],
            ["verify-finite", "--random", "2", "--axes", "2,3,4", "--seed", "5"],
            ["verify-cube", "--n", "3", "--steps", "1000000", "--seed", "1"],
        ],
        ids=["sparse-file", "random", "cube"],
    )
    def test_reports_repeat_byte_for_byte(self, tmp_path, argv):
        sparse = tmp_path / "sparse.json"
        sparse.write_text(json.dumps(target_to_dict(sparse_mixed_target())))
        argv = [a.format(sparse=sparse) for a in argv]
        texts = []
        for run in range(2):
            out = tmp_path / f"report{run}.json"
            assert main([*argv, "--out", str(out)]) == EXIT_OK
            text, clocks = re.subn(rb'\n  "wallclock_s": [^\n]*', b"", out.read_bytes())
            assert clocks == 1
            texts.append(text)
        assert texts[0] == texts[1]

    def test_streamed_report_equals_dumps(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        assert main(["verify-finite", "--random", "2", "--axes", "2,3", "--out", str(path)]) == EXIT_OK
        report = json.loads(path.read_text())
        report["targets"].append({"name": "é\n", "values": [math.nan, -math.inf, None, 1e-300]})
        expected = json.dumps(report, indent=2) + "\n"
        _write_report(report, str(path))
        assert path.read_text(encoding="utf-8") == expected
        _write_report(report, None)
        assert capsys.readouterr().out == expected


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

    def test_block_size_out_of_range_exit_two(self, product3_path, capsys):
        assert main(["sample", "--target", product3_path, "--l", "0"]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err == "spectel: block size 0 out of range 1..3\n"

    def test_cube_start_state_counts_toward_storage(self, capsys):
        # With no step, the start draw alone would hold 10^12 values (7.28 TiB).
        argv = ["sample", "--target", "cube", "--n", "1000000000000", "--steps", "0"]
        assert main(argv) == EXIT_RESOURCE
        err = capsys.readouterr().err
        assert err.startswith("spectel: ") and err.count("\n") == 1
        # A start state of ordinary size and no step print nothing.
        assert main(["sample", "--target", "cube", "--n", "4", "--steps", "0"]) == EXIT_OK
        assert capsys.readouterr() == ("", "")


class TestVerifyCube:
    def test_insufficient_steps_exit_four(self, tmp_path, capsys):
        code = main(["verify-cube", "--n", "4", "--steps", "1000"])
        assert code == EXIT_STATISTICAL
        assert "statistical contract" in capsys.readouterr().err
        # A negative count is malformed input, not too little sampling.
        assert main(["verify-cube", "--n", "4", "--steps", "-5"]) == EXIT_BAD_INPUT

    def test_steps_checked_first(self, capsys, monkeypatch):
        def checked(*args, **kwargs):
            raise AssertionError("a check ran before --steps was checked")

        monkeypatch.setattr("spectel.cube_corner._check_closed_forms", checked)
        for steps, code in [
            ("-5", EXIT_BAD_INPUT),
            ("10000000000000", EXIT_RESOURCE),
            ("1000", EXIT_STATISTICAL),
        ]:
            assert main(["verify-cube", "--n", "4", "--steps", steps]) == code
            err = capsys.readouterr().err
            assert err.startswith("spectel: ") and err.count("\n") == 1

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
        assert list(sandwich) == [
            "passed", "gap_estimate", "rho", "ci", "lags_used",
            "lower_bound", "lower_bound_kind", "product_form", "upper_bound",
        ]
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
        monkeypatch.setattr(corner, "tv_contraction_check", lambda m, R, x, xp: (nan, 0.0, 1.0))
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

    def test_numerical_contract_exit_one(self, tmp_path, capsys, monkeypatch):
        # Unlike verify-finite, verify-cube writes no report on a contract violation.
        def violated(basis):
            raise NumericalContractError("eigenrelation residual is not finite")

        monkeypatch.setattr(corner, "verify_eigenrelation", violated)
        out = tmp_path / "cube.json"
        code = main(["verify-cube", "--n", "3", "--steps", "1000000", "--out", str(out)])
        assert code == EXIT_CHECKS_FAILED
        err = capsys.readouterr().err
        assert err.startswith("spectel: numerical contract violated: ") and err.count("\n") == 1
        assert not out.exists()

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
        assert corner._check_eigenrelation(CUBE_TOLERANCES)["passed"]
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


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--target", "{target}", "--steps", "100000000"],
        ["verify-cube", "--steps", "399999996"],
    ],
    ids=["sample", "verify-cube"],
)
def test_oversized_steps_refused_before_allocating(tmp_path, capsys, monkeypatch, argv):
    # 10^8 steps on (3,3,3,3) at 72 bytes a step; a 3.2 GB trace whose FFT
    # pads it to 2^29 points.  Each passed the value cap.
    monkeypatch.setattr(
        "spectel.cube_corner._check_closed_forms", lambda *args: pytest.fail("a check ran")
    )
    path = tmp_path / "product.json"
    path.write_text(json.dumps(target_to_dict(product_target([[0.2, 0.3, 0.5]] * 4))))
    used, code = peak(lambda: main([a.format(target=path) for a in argv]))
    assert code == EXIT_RESOURCE and used < 2**20, used
    err = capsys.readouterr().err
    assert err.startswith("spectel: ") and err.count("\n") == 1


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
            # The line names the input at fault, malformed JSON included.
            assert err.startswith(f"spectel: {bad}: ") and err.count("\n") == 1
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
        (["verify-finite", "--random", "1", "--axes", "2,2", "--seed", "-1"], "verify-finite: "),
        (["sample", "--target", "cube", "--n", "3", "--steps", "2", "--seed", "-5"], "sample: "),
        (["verify-cube", "--seed", "-2"], "verify-cube: "),
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


def test_readme_python_quick_start_runs(capsys):
    # A name renamed, moved or removed must be renamed in README too.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert blocks
    for block in blocks:
        exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
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


@pytest.mark.parametrize(
    "argv, body",
    [
        (["verify-finite", "--target", "{path}"], b'{"axes": [2, 2], "probs": [1, 0, 0, "\xff"]}'),
        (["report-merge", "{path}"], b'{"all_passed": true, "x": "\xff"}'),
    ],
    ids=["verify-finite", "report-merge"],
)
def test_non_utf8_input_exit_two(tmp_path, capsys, argv, body):
    path = tmp_path / "latin.json"
    path.write_bytes(body)
    assert main([a.format(path=path) for a in argv]) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == f"spectel: {path}: not UTF-8 text: invalid start byte\n"


DEEP_TARGET = '{"axes": [2, 2], "probs": ' + "[" * 990 + "]" * 990 + "}"


@pytest.mark.parametrize(
    "argv, body",
    [
        (["verify-finite", "--target", "{path}"], DEEP_TARGET),
        (["sample", "--target", "{path}"], DEEP_TARGET),
        (["report-merge", "{path}"], '{"all_passed": true, "x": ' + "[" * 5000 + "]" * 5000 + "}"),
    ],
    ids=["verify-finite", "sample", "report-merge"],
)
def test_deeply_nested_json_exit_two(tmp_path, argv, body):
    # Run as a process, at the CLI's own stack depth, so that a RecursionError
    # from the JSON decoder would show its traceback.
    path = tmp_path / "deep.json"
    path.write_text(body)
    src = str(Path(spectel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "spectel.cli"] + [a.format(path=path) for a in argv]
    result = subprocess.run(command, env=env, capture_output=True, text=True)
    assert result.returncode == EXIT_BAD_INPUT
    assert result.stderr.startswith("spectel: ") and result.stderr.count("\n") == 1
    assert "nests too deeply" in result.stderr


def test_version_matches_pyproject():
    # Reports embed spectel.__version__, and pyproject.toml states it again.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', text, re.MULTILINE)[1] == spectel.__version__


def test_import_loads_numpy_only(tmp_path):
    # scipy serves the tests only, and numpy only the commands that compute:
    # importing the package or the CLI loads neither, and neither does a
    # process that prints the version or help, rejects an argument or merges
    # reports.  The package imports no submodule, and the cube corner none of
    # the finite engine.  -X importtime names every module a process imports.
    src = str(Path(spectel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    report = tmp_path / "report.json"
    report.write_text('{"all_passed": true}')

    def imports(*argv):
        result = subprocess.run(
            [sys.executable, "-X", "importtime", *argv], env=env, capture_output=True, text=True
        )
        timed, err = [], []
        for line in result.stderr.splitlines():
            (timed if line.startswith("import time:") else err).append(line)
        return result.returncode, {line.rpartition("|")[2].strip() for line in timed}, err

    def run(*argv):
        code, imported, err = imports(*argv)
        heavy = sorted(m for m in imported if m.split(".")[0] in ("numpy", "scipy"))
        return code, heavy, err

    assert run("-c", "import spectel.cli") == (0, [], [])
    code, imported, err = imports("-c", "import spectel")
    loaded = sorted(m for m in imported if m.startswith(("spectel.", "numpy", "scipy")))
    assert (code, loaded, err) == (0, [], [])
    code, imported, err = imports("-c", "import spectel.cube_corner")
    assert (code, err) == (0, []) and {"spectel.kernels", "spectel.target"}.isdisjoint(imported)
    cli = ["-m", "spectel.cli"]
    for argv in (["--version"], ["--help"], ["sample", "--help"], ["report-merge", str(report)]):
        assert run(*cli, *argv) == (EXIT_OK, [], []), argv
    code, heavy, err = run(*cli, "verify-cube", "--n", "x")
    assert (code, heavy) == (EXIT_BAD_INPUT, [])
    assert err == ["spectel: verify-cube: argument --n: invalid int value: 'x'"]
    code, heavy, err = run(*cli, "verify-finite", "--random", "1", "--axes", "2,2")
    assert code == EXIT_OK and "numpy" in heavy and err == [], err


@st.composite
def malformed_target(draw) -> dict:
    """A target dict that ingest must refuse: each kind is one way to be malformed."""
    axes, probs = [2, 2], [0.25] * 4
    kind = draw(
        st.sampled_from(["long", "bool", "nested", "nested-bool", "mismatch", "non-finite"])
    )
    if kind == "long":
        # Too many or too large sizes for one probability: a product of more
        # digits than str() converts, or more axes than fit a line.
        size, count = draw(st.integers(2, 10**40)), draw(st.integers(2, 25_000))
        return {"axes": [size] * count, "probs": [1.0]}
    if kind == "bool":
        if draw(st.booleans()):
            axes[draw(st.integers(0, 1))] = draw(st.booleans())
        else:
            probs[draw(st.integers(0, 3))] = draw(st.booleans())
    elif kind == "nested":
        if draw(st.booleans()):
            axes = [axes]
        else:
            probs = [probs[:2], probs[2:3]]
    elif kind == "nested-bool":
        # Only the top level of probs is searched for booleans; FiniteTarget
        # refuses a nested one, in one entry or in all four.
        value = draw(st.booleans())
        for _ in range(draw(st.integers(1, 50))):
            value = [value]
        if draw(st.booleans()):
            probs[draw(st.integers(0, 3))] = value
        else:
            probs = [value] * 4
    elif kind == "mismatch":
        axes = draw(st.lists(st.integers(2, 4), min_size=2, max_size=4))
        length = draw(st.integers(1, 300).filter(lambda k: k != math.prod(axes)))
        probs = [1.0 / length] * length
    else:
        probs[draw(st.integers(0, 3))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return {"axes": axes, "probs": probs}


def _far(low: int) -> st.SearchStrategy[str]:
    """An integer flag value of at least ``low``, or below 0, up to 40 digits."""
    return st.one_of(st.integers(low, 10**40), st.integers(-(10**40), -1)).map(str)


# Flag values past the byte rule (exit 3) or out of range (exit 2).  Sizes of
# at least 10^5 hold 10^10 states on two axes; 30 sizes of at least 2 hold
# 2^30 floats, 8.6 GB.
EXTREME_ARGV = st.one_of(
    st.tuples(
        st.just(["verify-finite", "--random", "1", "--axes"]),
        st.lists(st.integers(10**5, 10**40), min_size=2, max_size=300).map(
            lambda sizes: ",".join(map(str, sizes))
        ),
    ),
    st.tuples(
        st.just(["verify-finite", "--random", "1", "--axes"]),
        st.lists(st.integers(2, 10), min_size=30, max_size=5_000).map(
            lambda sizes: ",".join(map(str, sizes))
        ),
    ),
    st.tuples(st.just(["verify-cube", "--steps"]), _far(4 * 10**8)),
    st.tuples(st.just(["sample", "--target", "cube", "--n", "4", "--steps"]), _far(10**9)),
    st.tuples(st.just(["sample", "--target", "{target}", "--steps"]), _far(10**9)),
    st.tuples(st.just(["sample", "--target", "cube", "--steps", "0", "--n"]), _far(10**8)),
).map(lambda parts: [*parts[0], *parts[1:]])


@given(st.one_of(malformed_target(), EXTREME_ARGV), st.sampled_from(["verify-finite", "sample"]))
# The derandomized draws hold few targets, so a nested boolean is also pinned.
@example({"axes": [2, 2], "probs": [[[True]], 0.25, 0.25, 0.25]}, "verify-finite")
@example({"axes": [2, 2], "probs": [[[False]]] * 4}, "sample")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_malformed_input_refused_in_one_line(tmp_path_factory, case, command):
    # Every stage that does work raises, so a refusal must come before all of them.
    directory = tmp_path_factory.mktemp("malformed")
    path = directory / "target.json"
    if isinstance(case, dict):
        path.write_text(json.dumps(case))
        argv = [command, "--target", str(path)]
    else:
        path.write_text(json.dumps(target_to_dict(product_target([[0.5, 0.5]] * 2))))
        argv = [a.format(target=path) for a in case]
    work = lambda *args, **kwargs: pytest.fail("work started")  # noqa: E731
    stderr = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        for name in (
            "spectel.bounds._supported_level",
            "spectel.kernels._block_rows",
            "spectel.cube_corner.stationary_corner_sample",
            "spectel.target.random_target",
            "spectel.cube_corner._check_closed_forms",
        ):
            patch.setattr(name, work)
        patch.setattr(sys, "stderr", stderr)
        code = main(argv)
    err = stderr.getvalue()
    assert code in (EXIT_BAD_INPUT, EXIT_RESOURCE), (argv[:4], err)
    assert err.startswith("spectel: ") and err.count("\n") == 1 and len(err) < 300, err
    assert "Traceback" not in err
