"""Tests for the analysis pipeline, report schema and CLI plumbing."""

import errno
import json
import math
import os
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest

from contana import continuity, function_model, report_cli
from contana.report_cli import (
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNACHIEVABLE,
    EXIT_VIOLATED,
    AnalysisSettings,
    analyze,
    build_parser,
    main,
)
from contana import (
    Certificate,
    IntervalCollection,
    ac_sum,
    clip_window,
    exact_phi,
    detect_partition,
    monotone_partition,
    parse_function,
    parse_interval,
    sample,
    verify_certificate,
)
from contana.errors import ShapeError

FAST = AnalysisSettings(epsilon=0.1, grid_m=501)

#: a spike between the detection grids' points (ROADMAP item 1's repro)
SPIKE = "pwl:0:0,0.300011:0.300011,0.300013:5,0.300015:0.300015,1:1"


class TestAnalyze:
    def test_sqrt_report(self):
        report = analyze("sqrt", "[0,1]", FAST)
        assert report["schema"] == 5
        assert report["verdicts"]["piecewise_convex"] is True
        assert report["verdicts"]["uniformly_continuous"] is True
        assert report["verdicts"]["uniformly_continuous_reason"] == \
            "continuous on a compact window"
        assert report["verdicts"]["certificate_verified"] is True
        assert report["partition"] == [0.0, 1.0]
        assert len(report["pieces"]) == 1
        piece = report["pieces"][0]
        assert piece["shape"] == "Concave"
        assert piece["monotonicity"] == "Increasing"
        assert report["certificate"]["delta1"] < 0.02
        # reports must be JSON round-trippable
        assert json.loads(json.dumps(report)) == report

    def test_embeds_settings(self):
        report = analyze("sqrt", "[0,1]", FAST)
        s = report["settings"]
        assert s["epsilon"] == 0.1
        assert s["grid"] == 501
        assert "seed" not in s and "trials" not in s
        assert "eta_scale" not in s and "eta" not in s
        assert s["max_pieces"] == 64
        assert s["cantor_depth"] == 64
        # each fact once: the resolutions under detection, the verdict
        # under verdicts
        assert "detection_resolutions" not in s
        assert report["detection"]["resolutions"] == [501, 1001, 2001]
        assert "stable" not in report["detection"]

    def test_oscillating_counterexample(self):
        report = analyze("x2sininv", "[0,1]",
                         AnalysisSettings(grid_m=2001))
        counts = report["detection"]["sign_change_counts"]
        assert counts[0] < counts[-1]
        assert report["verdicts"]["piecewise_convex"] is False
        assert report["verdicts"]["uniformly_continuous"] is True
        assert report["certificate"] is None
        assert report["verdicts"]["certificate_verified"] == "n/a"

    def test_cantor_counterexample(self):
        report = analyze("cantor", "[0,1]",
                         AnalysisSettings(epsilon=0.5, grid_m=501))
        assert report["verdicts"]["piecewise_convex"] is False
        assert report["verdicts"]["uniformly_continuous"] is True
        # the worst sums stay large relative to the shrinking budget
        assert report["worst_sums"][0]["best_sum"] > 0.25

    @pytest.mark.parametrize("fn, interval, method, ratio", [
        ("sqrt", "[0,1]", "exact_sup", (1.01, 1.02)),
        ("affine:3,1", "[0,5]", "exact_sup", (1.01, 1.02)),
        ("pwl:0:0,0.3:0.6,0.7:0.2,1:0.5", "[0,1]", "exact_sup", (4.0, 4.1)),
        ("poly:0,0,0,1", "[-1,1]", "exact_sup", (2.0, 2.05)),
        ("x2sininv", "[0.05,1]", "exact_sup", (12.0, 12.2)),
    ])
    def test_verification_path_follows_the_kind(self, fn, interval, method,
                                                ratio):
        # Phi proves the certificate for every kind (for the cubic and
        # x^2 sin(1/x), a bracket on it); delta1_opt, the largest budget
        # Phi proves on the window, is 1 / 0.99 of delta1 on one piece,
        # and more on several, whose budgets epsilon / N add up (the
        # pieces of x^2 sin(1/x) whose whole Phi stays below their share
        # impose no step)
        report = analyze(fn, interval, FAST)
        ver, cert = report["verification"], report["certificate"]
        assert ver["passed"] is True and ver["method"] == method
        assert "trials" not in ver
        # sup is Phi(delta1) in float, or a bracket's midpoint: the
        # witness's sum may pass it, but not its rounding
        window = parse_interval(report["window"])
        phi = exact_phi(parse_function(fn, window), window.lo, window.hi)
        sup = phi.sup(cert["delta1"])
        assert ver["sup"] == sup.value
        assert ver["worst_sum"] <= sup.value + sup.rounding < 0.1
        assert ratio[0] < cert["delta1_opt"] / cert["delta1"] < ratio[1]

    @pytest.mark.parametrize("command", ["analyze", "certify"])
    def test_cantor_coarse_grid_certificate_is_refused(self, capsys,
                                                       command):
        # at base grid 5 detection reads the staircase as six convex or
        # concave pieces; the first piece's Phi is its whole rise at every
        # positive length, so no step is proved, and the run exits 3
        argv = [command, "--fn", "cantor", "--interval", "[0.05,1]",
                "--epsilon", "0.5", "--grid", "5"]
        assert main(argv) == EXIT_UNACHIEVABLE
        captured = capsys.readouterr()
        assert captured.err == ""
        out = json.loads(captured.out)
        assert len(out["pieces"]) == 6
        assert out["certificate"] is None and out["verification"] is None
        assert out["certificate_error"] == (
            "no positive step keeps Phi on [0.05, 0.16875] below "
            f"{0.5 / 6!r}")
        assert out["verdicts"]["certificate_verified"] == "n/a"
        # a certificate built on those pieces by hand is refused: the
        # window's Phi(delta1) is the whole rise 0.875, and the witness
        # takes 128 stage-8 bricks, sum 0.5 within length 0.0195
        f = parse_function("cantor", parse_interval("[0.05,1]"))
        partition = monotone_partition(f, 5).partition
        ver = verify_certificate(f, Certificate(epsilon=0.5, delta1=0.02475,
                                                partition=partition))
        assert ver.sup == pytest.approx(0.875, abs=1e-15)
        assert ver.delta1_opt == 0.0
        assert ver.method == "exact_sup" and ver.passed is False
        assert ver.worst_collection.total_length < 0.02475
        assert ac_sum(f, ver.worst_collection) == ver.worst_sum == 0.5
        assert len(ver.worst_collection) == 128

    @pytest.mark.parametrize("command", ["analyze", "certify"])
    def test_undecided_certificate_exits_1(self, capsys, command):
        # where the window's Phi decides nothing the certificate is not
        # proved: the report says so, and the run exits 1
        argv = [command, "--fn", "sqrt", "--interval", "[0,1]",
                "--epsilon", "0.1", "--grid", "501"]

        def without_phi(f, cert):  # the pieces' Phis still give delta1
            with mock.patch.object(continuity, "exact_phi",
                                   return_value=None):
                return verify_certificate(f, cert)

        with mock.patch.object(report_cli, "verify_certificate", without_phi):
            assert main(argv) == EXIT_VIOLATED
        out = json.loads(capsys.readouterr().out)
        assert out["verification"]["sup"] is None
        assert out["verdicts"]["certificate_verified"] == "undecided"
        assert out["verification"]["passed"] is None
        assert out["verification"]["method"] == "undecided"

    def test_deterministic(self):
        a = analyze("sqrt", "[0,1]", FAST)
        b = analyze("sqrt", "[0,1]", FAST)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_affine_pipeline(self):
        report = analyze("affine:3,1", "[0,5]", FAST)
        assert report["pieces"][0]["shape"] == "Affine"
        assert report["gsigma"][0]["direction"] == "Constant"
        assert report["verdicts"]["certificate_verified"] is True

    def test_zigzag_four_monotone_pieces(self):
        report = analyze("pwl:0:0,0.3:0.6,0.7:0.2,1:0.5", "[0,1]", FAST)
        assert report["verdicts"]["piecewise_convex"] is True
        assert len(report["pieces"]) == 4
        monos = [p["monotonicity"] for p in report["pieces"]]
        assert monos == ["Increasing", "Decreasing", "Decreasing", "Increasing"]
        # refinement boundaries land on the interior knots
        assert report["pieces"][0]["interval"][1] == pytest.approx(0.3, abs=1e-3)
        assert report["pieces"][2]["interval"][1] == pytest.approx(0.7, abs=1e-3)
        assert report["verdicts"]["certificate_verified"] is True

    @pytest.mark.parametrize("fn, interval, m", [
        ("sqrt", "(0,1]", 101),
        ("x2sininv", "[0,1]", 257),
        ("cantor", "[0.05,1]", 129),
        ("pwl:0:0,0.3:0.6,0.7:0.2,1:0.5", "[0,1]", 101),
        ("poly:0,0,0,1", "[-1,1]", 64),
    ])
    def test_detection_matches_separate_sampling(self, fn, interval, m):
        # monotone_partition detects on one sampled grid and on every second
        # and every fourth of its points, which are the grids that sampling
        # each resolution separately gives; analyze reports its counts
        f = parse_function(fn, parse_interval(interval))
        result = monotone_partition(f, m)
        window = clip_window(f.domain)
        resolutions = [m, 2 * (m - 1) + 1, 4 * (m - 1) + 1]
        grids = [sample(f, window, r) for r in resolutions]
        for got, want in zip(result.grids, grids):
            assert np.array_equal(got.abscissae, want.abscissae)
            assert np.array_equal(got.values, want.values)
        counts = [detect_partition(g).sign_change_count for g in grids]
        assert result.sign_change_counts == counts
        report = analyze(fn, interval, AnalysisSettings(grid_m=m))
        assert report["detection"]["resolutions"] == resolutions
        assert report["detection"]["sign_change_counts"] == counts


class TestCLI:
    def test_analyze_json_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["analyze", "--fn", "sqrt", "--interval", "[0,1]",
                     "--grid", "501", "--json", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["verdicts"]["certificate_verified"] is True

    def test_parse_error_exit(self, capsys):
        assert main(["analyze", "--fn", "mystery", "--interval", "[0,1]"]) == EXIT_PARSE
        assert main(["analyze", "--fn", "sqrt", "--interval", "oops"]) == EXIT_PARSE
        assert main(["analyze", "--fn", "sqrt", "--interval", "[2,3]",
                     ]) == EXIT_OK  # sqrt is defined there
        assert main(["analyze", "--fn", "cantor", "--interval", "[2,3]",
                     ]) == EXIT_PARSE

    @pytest.mark.parametrize("command", ["analyze", "certify"])
    @pytest.mark.parametrize("epsilon", ["-1", "0", "inf", "nan"])
    def test_bad_epsilon_parse_error(self, capsys, command, epsilon):
        code = main([command, "--fn", "sqrt", "--interval", "[0,1]",
                     "--epsilon", epsilon, "--grid", "501"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        # --grid below 3 where the partition is detected, below 2 elsewhere
        ["analyze", "--epsilon", "0.1", "--grid", "2"],
        ["certify", "--epsilon", "0.1", "--grid", "2"],
        ["check-lemma1", "--sigma", "0.5", "--grid", "2"],
        ["check-glue", "--pairs", "0:0.1", "--grid", "2"],
        ["modulus", "--deltas", "0.1", "--grid", "1"],
        ["worst-sum", "--delta", "0.25", "--grid", "1"],
        ["worst-sum", "--delta", "0.25", "--grid", "many"],
        ["worst-sum", "--delta", "0.25", "--max-intervals", "0"],
        ["check-lemma1", "--sigma", "-1"],
        ["check-lemma1", "--sigma", "inf"],
        ["worst-sum", "--delta", "nan"],
        ["worst-sum", "--delta", "0"],
        ["analyze", "--seed", "1.5", "--grid", "101"],
        ["certify", "--epsilon", "0.1", "--grid", "nan"],
        ["analyze", "--seed", "-1", "--grid", "101"],
        ["modulus", "--deltas", ","],
        ["modulus", "--deltas", "nan"],
        ["modulus", "--deltas", "0.1,nan"],
    ])
    def test_bad_numeric_option_parse_error(self, capsys, argv):
        code = main(argv[:1] + ["--fn", "sqrt", "--interval", "[0,1]"]
                    + argv[1:])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("grid, code", [("3", EXIT_OK),
                                            ("4001", EXIT_PARSE)],
                             ids=["3", "4001"])
    def test_x2sininv_underflow_window_parse_error(self, capsys, grid, code):
        # x^2 sin(1/x) is 0 where 1/x overflows; at 4001 points the window
        # is too narrow for a uniform detection grid, which is bad input,
        # not a crash.  At 3 points detection's grids are uniform, and Phi
        # proves the certificate, so no worst-sum grid is sampled
        assert main(["analyze", "--fn", "x2sininv", "--interval", "[0,1e-310]",
                     "--grid", grid]) == code
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if code == EXIT_OK:
            report = json.loads(captured.out)
            assert report["certificate"]["delta1"] == 9.9e-311
            assert report["verification"]["method"] == "exact_sup"
            assert report["verdicts"]["certificate_verified"] is True
            return
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--fn", "sqrt", "--interval", "[0,1e-310]",
         "--grid", "2001"],
        ["check-lemma1", "--fn", "sqrt", "--interval", "[0,1e-310]",
         "--sigma", "1e-311"],
        ["worst-sum", "--fn", "sqrt", "--interval", "[0,1e-310]",
         "--delta", "1", "--grid", "2001"],
    ])
    def test_window_too_narrow_for_a_uniform_grid_parse_error(self, capsys,
                                                              argv):
        # the gaps are subnormal: the step's own rounding, repeated along
        # the grid, spreads them by far more than 4 ulps of the window, so
        # detection, or the worst-sum search, refuses the grid before any
        # other work, in one line that names the grid and its gaps
        message = {
            "analyze": "partition detection needs a uniform grid, but its "
                       "2001 points on [0.0,1e-310] have gaps from "
                       "4.9999999993e-314 to 5.0000013486e-314",
            "check-lemma1": "partition detection needs a uniform grid, but "
                            "its 4001 points on [0.0,1e-310] have gaps from "
                            "2.4999999997e-314 to 2.500001349e-314",
            "worst-sum": "the worst-sum search needs a uniform grid, but its "
                         "2001 points on [0.0,1e-310] have gaps from 5e-314 "
                         "to 5.000000361e-314",
        }[argv[0]]
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--interval", "[1e17,inf)"], "the window "
         "[1e+17,1.0000000000000002e+17] is too narrow for 16001 distinct "
         "grid points (detection samples 4(M-1)+1 at --grid 4001)"),
        (["modulus", "--interval", "[1e17,inf)", "--deltas", "1"], "the "
         "window [1e+17,1.0000000000000002e+17] is too narrow for 4001 "
         "distinct grid points"),
        (["worst-sum", "--interval", "[1e17,inf)", "--delta", "1"], "the "
         "window [1e+17,1.0000000000000002e+17] is too narrow for 2001 "
         "distinct grid points"),
        (["check-lemma1", "--interval", "[1e17,inf)", "--sigma", "1"], "the "
         "window [1e+17,1.0000000000000002e+17] is too narrow for 16001 "
         "distinct grid points (detection samples 4(M-1)+1 at --grid 4001)"),
        (["certify", "--interval", "[1e17,inf)", "--epsilon", "0.1",
          "--grid", "101"], "the "
         "window [1e+17,1.0000000000000002e+17] is too narrow for 401 "
         "distinct grid points (detection samples 4(M-1)+1 at --grid 101)"),
        (["analyze", "--interval", "[1e15,1.0000000000000001e15]"], "the "
         "window [1000000000000000.0,1000000000000000.1] is too narrow for "
         "16001 distinct grid points (detection samples 4(M-1)+1 at --grid "
         "4001)"),
        (["analyze", "--interval", "[1e300,inf)"], "window [1e+300,inf) "
         "collapsed after clipping: truncation to width 10.0"),
        (["analyze", "--interval", "(0,1e-13)"], "window (0.0,1e-13) "
         "collapsed after clipping: open-end margin 1e-12"),
    ], ids=["analyze-far", "modulus-far", "worst-sum-far", "lemma1-far",
            "certify-far-grid", "analyze-ulp-wide", "analyze-truncation", "analyze-margin"])
    def test_window_too_narrow_for_its_grid_or_clipping(self, capsys, argv,
                                                        message):
        # far from 0 the grid's points round onto each other, or the
        # truncated or pulled-in window rounds to one point: the message
        # names the window and the grid size, or what collapsed it; for
        # the commands that detect, it names the --grid M that the finest
        # detection grid, 4(M-1)+1 points, comes from
        assert main(argv[:1] + ["--fn", "sqrt"] + argv[1:]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"

    @pytest.mark.parametrize("interval, delta1", [
        ("[1000,1001]", 0.6262299767097954),
        ("[5000,5001]", 0.99),
        ("[100000,100001]", 0.99),
        ("[1000,1000.001]", 0.0009899999999765897),
    ])
    def test_windows_far_from_zero_certify(self, capsys, interval, delta1):
        # the abscissae round to gaps that differ by more than 1e-9
        # relative, but within 4 ulps of the window: the grids are uniform,
        # and Phi proves the certificate
        assert main(["analyze", "--fn", "sqrt", "--interval", interval,
                     "--epsilon", "0.01"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["certificate_verified"] is True
        assert report["verification"]["method"] == "exact_sup"
        assert report["certificate"]["delta1"] == delta1
        lo = float(interval[1:-1].split(",")[0])
        assert math.sqrt(lo + delta1) - math.sqrt(lo) < 0.01

    def test_worst_sum_counts_steps_off_a_grid_multiple(self, capsys):
        # delta = 2.5 steps of the 11-point grid: [0, 0.2] is on the grid
        # and 0.2 < 0.25 long, so two steps fit, and they reach the bound
        assert main(["worst-sum", "--fn", "sqrt", "--interval", "[0,1]",
                     "--grid", "11", "--delta", "0.25"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["witness"] == [[0.0, 0.2]]
        assert out["best_sum"] == out["step_bound"] == 0.4472135954999579

    def test_worst_sum_far_from_zero(self, capsys):
        # the oracle's budget stays strictly below delta in float
        assert main(["worst-sum", "--fn", "sqrt", "--interval",
                     "[100000,100001]", "--delta", "0.1"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "OracleBound"
        assert out["witness_total_length"] < 0.1
        assert math.fsum(y - x for x, y in out["witness"]) < 0.1

    @pytest.mark.parametrize("fn, witness, best_sum", [
        ("sqrt", [[0.0, 1e-310]], 9.999999999999986e-156),
        ("affine:1e17,1e150", [], 0.0),
    ])
    def test_worst_sum_on_a_subnormal_step(self, capsys, fn, witness,
                                           best_sum):
        # delta / step overflows on a subnormal grid step: every one of
        # the 100 steps fits below delta, with no quotient taken
        assert main(["worst-sum", "--fn", fn, "--interval", "[0,1e-310]",
                     "--delta", "1", "--grid", "101"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        out = json.loads(captured.out)
        assert out["witness"] == witness
        assert out["best_sum"] == out["step_bound"] == best_sum

    @pytest.mark.parametrize("argv", [
        ["analyze", "--epsilon", "0.1"],
        ["certify", "--epsilon", "0.1"],
        ["modulus", "--deltas", "1"],
        ["check-lemma1", "--sigma", "1"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.filterwarnings("error")
    def test_window_width_overflow_parse_error(self, capsys, argv):
        # 1e308 - (-1e308) overflows: the window is named as too wide, in
        # one line, before any grid on it warns
        assert main(argv[:1] + ["--fn", "affine:2.5,0.5", "--interval",
                                "[-1e308,1e308]", "--grid", "11"]
                    + argv[1:]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "parse error: window [-1e+308,1e+308] is too wide: its width "
            "1e+308 - (-1e+308) overflows\n")

    @pytest.mark.parametrize("argv", [
        ["analyze", "--fn", "poly:nan,1", "--interval", "[0,1]"],
        ["analyze", "--fn", "affine:1e308,0", "--interval", "[0,1e10]"],
        ["worst-sum", "--fn", "pwl:0:nan,1:1", "--interval", "[0,1]",
         "--delta", "0.25", "--grid", "11"],
        # knot differences that overflow to inf
        ["analyze", "--fn", "pwl:-1e308:0,1e308:1", "--interval", "[0,1]"],
        ["analyze", "--fn", "pwl:0:-1e308,1:1e308", "--interval", "[0,1]"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_input_parse_error(self, capsys, argv):
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        # finite values whose range overflows
        (["worst-sum", "--fn", "poly:0,1.7e308", "--interval", "[-1,1]",
          "--delta", "1.5"], "values -1.7e+308 at x = -1.0 and 1.7e+308 at "
                             "x = 1.0 are too far apart"),
        (["modulus", "--fn", "poly:0,1.7e308", "--interval", "[-1,1]",
          "--deltas", "1,2"], "values -1.7e+308 at x = -1.0"),
        (["analyze", "--fn", "poly:0,1.7e308", "--interval", "[-1,1]"],
         "values -1.7e+308 at x = -1.0"),
        # a finite range whose largest steps sum past the float range
        (["worst-sum", "--fn", "pwl:0:0,1:1e308,2:0,3:1e308,4:0",
          "--interval", "[0,4]", "--delta", "3"],
         "the sum of the 1499 largest grid steps overflows"),
    ])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_value_differences_parse_error(self, capsys, argv,
                                                       message):
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"parse error: {message}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("deltas", ["0.1,0.1", "0.2,0.1"])
    def test_deltas_not_strictly_increasing_parse_error(self, capsys, deltas):
        assert main(["modulus", "--fn", "sqrt", "--interval", "[0,1]",
                     "--deltas", deltas]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "parse error: deltas must be strictly increasing\n"

    @pytest.mark.filterwarnings("error")
    def test_values_near_the_float_limit_analyze_quietly(self, capsys):
        # twice the peaks overflows; detection still reads the curvature
        # signs without a warning, and each piece's Phi and the window's
        # prove a subnormal delta1
        assert main(["analyze", "--fn", "pwl:0:0,1:1e308,2:0,3:1e308,4:0",
                     "--interval", "[0,4]"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        cert = report["certificate"]
        assert cert["delta1"] == pytest.approx(1.65e-310, rel=1e-9)
        assert cert["delta1"] < cert["delta1_opt"]
        assert report["verdicts"]["certificate_verified"] is True

    def test_window_too_narrow_for_the_oracle_grid_fails_early(
            self, capsys):
        # detection's 3- to 9-point grids are uniform on [0, 1e-310], but
        # the subnormal gaps of the 2001-point worst-sum grid are not; the
        # search runs only where no certificate exists (certify exits 3
        # here), and its refusal names the window and the grid
        for fn, epsilon in (("cantor", "1e-250"), ("pwl:0:0,1e-310:1", "0.1")):
            argv = ["--fn", fn, "--interval", "[0,1e-310]", "--grid", "3",
                    "--epsilon", epsilon]
            assert main(["certify"] + argv) == EXIT_UNACHIEVABLE
            capsys.readouterr()
            assert main(["analyze"] + argv) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "parse error: the worst-sum search needs a uniform grid, but "
                "its 2001 points on [0.0,1e-310] have gaps from 5e-314 to "
                "5.000000361e-314\n")

    @pytest.mark.parametrize("rows, message", [
        ("x,y\n0,0\n1,nan\n2,1\n", "knots must be finite: knot 1 is (1.0, nan)"),
        ("0,0\n1,1\n1,2\n", "knot abscissae must be strictly increasing: "
                            "knot 1 has x = 1.0 and knot 2 has x = 1.0"),
    ])
    def test_bad_table_knot_named(self, tmp_path, capsys, rows, message):
        path = tmp_path / "t.csv"
        path.write_text(rows)
        assert main(["analyze", "--fn", f"table@{path}", "--interval",
                     "[0,1]"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--fn", "poly:1,abc", "--interval", "[0,1]"],
         "bad number 'abc'"),
        (["analyze", "--fn", "pwl:0:0,1", "--interval", "[0,1]"],
         "bad pair '1', expected x:y"),
        (["check-glue", "--fn", "sqrt", "--interval", "[0,1]",
          "--pairs", "0.1:0.1"], "degenerate pair (0.1, 0.1)"),
        (["check-glue", "--fn", "sqrt", "--interval", "[0,0.5]",
          "--pairs", "0.4:0.6"], "pairs must lie inside the window [0.0,0.5]"),
    ])
    def test_bad_spec_or_pairs_parse_error(self, capsys, argv, message):
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: {message}\n"

    def test_check_lemma1_skips_pieces_no_longer_than_sigma(self, capsys):
        # the zigzag's two middle pieces are 0.2 long
        code = main(["check-lemma1", "--fn", "pwl:0:0,0.3:0.6,0.7:0.2,1:0.5",
                     "--interval", "[0,1]", "--sigma", "0.25"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert sum(line.endswith(": skipped (length <= sigma)")
                   for line in lines) == 2
        assert lines[0].endswith(" OK") and lines[3].endswith(" OK")

    def test_missing_table_io_error(self, tmp_path, capsys):
        code = main(["analyze", "--fn", f"table@{tmp_path / 'missing.csv'}",
                     "--interval", "[0,1]", "--grid", "101"])
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("I/O error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("fn, epsilon", [
        ("sqrt", "1e-160"), ("poly:0,1", "1e-309")])
    def test_subnormal_delta1_is_verified(self, capsys, fn, epsilon):
        # the oracle grid is sized in float; delta_1 lies below its spacing,
        # so the oracle is skipped
        assert main(["analyze", "--fn", fn, "--interval", "[0,1]",
                     "--epsilon", epsilon]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert 0 < payload["certificate"]["delta1"] < sys.float_info.min
        assert payload["verdicts"]["certificate_verified"] is True

    def test_step_below_float_resolution_is_unachievable(self, capsys):
        # slope 1e308 at epsilon 1e-300: the step, 1e-608, rounds to 0,
        # so Phi proves no positive step
        argv = ["--fn", "poly:0,1e308", "--interval", "[0,1]",
                "--epsilon", "1e-300"]
        for command in ("analyze", "certify"):
            assert main([command] + argv) == EXIT_UNACHIEVABLE
            captured = capsys.readouterr()
            assert captured.err == ""
            payload = json.loads(captured.out)
            assert payload["certificate"] is None
            assert payload["certificate_error"] == (
                "no positive step keeps Phi on [0.0, 1.0] below 1e-300")
        # a step far below the resolution at the window's ends is a float
        # all the same: x^2 on [-1e150, 1e150] is proved
        argv = ["--fn", "poly:0,0,1", "--interval", "[-1e150,1e150]",
                "--epsilon", "0.1"]
        for command in ("analyze", "certify"):
            assert main([command] + argv) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            cert = json.loads(captured.out)["certificate"]
            assert cert["delta1"] == pytest.approx(2.475e-152, rel=1e-9)
            assert cert["delta1_opt"] == pytest.approx(5e-152, rel=1e-9)

    def test_worst_sum_state_guard_limits_only_the_dp(self, capsys):
        # 3 * 5001 * 1250 * 33 states exceed the DP's guard; the top steps
        # of x^2 form one run, and those of the identity tie up to rounding,
        # so they are taken lowest index first as one glued run: the bound
        # answers both, within 2 r tau for the r = 1249 tied steps
        argv = ["worst-sum", "--interval", "[0,1]", "--delta", "0.25",
                "--grid", "5001", "--max-intervals", "32"]
        assert main(argv + ["--fn", "poly:0,0,1"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "OracleBound"
        assert payload["witness"] == [[pytest.approx(0.7502, abs=1e-15), 1.0]]
        assert payload["best_sum"] == pytest.approx(1 - 0.7502**2, rel=1e-12)
        assert main(argv + ["--fn", "poly:0,1"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "OracleBound"
        assert payload["witness"] == [[0.0, pytest.approx(0.2498, abs=1e-15)]]
        tau = continuity._tie_tau([0.0, 1.0], 2e-4)
        assert payload["step_bound"] == pytest.approx(0.2498, rel=1e-12)
        assert abs(payload["step_bound"] - payload["best_sum"]) <= \
            2 * 1249 * tau
        # the top steps of x^2 sin(1/x) near 0 really scatter, so the DP
        # runs, and its state space is refused
        argv = ["worst-sum", "--fn", "x2sininv", "--interval", "[0,0.05]",
                "--delta", "0.0125", "--grid", "5001", "--max-intervals", "32"]
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert "state space too large" in captured.err
        assert captured.err.count("\n") == 1
        # the refusal names both bounds on the answer: the grid's step
        # bound, and Phi(delta)'s upper end, from the 1024-cell bracket
        step = float(captured.err.split("step_bound ")[1].split(")")[0])
        upper = float(captured.err.split("Phi(delta) <= ")[1])
        assert 0.0121 < step < 0.0122
        assert 0.0122 < upper < 0.0128

    def test_worst_sum_guard_counts_kept_points(self, capsys):
        # 16385 grid points, but only 1144 lie outside Cantor's runs of
        # zero steps: 3 * 1144 * 820 * 33 states fit under the guard
        grid_m, delta = 16385, 0.05
        argv = ["worst-sum", "--fn", "cantor", "--interval", "[0,1]",
                "--grid", str(grid_m), "--delta", str(delta)]
        assert main(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "OracleDP"
        window = parse_interval("[0,1]")
        f = parse_function("cantor", window)
        witness = IntervalCollection(tuple(map(tuple, payload["witness"])))
        assert ac_sum(f, witness) == payload["best_sum"]
        assert float(witness.total_length) < delta
        assert 0 < len(witness) <= 32
        steps = np.abs(np.diff(sample(f, window, grid_m).values))
        units = 819  # 819 / 16384 < delta < 820 / 16384
        assert payload["step_bound"] == math.fsum(np.sort(steps)[-units:])
        assert payload["best_sum"] <= payload["step_bound"]

    def test_suite_trials_and_seed_options_parse_error(self, tmp_path,
                                                       capsys):
        # every suite certificate is proved by Phi, so no trial count or
        # seed reaches the suite's output: neither option exists
        for option in ("--trials", "--seed"):
            code = main(["suite", "--out", str(tmp_path / "s"), option, "7"])
            assert code == EXIT_PARSE
            err = capsys.readouterr().err
            assert err.startswith("parse error: ") and err.count("\n") == 1
            assert not (tmp_path / "s").exists()

    def test_modulus_stdout(self, capsys):
        code = main(["modulus", "--fn", "sqrt", "--interval", "[0,1]",
                     "--deltas", "0.01,0.04,0.25", "--grid", "401"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "delta,omega"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[1]) for r in rows] == [0.1, 0.2, 0.5]

    def test_worst_sum_stdout(self, capsys):
        code = main(["worst-sum", "--fn", "sqrt", "--interval", "[0,1]",
                     "--delta", "0.25", "--grid", "401"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["best_sum"] == pytest.approx(math.sqrt(0.2475),
                                                    abs=1e-12)
        assert payload["witness"] == [[0.0, 0.2475]]

    def test_check_lemma1(self, capsys):
        code = main(["check-lemma1", "--fn", "sqrt", "--interval", "[0,1]",
                     "--sigma", "0.5", "--grid", "501"])
        assert code == EXIT_OK
        assert "Nonincreasing" in capsys.readouterr().out

    def test_check_glue(self, capsys):
        code = main(["check-glue", "--fn", "sqrt", "--interval", "[0,1]",
                     "--pairs", "0:0.1,0.3:0.4", "--grid", "501"])
        assert code == EXIT_OK
        assert "HOLDS" in capsys.readouterr().out

    def test_check_glue_splits_pairs_at_piece_boundaries(self, capsys):
        # the zigzag's first piece ends at its knot 0.3, inside the pair
        # (0.25, 0.35): each side is checked on its own piece, so the first
        # piece sums 0.1:0.2 and 0.25:0.3
        code = main(["check-glue", "--fn", "pwl:0:0,0.3:0.6,0.7:0.2,1:0.5",
                     "--interval", "[0,1]", "--pairs", "0.1:0.2,0.25:0.35",
                     "--grid", "3"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("piece [0.0,0.3]: lhs=0.3 ")
        assert all(line.endswith(" HOLDS") for line in lines)

    def test_check_glue_pairs_may_start_with_minus(self, capsys):
        # argparse reads "-0.5:..." as an option unless it is joined to
        # --pairs; both spellings give the same two pieces
        argv = ["check-glue", "--fn", "poly:0,0,1", "--interval", "[-1,1]"]
        assert main(argv + ["--pairs=-0.5:-0.4,0.1:0.2"]) == EXIT_OK
        joined = capsys.readouterr()
        assert main(argv + ["--pairs", "-0.5:-0.4,0.1:0.2"]) == EXIT_OK
        assert capsys.readouterr() == joined
        lines = joined.out.splitlines()
        assert len(lines) == 2
        assert all(line.endswith(" HOLDS") for line in lines)

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["analyze", "--fn", "sqrt"],
        ["analyze", "--fn", "sqrt", "--interval", "[0,1]", "--bogus", "1"],
        ["analyze", "--fn", "sqrt", "--interval", "[0,1]", "--eta", "1"],
        ["analyze", "--fn", "sqrt", "--interval", "[0,1]", "--grid"],
        ["suite"],
    ])
    def test_argparse_error_one_line(self, capsys, argv):
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: contana")
        assert captured.err.count("\n") == 1

    def test_help_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: contana analyze")

    def test_check_glue_pair_over_three_boundaries_splits(self, capsys):
        # the pair crosses 0.3, 0.5 and 0.7: it is cut at each, and every
        # piece checks its part, glued at the end its direction names
        code = main(["check-glue", "--fn", "pwl:0:0,0.3:0.6,0.7:0.2,1:0.5",
                     "--interval", "[0,1]", "--pairs", "0.2:0.8",
                     "--grid", "501"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "piece [0.0,0.3]", "piece [0.3,0.5]", "piece [0.5,0.7]",
            "piece [0.7,1.0]"]
        assert [line.split()[-2] for line in lines] == [
            "direction=Nonincreasing", "direction=Nondecreasing",
            "direction=Nonincreasing", "direction=Nondecreasing"]
        assert all(line.endswith(" HOLDS") for line in lines)

    @pytest.mark.parametrize("sigma", ["1", "2"])
    def test_check_lemma1_sigma_covering_every_piece_parse_error(self, capsys,
                                                                 sigma):
        # no piece is longer than sigma, so nothing would be checked
        code = main(["check-lemma1", "--fn", "sqrt", "--interval", "[0,1]",
                     "--sigma", sigma, "--grid", "501"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert captured.err.count("\n") == 1

    def test_certify(self, capsys):
        code = main(["certify", "--fn", "poly:0,0,0,1", "--interval", "[-1,1]",
                     "--epsilon", "0.1", "--grid", "501"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["partition"][1] == pytest.approx(0.0, abs=1e-2)
        assert "partition" not in payload["certificate"]
        assert 0.005 < payload["certificate"]["delta1"] < 0.05

    def test_certify_matches_analyze(self, capsys):
        # one path: certify prints analyze's report without its three
        # tables and their sizes, and exits as analyze does, except where
        # no partition is stable (certify has no certificate to print); on
        # the suite's entries and the repros that the CI runs
        cases = [(fn, interval, epsilon, 4001, EXIT_OK, EXIT_OK)
                 for _, fn, interval, epsilon in report_cli._SUITE_ENTRIES
                 if fn not in ("x2sininv", "cantor")] + [
            ("x2sininv", "[0,1]", 0.1, 4001, EXIT_OK, EXIT_VIOLATED),
            ("cantor", "[0,1]", 0.5, 4001, EXIT_OK, EXIT_VIOLATED),
            (SPIKE, "[0,1]", 0.1, 4001, EXIT_OK, EXIT_OK),
            ("cantor", "[0.05,1]", 0.5, 5, EXIT_UNACHIEVABLE,
             EXIT_UNACHIEVABLE),
            ("poly:0,0,1", "[-1e150,1e150]", 0.1, 4001, EXIT_OK, EXIT_OK),
            ("sqrt", "[1000,1001]", 0.01, 4001, EXIT_OK, EXIT_OK),
            ("sqrt", "[0,1e-310]", 0.001, 3, EXIT_OK, EXIT_OK),
        ]
        assert len(cases) == 12
        for fn, interval, epsilon, grid, analyze_code, certify_code in cases:
            argv = ["--fn", fn, "--interval", interval,
                    "--epsilon", repr(epsilon), "--grid", str(grid)]
            assert main(["analyze"] + argv) == analyze_code, fn
            analyzed = capsys.readouterr()
            assert main(["certify"] + argv) == certify_code, fn
            certified = capsys.readouterr()
            assert certified.err == "", fn
            payload = json.loads(certified.out)
            if interval == "[0,1e-310]":
                assert payload["certificate"]["delta1"] == 9.9e-311
                assert payload["verdicts"]["certificate_verified"] is True
            report = json.loads(analyzed.out)
            for table in ("gsigma", "modulus", "worst_sums"):
                del report[table]
            for size in ("gsigma_samples", "modulus_points"):
                del report["settings"][size]
            assert payload == report, fn

    @pytest.mark.parametrize("fn, interval, epsilon, grid, searches", [
        ("sqrt", "[0,1]", 0.1, 4001, 0),
        ("pwl:0:0,0.3:0.6,0.7:0.2,1:0.5", "[0,1]", 0.1, 4001, 0),
        (SPIKE, "[0,1]", 0.1, 4001, 0),
        ("cantor", "[0.05,1]", 0.5, 5, 1),  # unachievable
        # the shapes that the benchmark's reject workload checks
        ("x2sininv", "[0,0.9]", 0.1, 4001, 1),
        ("x2sininv", "[0,0.9]", 0.1, 25001, 1),
        ("cantor", "[0.05,1]", 0.1, 4001, 1),
        ("cantor", "[0.05,1]", 0.1, 25001, 1),
    ])
    def test_worst_sums_only_where_no_certificate(self, fn, interval,
                                                  epsilon, grid, searches):
        # a certificate's worst collection is Phi's witness; the worst-sum
        # search at budget span/20 runs only where there is no certificate
        report = analyze(fn, interval,
                         AnalysisSettings(epsilon=epsilon, grid_m=grid))
        assert (report["certificate"] is None) == (searches == 1)
        assert len(report["worst_sums"]) == searches
        if searches:
            window = parse_interval(report["window"])
            search = report["worst_sums"][0]
            assert search["delta"] == (window.hi - window.lo) / 20.0
            assert search["witness_intervals"] <= 32
            assert 0 < search["best_sum"]

    @pytest.mark.parametrize("argv", [
        ["certify", "--epsilon", "0.1"],
        ["check-lemma1", "--sigma", "0.05"],
        ["check-glue", "--pairs", "0.1:0.2,0.3:0.35"],
    ])
    def test_unstable_verdict_exits_violated(self, capsys, argv):
        # the sign changes of x^2 sin(1/x) and of the Cantor staircase
        # multiply as the grid gets finer: no command reads pieces from them
        for fn in ("x2sininv", "cantor"):
            code = main(argv[:1] + ["--fn", fn, "--interval", "[0,1]"]
                        + argv[1:])
            assert code == EXIT_VIOLATED, fn
            captured = capsys.readouterr()
            assert captured.err == ""
            if argv[0] == "certify":
                payload = json.loads(captured.out)
                assert payload["certificate"] is None
                assert payload["detection"]["sign_change_counts"][-1] > 64
            else:
                assert captured.out.startswith(
                    "not piecewise convex at this resolution (sign changes ")
                assert captured.out.count("\n") == 1

    def test_analyze_failed_verification_exits_violated(self, tmp_path,
                                                        capsys):
        # a spike between the points of the 3-, 5- and 9-point grids: the
        # function reads as one increasing affine piece.  Its Phi proves
        # the certificate that analyze builds, so the certificate here is
        # built by hand at the length 0.0891 that the slope-1 label would
        # allow; verification breaks it, and the report is still written
        out = tmp_path / "r.json"
        argv = ["analyze", "--fn", "pwl:0:0,0.55:0.55,0.555:3,0.56:0.56,1:1",
                "--interval", "[0,1]", "--grid", "3", "--json", str(out)]
        assert main(argv) == EXIT_OK
        by_label = mock.patch.object(
            report_cli, "ac_certificate",
            lambda f, partition, epsilon: Certificate(epsilon, 0.0891,
                                                      partition))
        with by_label:
            code = main(argv)
        assert code == EXIT_VIOLATED
        report = json.loads(out.read_text())
        assert [(p["shape"], p["monotonicity"]) for p in report["pieces"]] == [
            ("Affine", "Increasing")]
        # Phi(delta1) takes both sides of the spike, which the glued
        # interval that the pieces suggest misses; the report shows the
        # collection of total length below delta1 that Phi takes
        ver = report["verification"]
        assert ver["passed"] is False
        assert ver["method"] == "exact_sup"
        assert ver["sup"] > 4.9
        assert ver["worst_sum"] > 4.9
        assert [0.55, 0.555] in ver["worst_collection"]
        assert [0.555, 0.56] in ver["worst_collection"]
        assert math.fsum(y - x for x, y in ver["worst_collection"]) < (
            report["certificate"]["delta1"])
        assert report["verdicts"]["certificate_verified"] is False

    def test_extremum_next_to_an_end_is_proved(self, capsys):
        # the slope signs split the piece at its knot 1e-15 (see
        # test_convexity's near-end refinement): f falls on the sliver and
        # rises on the rest.  The sliver's share epsilon / 2 is reached
        # after 5e-17, so delta1 is 0.99 of that, and the window's Phi
        # proves the certificate
        assert main(["analyze", "--fn", "pwl:0:1,1e-15:0,1:0.5",
                     "--interval", "[0,1]", "--epsilon", "0.1"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert [(p["interval"], p["shape"], p["monotonicity"])
                for p in report["pieces"]] == [
            ([0.0, 1e-15], "Convex", "Decreasing"),
            ([1e-15, 1.0], "Convex", "Increasing")]
        cert, ver = report["certificate"], report["verification"]
        assert cert["delta1"] == pytest.approx(4.95e-17, rel=1e-9)
        assert cert["delta1"] < cert["delta1_opt"] == pytest.approx(
            1e-16, rel=1e-9)
        assert (ver["passed"], ver["method"]) == (True, "exact_sup")

    def test_certify_refuses_what_phi_refuses(self, capsys):
        # the spike between grid points: its one piece's Phi proves
        # delta1 4.2e-8, under the window's budget.  A certificate built
        # by hand at the length 0.0891 that its affine label would allow
        # is refused: certify prints sup = Phi(delta1) and exits 1, as
        # analyze does
        argv = ["certify", "--fn", SPIKE, "--interval", "[0,1]",
                "--epsilon", "0.1"]
        assert main(argv) == EXIT_OK
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["delta1"] == pytest.approx(4.2128e-8, rel=1e-4)
        assert cert["delta1"] < cert["delta1_opt"] < 1e-7
        by_label = mock.patch.object(
            report_cli, "ac_certificate",
            lambda f, partition, epsilon: Certificate(epsilon, 0.0891,
                                                      partition))
        with by_label:
            code = main(argv)
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_VIOLATED
        assert payload["verification"]["sup"] == pytest.approx(9.489,
                                                               abs=1e-3)
        cert = payload["certificate"]
        assert cert["delta1_opt"] < 1e-7 < cert["delta1"]

    @pytest.mark.parametrize("argv, knapsacks", [
        (["analyze", "--fn", "pwl:0:0,0.3:0.6,0.7:0.2,1:0.5"], 1),
        (["analyze", "--fn", SPIKE], 1),
        (["analyze", "--fn", "sqrt"], 0),
        (["certify", "--fn", SPIKE], 1),
        (["certify", "--fn", "poly:0,0,0,1"], 2),
    ], ids=["analyze-zigzag", "analyze-spike", "analyze-sqrt",
            "certify-spike", "certify-cubic"])
    def test_phi_is_built_once_per_command(self, capsys, argv, knapsacks):
        # each piece's Phi gives its step, and one Phi of the certificate
        # window gives delta1_opt, sup and the verdict: N + 1 windows for
        # N pieces, each Phi built once, with one sorted knapsack for
        # piecewise linear data, two for a polynomial's bracket, none for
        # the square root; a one-piece partition's two calls share a Phi
        interval = "[-1,1]" if "poly" in argv[2] else "[0,1]"
        spy = mock.patch.object(continuity, "exact_phi",
                                wraps=continuity.exact_phi)
        with spy as built, mock.patch.object(report_cli, "exact_phi", built), \
                mock.patch.object(function_model._Knapsack, "build",
                                  wraps=function_model._Knapsack.build) as sorts:
            main(argv + ["--interval", interval, "--epsilon", "0.1"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"]["delta1_opt"] is not None
        windows = [tuple(map(float, call.args[1:])) for call in
                   built.call_args_list]
        points = payload["partition"]
        assert windows == list(zip(points, points[1:])) + [
            (points[0], points[-1])]
        assert sorts.call_count == knapsacks * len(set(windows))

    @pytest.mark.parametrize("fn, interval, pieces", [
        ("sqrt", "[0,1]", 1),
        ("affine:3,1", "[0,5]", 1),
        ("poly:0,0,1", "[0,1]", 1),
        ("poly:0,0,1", "[-1,1]", 2),
        ("pwl:0:0,0.3:0.6,0.7:0.2,1:0.5", "[0,1]", 4),
    ])
    def test_one_phi_per_window(self, capsys, fn, interval, pieces):
        # a one-piece partition's piece and certificate share one window,
        # and so one Phi; N > 1 pieces build N + 1
        with mock.patch.object(function_model, "_build_phi",
                               wraps=function_model._build_phi) as built:
            assert main(["analyze", "--fn", fn, "--interval", interval,
                         "--epsilon", "0.1"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["partition"]) == pieces + 1
        assert built.call_count == (1 if pieces == 1 else pieces + 1)

    def test_certify_not_piecewise_convex(self, capsys):
        code = main(["certify", "--fn", "cantor", "--interval", "[0,1]",
                     "--epsilon", "0.5", "--grid", "501"])
        assert code == EXIT_VIOLATED
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] is None

    def test_suite_unwritable_dir(self, capsys):
        # /proc is not writable even for root; makedirs must fail cleanly
        code = main(["suite", "--out", "/proc/contana-nope/x"])
        assert code == EXIT_IO
        assert not os.path.exists("/proc/contana-nope")

    def test_json_in_a_missing_directory_fails_before_analysis(
            self, tmp_path, monkeypatch, capsys):
        # the directory is not created: the error names the --json path,
        # not a temporary file beside it, so every run prints the same line
        path = tmp_path / "missing" / "r.json"
        monkeypatch.setattr(report_cli, "analyze", mock.Mock())
        errs = []
        for _ in range(2):
            assert main(["analyze", "--fn", "sqrt", "--interval", "[0,1]",
                         "--json", str(path)]) == EXIT_IO
            captured = capsys.readouterr()
            assert captured.out == ""
            errs.append(captured.err)
        assert errs == [f"I/O error: [Errno {errno.ENOENT}] "
                        f"{os.strerror(errno.ENOENT)}: '{path}'\n"] * 2
        report_cli.analyze.assert_not_called()
        assert not path.parent.exists()

    @pytest.mark.parametrize("case, code, message", [
        ("table-not-utf-8", EXIT_PARSE, r"parse error: unreadable table \S+: "
         r"'utf-8' codec can't decode byte 0xff .*"),
        ("suite-third-write", EXIT_IO, r"I/O error: \[Errno 28\] .*"),
        # the failed replace names the file asked for, not its temporary
        ("suite-replace", EXIT_IO, r"I/O error: \[Errno 18\] "
         + re.escape(os.strerror(errno.EXDEV)) + r": '{out}/sqrt\.json'"),
        ("shape-error", EXIT_INTERNAL, r"internal error: escaped"),
        ("runtime-error", EXIT_INTERNAL,
         r"Traceback .*\nRuntimeError: escaped"),
    ])
    def test_rare_failures_exit_with_their_code(self, tmp_path, monkeypatch,
                                                capsys, case, code, message):
        # a failed suite write removes the files already written and leaves
        # no temporary file; only a genuine fault prints a traceback
        argv = ["analyze", "--fn", "sqrt", "--interval", "[0,1]",
                "--grid", "101"]
        out = tmp_path / "out"
        if case == "table-not-utf-8":
            table = tmp_path / "t.csv"
            table.write_bytes(b"x,y\n0,\xff\n1,2\n")
            argv[2] = f"table@{table}"
        elif case == "suite-third-write":
            argv = ["suite", "--out", str(out)]
            write, paths = report_cli._atomic_write, []

            def third_fails(path, data):
                paths.append(path)
                if len(paths) == 3:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                write(path, data)
            monkeypatch.setattr(report_cli, "_atomic_write", third_fails)
        elif case == "suite-replace":
            argv = ["suite", "--out", str(out)]
            monkeypatch.setattr(report_cli.os, "replace", mock.Mock(
                side_effect=OSError(errno.EXDEV, os.strerror(errno.EXDEV))))
        else:
            fault = (ShapeError if case == "shape-error" else RuntimeError)
            monkeypatch.setattr(report_cli, "analyze",
                                mock.Mock(side_effect=fault("escaped")))
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        message = message.replace("{out}", re.escape(str(out)))
        assert re.fullmatch(message + "\n", captured.err, re.S)
        if case != "runtime-error":
            assert captured.err.count("\n") == 1
        if case.startswith("suite"):
            assert os.listdir(out) == []

    def test_modulus_ladder_clamps_to_the_span(self):
        # at 3 points on [0, 1e-310] two subnormal steps round above the
        # span, so the ladder's one delta is the span itself
        grid = sample(parse_function("sqrt"), parse_interval("[0,1e-310]"), 3)
        assert 2.0 * grid.step > grid.span
        assert report_cli._modulus_curve(grid).samples == (
            (1e-310, math.sqrt(1e-310)),)

    def test_no_scipy_import(self):
        # numpy is the only runtime dependency: loading the CLI pulls in
        # every module of the package, and none may import scipy
        src = os.path.dirname(os.path.dirname(
            sys.modules["contana.report_cli"].__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import contana.report_cli, sys; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("seed", ["-1", "seven"])
    def test_bad_env_seed_parse_error(self, monkeypatch, capsys, seed):
        # CONTANA_SEED is no longer read, so a bad value there is ignored;
        # the same value given to --seed is still a one-line parse error
        monkeypatch.setenv("CONTANA_SEED", seed)
        argv = ["analyze", "--fn", "sqrt", "--interval", "[0,1]",
                "--grid", "101"]
        assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert main([*argv, "--seed", seed]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and err.count("\n") == 1
        assert "--seed" in err

    def test_seed_option_has_no_effect(self, tmp_path, monkeypatch):
        # --seed is accepted and checked, and so is ignored CONTANA_SEED;
        # neither reaches the report
        monkeypatch.setenv("CONTANA_SEED", "seven")
        reports = []
        for seed in ([], ["--seed", "7"]):
            out = tmp_path / f"r{len(reports)}.json"
            code = main(["analyze", "--fn", "sqrt", "--interval", "[0,1]",
                         "--grid", "501", "--json", str(out), *seed])
            assert code == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert "seed" not in json.loads(reports[0])["settings"]

    def test_cached_parser_matches_fresh_parsers(self, capsys):
        # main reuses one parser; consecutive commands, with parse errors
        # between them, must print what a freshly built parser prints
        sqrt = ["--fn", "sqrt", "--interval", "[0,1]"]
        calls = [
            ["worst-sum", *sqrt, "--delta", "0.25", "--grid", "401"],
            ["worst-sum", *sqrt, "--grid", "401"],
            ["modulus", *sqrt, "--deltas", "0.01,0.25", "--grid", "401"],
            ["analyze", *sqrt, "--grid", "101", "--seed", "3"],
            ["certify", *sqrt, "--epsilon", "nan"],
            ["analyze", *sqrt, "--grid", "101"],
            ["check-glue", *sqrt, "--pairs", "0.1:0.2", "--grid", "101"],
        ]

        def run(fresh):
            build_parser.cache_clear()
            results = []
            for argv in calls:
                if fresh:
                    build_parser.cache_clear()
                code = main(argv)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        reused = run(fresh=False)
        assert build_parser() is build_parser()
        assert reused == run(fresh=True)
        assert [code for code, _, _ in reused] == [0, 2, 0, 0, 2, 0, 0]
        assert reused[3][1] == reused[5][1]
