"""Tests for the analysis pipeline, report schema and CLI plumbing."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from contana import continuity, report_cli
from contana.report_cli import (
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
    IntervalCollection,
    ac_sum,
    clip_window,
    detect_partition,
    monotone_partition,
    parse_function,
    parse_interval,
    sample,
)

FAST = AnalysisSettings(epsilon=0.1, grid_m=501)


class TestAnalyze:
    def test_sqrt_report(self):
        report = analyze("sqrt", "[0,1]", FAST)
        assert report["schema"] == 3
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
        assert s["seed"] == 0
        assert s["eta_scale"] == 1e-8 and "eta" not in s
        assert s["max_pieces"] == 64
        assert s["cantor_depth"] == 64
        assert s["detection_resolutions"] == [501, 1001, 2001]

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
        ("sqrt", "[0,1]", "exact_sup", (1.12, 1.13)),
        ("affine:3,1", "[0,5]", "exact_sup", (1.12, 1.13)),
        ("pwl:0:0,0.3:0.6,0.7:0.2,1:0.5", "[0,1]", "exact_sup", (4.4, 4.6)),
        ("poly:0,0,0,1", "[-1,1]", "exact_sup", (2.1, 2.3)),
        ("x2sininv", "[0.05,1]", "sampled", None),
    ])
    def test_verification_path_follows_the_kind(self, fn, interval, method,
                                                ratio):
        # Phi proves the certificate where it exists (for the cubic, a
        # bracket on it) and runs no trial; delta1_opt, the largest budget
        # Phi proves, sits next to the paper's delta1
        report = analyze(fn, interval, FAST)
        ver, cert = report["verification"], report["certificate"]
        assert ver["passed"] is True and ver["method"] == method
        if method == "sampled":
            assert ver["sup"] is None and ver["trials"] == 2000
            assert cert["delta1_opt"] is None
            return
        assert ver["trials"] == 0
        assert ver["worst_sum"] <= ver["sup"] < 0.1
        assert ratio[0] < cert["delta1_opt"] / cert["delta1"] < ratio[1]
        assert report["settings"]["trials"] == 2000

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

    @pytest.mark.parametrize("grid", ["3", "4001"])
    def test_x2sininv_underflow_window_parse_error(self, capsys, grid):
        # x^2 sin(1/x) is 0 where 1/x overflows; the window is then too
        # narrow for a uniform grid, which is bad input, not a crash
        assert main(["analyze", "--fn", "x2sininv", "--interval", "[0,1e-310]",
                     "--grid", grid]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--fn", "sqrt", "--interval", "[1000,1000.001]",
         "--grid", "2001"],
        ["check-lemma1", "--fn", "sqrt", "--interval", "[1000,1000.1]",
         "--sigma", "0.01"],
    ])
    def test_window_too_narrow_for_a_uniform_grid_parse_error(self, capsys,
                                                              argv):
        # the abscissae round to unequal gaps, so detection refuses the
        # grid before any certificate work
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "parse error: partition detection requires a uniform grid\n")

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
        # signs, and the certificate step, not a warning, ends the run
        assert main(["analyze", "--fn", "pwl:0:0,1:1e308,2:0,3:1e308,4:0",
                     "--interval", "[0,4]"]) == EXIT_UNACHIEVABLE
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["certificate"] is None

    def test_window_too_narrow_for_the_oracle_grid_fails_early(
            self, capsys, monkeypatch):
        # detection's 5- to 17-point grids are uniform near 1000, but the
        # 2001-point worst-sum grid is not: the run stops before any
        # certificate work and names the window and the grid
        def no_certificate(*args, **kwargs):
            raise AssertionError("certificate work ran")

        monkeypatch.setattr(report_cli, "ac_certificate", no_certificate)
        assert main(["analyze", "--fn", "sqrt", "--interval", "[1000,1000.1]",
                     "--grid", "5", "--epsilon", "0.001"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "parse error: the window [1000.0,1000.1] is too narrow for a "
            "uniform 2001-point grid (the worst-sum search needs one)\n")

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
        argv = ["--fn", "poly:0,0,1", "--interval", "[-1e150,1e150]",
                "--epsilon", "0.1"]
        assert main(["analyze"] + argv) == EXIT_UNACHIEVABLE
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        assert payload["certificate"] is None
        assert payload["certificate_error"].startswith(
            "no positive step keeps the anchored increment on [-1e+150, ")
        assert main(["certify"] + argv) == EXIT_UNACHIEVABLE
        captured = capsys.readouterr()
        assert captured.err.startswith("unachievable: no positive step ")
        assert captured.err.count("\n") == 1

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

    def test_worst_sum_guard_counts_kept_points(self, capsys):
        # 16385 grid points, but only 1144 lie outside Cantor's runs of
        # zero steps: 3 * 1144 * 819 * 33 states fit under the guard
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
        units = math.floor(delta * (grid_m - 1) - 1.0 + 1e-9)
        assert payload["best_sum"] <= math.fsum(np.sort(steps)[-units:])

    def test_suite_zero_trials_parse_error(self, tmp_path, capsys):
        code = main(["suite", "--out", str(tmp_path / "s"), "--trials", "0"])
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
        # ternary search puts the zigzag's peak at 0.3000000000045896, inside
        # the pair (0.3, 0.35): each side is checked on its own piece
        code = main(["check-glue", "--fn", "pwl:0:0,0.3:0.6,0.7:0.2,1:0.5",
                     "--interval", "[0,1]", "--pairs", "0.1:0.2,0.3:0.35",
                     "--grid", "3"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 2
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

    def test_check_glue_pair_over_two_boundaries_parse_error(self, capsys):
        code = main(["check-glue", "--fn", "pwl:0:0,0.3:0.6,0.7:0.2,1:0.5",
                     "--interval", "[0,1]", "--pairs", "0.2:0.8",
                     "--grid", "501"])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert captured.err.count("\n") == 1

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
        assert 0.005 < payload["delta1"] < 0.05

    def test_certify_matches_analyze(self, capsys):
        # both take the verdict and pieces of monotone_partition at base
        # resolution --grid, so they give the same certificate: on the
        # suite's convex entries and on x^2 sin(1/x) away from the origin
        for fn, interval, epsilon in (
                ("sqrt", "[0,1]", 0.1),
                ("affine:3,1", "[0,5]", 0.1),
                ("poly:0,0,1", "[0,10]", 0.4),
                ("poly:0,0,0,1", "[-1,1]", 0.1),
                ("pwl:0:0,0.3:0.6,0.7:0.2,1:0.5", "[0,1]", 0.1),
                ("x2sininv", "[0.05,1]", 0.1)):
            code = main(["certify", "--fn", fn, "--interval", interval,
                         "--epsilon", repr(epsilon), "--grid", "501"])
            assert code == EXIT_OK
            payload = json.loads(capsys.readouterr().out)
            report = analyze(fn, interval,
                             AnalysisSettings(epsilon=epsilon, grid_m=501))
            assert payload.pop("sup") == report["verification"]["sup"], fn
            pieces = payload.pop("pieces")
            assert payload == report["certificate"], fn
            assert pieces == [{key: p[key] for key in
                               ("interval", "shape", "monotonicity")}
                              for p in report["pieces"]], fn

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
                assert payload["sign_change_count"] > 64
            else:
                assert captured.out.startswith(
                    "not piecewise convex at this resolution (sign changes ")
                assert captured.out.count("\n") == 1

    def test_analyze_failed_verification_exits_violated(self, tmp_path,
                                                        capsys):
        # a spike between the points of the 3-, 5- and 9-point grids: the
        # function reads as one increasing affine piece; verification breaks
        # the certificate, and the report is still written
        out = tmp_path / "r.json"
        code = main(["analyze", "--fn", "pwl:0:0,0.55:0.55,0.555:3,0.56:0.56,1:1",
                     "--interval", "[0,1]", "--grid", "3", "--json", str(out)])
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

    def test_certify_refuses_what_phi_refuses(self, capsys):
        # the spike between grid points: certify prints sup = Phi(delta1)
        # and exits 1, as analyze does
        code = main(["certify", "--fn",
                     "pwl:0:0,0.300011:0.300011,0.300013:5,"
                     "0.300015:0.300015,1:1",
                     "--interval", "[0,1]", "--epsilon", "0.1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == EXIT_VIOLATED
        assert payload["sup"] == pytest.approx(9.489, abs=1e-3)
        assert payload["delta1_opt"] < 1e-7 < payload["delta1"]

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
        monkeypatch.setenv("CONTANA_SEED", seed)
        code = main(["analyze", "--fn", "sqrt", "--interval", "[0,1]",
                     "--grid", "101"])
        assert code == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and err.count("\n") == 1

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CONTANA_SEED", "7")
        out = tmp_path / "r.json"
        code = main(["analyze", "--fn", "sqrt", "--interval", "[0,1]",
                     "--grid", "501", "--json", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["settings"]["seed"] == 7

    def test_cached_parser_matches_fresh_parsers(self, monkeypatch, capsys):
        # main reuses one parser per default seed; consecutive commands,
        # with parse errors between them and a changed CONTANA_SEED, must
        # print what a freshly built parser prints
        sqrt = ["--fn", "sqrt", "--interval", "[0,1]"]
        calls = [
            ("0", ["worst-sum", *sqrt, "--delta", "0.25", "--grid", "401"]),
            ("0", ["worst-sum", *sqrt, "--grid", "401"]),
            ("0", ["modulus", *sqrt, "--deltas", "0.01,0.25", "--grid", "401"]),
            ("3", ["analyze", *sqrt, "--grid", "101"]),
            ("3", ["certify", *sqrt, "--epsilon", "nan"]),
            ("0", ["analyze", *sqrt, "--grid", "101"]),
            ("0", ["check-glue", *sqrt, "--pairs", "0.1:0.2", "--grid", "101"]),
        ]

        def run(fresh):
            build_parser.cache_clear()
            results = []
            for seed, argv in calls:
                monkeypatch.setenv("CONTANA_SEED", seed)
                if fresh:
                    build_parser.cache_clear()
                code = main(argv)
                captured = capsys.readouterr()
                results.append((code, captured.out, captured.err))
            return results

        reused = run(fresh=False)
        assert build_parser(0) is build_parser(0)
        assert reused == run(fresh=True)
        assert [code for code, _, _ in reused] == [0, 2, 0, 0, 2, 0, 0]
        assert json.loads(reused[3][1])["settings"]["seed"] == 3
        assert json.loads(reused[5][1])["settings"]["seed"] == 0
