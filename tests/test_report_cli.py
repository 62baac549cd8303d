"""Tests for the analysis pipeline, report schema and CLI plumbing."""

import json
import math
import os
import subprocess
import sys

import pytest

from contana.report_cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VIOLATED,
    AnalysisSettings,
    analyze,
    main,
)

FAST = AnalysisSettings(epsilon=0.1, grid_m=501, trials=200)


class TestAnalyze:
    def test_sqrt_report(self):
        report = analyze("sqrt", "[0,1]", FAST)
        assert report["schema"] == 1
        assert report["verdicts"]["piecewise_convex"] is True
        assert report["verdicts"]["uniformly_continuous_at_resolution"] is True
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
        assert s["cantor_depth"] == 64
        assert s["detection_resolutions"] == [501, 1001, 2001]

    def test_oscillating_counterexample(self):
        report = analyze("x2sininv", "[0,1]",
                         AnalysisSettings(grid_m=2001, trials=100))
        counts = report["detection"]["sign_change_counts"]
        assert counts[0] < counts[-1]
        assert report["verdicts"]["piecewise_convex"] is False
        assert report["verdicts"]["uniformly_continuous_at_resolution"] is True
        assert report["certificate"] is None
        assert report["verdicts"]["certificate_verified"] == "n/a"

    def test_cantor_counterexample(self):
        report = analyze("cantor", "[0,1]",
                         AnalysisSettings(epsilon=0.5, grid_m=501, trials=100))
        assert report["verdicts"]["piecewise_convex"] is False
        assert report["verdicts"]["uniformly_continuous_at_resolution"] is True
        # the worst sums stay large relative to the shrinking budget
        assert report["worst_sums"][0]["best_sum"] > 0.25

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
        ["analyze", "--eta", "-1", "--grid", "101"],
        ["analyze", "--eta", "nan", "--grid", "101"],
        ["analyze", "--seed", "-1", "--grid", "101"],
    ])
    def test_bad_numeric_option_parse_error(self, capsys, argv):
        code = main(argv[:1] + ["--fn", "sqrt", "--interval", "[0,1]"]
                    + argv[1:])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--fn", "poly:nan,1", "--interval", "[0,1]"],
        ["analyze", "--fn", "affine:1e308,0", "--interval", "[0,1e10]"],
        ["worst-sum", "--fn", "pwl:0:nan,1:1", "--interval", "[0,1]",
         "--delta", "0.25", "--grid", "11"],
    ])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_input_parse_error(self, capsys, argv):
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert captured.err.count("\n") == 1

    def test_missing_table_io_error(self, tmp_path, capsys):
        code = main(["analyze", "--fn", f"table@{tmp_path / 'missing.csv'}",
                     "--interval", "[0,1]", "--grid", "101"])
        assert code == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("I/O error: ")
        assert captured.err.count("\n") == 1

    def test_worst_sum_state_guard_limits_only_the_dp(self, capsys):
        # 3 * 5001 * 1250 * 33 states exceed the DP's guard; the top steps
        # of x^2 form one run, so the bound answers, while Cantor's do not
        argv = ["worst-sum", "--interval", "[0,1]", "--delta", "0.25",
                "--grid", "5001", "--max-intervals", "32"]
        assert main(argv + ["--fn", "poly:0,0,1"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "OracleBound"
        assert payload["witness"] == [[pytest.approx(0.7502, abs=1e-15), 1.0]]
        assert payload["best_sum"] == pytest.approx(1 - 0.7502**2, rel=1e-12)
        assert main(argv + ["--fn", "cantor"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: ")
        assert "state space too large" in captured.err
        assert captured.err.count("\n") == 1

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

    def test_certify(self, capsys):
        code = main(["certify", "--fn", "poly:0,0,0,1", "--interval", "[-1,1]",
                     "--epsilon", "0.1", "--grid", "501"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["partition"][1] == pytest.approx(0.0, abs=1e-2)
        assert 0.005 < payload["delta1"] < 0.05

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
