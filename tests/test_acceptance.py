"""Acceptance gate: every deliverable criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success) and enforces the criterion's runtime budget.
"""

import filecmp
import os
import sys
import time

import pytest

from contana import suite_checks
from contana.report_cli import main as cli_main


def _report(ident: int, name: str, passed: bool, elapsed: float) -> None:
    line = (f"criterion {ident} ({name}): {'PASS' if passed else 'FAIL'} "
            f"[{elapsed:.1f}s]\n")
    sys.stderr.write(line)
    sys.stderr.flush()


def test_criterion_1_increment_curve_directions():
    t0 = time.monotonic()
    result = suite_checks.check_increment_directions()
    elapsed = time.monotonic() - t0
    _report(1, result.name, result.passed, elapsed)
    for row in result.details["cases"]:
        assert row["ok"], row
        assert row["max_violation"] <= 1e-9, row
    assert result.passed
    assert elapsed < 5.0


def test_criterion_2_gluing_inequality():
    t0 = time.monotonic()
    result = suite_checks.check_gluing()
    elapsed = time.monotonic() - t0
    _report(2, result.name, result.passed, elapsed)
    for row in result.details["cases"]:
        assert row["holds"], row
        if row["function"] == "affine":
            assert row["affine_relative_gap"] <= 1e-12, row
    assert result.passed
    assert elapsed < 10.0


def test_criterion_3_oracle_theory_agreement():
    t0 = time.monotonic()
    result = suite_checks.check_oracle_agreement()
    elapsed = time.monotonic() - t0
    _report(3, result.name, result.passed, elapsed)
    d = result.details
    assert d["lower"] - 1e-12 <= d["best_sum"] <= d["upper"] + 1e-12
    assert abs(d["best_sum"] - d["glued"]) <= d["omega_spacing"] + 1e-12
    assert d["omega_spacing"] == pytest.approx(0.05, rel=1e-2)
    assert result.passed
    assert elapsed < 30.0


def test_criterion_4_certificate_soundness():
    t0 = time.monotonic()
    result = suite_checks.check_certificates()
    elapsed = time.monotonic() - t0
    _report(4, result.name, result.passed, elapsed)
    d = result.details
    for row in d["cases"]:
        assert row["passed"], row
        assert row["method"] == "exact_sup", row
        assert row["worst_sum"] < row["epsilon"], row
    assert 0.006 <= d["sqrt_delta1_at_0.1"] <= 0.01
    sine = [r for r in d["cases"] if r["function"] == "sine"][0]
    assert sine["pieces"] == 4
    assert result.passed
    assert elapsed < 60.0


def test_criterion_5_cantor_witness():
    t0 = time.monotonic()
    result = suite_checks.check_cantor_witness()
    elapsed = time.monotonic() - t0
    _report(5, result.name, result.passed, elapsed)
    floor = 1.0 - 2.0 ** -60
    for row in result.details["stage_sums"]:
        assert row["intervals"] == 2 ** row["k"]
        assert row["f_sum"] >= floor, row
        assert row["total_length"] == pytest.approx(
            (2.0 / 3.0) ** row["k"], rel=1e-12)
    for row in result.details["modulus"]:
        assert row["error"] == 0.0, row
    assert result.passed
    assert elapsed < 30.0


def test_criterion_6_converse_counterexample():
    t0 = time.monotonic()
    result = suite_checks.check_converse_counterexample()
    elapsed = time.monotonic() - t0
    _report(6, result.name, result.passed, elapsed)
    counts = result.details["sign_change_counts"]
    assert counts[0] < counts[1] < counts[2]
    assert counts[-1] > 32
    assert result.details["final_rejected"]
    assert result.details["lipschitz_bound_ok"]
    for d, w in result.details["modulus"]:
        assert w <= 4.0 * d
    assert result.passed
    assert elapsed < 30.0


def test_criterion_7_split_dominance():
    t0 = time.monotonic()
    result = suite_checks.check_split_dominance()
    elapsed = time.monotonic() - t0
    _report(7, result.name, result.passed, elapsed)
    for row in result.details["cases"]:
        assert row["worst_length_drift"] <= 1e-12, row
        assert row["worst_sum_drop"] <= 1e-12, row
    assert result.passed
    assert elapsed < 10.0


def test_criterion_8_suite_determinism(tmp_path):
    t0 = time.monotonic()
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    code_a = cli_main(["suite", "--out", str(dir_a)])
    code_b = cli_main(["suite", "--out", str(dir_b)])
    elapsed = time.monotonic() - t0
    assert code_a == 0
    assert code_b == 0
    names_a = sorted(os.listdir(dir_a))
    names_b = sorted(os.listdir(dir_b))
    assert names_a == names_b and names_a
    identical = True
    for name in names_a:
        if not filecmp.cmp(dir_a / name, dir_b / name, shallow=False):
            identical = False
            sys.stderr.write(f"  mismatch in {name}\n")
    _report(8, "suite determinism", identical, elapsed)
    assert identical
