"""Tests of the benchmark itself: job generation, output checks, metrics.

Each check must pass on the program's real output and fail on a corrupted
copy of it, so that a vacuous check cannot keep every job passing.

    python3 -m pytest bench
"""

import json

import pytest

import spans

import run

REPORT_CLI = run.load_program()

import checks  # noqa: E402  (imports contana from the checkout)
import jobs  # noqa: E402
from contana import parse_function  # noqa: E402


def _job(workload, template, seed=3):
    round_jobs, _ = jobs.generate(workload, seed)
    return next(j for j in round_jobs if j.template == template)


def _run(job):
    code, stdout, _ = run.run_job(REPORT_CLI, job)
    return code, stdout


def _edit_json(stdout, edit):
    payload = json.loads(stdout)
    edit(payload)
    return json.dumps(payload)


def _problems(workload, job, code, stdout):
    return checks.check_job(workload, job, code, stdout)[0]


@pytest.mark.parametrize("workload,size", [("certify", 8), ("reject", 24),
                                           ("worstsum", 40)])
def test_generation_is_seeded_and_reproducible(workload, size):
    first, files = jobs.generate(workload, 7)
    again, files_again = jobs.generate(workload, 7)
    other, _ = jobs.generate(workload, 8)
    assert first == again and files == files_again
    assert [j.argv for j in first] != [j.argv for j in other]
    assert [j.template for j in first] == [j.template for j in other]
    assert len(first) == size


def test_worstsum_budgets_are_whole_grid_steps():
    for job in jobs.generate("worstsum", 5)[0]:
        lo, hi = map(float, job.opt("interval").strip("[]").split(","))
        steps = float(job.opt("delta")) / ((hi - lo) / (int(job.opt("grid")) - 1))
        assert abs(steps - round(steps)) < 1e-9


@pytest.fixture(scope="module")
def certify_run():
    job = _job("certify", "xsquared")
    return job, *_run(job)


def test_certify_check_accepts_real_output(certify_run):
    job, code, stdout = certify_run
    problems, ratio = checks.check_job("certify", job, code, stdout)
    assert problems == []
    assert 0.5 < ratio <= 1.0


@pytest.mark.parametrize("edit,expected", [
    (lambda r: r["certificate"].update(delta1=r["certificate"]["delta1"] * 1.2),
     "delta_ref"),
    (lambda r: r["verification"].update(worst_sum=r["settings"]["epsilon"]),
     ">= epsilon"),
    (lambda r: r["verdicts"].update(certificate_verified=False),
     "not verified"),
    (lambda r: r["verdicts"].update(piecewise_convex="n/a"),
     "not piecewise convex"),
], ids=["inflated-delta1", "worst-sum-at-epsilon", "unverified", "verdict"])
def test_certify_check_rejects_corruption(certify_run, edit, expected):
    job, code, stdout = certify_run
    problems = _problems("certify", job, code, _edit_json(stdout, edit))
    assert any(expected in p for p in problems), problems


def test_certify_check_rejects_bad_exit_code(certify_run):
    job, _, stdout = certify_run
    assert _problems("certify", job, 3, stdout)


@pytest.fixture(scope="module")
def worstsum_run():
    job = _job("worstsum", "worstsum-sqrt-m1025-k4")
    return job, *_run(job)


def test_worstsum_check_accepts_real_output(worstsum_run):
    job, code, stdout = worstsum_run
    problems, ratio = checks.check_job("worstsum", job, code, stdout)
    assert problems == []
    assert ratio == pytest.approx(1.0)


def _lengthen(payload):
    x, y = payload["witness"][-1]
    payload["witness"][-1] = [x, y + (y - x)]


def _too_many_pairs(payload):
    x, y = payload["witness"][0]
    step = (y - x) / 64
    payload["witness"] = [[x + 2 * i * step, x + (2 * i + 1) * step]
                          for i in range(5)]


@pytest.mark.parametrize("edit,expected", [
    (lambda p: p.update(best_sum=p["best_sum"] * 1.01), "> step bound"),
    (lambda p: p.update(best_sum=p["best_sum"] * 0.99), "attainable bound"),
    (_lengthen, ">= delta"),
    (lambda p: p["witness"][0].__setitem__(0, p["witness"][0][0] + 1e-7),
     "off the grid"),
    (_too_many_pairs, "pairs > max"),
], ids=["above-bound", "below-attained-bound", "witness-too-long",
        "off-grid", "too-many-pairs"])
def test_worstsum_check_rejects_corruption(worstsum_run, edit, expected):
    job, code, stdout = worstsum_run
    problems = _problems("worstsum", job, code, _edit_json(stdout, edit))
    assert any(expected in p for p in problems), problems


def test_bound_problems_rejects_sum_above_step_bound():
    grid = checks.Grid(parse_function("cantor"), 0.0, 1.0, 1025)
    delta = 31 * grid.step
    _, bound, _ = checks.oracle_bounds(grid.values(), 30)
    assert checks.bound_problems(grid, delta, 4, bound * (1 - 1e-3))[0] == []
    assert checks.bound_problems(grid, delta, 4, bound * (1 + 1e-3))[0]


@pytest.fixture(scope="module")
def modulus_runs():
    out = {}
    for name in ("sqrt", "x2sininv"):
        job = _job("reject", f"modulus-{name}-grid20001")
        out[name] = (job, *_run(job))
    return out


def _edit_curve(stdout, edit):
    rows = checks.parse_curve(stdout)
    rows = edit(rows)
    return "delta,omega\n" + "".join(f"{d!r},{w!r}\n" for d, w in rows)


def test_modulus_check_accepts_real_output(modulus_runs):
    for job, code, stdout in modulus_runs.values():
        assert _problems("reject", job, code, stdout) == []


def _swap(rows):
    rows[3], rows[4] = (rows[3][0], rows[4][1]), (rows[4][0], rows[3][1])
    return rows


@pytest.mark.parametrize("name,edit,expected", [
    ("sqrt", _swap, "decreases"),
    ("x2sininv", _swap, "decreases"),
    ("sqrt", lambda rows: [(d, w * 1.05) for d, w in rows], "outside"),
    ("x2sininv", lambda rows: [(d, 5 * d) for d, _ in rows], "4*delta"),
    ("sqrt", lambda rows: rows[:-1], "requested deltas"),
], ids=["not-monotone", "not-monotone-x2sininv", "sqrt-above-increment",
        "above-lipschitz", "missing-delta"])
def test_modulus_check_rejects_corruption(modulus_runs, name, edit, expected):
    job, code, stdout = modulus_runs[name]
    problems = _problems("reject", job, code, _edit_curve(stdout, edit))
    assert any(expected in p for p in problems), problems


@pytest.fixture(scope="module")
def reject_run():
    job = _job("reject", "x2sininv-grid4001")
    return job, *_run(job)


def test_reject_check_accepts_real_output(reject_run):
    job, code, stdout = reject_run
    problems, ratio = checks.check_job("reject", job, code, stdout)
    assert problems == []
    assert 0.0 < ratio <= 1.0


@pytest.mark.parametrize("edit,expected", [
    (lambda r: r["verdicts"].update(piecewise_convex=True), "accepted"),
    (lambda r: r["detection"].update(sign_change_counts=[50, 50, 60]),
     "not increasing"),
    (lambda r: r["worst_sums"][0].update(best_sum=1e3), "> step bound"),
], ids=["accepted", "counts-not-increasing", "worst-sum-above-bound"])
def test_reject_check_rejects_corruption(reject_run, edit, expected):
    job, code, stdout = reject_run
    problems = _problems("reject", job, code, _edit_json(stdout, edit))
    assert any(expected in p for p in problems), problems


def test_failed_check_counts_as_failed_job(worstsum_run):
    job, code, stdout = worstsum_run
    bad = _edit_json(stdout, lambda p: p.update(best_sum=p["best_sum"] * 2))
    results = [(0, code, stdout, 0.1), (0, code, bad, 0.1), (0, "raised", "", 0.1)]
    failed, ratios, shown = run.check_results("worstsum", [job], results)
    assert failed == 2 and len(ratios) == 1 and len(shown) == 2


def test_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    results = [(0, 0, "", 0.2), (1, 0, "", 0.4), (0, 0, "", 0.1)]
    e2e = run.end_to_end(["a", "b"], results, 1.0, 100.0, 0, [0.9],
                         [1.0, 2.0, 3.0])
    layer = run.per_layer(spans.Tracer(), [1.0], [1.1])
    for got, declared in ((e2e, spec["end_to_end"]), (layer, spec["per_layer"])):
        assert {n: u for n, (_, u) in got.items()} == \
            {m["name"]: m["unit"] for m in declared}
    assert e2e["jobs_per_s"][0] == pytest.approx(2 / 0.5)
    assert e2e["job_p50_s"][0] == pytest.approx(0.25)
    assert e2e["job_tail_s"][0] == 0.4
    assert e2e["setup_s"][0] == 2.0
    halved = run.end_to_end(["a", "b"], results, 0.5, 100.0, 0, [0.9],
                            [1.0, 2.0, 3.0])
    assert halved["job_p50_s"][0] == pytest.approx(0.125)
    assert halved["jobs_per_s"][0] == pytest.approx(8.0)


def test_speed_scale_uses_a_low_quantile_of_kernel_times():
    refs = [run.NOMINAL_REF_S * 2] * 9 + [run.NOMINAL_REF_S * 3] * 11
    assert run.speed_scale(refs) == pytest.approx(0.5)
