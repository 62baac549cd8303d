"""Output checks for benchmark jobs, run after the timer stops.

Every check recomputes its reference from the job's argv and exact
``contana.evaluate`` calls; none trusts a number the job printed without
testing it.  ``check_job`` returns the problems it found (empty when the
output is correct) and the job's answer ratio: the reported answer divided by
the benchmark's own bound on it (``delta1 / delta_ref`` for certificates,
``best_sum / top-units step bound`` for worst-sum searches).
"""

from __future__ import annotations

import json
import math

import numpy as np

from contana import (
    ContanaError,
    IntervalCollection,
    ac_sum,
    evaluate,
    parse_function,
    parse_interval,
)

#: relative slack for comparing floating sums accumulated in another order
REL_TOL = 1e-9

#: x2sininv on [0, b] with b <= 1 is 3-Lipschitz; the check allows 4
X2SININV_LIPSCHITZ = 4.0

#: monotone piece (monotonicity, shape) pairs whose increment curve is
#: nondecreasing, so the modulus is attained at the right end
_RIGHT_ANCHORED = {("Increasing", "Convex"), ("Decreasing", "Concave")}
_LEFT_ANCHORED = {("Increasing", "Concave"), ("Decreasing", "Convex")}


def _leq(a: float, b: float) -> bool:
    return a <= b + REL_TOL * max(abs(a), abs(b)) + 1e-300


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


class Grid:
    """The uniform grid the program samples: lo + i*step, last point hi."""

    def __init__(self, f, lo: float, hi: float, m: int):
        self.f, self.lo, self.hi, self.m = f, lo, hi, m
        self.step = (hi - lo) / (m - 1)

    def x(self, i: int) -> float:
        return self.hi if i == self.m - 1 else self.lo + i * self.step

    def values(self) -> np.ndarray:
        return np.array([evaluate(self.f, self.x(i)) for i in range(self.m)])

    def index_of(self, x: float):
        """Grid index whose abscissa equals x exactly, else None."""
        i = round((x - self.lo) / self.step)
        if 0 <= i < self.m and self.x(i) == x:
            return i
        return None


def _function(job):
    window = parse_interval(job.opt("interval"))
    return parse_function(job.opt("fn"), window), window


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def reference_delta(f, pieces, epsilon: float) -> float:
    """Largest safe total length from the increment lemma on each piece.

    Each monotone convex/concave piece gets budget epsilon / N.  Its exact
    modulus is the increment anchored at the favourable end, so bisection
    with exact evaluation finds the largest step whose increment stays below
    the budget.  The result is capped at the smallest piece length.
    """
    budget = epsilon / len(pieces)
    lengths, steps = [], []
    for p in pieces:
        lo, hi = p["interval"]
        key = (p["monotonicity"], p["shape"])
        if p["shape"] != "Affine" and p["monotonicity"] != "Constant" \
                and key not in _LEFT_ANCHORED | _RIGHT_ANCHORED:
            raise ValueError(f"piece {p} is not monotone convex or concave")
        right = key in _RIGHT_ANCHORED
        base = evaluate(f, hi if right else lo)

        def inc(d, lo=lo, hi=hi, right=right, base=base):
            x = max(lo, hi - d) if right else min(hi, lo + d)
            return abs(evaluate(f, x) - base)

        length = hi - lo
        lengths.append(length)
        a, b = (length, length) if inc(length) < budget else (0.0, length)
        while a < (mid := 0.5 * (a + b)) < b:
            if inc(mid) < budget:
                a = mid
            else:
                b = mid
        steps.append(a)
    return min(min(steps), min(lengths))


def check_certify(job, code, stdout):
    if code != 0:
        return [f"exit code {code}"], None
    report = json.loads(stdout)
    epsilon = float(job.opt("epsilon"))
    problems = []
    verdicts = report["verdicts"]
    if verdicts["piecewise_convex"] is not True:
        problems.append("not piecewise convex")
    if verdicts["certificate_verified"] is not True:
        problems.append("certificate not verified")
    cert, ver = report.get("certificate"), report.get("verification")
    if cert is None or ver is None:
        return problems + ["no certificate"], None
    if not ver["worst_sum"] < epsilon:
        problems.append(f"worst_sum {ver['worst_sum']} >= epsilon {epsilon}")
    f, _ = _function(job)
    delta_ref = reference_delta(f, report["pieces"], epsilon)
    delta1 = cert["delta1"]
    if not 0.0 < delta1 <= delta_ref:
        problems.append(f"delta1 {delta1} outside (0, delta_ref {delta_ref}]")
    return problems, delta1 / delta_ref


# ---------------------------------------------------------------------------
# Worst-sum searches
# ---------------------------------------------------------------------------

def oracle_bounds(values: np.ndarray, units: int):
    """Best single interval of `units` grid steps, the sum of the `units`
    largest |steps|, and the number of same-sign runs those steps form."""
    dv = np.diff(values)
    steps = np.abs(dv)
    units = min(units, len(steps))
    if units < 1:
        return 0.0, 0.0, 0
    single = float(np.max(np.abs(values[units:] - values[:-units])))
    top = np.sort(np.argsort(-steps, kind="stable")[:units])
    bound = math.fsum(steps[top])
    top = top[dv[top] != 0.0]
    signs = np.sign(dv[top])
    breaks = (np.diff(top) != 1) | (np.diff(signs) != 0)
    runs = int(len(top) > 0) + int(np.count_nonzero(breaks))
    return single, bound, runs


def bound_problems(grid: Grid, delta: float, kmax: int, best_sum: float):
    """(problems, best_sum / step bound) for a worst-sum answer on a grid.

    With `units` the most grid steps a collection shorter than delta can
    cover, the best single interval of `units` steps is a lower bound and
    the sum of the `units` largest |steps| an upper bound; the upper bound
    is attained when those steps form at most kmax same-sign runs.
    """
    units = math.ceil(delta / grid.step - 1e-9) - 1
    single, bound, runs = oracle_bounds(grid.values(), units)
    problems = []
    if not _leq(single, best_sum):
        problems.append(f"best_sum {best_sum} < single interval {single}")
    if not _leq(best_sum, bound):
        problems.append(f"best_sum {best_sum} > step bound {bound}")
    if runs <= kmax and not _close(best_sum, bound):
        problems.append(f"best_sum {best_sum} misses attainable bound {bound}")
    return problems, (best_sum / bound if bound > 0 else None)


def witness_problems(grid: Grid, delta: float, kmax: int, best_sum: float,
                     witness) -> list:
    problems = []
    if len(witness) > kmax:
        problems.append(f"{len(witness)} witness pairs > max {kmax}")
    off = [x for pair in witness for x in pair if grid.index_of(x) is None]
    if off:
        problems.append(f"witness endpoints off the grid: {off[:3]}")
    total = math.fsum(y - x for x, y in witness)
    if not total < delta:
        problems.append(f"witness length {total} >= delta {delta}")
    recomputed = ac_sum(grid.f, IntervalCollection(tuple(map(tuple, witness))))
    if not _close(recomputed, best_sum):
        problems.append(f"witness sums to {recomputed}, not {best_sum}")
    return problems


def check_worstsum(job, code, stdout):
    if code != 0:
        return [f"exit code {code}"], None
    payload = json.loads(stdout)
    f, window = _function(job)
    grid = Grid(f, window.lo, window.hi, int(job.opt("grid")))
    delta = float(job.opt("delta"))
    if payload["delta"] != delta:
        return [f"delta {payload['delta']} != requested {delta}"], None
    kmax = int(job.opt("max-intervals"))
    problems, ratio = bound_problems(grid, delta, kmax, payload["best_sum"])
    return problems + witness_problems(grid, delta, kmax, payload["best_sum"],
                                       payload["witness"]), ratio


# ---------------------------------------------------------------------------
# Rejections and modulus curves
# ---------------------------------------------------------------------------

def check_reject(job, code, stdout):
    if code != 0:
        return [f"exit code {code}"], None
    report = json.loads(stdout)
    problems = []
    if report["verdicts"]["piecewise_convex"] is not False:
        problems.append("accepted as piecewise convex")
    counts = report["detection"]["sign_change_counts"]
    if job.opt("fn") == "x2sininv" and \
            not all(a < b for a, b in zip(counts, counts[1:])):
        problems.append(f"sign-change counts not increasing: {counts}")
    if len(report["worst_sums"]) != 1:
        return problems + ["expected one worst-sum search"], None
    # analyze searches with budget span/20 on its own 2001-point grid
    ws = report["worst_sums"][0]
    f, window = _function(job)
    more, ratio = bound_problems(Grid(f, window.lo, window.hi, 2001),
                                 ws["delta"], 32, ws["best_sum"])
    # analyze reports the witness's size and length, not its pairs
    if ws["witness_intervals"] > 32:
        more.append(f"{ws['witness_intervals']} witness pairs > 32")
    if not ws["witness_total_length"] < ws["delta"]:
        more.append("witness length >= delta")
    return problems + more, ratio


def parse_curve(stdout: str):
    lines = stdout.strip().splitlines()
    if lines[0] != "delta,omega":
        raise ValueError(f"bad header {lines[0]!r}")
    return [tuple(float(c) for c in line.split(",")) for line in lines[1:]]


def check_modulus(job, code, stdout):
    if code != 0:
        return [f"exit code {code}"], None
    curve = parse_curve(stdout)
    deltas = [float(d) for d in job.opt("deltas").split(",")]
    if [d for d, _ in curve] != deltas:
        return ["curve deltas differ from the requested deltas"], None
    omegas = [w for _, w in curve]
    problems = []
    if any(b < a for a, b in zip(omegas, omegas[1:])):
        problems.append("omega decreases with delta")
    fn = job.opt("fn")
    if fn == "x2sininv":
        bad = [(d, w) for d, w in curve if w > X2SININV_LIPSCHITZ * d]
        if bad:
            problems.append(f"omega above 4*delta at {bad[0]}")
    elif fn == "sqrt":
        # increasing and concave: the largest increment over k grid steps
        # is v[k] - v[0]; rounding of delta/h may shift k by one
        f, window = _function(job)
        grid = Grid(f, window.lo, window.hi, int(job.opt("grid")))
        v0 = evaluate(f, grid.x(0))
        for d, w in curve:
            k = math.floor(d / grid.step)
            lo = evaluate(f, grid.x(max(k - 1, 0))) - v0
            hi = evaluate(f, grid.x(min(k + 1, grid.m - 1))) - v0
            if not (_leq(lo, w) and _leq(w, hi)):
                problems.append(f"omega {w} at delta {d} outside [{lo}, {hi}]")
                break
    return problems, None


def check_job(workload: str, job, code, stdout):
    """(problems, answer ratio or None) for one job's exit code and stdout."""
    if job.command == "modulus":
        check = check_modulus
    elif job.command == "worst-sum":
        check = check_worstsum
    elif workload == "certify":
        check = check_certify
    else:
        check = check_reject
    try:
        return check(job, code, stdout)
    except (ContanaError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], None
