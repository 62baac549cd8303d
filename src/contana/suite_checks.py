"""Deterministic verification battery for the demonstration suite.

Each check exercises one pillar of the toolkit at fixed seeds and
tolerances and returns a CriterionResult whose details are JSON-safe and
reproducible bit-for-bit.  The CLI suite aggregates them into its exit
code; the test suite asserts on the same evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import catalog
from .convexity import (
    DEFAULT_MAX_PIECES,
    Direction,
    NotPiecewiseConvex,
    Partition,
    Shape,
    check_gsigma_monotone,
    detect_partition,
    monotone_partition,
)
from .continuity import (
    ac_certificate,
    ac_sum,
    exact_phi,
    gluing_bound_check,
    modulus_on_grid,
    random_collection,
    split_collection_at_partition,
    verify_certificate,
    worst_ac_sum_oracle,
)
from .errors import InsufficientData
from .function_model import (
    FunctionSpec,
    IntervalSpec,
    SampleGrid,
    evaluate,
    sample,
)


@dataclass(frozen=True)
class CriterionResult:
    ident: int
    name: str
    passed: bool
    details: dict = field(default_factory=dict)


def _stable(f: FunctionSpec, m: int = 1001):
    result = monotone_partition(f, m)
    if not result.stable:
        raise AssertionError(f"expected a convex partition for {f.kind}")
    return result


def _single_piece(f: FunctionSpec):
    pieces = _stable(f, 251).pieces
    if len(pieces) != 1:
        raise AssertionError(f"expected a single monotone piece for {f.kind}")
    return pieces[0]


def _direction_cases():
    return (
        ("sqrt", catalog.sqrt_on_unit(), Direction.NONINCREASING),
        ("xsquared", catalog.squared(), Direction.NONDECREASING),
        ("xcubed", catalog.cubed(0.0, 5.0), Direction.NONDECREASING),
        ("affine", catalog.affine_fn(), Direction.CONSTANT),
        ("reciprocal", catalog.reciprocal_table(), Direction.NONINCREASING),
    )


def check_increment_directions() -> CriterionResult:
    """Increment-curve directions match the (monotonicity, shape) table."""
    sigmas = (0.01, 0.05, 0.1, 0.5)
    tol = 1e-9
    worst = 0.0
    rows = []
    ok = True
    for name, f, expected in _direction_cases():
        piece = _single_piece(f)
        for sigma in sigmas:
            rep = check_gsigma_monotone(f, piece, sigma, m=1000)
            worst = max(worst, rep.max_violation)
            good = rep.direction is expected and rep.max_violation <= tol
            ok = ok and good
            rows.append({"function": name, "sigma": sigma,
                         "direction": rep.direction.value,
                         "max_violation": rep.max_violation, "ok": good})
    return CriterionResult(1, "increment-curve monotonicity", ok,
                           {"tolerance": tol, "worst_violation": worst,
                            "cases": rows})


def check_gluing() -> CriterionResult:
    """Glued single increments dominate random collection sums."""
    tol = 1e-9
    affine_tol = 1e-12
    rows = []
    ok = True
    for name, f, _ in _direction_cases():
        piece = _single_piece(f)
        plo, phi = piece.interval.lo, piece.interval.hi
        plen = phi - plo
        rng = np.random.default_rng(0)
        holds_all = True
        worst_gap = 0.0
        affine_worst = 0.0
        for _ in range(1000):
            n = 1 + int(rng.integers(0, 8))
            total = plen * 0.1 * (0.05 + 0.95 * rng.random())
            c = random_collection(rng, plo, phi, total, n)
            if len(c) == 0:
                continue
            chk = gluing_bound_check(f, piece, c, tol=tol)
            holds_all = holds_all and chk.holds
            worst_gap = max(worst_gap, chk.lhs - chk.rhs)
            if piece.shape is Shape.AFFINE:
                rel = abs(chk.lhs - chk.rhs) / max(1.0, abs(chk.rhs))
                affine_worst = max(affine_worst, rel)
        good = holds_all and affine_worst <= affine_tol
        ok = ok and good
        rows.append({"function": name, "holds": holds_all,
                     "worst_lhs_minus_rhs": worst_gap,
                     "affine_relative_gap": affine_worst, "ok": good})
    return CriterionResult(2, "gluing dominance", ok,
                           {"tolerance": tol, "cases": rows})


def check_oracle_agreement() -> CriterionResult:
    """The searched worst sum agrees with the closed form Phi of sqrt, the
    increment of one interval glued at 0."""
    f = catalog.sqrt_on_unit()
    window = IntervalSpec(0.0, 1.0)
    grid = sample(f, window, 401)
    rep = worst_ac_sum_oracle(grid, 0.25)
    spacing = grid.spacing
    lower = math.sqrt(0.25 - spacing)
    upper = 0.5
    slack = 1e-12
    in_range = lower - slack <= rep.best_sum <= upper + slack
    glued = exact_phi(f, 0.0, 1.0).sup(rep.witness.total_length).value
    omega_h = modulus_on_grid(grid, [spacing]).omegas[0]
    agree = abs(rep.best_sum - glued) <= omega_h + slack
    witness_sum = ac_sum(f, rep.witness)
    recomputable = abs(witness_sum - rep.best_sum) <= 1e-12
    ok = in_range and agree and recomputable
    return CriterionResult(3, "oracle-theory agreement", ok,
                           {"best_sum": rep.best_sum, "lower": lower,
                            "upper": upper, "glued": glued,
                            "omega_spacing": omega_h,
                            "witness_pairs": len(rep.witness),
                            "witness_total": float(rep.witness.total_length),
                            "in_range": in_range, "agrees": agree})


def check_certificates() -> CriterionResult:
    """Certificates synthesize and pass verification, each proved by Phi
    (method "exact_sup"): in closed form for sqrt and the sine table, by a
    bracket for x^3.  The sine table detects as its four quarters, x^3 is
    cut at 0, and sqrt's delta1 at epsilon 0.1 lies in [0.006, 0.01]."""
    cases = (  # (name, f, epsilons, what else its detection must show)
        ("sqrt", catalog.sqrt_on_unit(), (0.4, 0.1, 0.02),
         lambda result: True),
        ("sine", catalog.sine_table(), (0.4,),
         lambda result: len(result.pieces) == 4),
        ("xcubed", catalog.cubed(-1.0, 1.0), (0.1,),
         lambda result: any(abs(p) <= 1e-3 for p in result.partition.points)),
    )
    rows = []
    ok = True
    for name, f, epsilons, shows in cases:
        result = _stable(f)
        for eps in epsilons:
            cert = ac_certificate(f, result.partition, eps)
            ver = verify_certificate(f, cert)
            good = ver.passed and ver.method == "exact_sup" and shows(result)
            ok = ok and good
            rows.append({"function": name, "epsilon": eps,
                         "delta1": cert.delta1, "pieces": len(result.pieces),
                         "worst_sum": ver.worst_sum, "method": ver.method,
                         "passed": ver.passed})

    sqrt_delta1 = next(r["delta1"] for r in rows
                       if (r["function"], r["epsilon"]) == ("sqrt", 0.1))
    delta1_in_range = 0.006 <= sqrt_delta1 <= 0.01
    ok = ok and delta1_in_range
    return CriterionResult(4, "certificate soundness", ok,
                           {"cases": rows, "sqrt_delta1_at_0.1": sqrt_delta1,
                            "sqrt_delta1_in_range": delta1_in_range})


def check_cantor_witness() -> CriterionResult:
    """Stage covers keep unit increment sums while the modulus vanishes."""
    f = catalog.cantor_on_unit()
    floor = 1.0 - 2.0 ** -60
    rows = []
    ok = True
    for k in range(1, 9):
        cover = catalog.cantor_stage_cover(k)
        total = float(cover.total_length)
        s = ac_sum(f, cover)
        good = s >= floor and len(cover) == 2 ** k
        ok = ok and good
        rows.append({"k": k, "intervals": len(cover), "total_length": total,
                     "f_sum": s, "ok": good})

    # the stage-6 brick ends a / 3**6 as the integers a, with the values at
    # the exact ends: every abscissa, pair distance and delta 3**(6 - k) is
    # an exact float, and each delta is reported as 3**-k correctly rounded
    ends = sorted({x for pair in catalog.cantor_stage_cover(6).pairs
                   for x in pair})
    grid = SampleGrid([float(x * 3 ** 6) for x in ends],
                      [evaluate(f, x) for x in ends])
    curve = modulus_on_grid(grid, [3.0 ** (6 - k) for k in range(6, 0, -1)])
    modulus_rows = []
    for (d, w), k in zip(curve.samples, range(6, 0, -1)):
        err = abs(w - 2.0 ** -k)
        good = err <= 1e-12
        ok = ok and good
        modulus_rows.append({"k": k, "delta": d / 3 ** 6, "omega": w,
                             "error": err, "ok": good})
    return CriterionResult(5, "cantor non-certificate witness", ok,
                           {"stage_sums": rows, "modulus": modulus_rows})


def check_converse_counterexample() -> CriterionResult:
    """Oscillation defeats partition detection while the modulus stays linear."""
    f = FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0))
    window = IntervalSpec(1e-3, 1.0)
    counts = []
    last = None
    for spacing in (1e-3, 1e-4, 1e-5):
        m = int(round((window.hi - window.lo) / spacing)) + 1
        last = detect_partition(sample(f, window, m))
        counts.append(last.sign_change_count)
    increasing = all(b > a for a, b in zip(counts, counts[1:]))
    rejected = isinstance(last, NotPiecewiseConvex)
    exceeded = counts[-1] > DEFAULT_MAX_PIECES

    grid = sample(f, window, 100001)
    deltas = [1e-3, 3e-3, 1e-2, 3e-2, 0.1]
    curve = modulus_on_grid(grid, deltas)
    lipschitz_ok = all(w <= 4.0 * d for d, w in curve.samples)
    ok = increasing and rejected and exceeded and lipschitz_ok
    return CriterionResult(6, "oscillating converse counterexample", ok,
                           {"sign_change_counts": counts,
                            "max_pieces": DEFAULT_MAX_PIECES,
                            "final_rejected": rejected,
                            "modulus": [[d, w] for d, w in curve.samples],
                            "lipschitz_bound_ok": lipschitz_ok})


def check_split_dominance() -> CriterionResult:
    """Splitting at partition points preserves length and never loses sum."""
    cases = (
        ("sqrt", catalog.sqrt_on_unit(), 0.0, 1.0),
        ("sine", catalog.sine_table(), 0.0, 2.0 * math.pi),
        ("cantor", catalog.cantor_on_unit(), 0.0, 1.0),
    )
    length_tol = 1e-12
    sum_tol = 1e-12
    rows = []
    ok = True
    for name, f, lo, hi in cases:
        rng = np.random.default_rng(7)
        worst_len = 0.0
        worst_sum_drop = 0.0
        for _ in range(1000):
            k = 2 + int(rng.integers(0, 4))
            inner = np.sort(rng.uniform(lo + 0.02 * (hi - lo),
                                        hi - 0.02 * (hi - lo), size=k))
            points = (lo, *map(float, inner), hi)
            try:
                p = Partition(points)
            except InsufficientData:
                continue
            min_len = p.min_piece_length
            total = min_len * (0.1 + 0.8 * rng.random())
            n = 1 + int(rng.integers(0, 6))
            c = random_collection(rng, lo, hi, total, n)
            if len(c) == 0:
                continue
            out = split_collection_at_partition(c, p)
            worst_len = max(worst_len,
                            abs(float(out.total_length) - float(c.total_length)))
            drop = ac_sum(f, c) - ac_sum(f, out)
            worst_sum_drop = max(worst_sum_drop, drop)
        good = worst_len <= length_tol and worst_sum_drop <= sum_tol
        ok = ok and good
        rows.append({"function": name, "worst_length_drift": worst_len,
                     "worst_sum_drop": worst_sum_drop, "ok": good})
    return CriterionResult(7, "split dominance", ok,
                           {"length_tolerance": length_tol,
                            "sum_tolerance": sum_tol, "cases": rows})


def run_all() -> tuple:
    """Run the full battery; returns (results, all_passed)."""
    results = (
        check_increment_directions(),
        check_gluing(),
        check_oracle_agreement(),
        check_certificates(),
        check_cantor_witness(),
        check_converse_counterexample(),
        check_split_dominance(),
    )
    return results, all(r.passed for r in results)
