"""Tests for the modulus, gluing, worst-sum search and certificates."""

import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contana import (
    Anchor,
    BudgetError,
    Certificate,
    EmptyCollection,
    FunctionSpec,
    GeometryError,
    IntervalCollection,
    IntervalSpec,
    Monotonicity,
    Partition,
    PiecewiseConvexPartition,
    PreconditionError,
    SampleGrid,
    Shape,
    ShapePiece,
    Unachievable,
    ac_certificate,
    ac_sum,
    detect_partition,
    evaluate,
    glue_chain,
    glued_single_interval,
    gluing_bound_check,
    invert_modulus,
    modulus,
    modulus_on_grid,
    random_collection,
    refine_to_monotone,
    sample,
    split_collection_at_partition,
    verify_certificate,
    worst_ac_sum_oracle,
)
from contana import catalog
from contana.continuity import ModulusCurve, _dp_pairs, _increment_step
from contana.function_model import uniform_abscissae


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def omega_pair_scan(grid, delta):
    """O(m^2) dense pair scan: the defining maximum, no sliding window."""
    xs, vs = grid.abscissae.tolist(), grid.values.tolist()
    best = 0.0
    for i in range(len(xs)):
        for j in range(i, len(xs)):
            if xs[j] - xs[i] > delta:
                break
            diff = abs(vs[j] - vs[i])
            if diff > best:
                best = diff
    return best


def brute_force_worst_sum(values, units, k_max):
    """Exhaustive search over grid-aligned collections on a tiny grid."""
    m = len(values)
    best = 0.0

    def rec(start, units_left, k_left, acc):
        nonlocal best
        best = max(best, acc)
        if k_left == 0:
            return
        for i in range(start, m - 1):
            for j in range(i + 1, m):
                cost = j - i
                if cost > units_left:
                    break
                rec(j, units_left - cost, k_left - 1,
                    acc + abs(values[j] - values[i]))

    rec(0, units, k_max, 0.0)
    return best


def top_step_runs(values, units):
    """The bound-first selection, step by step: the `units` largest |steps|
    (the stable sort keeps the lowest index among ties), zero steps dropped,
    consecutive same-sign steps merged into one (start, end) interval."""
    steps = [b - a for a, b in zip(values, values[1:])]
    order = sorted(range(len(steps)), key=lambda i: -abs(steps[i]))
    chosen = sorted(order[:units])
    runs = []
    for i in chosen:
        if steps[i] == 0:
            continue
        if runs and runs[-1][1] == i and (steps[i] > 0) == (steps[i - 1] > 0):
            runs[-1][1] = i + 1
        else:
            runs.append([i, i + 1])
    return [tuple(run) for run in runs]


@st.composite
def grids_with_deltas(draw):
    """(grid, ascending deltas): uniform float, nonuniform float or Fraction
    abscissae.  Deltas mix pair distances, their float neighbours and
    arbitrary lengths; the first pair may carry the extreme values, so that
    omega changes exactly when the window boundary crosses it."""
    kind = draw(st.sampled_from(["uniform", "nonuniform", "fraction"]))
    m = draw(st.integers(2, 40))
    values = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                  st.floats(-1e3, 1e3, allow_nan=False)),
        min_size=m, max_size=m))
    lo = draw(st.integers(-5, 5))
    if kind == "uniform":
        xs = uniform_abscissae(lo / 3, lo / 3 + draw(st.floats(1e-3, 100.0)),
                               m).tolist()
    elif kind == "nonuniform":
        gaps = draw(st.lists(st.floats(1e-6, 10.0), min_size=m - 1,
                             max_size=m - 1))
        xs = list(accumulate(gaps, initial=lo / 3))
    else:
        gaps = draw(st.lists(st.fractions(Fraction(1, 60), 3,
                                          max_denominator=60),
                             min_size=m - 1, max_size=m - 1))
        xs = list(accumulate(gaps, initial=Fraction(lo, 3)))
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                    st.integers(0, m - 1)), max_size=6))
    pairs = [(min(i, j), max(i, j)) for i, j in pairs]
    if pairs and pairs[0][0] < pairs[0][1] and draw(st.booleans()):
        i, j = pairs[0]
        values[i], values[j] = min(values) - 1.0, max(values) + 1.0
    deltas = set()
    for i, j in pairs:
        d = xs[j] - xs[i]
        deltas.add(d)
        if kind != "fraction":
            # one ulp either side: where x_j - delta and x_j - x_i round apart
            deltas.update((math.nextafter(d, 0.0), math.nextafter(d, math.inf)))
    span = xs[-1] - xs[0]
    for share in draw(st.lists(st.integers(1, 1000), max_size=4)):
        deltas.add(span * share / 1000)
    deltas = sorted(d for d in deltas if 0 < d <= span) or [span]
    return SampleGrid(xs, values), deltas


def sqrt_on_unit_pieces():
    f = catalog.sqrt_on_unit()
    res = detect_partition(sample(f, IntervalSpec(0.0, 1.0), 2001))
    pieces = [p for s in res.shapes for p in refine_to_monotone(f, s)]
    return f, res.partition, tuple(pieces)


class TestIntervalCollection:
    def test_invariants(self):
        with pytest.raises(GeometryError):
            IntervalCollection(((0.5, 0.5),))
        with pytest.raises(GeometryError):
            IntervalCollection(((0.0, 0.4), (0.3, 0.6)))
        c = IntervalCollection(((0.0, 0.25), (0.25, 0.5)))
        assert c.total_length == 0.5

    def test_exact_total_with_fractions(self):
        c = IntervalCollection(((Fraction(0), Fraction(1, 3)),
                                (Fraction(1, 2), Fraction(5, 6))))
        assert c.total_length == Fraction(2, 3)


class TestModulus:
    def test_sqrt_matches_pair_scan(self):
        f = catalog.sqrt_on_unit()
        grid = sample(f, IntervalSpec(0.0, 1.0), 401)
        curve = modulus_on_grid(grid, [0.01, 0.04, 0.25])
        for (d, w) in curve.samples:
            assert w == omega_pair_scan(grid, d)
        assert curve.samples[-1][1] == 0.5

    def test_affine_linear_law(self):
        f = FunctionSpec.affine(2.0, 0.0, IntervalSpec(0.0, 1.0))
        curve = modulus(f, IntervalSpec(0.0, 1.0), [0.1], m=101)
        assert curve.omegas[0] == pytest.approx(0.2, abs=1e-12)

    def test_cantor_self_similarity_exact(self):
        f = catalog.cantor_on_unit()
        endpoints = sorted({x for pair in catalog.cantor_stage_cover(6).pairs
                            for x in pair})
        grid = SampleGrid.from_abscissae(f, endpoints)
        deltas = [Fraction(1, 3 ** k) for k in range(6, 0, -1)]
        curve = modulus_on_grid(grid, deltas)
        for (d, w), k in zip(curve.samples, range(6, 0, -1)):
            assert w == 2.0 ** -k
            assert w == omega_pair_scan(grid, d)

    def test_budget_error(self):
        f = catalog.sqrt_on_unit()
        with pytest.raises(BudgetError):
            modulus(f, IntervalSpec(0.0, 1.0), [2.0], m=51)
        with pytest.raises(BudgetError):
            modulus(f, IntervalSpec(0.0, 1.0), [0.2, 0.1], m=51)

    def test_nondecreasing(self):
        f = catalog.cantor_on_unit()
        curve = modulus(f, IntervalSpec(0.0, 1.0),
                        [0.001, 0.01, 0.1, 0.3, 0.9], m=801)
        assert all(b >= a for a, b in zip(curve.omegas, curve.omegas[1:]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_pair_scan(self, data):
        grid, deltas = data.draw(grids_with_deltas())
        curve = modulus_on_grid(grid, deltas)
        assert curve.deltas == tuple(deltas)
        running = 0.0
        for d, w in curve.samples:
            running = max(running, omega_pair_scan(grid, d))
            assert w == running, d

    def test_large_grid_matches_pair_scan(self):
        # windows of a few dozen points on a 24001-point oscillating grid
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0))
        grid = sample(f, IntervalSpec(1e-3, 1.0), 24001)
        h = float(grid.spacing)
        deltas = [h, 7.5 * h, 30 * h]
        curve = modulus_on_grid(grid, deltas)
        running = 0.0
        for d, w in curve.samples:
            running = max(running, omega_pair_scan(grid, d))
            assert w == running, d


class TestInvertModulus:
    def test_sqrt_curve(self):
        curve = ModulusCurve(((0.0625, 0.25), (0.125, math.sqrt(0.125)),
                              (0.2, math.sqrt(0.2)), (0.24, math.sqrt(0.24)),
                              (0.25, 0.5)))
        # omega(0.25) = 0.5 does not qualify strictly; 0.24 is the largest
        assert invert_modulus(curve, 0.5) == pytest.approx(0.9 * 0.24)

    def test_affine_curve(self):
        curve = ModulusCurve(((0.05, 0.1), (0.09, 0.18), (0.099, 0.198),
                              (0.1, 0.2)))
        assert invert_modulus(curve, 0.2) == pytest.approx(0.9 * 0.099)

    def test_unachievable(self):
        with pytest.raises(Unachievable):
            invert_modulus(ModulusCurve(((0.1, 0.05),)), 0.01)


class TestGlueChain:
    def test_left_anchored(self):
        c = IntervalCollection(((0.0, 0.1), (0.3, 0.4)))
        chain = glue_chain(c, Anchor.LEFT)
        assert chain.z[0] == 0.0
        assert chain.z[1] == pytest.approx(0.1, abs=1e-15)
        assert chain.z[2] == pytest.approx(0.2, abs=1e-15)

    def test_right_anchored(self):
        c = IntervalCollection(((0.0, 0.1), (0.3, 0.4)))
        chain = glue_chain(c, Anchor.RIGHT)
        assert chain.z[-1] == 0.4
        assert chain.z[1] == pytest.approx(0.3, abs=1e-15)
        assert chain.z[0] == pytest.approx(0.2, abs=1e-15)

    def test_single_pair_identity(self):
        c = IntervalCollection(((0.2, 0.7),))
        for anchor in (Anchor.LEFT, Anchor.RIGHT):
            assert glue_chain(c, anchor).z == (0.2, 0.7)

    def test_empty(self):
        with pytest.raises(EmptyCollection):
            glue_chain(IntervalCollection(()), Anchor.LEFT)

    def test_gaps_reproduce_lengths(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = random_collection(rng, 0.0, 1.0, 0.3, 5)
            if len(c) == 0:
                continue
            sigmas = [y - x for x, y in c.pairs]
            for anchor in (Anchor.LEFT, Anchor.RIGHT):
                chain = glue_chain(c, anchor)
                gaps = [b - a for a, b in zip(chain.z, chain.z[1:])]
                assert gaps == pytest.approx(sigmas, abs=1e-14)
                # budget conservation
                assert chain.z[-1] - chain.z[0] == pytest.approx(
                    float(c.total_length), abs=len(c) * 1e-15)


class TestGluingBound:
    def test_sqrt_example(self):
        f = catalog.sqrt_on_unit()
        piece = ShapePiece(IntervalSpec(0.0, 1.0), Shape.CONCAVE,
                           Monotonicity.INCREASING, 0.0)
        c = IntervalCollection(((0.0, 0.1), (0.3, 0.4)))
        chk = gluing_bound_check(f, piece, c)
        assert chk.direction_used is Anchor.LEFT
        assert chk.lhs == pytest.approx(
            math.sqrt(0.1) + math.sqrt(0.4) - math.sqrt(0.3), abs=1e-12)
        assert chk.rhs == pytest.approx(math.sqrt(0.2), abs=1e-12)
        assert chk.holds

    def test_square_example(self):
        f = catalog.squared()
        piece = ShapePiece(IntervalSpec(0.0, 10.0), Shape.CONVEX,
                           Monotonicity.INCREASING, 0.0)
        c = IntervalCollection(((1.0, 2.0), (5.0, 6.0)))
        chk = gluing_bound_check(f, piece, c)
        assert chk.direction_used is Anchor.RIGHT
        assert chk.lhs == pytest.approx(14.0, abs=1e-12)
        assert chk.rhs == pytest.approx(20.0, abs=1e-12)
        assert chk.holds

    def test_affine_equality(self):
        f = FunctionSpec.affine(-3.0, 2.0, IntervalSpec(0.0, 1.0))
        piece = ShapePiece(IntervalSpec(0.0, 1.0), Shape.AFFINE,
                           Monotonicity.DECREASING, 0.0)
        rng = np.random.default_rng(11)
        for _ in range(100):
            c = random_collection(rng, 0.0, 1.0, 0.2, 4)
            if len(c) == 0:
                continue
            chk = gluing_bound_check(f, piece, c)
            assert chk.holds
            assert abs(chk.lhs - chk.rhs) <= 1e-12 * max(1.0, abs(chk.rhs))

    def test_pair_outside_piece(self):
        f = catalog.sqrt_on_unit()
        piece = ShapePiece(IntervalSpec(0.0, 0.5), Shape.CONCAVE,
                           Monotonicity.INCREASING, 0.0)
        with pytest.raises(GeometryError):
            gluing_bound_check(f, piece, IntervalCollection(((0.4, 0.6),)))

    def test_telescoping_identity(self):
        # monotone f: interior chain increments collapse to the endpoints
        f = catalog.sqrt_on_unit()
        rng = np.random.default_rng(5)
        for _ in range(100):
            c = random_collection(rng, 0.0, 1.0, 0.25, 6)
            if len(c) == 0:
                continue
            chain = glue_chain(c, Anchor.LEFT)
            step_sum = math.fsum(abs(evaluate(f, b) - evaluate(f, a))
                                 for a, b in zip(chain.z, chain.z[1:]))
            direct = abs(evaluate(f, chain.z[-1]) - evaluate(f, chain.z[0]))
            assert step_sum == pytest.approx(direct, abs=len(c) * 1e-15)


class TestWorstSumOracle:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            values = [float(v) for v in rng.normal(size=12)]
            knots = tuple((i / 11.0, v) for i, v in enumerate(values))
            f = FunctionSpec.sampled_table(knots)
            grid = SampleGrid.from_abscissae(f, [k[0] for k in knots])
            h = grid.spacing
            for units, kmax in ((3, 2), (5, 3), (7, 12)):
                delta = (units + 1) * h
                rep = worst_ac_sum_oracle(f, grid, delta * 1.0000001, kmax)
                want = brute_force_worst_sum(values, units, kmax)
                assert rep.best_sum == pytest.approx(want, abs=1e-12), (
                    trial, units, kmax)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bound_first_and_dp_match_brute_force(self, data):
        # small integer values plant ties, zero steps and sign flips; the
        # budgets and interval caps fall on both sides of the run count
        values = [float(v) for v in data.draw(st.lists(
            st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0)),
            min_size=2, max_size=9))]
        m = len(values)
        units = data.draw(st.integers(0, m - 1))
        kmax = data.draw(st.integers(1, 4))
        xs = uniform_abscissae(0.0, 1.0, m)
        f = FunctionSpec.piecewise_linear(tuple(zip(xs.tolist(), values)))
        grid = SampleGrid(xs, values)
        delta = (units + 1) / (m - 1) * (1.0 + 1e-7)
        rep = worst_ac_sum_oracle(f, grid, delta, kmax)
        want = brute_force_worst_sum(values, units, kmax)
        assert rep.best_sum == pytest.approx(want, rel=1e-12, abs=1e-12)
        runs = top_step_runs(values, units)
        if len(runs) <= min(kmax, units):
            assert rep.method == "OracleBound"
            assert rep.witness.pairs == tuple(
                (xs[s], xs[e]) for s, e in runs)
        else:
            assert rep.method == "OracleDP"
        assert ac_sum(f, rep.witness) == rep.best_sum
        assert len(rep.witness) <= kmax
        assert float(rep.witness.total_length) < delta
        # the DP alone reaches the same sum on the same input
        dp = _dp_pairs(grid.values, units, min(kmax, units))
        assert math.fsum(abs(values[e] - values[s]) for s, e in dp) == \
            pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_dp_memory_within_stated_bound(self):
        # Cantor's top steps form far more runs than intervals allowed, so
        # the DP runs; its history is one byte per state
        f = catalog.cantor_on_unit()
        m, units, kmax = 8193, 100, 32
        grid = sample(f, IntervalSpec(0.0, 1.0), m)
        tracemalloc.start()
        try:
            rep = worst_ac_sum_oracle(f, grid, (units + 1) / (m - 1), kmax)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.method == "OracleDP"
        assert len(rep.witness) == kmax
        history = m * (units + 1) * (kmax + 1)
        assert peak <= history + 16 * 8 * ((units + 1) * (kmax + 1) + m)

    def test_sqrt_single_left_interval(self):
        f = catalog.sqrt_on_unit()
        grid = sample(f, IntervalSpec(0.0, 1.0), 401)
        rep = worst_ac_sum_oracle(f, grid, 0.25)
        spacing = float(grid.spacing)
        assert math.sqrt(0.25 - spacing) - 1e-12 <= rep.best_sum <= 0.5 + 1e-12
        assert len(rep.witness) == 1
        x, y = rep.witness.pairs[0]
        assert x == 0.0
        assert y == pytest.approx(0.2475, abs=1e-12)
        assert float(rep.witness.total_length) < 0.25
        assert ac_sum(f, rep.witness) == pytest.approx(rep.best_sum, abs=1e-12)

    def test_affine_uses_whole_budget(self):
        f = FunctionSpec.affine(3.0, 0.0, IntervalSpec(0.0, 1.0))
        grid = sample(f, IntervalSpec(0.0, 1.0), 101)
        rep = worst_ac_sum_oracle(f, grid, 0.15)
        # 14 grid units of 0.01 fit strictly under 0.15
        assert rep.best_sum == pytest.approx(3.0 * 0.14, abs=1e-12)
        assert float(rep.witness.total_length) == pytest.approx(0.14, abs=1e-12)

    def test_cantor_stage3_cover(self):
        f = catalog.cantor_on_unit()
        xs = [Fraction(i, 27) for i in range(28)]
        grid = SampleGrid.from_abscissae(f, xs)
        rep = worst_ac_sum_oracle(f, grid, Fraction(1, 3))
        assert rep.best_sum == 1.0
        assert rep.witness.total_length <= Fraction(8, 27)
        assert ac_sum(f, rep.witness) == 1.0

    def test_budget_error(self):
        f = catalog.sqrt_on_unit()
        grid = sample(f, IntervalSpec(0.0, 1.0), 101)
        with pytest.raises(BudgetError):
            worst_ac_sum_oracle(f, grid, 0.005)

    def test_glued_closed_form_agreement(self):
        f = catalog.sqrt_on_unit()
        piece = ShapePiece(IntervalSpec(0.0, 1.0), Shape.CONCAVE,
                           Monotonicity.INCREASING, 0.0)
        grid = sample(f, IntervalSpec(0.0, 1.0), 401)
        rep = worst_ac_sum_oracle(f, grid, 0.25)
        glued = glued_single_interval(f, piece, rep.witness.total_length)
        omega_h = modulus_on_grid(grid, [grid.spacing]).omegas[0]
        assert abs(rep.best_sum - glued.best_sum) <= omega_h + 1e-12


class TestSplitCollection:
    def test_examples(self):
        p = Partition((0.0, 0.5, 1.0))
        out = split_collection_at_partition(
            IntervalCollection(((0.4, 0.6),)), p)
        assert out.pairs == ((0.4, 0.5), (0.5, 0.6))
        out = split_collection_at_partition(
            IntervalCollection(((0.1, 0.2),)), p)
        assert out.pairs == ((0.1, 0.2),)
        out = split_collection_at_partition(
            IntervalCollection(((0.45, 0.55), (0.7, 0.8))), p)
        assert out.pairs == ((0.45, 0.5), (0.5, 0.55), (0.7, 0.8))

    def test_straddle_rejected(self):
        p = Partition((0.0, 0.4, 0.6, 1.0))
        with pytest.raises(PreconditionError):
            split_collection_at_partition(
                IntervalCollection(((0.3, 0.7),)), p)

    def test_length_preserved_and_sum_dominates(self):
        f = catalog.sqrt_on_unit()
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = 2 + int(rng.integers(0, 3))
            inner = np.sort(rng.uniform(0.1, 0.9, size=k))
            try:
                p = Partition((0.0, *map(float, inner), 1.0))
            except Exception:
                continue
            total = p.min_piece_length * 0.8
            c = random_collection(rng, 0.0, 1.0, total, 3)
            if len(c) == 0:
                continue
            out = split_collection_at_partition(c, p)
            assert abs(float(out.total_length) -
                       float(c.total_length)) <= 1e-12
            assert ac_sum(f, out) >= ac_sum(f, c) - 1e-12


class TestCertificates:
    def test_sqrt_delta1_band(self):
        f, partition, pieces = sqrt_on_unit_pieces()
        cert = ac_certificate(f, partition, pieces, 0.1)
        assert 0.006 <= cert.delta1 <= 0.01
        assert cert.per_piece_budget == pytest.approx(0.1)
        assert cert.delta1 < partition.min_piece_length

    def test_affine_delta1(self):
        f = FunctionSpec.affine(3.0, 0.0, IntervalSpec(0.0, 1.0))
        res = detect_partition(sample(f, IntervalSpec(0.0, 1.0), 2001))
        pieces = [p for s in res.shapes for p in refine_to_monotone(f, s)]
        cert = ac_certificate(f, res.partition, pieces, 0.1)
        # linear modulus: delta1 ~ 0.99 * 0.9 * (0.1 / 3)
        assert 0.023 <= cert.delta1 <= 0.0333

    def test_verify_sqrt_passes(self):
        f, partition, pieces = sqrt_on_unit_pieces()
        cert = ac_certificate(f, partition, pieces, 0.1)
        ver = verify_certificate(f, cert, trials=500, seed=0)
        assert ver.passed
        assert ver.worst_sum < 0.1
        assert ver.worst_sum == pytest.approx(
            ac_sum(f, ver.worst_collection), abs=1e-12)

    def test_fabricated_cantor_certificate_fails(self):
        f = catalog.cantor_on_unit()
        fake = Certificate(
            epsilon=0.5, delta1=(2.0 / 3.0) ** 6,
            partition=Partition((0.0, 1.0)), per_piece_budget=0.5,
            monotone_pieces=(ShapePiece(IntervalSpec(0.0, 1.0), Shape.CONCAVE,
                                        Monotonicity.INCREASING, 0.0),))
        ver = verify_certificate(f, fake, trials=500, seed=0)
        assert not ver.passed
        assert ver.worst_sum >= 0.5
        assert ver.worst_sum == pytest.approx(
            ac_sum(f, ver.worst_collection), abs=1e-12)

    def test_unachievable_on_steep_data(self):
        def certify(knot):
            f = FunctionSpec.piecewise_linear(
                ((0.0, 0.0), (knot, 1.0), (1.0, 1.0000001)))
            res = detect_partition(sample(f, IntervalSpec(0.0, 1.0), 2001))
            assert isinstance(res, PiecewiseConvexPartition)
            pieces = [p for s in res.shapes for p in refine_to_monotone(f, s)]
            return f, ac_certificate(f, res.partition, pieces, 0.5)

        # one concave increasing piece of initial slope 1e7: the anchored
        # increment reaches the budget 0.5 at 5e-8, however steep that is
        f, cert = certify(1e-7)
        assert cert.delta1 == pytest.approx(0.99 * 0.9 * 0.5 / 1e7, rel=1e-6)
        assert verify_certificate(f, cert, trials=500, seed=0).passed
        # a jump at float resolution: every positive step overshoots
        with pytest.raises(Unachievable):
            certify(5e-324)

    def test_certificate_bound_is_semantic(self):
        # the certified guarantee: every collection under the budget stays
        # below epsilon, checked against the exact worst case sqrt(delta1)
        f, partition, pieces = sqrt_on_unit_pieces()
        cert = ac_certificate(f, partition, pieces, 0.1)
        assert math.sqrt(cert.delta1) < 0.1


SINE = catalog.sine_table(knots=2001)
SINE_QUARTERS = (
    (Shape.CONCAVE, Monotonicity.INCREASING),
    (Shape.CONCAVE, Monotonicity.DECREASING),
    (Shape.CONVEX, Monotonicity.DECREASING),
    (Shape.CONVEX, Monotonicity.INCREASING),
)


@st.composite
def monotone_pieces(draw):
    """(function, monotone convex/concave piece, left-anchored?)."""
    kind = draw(st.sampled_from(["sqrt", "poly", "sine"]))
    if kind == "sqrt":
        b = draw(st.floats(0.01, 100.0))
        window = IntervalSpec(0.0, b)
        return (FunctionSpec.sqrt(window),
                ShapePiece(window, Shape.CONCAVE, Monotonicity.INCREASING), True)
    if kind == "poly":
        p = draw(st.integers(2, 5))
        a = draw(st.floats(0.0, 5.0))
        window = IntervalSpec(a, a + draw(st.floats(0.01, 5.0)))
        f = FunctionSpec.polynomial((0.0,) * p + (1.0,), window)
        return f, ShapePiece(window, Shape.CONVEX, Monotonicity.INCREASING), False
    q = draw(st.integers(0, 3))
    window = IntervalSpec(q * math.pi / 2, (q + 1) * math.pi / 2)
    shape, mono = SINE_QUARTERS[q]
    return SINE, ShapePiece(window, shape, mono), q in (0, 2)


class TestIncrementStep:
    """The closed-form step against the increment it inverts and a grid scan."""

    @settings(max_examples=60, deadline=None)
    @given(monotone_pieces(), st.floats(0.01, 1.2), st.integers(1, 60))
    def test_matches_dense_grid_inversion(self, case, fraction, per_step):
        f, piece, left = case
        lo, hi = piece.interval.lo, piece.interval.hi
        length = hi - lo

        def at(d):  # the point d away from the favourable end
            return min(hi, lo + d) if left else max(lo, hi - d)

        def inc(d):
            return abs(evaluate(f, at(d)) - evaluate(f, at(0.0)))

        budget = fraction * inc(length)
        step = _increment_step(f, piece, budget)
        assert 0.0 < step <= length
        assert inc(step) < budget
        if step < length:
            assert budget <= inc(min(length, step * (1 + 1e-9)))

        # uniform grid from the favourable end; by the increment lemma the
        # exact pair scan at k*h is the grid's anchored increment at gap k,
        # or at gap k-1 when rounding drops the anchored pair
        h = step / per_step
        n = min(int(length / h), 2 * per_step) + 1
        anchored = [inc(k * h) for k in range(n)]
        xs = [at(k * h) for k in range(n)]
        vs = [evaluate(f, x) for x in xs]
        if not left:
            xs.reverse()
            vs.reverse()
        grid = SampleGrid(xs, vs)
        tol = 1e-12 * max(1.0, budget)
        for k in range(1, n):
            if k * h > step:
                break
            # a delta beyond the span admits the same pairs as the span
            w = modulus_on_grid(grid, [min(k * h, grid.span)]).omegas[0]
            assert w < budget
            assert anchored[k - 1] - tol <= w <= anchored[k] + tol


class TestRandomCollection:
    def test_shape(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = random_collection(rng, 0.25, 1.5, 0.2, 6)
            assert float(c.total_length) <= 0.2 + 1e-12
            for x, y in c.pairs:
                assert 0.25 <= x < y <= 1.5
