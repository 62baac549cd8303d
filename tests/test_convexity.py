"""Tests for partition detection, monotone refinement and increment curves."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from contana import (
    Direction,
    FunctionSpec,
    GeometryError,
    InsufficientData,
    IntervalSpec,
    Monotonicity,
    NotPiecewiseConvex,
    PiecewiseConvexPartition,
    SampleGrid,
    Shape,
    ShapePiece,
    ShapeError,
    check_gsigma_monotone,
    detect_partition,
    evaluate,
    expected_direction,
    g_sigma,
    monotone_partition,
    refine_to_monotone,
    sample,
)
from contana import catalog, convexity
from contana.convexity import DEFAULT_MAX_PIECES, _sign_runs, gsigma_curve


def monotone_pieces(f, m=501):
    result = monotone_partition(f, m)
    assert result.stable
    return list(result.pieces)


def sign_runs_loop(signs):
    """Reference: the scalar scan over the sign array."""
    runs = []
    for j, s in enumerate(signs):
        if s == 0:
            continue
        if runs and runs[-1][0] == s:
            runs[-1][2] = j
        else:
            runs.append([s, j, j])
    return [tuple(r) for r in runs]


class TestDetectPartition:
    def test_cubic_splits_at_inflection(self):
        # oracle: the second derivative 6x changes sign exactly at 0
        f = catalog.cubed()
        grid = sample(f, IntervalSpec(-1.0, 1.0), 1001)
        res = detect_partition(grid)
        assert isinstance(res, PiecewiseConvexPartition)
        assert len(res.partition.points) == 3
        assert abs(res.partition.points[1]) <= 2.0 * grid.spacing
        assert [s.shape for s in res.shapes] == [Shape.CONCAVE, Shape.CONVEX]

    def test_sqrt_single_concave_piece(self):
        # oracle: second derivative -x^(-3/2)/4 is negative everywhere
        f = FunctionSpec.sqrt(IntervalSpec(1e-6, 1.0))
        res = detect_partition(sample(f, IntervalSpec(1e-6, 1.0), 1001))
        assert isinstance(res, PiecewiseConvexPartition)
        assert len(res.shapes) == 1
        assert res.shapes[0].shape is Shape.CONCAVE
        assert res.shapes[0].monotonicity is Monotonicity.INCREASING

    def test_affine_whole_grid(self):
        f = FunctionSpec.affine(2.0, 1.0, IntervalSpec(0.0, 1.0))
        res = detect_partition(sample(f, IntervalSpec(0.0, 1.0), 101))
        assert len(res.shapes) == 1
        assert res.shapes[0].shape is Shape.AFFINE
        assert res.shapes[0].monotonicity is Monotonicity.INCREASING
        assert res.sign_change_count == 0

    def test_oscillation_defeats_detection(self):
        # inflection points of x^2 sin(1/x) accumulate toward 0: finer grids
        # resolve strictly more curvature sign changes
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0))
        window = IntervalSpec(1e-3, 1.0)
        counts = []
        last = None
        for spacing in (1e-3, 1e-4, 1e-5):
            m = int(round((window.hi - window.lo) / spacing)) + 1
            last = detect_partition(sample(f, window, m))
            counts.append(last.sign_change_count)
        assert counts[0] < counts[1] < counts[2]
        assert isinstance(last, NotPiecewiseConvex)
        assert counts[-1] > DEFAULT_MAX_PIECES

    def test_insufficient_data(self):
        f = FunctionSpec.affine(1.0, 0.0, IntervalSpec(0.0, 1.0))
        with pytest.raises(InsufficientData):
            detect_partition(sample(f, IntervalSpec(0.0, 1.0), 2))

    def test_uses_the_grid_uniformity_rule(self):
        # near 1000 the rounded abscissae of a 1e-3 window vary their gaps
        # by ~2e-7 relative: within a 1e-6 band, but not SampleGrid.uniform
        grid = sample(FunctionSpec.sqrt(),
                      IntervalSpec(1000.0, 1000.001), 2001)
        assert not grid.uniform
        with pytest.raises(InsufficientData, match="uniform grid"):
            detect_partition(grid)

    def test_values_near_the_float_limit_keep_their_shapes(self):
        # twice the peaks overflows, while the steps and most of their
        # differences stay finite: scaling by an exact power of two must not
        # move a piece, and no overflow warning may be raised
        f = FunctionSpec.piecewise_linear(
            ((0.0, 0.0), (1.0, 1e308), (2.0, 0.0), (3.0, 1e308), (4.0, 0.0)))
        grid = sample(f, IntervalSpec(0.0, 4.0), 4001)
        small = SampleGrid(grid.abscissae, grid.values * 2.0 ** -1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big, scaled = detect_partition(grid), detect_partition(small)
        assert big == scaled
        assert [s.shape for s in big.shapes] == [Shape.CONCAVE, Shape.CONVEX,
                                                 Shape.CONCAVE]

    def test_idempotent(self):
        grid = sample(catalog.cubed(), IntervalSpec(-1.0, 1.0), 501)
        assert detect_partition(grid) == detect_partition(grid)

    @given(st.lists(st.sampled_from([-1, 0, 1]), max_size=60))
    def test_sign_runs_match_scalar_scan(self, signs):
        assert _sign_runs(np.array(signs, dtype=np.int8)) == \
            sign_runs_loop(signs)

    @given(st.lists(st.sampled_from([-1, 0, 1]), max_size=400),
           st.integers(0, 80))
    def test_sign_runs_beyond_the_limit_are_counted(self, signs, max_runs):
        runs = sign_runs_loop(signs)
        got = _sign_runs(np.array(signs, dtype=np.int8), max_runs)
        assert got == (len(runs) if len(runs) > max_runs else runs)

    @given(st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=400))
    def test_verdict_from_run_count(self, signs):
        # integer values whose second differences are exactly `signs`
        d2 = np.array(signs, dtype=float)
        vs = np.concatenate(([0.0, 0.0], np.cumsum(np.cumsum(d2))))
        vs += np.arange(len(vs))
        result = detect_partition(SampleGrid(np.arange(len(vs), dtype=float),
                                             vs))
        runs = sign_runs_loop(signs)
        assert result.sign_change_count == max(len(runs) - 1, 0)
        if len(runs) > DEFAULT_MAX_PIECES:
            assert isinstance(result, NotPiecewiseConvex)
        else:
            assert isinstance(result, PiecewiseConvexPartition)
            assert [p.shape for p in result.shapes] == (
                [Shape.CONVEX if s > 0 else Shape.CONCAVE for s, _, _ in runs]
                or [Shape.AFFINE])


class TestMonotonePartition:
    def test_refines_every_shape(self):
        f = catalog.squared(-1.0, 2.0)
        result = monotone_partition(f, 251)
        assert result.stable
        assert [len(g) for g in result.grids] == [251, 501, 1001]
        pieces = result.pieces
        assert [p.monotonicity for p in pieces] == [Monotonicity.DECREASING,
                                                    Monotonicity.INCREASING]
        assert pieces[0].interval.lo == -1.0 and pieces[-1].interval.hi == 2.0
        assert pieces[0].interval.hi == pieces[1].interval.lo

    def test_not_piecewise_convex_has_no_pieces(self):
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(1e-3, 1.0))
        result = monotone_partition(f, 2501)
        assert isinstance(result.detections[-1], NotPiecewiseConvex)
        assert not result.stable
        assert result.pieces == ()

    def test_growing_partitions_are_unstable_and_not_refined(self, monkeypatch):
        # x^2 sin(1/x) on [0, 1] at m = 1001: three partitions, but the
        # sign changes multiply (28 -> 43 -> 57), so nothing is refined
        def refine(f, piece):
            raise AssertionError("an unstable detection was refined")
        monkeypatch.setattr(convexity, "refine_to_monotone", refine)
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0))
        result = monotone_partition(f, 1001)
        assert all(isinstance(d, PiecewiseConvexPartition)
                   for d in result.detections)
        counts = result.sign_change_counts
        assert any(b > a + 2 for a, b in zip(counts, counts[1:]))
        assert not result.stable and result.pieces == ()

    def test_counts_may_grow_by_two(self):
        # on [0.05, 1] the coarsest grid misses one inflection: 5 -> 6 -> 6
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(0.05, 1.0))
        result = monotone_partition(f, 251)
        assert result.sign_change_counts == [5, 6, 6]
        assert result.stable
        assert result.partition == result.detections[-1].partition
        assert len(result.pieces) == 12


class TestRefineToMonotone:
    def test_square_splits_at_zero(self):
        f = FunctionSpec.polynomial((0.0, 0.0, 1.0), IntervalSpec(-1.0, 1.0))
        piece = ShapePiece(IntervalSpec(-1.0, 1.0), Shape.CONVEX,
                           Monotonicity.MIXED, 0.0)
        out = refine_to_monotone(f, piece)
        assert len(out) == 2
        assert abs(out[0].interval.hi) <= 1e-9
        assert out[0].monotonicity is Monotonicity.DECREASING
        assert out[1].monotonicity is Monotonicity.INCREASING
        # exact tiling
        assert out[0].interval.lo == -1.0
        assert out[0].interval.hi == out[1].interval.lo
        assert out[1].interval.hi == 1.0

    def test_sqrt_already_monotone(self):
        piece = ShapePiece(IntervalSpec(0.0, 1.0), Shape.CONCAVE,
                           Monotonicity.INCREASING, 0.0)
        out = refine_to_monotone(FunctionSpec.sqrt(IntervalSpec(0.0, 1.0)), piece)
        assert out == (piece,)

    def test_flat_affine_constant(self):
        f = FunctionSpec.affine(0.0, 2.0, IntervalSpec(0.0, 1.0))
        res = detect_partition(sample(f, IntervalSpec(0.0, 1.0), 101))
        out = refine_to_monotone(f, res.shapes[0])
        assert len(out) == 1
        assert out[0].monotonicity is Monotonicity.CONSTANT

    def test_concave_peak_splits(self):
        f = catalog.sine_table()
        piece = ShapePiece(IntervalSpec(0.0, math.pi), Shape.CONCAVE,
                           Monotonicity.MIXED, 0.0)
        out = refine_to_monotone(f, piece)
        assert len(out) == 2
        assert out[0].interval.hi == pytest.approx(math.pi / 2.0, abs=1e-3)
        assert out[0].monotonicity is Monotonicity.INCREASING
        assert out[1].monotonicity is Monotonicity.DECREASING

    def test_uncertified_shape_rejected(self):
        piece = ShapePiece(IntervalSpec(0.0, 1.0), Shape.AFFINE,
                           Monotonicity.MIXED, 0.0)
        with pytest.raises(ShapeError):
            refine_to_monotone(FunctionSpec.affine(1.0, 0.0,
                                                   IntervalSpec(0.0, 1.0)), piece)


class TestGSigma:
    def test_sqrt_values(self):
        f = FunctionSpec.sqrt(IntervalSpec(0.0, 1.0))
        assert g_sigma(f, 0.0, 0.5) == math.sqrt(0.5)
        assert g_sigma(f, 0.5, 0.5) == 1.0 - math.sqrt(0.5)
        assert g_sigma(f, 0.0, 0.5) > g_sigma(f, 0.5, 0.5)

    def test_affine_constant_increment(self):
        f = FunctionSpec.affine(-4.0, 1.0, IntervalSpec(0.0, 10.0))
        for x in (0.0, 1.0, 5.0):
            assert g_sigma(f, x, 0.25) == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        f = FunctionSpec.sqrt(IntervalSpec(0.0, 1.0))
        with pytest.raises(Exception):
            g_sigma(f, 0.8, 0.5)


    @pytest.mark.parametrize("f, lo, hi, sigma", [
        (FunctionSpec.sqrt(IntervalSpec(0.0, 1.0)), 0.0, 1.0, 0.5),
        (FunctionSpec.x_squared_sin_inv(IntervalSpec(-1.0, 1.0)), -1.0, 1.0, 0.01),
        (FunctionSpec.cantor(), 0.0, 1.0, 0.1),
        (FunctionSpec.polynomial((0.5, -1.0, 2.0)), -3.0, 3.0, 0.7),
        (catalog.sine_table(), 0.0, 2 * math.pi, 0.3),
    ], ids=lambda v: getattr(v, "kind", ""))
    def test_curve_matches_g_sigma(self, f, lo, hi, sigma):
        # one bulk evaluation gives g_sigma's bits at every abscissa
        xs, values = gsigma_curve(f, lo, hi, sigma, 257)
        assert len(xs) == 257 and xs[0] == lo and xs[-1] + sigma <= hi
        assert np.array(values).tobytes() == np.array(
            [g_sigma(f, x, sigma) for x in xs]).tobytes()


class TestCheckGSigmaMonotone:
    def test_sqrt_nonincreasing(self):
        piece = ShapePiece(IntervalSpec(0.0, 1.0), Shape.CONCAVE,
                           Monotonicity.INCREASING, 0.0)
        rep = check_gsigma_monotone(FunctionSpec.sqrt(IntervalSpec(0.0, 1.0)),
                                    piece, 0.5, m=100)
        assert rep.direction is Direction.NONINCREASING
        assert rep.max_violation <= 1e-12

    def test_square_nondecreasing_exact_formula(self):
        f = catalog.squared()
        piece = ShapePiece(IntervalSpec(0.0, 10.0), Shape.CONVEX,
                           Monotonicity.INCREASING, 0.0)
        rep = check_gsigma_monotone(f, piece, 1.0, m=50)
        assert rep.direction is Direction.NONDECREASING
        assert rep.max_violation <= 1e-12 and rep.ok
        for x, v in zip(*gsigma_curve(f, 0.0, 10.0, 1.0, 50)):
            assert v == pytest.approx(2.0 * x + 1.0, rel=1e-12)

    def test_affine_constant(self):
        f = FunctionSpec.affine(3.0, 0.0, IntervalSpec(0.0, 5.0))
        piece = ShapePiece(IntervalSpec(0.0, 5.0), Shape.AFFINE,
                           Monotonicity.INCREASING, 0.0)
        rep = check_gsigma_monotone(f, piece, 0.25, m=60)
        assert rep.direction is Direction.CONSTANT
        _, values = gsigma_curve(f, 0.0, 5.0, 0.25, 60)
        assert values[0] == pytest.approx(0.75, abs=1e-12)
        assert rep.max_violation <= 1e-12 and rep.ok

    def test_piece_shorter_than_sigma(self):
        piece = ShapePiece(IntervalSpec(0.0, 0.25), Shape.CONCAVE,
                           Monotonicity.INCREASING, 0.0)
        with pytest.raises(GeometryError):
            check_gsigma_monotone(FunctionSpec.sqrt(IntervalSpec(0.0, 1.0)),
                                  piece, 0.5)

    def test_direction_table_across_catalog(self):
        cases = [
            (catalog.sqrt_on_unit(), Direction.NONINCREASING),
            (catalog.squared(), Direction.NONDECREASING),
            (catalog.reciprocal_table(), Direction.NONINCREASING),
            (catalog.affine_fn(), Direction.CONSTANT),
        ]
        for f, want in cases:
            pieces = monotone_pieces(f)
            assert len(pieces) == 1
            piece = pieces[0]
            assert expected_direction(piece) is want
            plen = piece.interval.hi - piece.interval.lo
            for frac in (0.1, 0.3, 0.7):
                sigma = frac * plen
                rep = check_gsigma_monotone(f, piece, sigma, m=200)
                _, values = gsigma_curve(f, piece.interval.lo,
                                         piece.interval.hi, sigma, 200)
                scale = max(1.0, max(values))
                assert rep.direction is want
                assert rep.max_violation <= 1e-9 * scale and rep.ok

    def test_decreasing_concave_is_nondecreasing(self):
        # falling branch of the sine arch
        f = catalog.sine_table()
        piece = ShapePiece(IntervalSpec(math.pi / 2.0, math.pi), Shape.CONCAVE,
                           Monotonicity.DECREASING, 0.0)
        rep = check_gsigma_monotone(f, piece, 0.3, m=100)
        assert rep.direction is Direction.NONDECREASING
        assert rep.max_violation <= 1e-9


class TestChainedSlopeInequalities:
    def test_sqrt_increment_slopes(self):
        # for increasing concave f and x < y with y + s in the piece:
        #   (f(y+s)-f(x))/(y-x+s) <= (f(x+s)-f(x))/s
        #   (f(y+s)-f(y))/s       <= (f(y+s)-f(x))/(y-x+s)
        f = FunctionSpec.sqrt(IntervalSpec(0.0, 1.0))
        rng = np.random.default_rng(42)
        for _ in range(500):
            x, y = sorted(rng.uniform(0.0, 0.9, size=2))
            if y - x < 1e-6:
                continue
            s = rng.uniform(1e-6, 1.0 - y)
            fx, fy = evaluate(f, x), evaluate(f, y)
            fxs, fys = evaluate(f, x + s), evaluate(f, y + s)
            through = (fys - fx) / (y - x + s)
            assert through <= (fxs - fx) / s + 1e-9
            assert (fys - fy) / s <= through + 1e-9
