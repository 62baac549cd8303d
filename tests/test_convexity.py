"""Tests for partition detection, monotone refinement and increment curves."""

import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contana import (
    Direction,
    FunctionSpec,
    GeometryError,
    InsufficientData,
    IntervalSpec,
    Monotonicity,
    NotPiecewiseConvex,
    Partition,
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
        # oracle: second derivative -x^(-3/2)/4 is negative everywhere;
        # detection reads curvature only, and refinement the direction
        f = FunctionSpec.sqrt(IntervalSpec(1e-6, 1.0))
        res = detect_partition(sample(f, IntervalSpec(1e-6, 1.0), 1001))
        assert isinstance(res, PiecewiseConvexPartition)
        assert len(res.shapes) == 1
        assert res.shapes[0].shape is Shape.CONCAVE
        assert res.shapes[0].monotonicity is Monotonicity.MIXED
        assert [(p.shape, p.monotonicity) for p in monotone_pieces(f)] == [
            (Shape.CONCAVE, Monotonicity.INCREASING)]

    def test_affine_whole_grid(self):
        f = FunctionSpec.affine(2.0, 1.0, IntervalSpec(0.0, 1.0))
        res = detect_partition(sample(f, IntervalSpec(0.0, 1.0), 101))
        assert len(res.shapes) == 1
        assert res.shapes[0].shape is Shape.AFFINE
        assert res.shapes[0].monotonicity is Monotonicity.MIXED
        assert res.sign_change_count == 0
        assert [(p.shape, p.monotonicity) for p in monotone_pieces(f)] == [
            (Shape.AFFINE, Monotonicity.INCREASING)]

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
        # by ~2e-7 relative, within 4 ulps of 1000: the grid is uniform up
        # to its rounding, and the noise floor takes up the rounding's
        # effect on the second differences.  Gaps spread wider than that
        # are refused.
        grid = sample(FunctionSpec.sqrt(),
                      IntervalSpec(1000.0, 1000.001), 2001)
        gaps = np.diff(grid.abscissae)
        assert gaps.max() - gaps.min() > 1e-9 * gaps.max()
        assert grid.uniform
        assert [(s.shape, s.monotonicity) for s in
                detect_partition(grid).shapes] == [
            (Shape.AFFINE, Monotonicity.MIXED)]
        f = FunctionSpec.sqrt(IntervalSpec(1000.0, 1000.001))
        assert [(p.shape, p.monotonicity) for p in monotone_pieces(f, 501)
                ] == [(Shape.AFFINE, Monotonicity.INCREASING)]
        xs = grid.abscissae.copy()
        for _ in range(5):  # two gaps move by 5 ulps each
            xs[1000] = np.nextafter(xs[1000], np.inf)
        skewed = SampleGrid(xs, grid.values)
        assert not skewed.uniform
        with pytest.raises(InsufficientData, match="uniform grid"):
            detect_partition(skewed)

    @pytest.mark.parametrize("lo", [1000.0, 1e5, 1e8])
    def test_affine_far_from_zero_is_one_piece(self, lo):
        # x - lo on [lo, lo + 1]: each value carries its abscissa's rounding
        # (an ulp of lo times the slope 1, above 16 ulps of the values), so
        # without the gaps' spread in the noise floor the second
        # differences changed sign thousands of times
        f = FunctionSpec.affine(1.0, -lo, IntervalSpec(lo, lo + 1.0))
        result = monotone_partition(f, 4001)
        assert result.stable and result.sign_change_counts == [0, 0, 0]
        assert [(p.shape, p.monotonicity) for p in result.pieces] == [
            (Shape.AFFINE, Monotonicity.INCREASING)]

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
        # a limit above any run count lists every run
        assert _sign_runs(np.array(signs, dtype=np.int8), len(signs)) == \
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
        assert len(result.pieces) == 12
        # refinement only splits detected pieces: detection's cut points
        # are among the 13 ends of the monotone pieces
        points = result.partition.points
        assert len(points) == 13
        assert set(result.detections[-1].partition.points) <= set(points)

    @pytest.mark.parametrize("f", [
        FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0)),
        catalog.cantor_on_unit()], ids=["x2sininv", "cantor"])
    def test_unstable_verdict_has_no_partition(self, f):
        result = monotone_partition(f, 4001)
        assert not result.stable
        assert result.partition is None

    def test_partition_is_where_the_monotone_pieces_end(self):
        # the zigzag's detection cuts it once, at 0.5; its partition is
        # that of its four monotone pieces, split at the knots 0.3 and 0.7
        f = FunctionSpec.piecewise_linear(
            ((0.0, 0.0), (0.3, 0.6), (0.7, 0.2), (1.0, 0.5)))
        result = monotone_partition(f, 501)
        assert result.detections[-1].partition.points == (0.0, 0.5, 1.0)
        assert result.partition == Partition.from_pieces(result.pieces)
        assert result.partition.points == (0.0, 0.3, 0.5, 0.7, 1.0)


@st.composite
def convex_pwl_pieces(draw):
    """Knots of a convex (or, negated, concave) interpolant whose slopes
    change sign, all integers times powers of two, so exact floats; a piece
    from inside its first segment to inside its last; and the knot where
    the slope leaves the sign it has at the piece's start."""
    n = draw(st.integers(2, 8))
    slopes = sorted(draw(st.lists(st.integers(-50, 50), min_size=n,
                                  max_size=n)))
    slopes[0], slopes[-1] = min(slopes[0], -1), max(slopes[-1], 1)
    gaps = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    sx = 2.0 ** draw(st.integers(-60, 60))
    sy = 2.0 ** draw(st.integers(-60, 60)) * draw(st.sampled_from([1, -1]))
    xs, ys = [draw(st.integers(-100, 100))], [draw(st.integers(-100, 100))]
    for slope, gap in zip(slopes, gaps):
        xs.append(xs[-1] + gap)
        ys.append(ys[-1] + slope * gap)
    knots = [(x * sx, y * sy) for x, y in zip(xs, ys)]
    lo = (xs[0] + draw(st.fractions(0, 1)) * gaps[0] / 2) * sx
    hi = (xs[-1] - draw(st.fractions(0, 1)) * gaps[-1] / 2) * sx
    turn = next(x for x, s in zip(xs, slopes) if s >= 0) * sx
    return knots, float(lo), float(hi), float(turn), sy < 0


class TestRefineToMonotone:
    @settings(max_examples=200, deadline=None)
    @given(convex_pwl_pieces())
    def test_pwl_splits_at_the_knot_where_the_slope_turns(self, case):
        knots, lo, hi, turn, concave = case
        f = FunctionSpec.piecewise_linear(knots)
        piece = ShapePiece(IntervalSpec(lo, hi),
                           Shape.CONCAVE if concave else Shape.CONVEX,
                           Monotonicity.MIXED, 0.5)
        falls, rises = Monotonicity.DECREASING, Monotonicity.INCREASING
        if concave:
            falls, rises = rises, falls
        assert refine_to_monotone(f, piece) == (
            ShapePiece(IntervalSpec(lo, turn), piece.shape, falls, 0.5),
            ShapePiece(IntervalSpec(turn, hi), piece.shape, rises, 0.5))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3),
                    min_size=2, max_size=7),
           st.floats(-1e3, 1e3), st.floats(1e-300, 1e3))
    def test_poly_splits_where_the_exact_derivative_turns(self, c, lo, width):
        hi = lo + width
        if not lo < hi:
            return
        f = FunctionSpec.polynomial(c, IntervalSpec(lo, hi))

        def sign(x):  # p'(x) term by term in Fractions
            t = Fraction(x)
            d = sum(k * Fraction(ck) * t ** (k - 1)
                    for k, ck in enumerate(c) if k)
            return (d > 0) - (d < 0)

        first, last = sign(lo), sign(hi)
        out = refine_to_monotone(f, ShapePiece(IntervalSpec(lo, hi),
                                               Shape.CONVEX,
                                               Monotonicity.MIXED))
        labels = {1: Monotonicity.INCREASING, -1: Monotonicity.DECREASING,
                  0: Monotonicity.CONSTANT}
        if len(out) == 1:
            assert first * last >= 0 or sign(math.nextafter(hi, lo)) == first
            assert out[0].monotonicity is labels[first or last]
            return
        split = out[0].interval.hi
        assert first * last < 0 and lo < split < hi
        assert sign(math.nextafter(split, lo)) == first
        assert sign(split) != first
        assert [p.monotonicity for p in out] == [labels[first], labels[last]]

    def test_square_splits_at_zero(self):
        f = FunctionSpec.polynomial((0.0, 0.0, 1.0), IntervalSpec(-1.0, 1.0))
        piece = ShapePiece(IntervalSpec(-1.0, 1.0), Shape.CONVEX,
                           Monotonicity.MIXED, 0.0)
        out = refine_to_monotone(f, piece)
        assert len(out) == 2
        assert out[0].interval.hi == 0.0
        assert out[0].monotonicity is Monotonicity.DECREASING
        assert out[1].monotonicity is Monotonicity.INCREASING
        # exact tiling
        assert out[0].interval.lo == -1.0
        assert out[0].interval.hi == out[1].interval.lo
        assert out[1].interval.hi == 1.0

    def test_far_window_splits_at_zero_in_64_steps(self):
        # the bisection runs over the ordered float bit patterns, so from
        # -1e150 to 1e150 it takes at most 64 slope signs after the ends'
        f = FunctionSpec.polynomial((0.0, 0.0, 1.0),
                                    IntervalSpec(-1e150, 1e150))
        piece = ShapePiece(f.domain, Shape.CONVEX, Monotonicity.MIXED)
        with mock.patch.object(convexity, "slope_sign",
                               wraps=convexity.slope_sign) as spy:
            out = refine_to_monotone(f, piece)
        assert spy.call_count <= 2 + 64
        assert [(p.interval, p.monotonicity) for p in out] == [
            (IntervalSpec(-1e150, 0.0), Monotonicity.DECREASING),
            (IntervalSpec(0.0, 1e150), Monotonicity.INCREASING)]
        assert [(p.interval, p.monotonicity)
                for p in monotone_partition(f, 501).pieces] == [
            (p.interval, p.monotonicity) for p in out]

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

    def test_extremum_next_to_an_end_keeps_one_piece(self):
        # the minimum at 1e-15, next to the end 0, is a knot: the slope
        # signs split the piece there exactly, so f falls on the first
        # part and rises on the second, with the piece's shape and
        # tolerance
        f = FunctionSpec.piecewise_linear(
            ((0.0, 1.0), (1e-15, 0.0), (1.0, 0.5)))
        piece = ShapePiece(IntervalSpec(0.0, 1.0), Shape.CONVEX,
                           Monotonicity.MIXED, 0.25)
        assert refine_to_monotone(f, piece) == (
            ShapePiece(IntervalSpec(0.0, 1e-15), Shape.CONVEX,
                       Monotonicity.DECREASING, 0.25),
            ShapePiece(IntervalSpec(1e-15, 1.0), Shape.CONVEX,
                       Monotonicity.INCREASING, 0.25))
        assert [(p.interval, p.monotonicity) for p in
                monotone_partition(f, 4001).pieces] == [
            (IntervalSpec(0.0, 1e-15), Monotonicity.DECREASING),
            (IntervalSpec(1e-15, 1.0), Monotonicity.INCREASING)]

    def test_uncertified_shape_rejected(self):
        # an affine piece is refined like any other: its one slope sign
        # labels it; only a shape outside Convex/Concave/Affine raises
        f = FunctionSpec.affine(1.0, 0.0, IntervalSpec(0.0, 1.0))
        piece = ShapePiece(IntervalSpec(0.0, 1.0), Shape.AFFINE,
                           Monotonicity.MIXED, 0.0)
        assert refine_to_monotone(f, piece) == (
            ShapePiece(IntervalSpec(0.0, 1.0), Shape.AFFINE,
                       Monotonicity.INCREASING, 0.0),)
        with pytest.raises(ShapeError, match="not certified"):
            refine_to_monotone(f, ShapePiece(IntervalSpec(0.0, 1.0), "Wavy",
                                             Monotonicity.MIXED, 0.0))


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

    def test_constant_label_needs_a_flat_curve(self):
        # a Constant label means both end slopes are 0, so f is constant
        # on a convex or concave piece and its increment curve is flat: a
        # curve that moves violates it, in whichever direction
        piece = ShapePiece(IntervalSpec(0.0, 1.0), Shape.CONCAVE,
                           Monotonicity.CONSTANT)
        flat = FunctionSpec.polynomial((2.0,), IntervalSpec(0.0, 1.0))
        rep = check_gsigma_monotone(flat, piece, 0.25)
        assert (rep.direction, rep.max_violation, rep.ok) == (
            Direction.CONSTANT, 0.0, True)
        rep = check_gsigma_monotone(FunctionSpec.sqrt(IntervalSpec(0.0, 1.0)),
                                    piece, 0.25)
        assert rep.direction is Direction.CONSTANT and not rep.ok

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
