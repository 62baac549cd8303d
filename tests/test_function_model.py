"""Tests for intervals, the function catalog, exact evaluation and sampling."""

import copy
import csv
import gc
import math
import pickle
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contana import (
    CANTOR_DEPTH,
    DomainError,
    FunctionSpec,
    IntervalSpec,
    KindError,
    ParseError,
    SampleGrid,
    clip_window,
    eval_cantor,
    evaluate,
    parse_function,
    parse_interval,
    sample,
)
from contana import catalog, function_model
from contana.function_model import (
    BULK_BLOCK,
    _CANTOR_MAX_EXPONENT,
    _CANTOR_PASS_DIGITS,
    _bulk_values,
    _round_rational,
    cantor_bricks,
    evaluate_many,
    slope_sign,
)

INF = float("inf")
NAN = float("nan")


# ---------------------------------------------------------------------------
# Oracle: exact staircase values by Fraction digit scanning
# ---------------------------------------------------------------------------

def cantor_oracle(x: Fraction, depth: int) -> Fraction:
    """Independent exact-arithmetic staircase evaluation (all Fractions)."""
    if x <= 0:
        return Fraction(0)
    if x >= 1:
        return Fraction(1)
    result = Fraction(0)
    weight = Fraction(1, 2)
    y = Fraction(x)
    for _ in range(depth):
        y *= 3
        digit = int(y)
        y -= digit
        if digit == 1:
            result += weight
            break
        if digit == 2:
            result += weight
        weight /= 2
    return result


class TestIntervalSpec:
    def test_invariants(self):
        with pytest.raises(KindError):
            IntervalSpec(1.0, 1.0)
        with pytest.raises(KindError):
            IntervalSpec(2.0, 1.0)
        with pytest.raises(KindError):
            IntervalSpec(-INF, 1.0, lo_closed=True)
        with pytest.raises(KindError):
            IntervalSpec(0.0, INF, hi_closed=True)
        with pytest.raises(KindError):
            IntervalSpec(float("nan"), 1.0)

    def test_contains_endpoint_semantics(self):
        iv = IntervalSpec(0.0, 1.0, lo_closed=False, hi_closed=True)
        assert not iv.contains(0.0)
        assert iv.contains(1.0)
        assert iv.contains(0.5)
        assert not iv.contains(-0.1)
        assert not iv.contains(1.1)

    def test_intersect(self):
        a = IntervalSpec(0.0, 2.0)
        b = IntervalSpec(1.0, 3.0, lo_closed=False)
        got = a.intersect(b)
        assert (got.lo, got.hi, got.lo_closed, got.hi_closed) == (1.0, 2.0, False, True)
        assert a.intersect(IntervalSpec(5.0, 6.0)) is None
        # single-point overlap is not representable
        assert a.intersect(IntervalSpec(2.0, 3.0)) is None

    def test_parse_roundtrip(self):
        for text, lo, hi, lc, hc in [
            ("[0,1]", 0.0, 1.0, True, True),
            ("(0,1]", 0.0, 1.0, False, True),
            ("[0,inf)", 0.0, INF, True, False),
            ("(-inf,inf)", -INF, INF, False, False),
        ]:
            iv = parse_interval(text)
            assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (lo, hi, lc, hc)
            assert parse_interval(str(iv)) == iv

    def test_parse_errors(self):
        for bad in ["", "[0,1", "0,1]", "[a,b]", "[1,2,3]", "[inf,1)"]:
            with pytest.raises(ParseError):
                parse_interval(bad)


class TestFunctionSpec:
    def test_kind_validation(self):
        with pytest.raises(KindError):
            FunctionSpec.sqrt(IntervalSpec(-1.0, 1.0))
        with pytest.raises(KindError):
            FunctionSpec.cantor(IntervalSpec(0.0, 2.0))
        with pytest.raises(KindError):
            FunctionSpec.polynomial((), IntervalSpec(0.0, 1.0))
        with pytest.raises(KindError):
            FunctionSpec.piecewise_linear(((0.0, 0.0), (0.0, 1.0)))
        with pytest.raises(KindError):
            FunctionSpec("mystery", IntervalSpec(0.0, 1.0))

    @pytest.mark.parametrize("call, want", [
        (lambda: str(clip_window(parse_function(
            "poly:0,1", parse_interval("(-inf,5]")).domain)), "[-5.0,5.0]"),
        (lambda: eval_cantor(NAN),
         (DomainError, "cannot take exact ratio of nan")),
        (lambda: FunctionSpec.piecewise_linear([(0, 1, 2), (1, 2, 3)]),
         (KindError, "knots must be (x, y) pairs")),
    ], ids=["window-below-inf", "cantor-nan", "knots-not-pairs"])
    def test_rare_inputs(self, call, want):
        # a window open at -inf is cut 10 wide; bad values name themselves
        if isinstance(want, str):
            assert call() == want
            return
        with pytest.raises(want[0]) as got:
            call()
        assert str(got.value) == want[1]

    def test_non_finite_knots(self):
        nan = float("nan")
        for knots in (((0.0, nan), (1.0, 1.0)),
                      ((0.0, 0.0), (0.5, INF), (1.0, 1.0)),
                      ((0.0, 0.0), (nan, 0.5), (1.0, 1.0))):
            with pytest.raises(DomainError):
                FunctionSpec.piecewise_linear(knots, IntervalSpec(0.0, 1.0))

    @pytest.mark.parametrize("text, halved, x, value", [
        ("pwl:-1e308:0,1e308:1", "pwl:-5e307:0,5e307:1", 0.5, 0.5),
        ("pwl:0:-1e308,1:1e308", "pwl:0:-5e307,1:5e307", 0.1, -4e307),
    ])
    def test_knot_differences_must_be_finite(self, text, halved, x, value):
        # x1 - x0 or y1 - y0 overflowed to inf, so interpolation read 0.0
        # or inf where the true values are finite
        window = IntervalSpec(0.0, 1.0)
        with pytest.raises(DomainError, match="too far apart"):
            evaluate_many(parse_function(text, window), [0.1, 0.5])
        # with halved knots the differences are finite again
        f = parse_function(halved, window)
        got = evaluate_many(f, [x])
        assert got.tolist() == [evaluate(f, x)]
        assert got[0] == pytest.approx(value)

    def test_domain_must_lie_in_knot_span(self):
        with pytest.raises(KindError):
            FunctionSpec.piecewise_linear(((0.0, 0.0), (1.0, 1.0)),
                                          IntervalSpec(0.0, 2.0))


class TestEvaluate:
    def test_catalog_values(self):
        assert evaluate(FunctionSpec.sqrt(), 0.25) == 0.5
        f = FunctionSpec.x_squared_sin_inv()
        assert evaluate(f, 0.0) == 0.0
        x = 0.1
        assert evaluate(f, x) == x * x * math.sin(1.0 / x)
        assert evaluate(FunctionSpec.affine(2.0, 1.0), 3.0) == 7.0
        # ascending coefficients: 1 + 2x + 3x^2 at x = 2 -> 17
        assert evaluate(FunctionSpec.polynomial((1.0, 2.0, 3.0)), 2.0) == 17.0

    def test_pwl_knot_exact_and_interpolation(self):
        f = FunctionSpec.piecewise_linear(((0.0, 1.0), (1.0, 3.0), (2.0, 0.0)))
        assert evaluate(f, 1.0) == 3.0
        assert evaluate(f, 0.5) == 2.0
        assert evaluate(f, 1.5) == 1.5

    def test_table_knot_exact(self):
        knots = tuple((x / 7.0, math.sin(x)) for x in range(8))
        f = FunctionSpec.piecewise_linear(knots)
        for x, y in knots:
            assert evaluate(f, x) == y

    def test_domain_errors(self):
        f = FunctionSpec.sqrt(IntervalSpec(0.0, 1.0, lo_closed=False))
        with pytest.raises(DomainError):
            evaluate(f, 0.0)
        with pytest.raises(DomainError):
            evaluate(f, 1.5)

    def test_deterministic(self):
        f = FunctionSpec.x_squared_sin_inv()
        vals = {evaluate(f, 0.123456) for _ in range(10)}
        assert len(vals) == 1


def _sign(q) -> int:
    return (q > 0) - (q < 0)


def exact_pwl_slope_sign(knots, x: float, right: bool) -> int:
    """Reference: the sign of the exact interpolant's change over eta just
    right (or left) of x, in Fractions, eta a quarter of the least
    distance from x to another knot."""
    ks = [(Fraction(a), Fraction(b)) for a, b in knots]

    def value(t):
        for (x0, y0), (x1, y1) in zip(ks, ks[1:]):
            if x0 <= t <= x1:
                return y0 + (y1 - y0) * (t - x0) / (x1 - x0)

    t = Fraction(x)
    eta = min(abs(k - t) for k, _ in ks if k != t) / 4
    return _sign(value(t + eta) - value(t) if right else
                 value(t) - value(t - eta))


def exact_poly_slope_sign(coefficients, x: float) -> int:
    """Reference: the sign of p'(x) = sum k c_k x**(k-1), term by term in
    Fractions."""
    t = Fraction(x)
    return _sign(sum(k * Fraction(c) * t ** (k - 1)
                     for k, c in enumerate(coefficients) if k))


@st.composite
def pwl_points(draw):
    """Knots (ties among the ordinates included), and points at the knots
    and inside the segments."""
    xs = sorted(set(draw(st.lists(st.floats(-1e3, 1e3), min_size=2,
                                  max_size=8))))
    if len(xs) < 2:
        xs = [xs[0], xs[0] + 1.0]
    ys = draw(st.lists(st.sampled_from([0.0, 1.0, -2.5]) | st.floats(-1e3, 1e3),
                       min_size=len(xs), max_size=len(xs)))
    points = list(xs)
    for a, b in zip(xs, xs[1:]):
        t = draw(st.floats(0.0, 1.0))
        points.append(min(max(a + (b - a) * t, a), b))
    return list(zip(xs, ys)), points


@st.composite
def poly_points(draw):
    """Coefficients of degree 1-6 and points: anywhere, far from zero, and
    next to a root of p' of multiplicity k - 1 from p = a (x - r)**k, r a
    dyadic, whose coefficients are exact floats."""
    if draw(st.booleans()):
        k = draw(st.integers(2, 6))
        a = draw(st.sampled_from([1.0, -1.0, 0.5, -2.0]))
        r = draw(st.integers(-40, 40)) / 8.0
        coefficients = [a * math.comb(k, j) * (-r) ** (k - j)
                        for j in range(k + 1)]
        near = [r]
        for _ in range(3):
            near.append(r + draw(st.floats(-1e-6, 1e-6)))
            near.append(r + draw(st.integers(-4, 4)) * math.ulp(r or 1.0))
    else:
        coefficients = draw(st.lists(
            st.sampled_from([0.0, 1.0, -3.0]) | st.floats(-1e3, 1e3),
            min_size=2, max_size=7))
        near = []
    far = draw(st.floats(1e100, 1e150)) * draw(st.sampled_from([1.0, -1.0]))
    points = [draw(st.floats(-1e3, 1e3)), far, 0.0] + near
    return coefficients, points


class TestSlopeSign:
    @settings(max_examples=200, deadline=None)
    @given(pwl_points())
    def test_pwl_matches_the_exact_slope(self, case):
        knots, points = case
        f = FunctionSpec.piecewise_linear(knots)
        (first, _), (last, _) = knots[0], knots[-1]
        for x in points:
            if x < last:
                assert slope_sign(f, x) == exact_pwl_slope_sign(knots, x,
                                                                True)
            if x > first:
                assert slope_sign(f, x, right=False) == \
                    exact_pwl_slope_sign(knots, x, False)

    @settings(max_examples=200, deadline=None)
    @given(poly_points())
    def test_poly_matches_the_exact_derivative(self, case):
        coefficients, points = case
        f = FunctionSpec.polynomial(coefficients)
        for x in points:
            want = exact_poly_slope_sign(coefficients, x)
            assert slope_sign(f, x) == slope_sign(f, x, right=False) == want

    def test_poly_double_root_is_exact_where_floats_cancel(self):
        # p'(x) = 3 (x - 0.1)**2 in float coefficients: float Horner
        # cancels to 0 or below at points where the exact value is positive
        c = (0.0, 3 * 0.1 ** 2, -3 * 0.1, 1.0)
        f = FunctionSpec.polynomial(c)
        xs = [0.1 + k * math.ulp(0.1) for k in range(-64, 65)]
        floats = [3.0 * x * x + 2.0 * c[2] * x + c[1] for x in xs]
        assert any(v <= 0.0 for v in floats)
        assert [slope_sign(f, x) for x in xs] == [
            exact_poly_slope_sign(c, x) for x in xs]

    @pytest.mark.parametrize("x, sign", [
        (0.0, 0),
        (1e-320, 0),  # 1/x overflows: evaluate reads f as 0 there
        (1.0 / (2.0 * math.pi), -1),  # f' = -cos(2 pi) = -1
        (1.0 / math.pi, 1),  # f' = 2x sin(pi) - cos(pi) = 1
    ])
    def test_x2sininv_in_floats(self, x, sign):
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(-1.0, 1.0))
        assert slope_sign(f, x) == slope_sign(f, x, right=False) == sign

    @pytest.mark.parametrize("f", [FunctionSpec.sqrt(), FunctionSpec.cantor()])
    def test_sqrt_and_cantor_never_fall(self, f):
        for x in (0.0, 0.5, 1.0):
            assert slope_sign(f, x) == slope_sign(f, x, right=False) == 1


class TestEvalCantor:
    def test_fixed_points(self):
        assert eval_cantor(0.0) == 0.0
        assert eval_cantor(1.0) == 1.0

    def test_one_third_is_half(self):
        assert eval_cantor(Fraction(1, 3)) == 0.5
        # the nearest float to 1/3 sits just below the breakpoint
        assert abs(eval_cantor(1.0 / 3.0) - 0.5) < 1e-9

    def test_quarter_maps_to_third(self):
        # 1/4 = 0.020202...(base 3); binary image 0.010101... = 1/3
        expected = cantor_oracle(Fraction(1, 4), CANTOR_DEPTH)
        got = eval_cantor(0.25)
        assert got == float(expected)
        assert abs(got - 1.0 / 3.0) < 1e-15

    def test_matches_oracle_on_rationals(self):
        for num, den in [(1, 27), (2, 27), (5, 12), (7, 9), (1, 10), (355, 1000)]:
            x = Fraction(num, den)
            assert eval_cantor(x) == pytest.approx(
                float(cantor_oracle(x, CANTOR_DEPTH)), abs=2.0 ** -60)

    def test_plateau_values_exact(self):
        # constant on the removed middle thirds
        assert eval_cantor(Fraction(5, 12)) == 0.5
        assert eval_cantor(0.4) == 0.5
        assert eval_cantor(Fraction(7, 54)) == 0.25

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eval_cantor(-0.1)
        with pytest.raises(DomainError):
            eval_cantor(1.1)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                    max_size=12))
    def test_nondecreasing(self, xs):
        xs = sorted(xs)
        vals = [eval_cantor(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestClipWindow:
    def test_examples(self):
        got = clip_window(IntervalSpec(0.0, INF, True, False))
        assert (got.lo, got.hi) == (0.0, 10.0)
        got = clip_window(IntervalSpec(0.0, 1.0, False, False))
        assert (got.lo, got.hi) == (1e-9, 1.0 - 1e-9)
        got = clip_window(IntervalSpec(-INF, INF, False, False))
        assert (got.lo, got.hi) == (-5.0, 5.0)

    def test_default_margin(self):
        got = clip_window(IntervalSpec(0.0, 1.0, False, True))
        assert got.lo == pytest.approx(1e-9, rel=1e-6)
        assert got.hi == 1.0

    @settings(max_examples=150, deadline=None)
    @given(st.floats(min_value=-1e6, max_value=1e6),
           st.floats(min_value=1e-3, max_value=1e6),
           st.booleans(), st.booleans())
    def test_subset_of_closure_finite_closed(self, lo, width, lo_closed, hi_closed):
        iv = IntervalSpec(lo, lo + width, lo_closed, hi_closed)
        got = clip_window(iv)
        assert math.isfinite(got.lo) and math.isfinite(got.hi)
        assert got.lo_closed and got.hi_closed
        assert iv.lo <= got.lo < got.hi <= iv.hi


class TestSample:
    def test_sqrt_three_points(self):
        grid = sample(FunctionSpec.sqrt(IntervalSpec(0.0, 1.0)),
                      IntervalSpec(0.0, 1.0), 3)
        assert grid.abscissae.tolist() == [0.0, 0.5, 1.0]
        assert grid.values.tolist() == [0.0, math.sqrt(0.5), 1.0]
        assert grid.spacing == 0.5

    def test_affine_two_points(self):
        grid = sample(FunctionSpec.affine(1.0, 0.0), IntervalSpec(0.0, 2.0), 2)
        assert grid.abscissae.tolist() == [0.0, 2.0]
        assert grid.values.tolist() == [0.0, 2.0]

    def test_unbounded_domain_clipped(self):
        grid = sample(FunctionSpec.sqrt(), IntervalSpec(0.0, INF, True, False), 2)
        assert grid.abscissae.tolist() == [0.0, 10.0]

    def test_disjoint_window(self):
        with pytest.raises(DomainError):
            sample(FunctionSpec.sqrt(IntervalSpec(0.0, 1.0)),
                   IntervalSpec(2.0, 3.0), 5)

    def test_non_finite_values(self):
        with pytest.raises(DomainError):
            sample(FunctionSpec.polynomial((float("nan"), 1.0)),
                   IntervalSpec(0.0, 1.0), 5)
        with pytest.raises(DomainError):
            sample(FunctionSpec.affine(1e308, 0.0), IntervalSpec(0.0, 1e10), 5)

    def test_value_range_must_be_finite(self):
        # every value is finite, but max - min overflows: every later
        # difference of values (modulus, second differences, steps) would
        # be inf
        f = FunctionSpec.polynomial((0.0, 1.7e308))
        with pytest.raises(DomainError, match=(
                r"^values -1\.7e\+308 at x = -1\.0 and 1\.7e\+308 at "
                r"x = 1\.0 are too far apart: their difference overflows$")):
            sample(f, IntervalSpec(-1.0, 1.0), 5)
        grid = sample(f, IntervalSpec(0.0, 1.0), 5)
        assert grid.values.tolist()[-1] == 1.7e308

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e6),
           st.integers(2, 2000), st.sampled_from([2, 4]))
    def test_strided_grid_is_the_coarser_grid(self, lo, width, m, s):
        # analyze takes its coarser detection grids as every s-th point of
        # the finest one; sampling them separately gives the same bits
        f = FunctionSpec.polynomial((0.5, -1.0, 2.0))
        window = IntervalSpec(lo, lo + width)
        coarse = sample(f, window, m)
        strided = sample(f, window, s * (m - 1) + 1)
        assert strided.abscissae[::s].tobytes() == coarse.abscissae.tobytes()
        assert strided.values[::s].tobytes() == coarse.values.tobytes()

    def test_values_match_pointwise_evaluation(self):
        # every kind is vectorized and must be bit-identical, across blocks
        for f in (FunctionSpec.sqrt(IntervalSpec(0.0, 1.0)),
                  FunctionSpec.affine(-2.5, 0.75),
                  FunctionSpec.polynomial((0.5, -1.0, 2.0, 0.25)),
                  FunctionSpec.x_squared_sin_inv(),
                  FunctionSpec.cantor(),
                  ZIGZAG):
            for m in (3, 5001, 2 * BULK_BLOCK + 3):
                grid = sample(f, IntervalSpec(0.0, 1.0), m)
                assert grid.values.tobytes() == np.array(
                    [evaluate(f, x) for x in grid.abscissae.tolist()]).tobytes()
                # the abscissae are lo + i * step, the last one exactly hi
                step = 1.0 / (m - 1)
                assert grid.abscissae.tolist() == (
                    [i * step for i in range(m - 1)] + [1.0])


    @pytest.mark.parametrize("f, window", [
        (FunctionSpec.sqrt(IntervalSpec(0.0, 1.0)), IntervalSpec(0.0, 1.0)),
        (FunctionSpec.polynomial((0.5, -1.0, 2.0, 0.25)), IntervalSpec(0.0, 1.0)),
        (FunctionSpec.x_squared_sin_inv(IntervalSpec(-1.0, 1.0)),
         IntervalSpec(-1.0, 1.0)),
        (FunctionSpec.cantor(), IntervalSpec(0.0, 1.0)),
        (catalog.sine_table(), IntervalSpec(0.0, 2 * math.pi)),
    ], ids=lambda v: getattr(v, "kind", ""))
    def test_memory_within_stated_bound(self, f, window):
        # _bulk_values' docstring: sample at m points peaks below
        # 24*m + 128*BULK_BLOCK bytes (the spec holds its knot arrays)
        m = 100001
        sample(f, window, 3)
        tracemalloc.start()
        try:
            sample(f, window, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * m + 128 * BULK_BLOCK


class TestSampleGrid:
    """The grid checks take one reduction each and locate the offending
    point only to name it."""

    XS = [0.0, 1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("values, message", [
        ([0.0, NAN, 1.0, NAN, 2.0], "non-finite value nan at x = 1.0"),
        ([0.0, 1.0, -INF, 2.0, INF], "non-finite value -inf at x = 2.0"),
        ([INF, 0.0, -INF, NAN, 1.0], "non-finite value inf at x = 0.0"),
        ([0.0, -1e308, 1e308, -1e308, 1e308],
         "values -1e+308 at x = 1.0 and 1e+308 at x = 2.0 are too far "
         "apart: their difference overflows"),
    ], ids=["first-nan", "both-infinities", "inf-before-nan", "overflow"])
    def test_values_refused_with_the_first_offender(self, values, message):
        with pytest.raises(DomainError) as got:
            SampleGrid(self.XS, values)
        assert str(got.value) == message

    @pytest.mark.parametrize("xs", [
        [0.0, 1.0, 1.0, 2.0, 3.0], [0.0, 2.0, 1.0, 3.0, 4.0],
        [4.0, 3.0, 2.0, 1.0, 0.0], [0.0, 1.0, NAN, 3.0, 4.0],
        [Fraction(0), Fraction(1, 3), Fraction(1, 3), Fraction(1), 2]])
    def test_abscissae_must_increase(self, xs):
        with pytest.raises(KindError,
                           match="^grid abscissae must be strictly increasing$"):
            SampleGrid(xs, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_fraction_abscissae_become_float64(self):
        # grids are float64: exact rationals are rounded to floats
        xs = [Fraction(0), Fraction(1, 3), Fraction(2, 3), Fraction(1)]
        grid = SampleGrid(xs, [0.0, 1.0, 0.5, 0.0])
        assert grid.abscissae.dtype == np.float64
        assert grid.abscissae.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]
        assert type(grid.spacing) is float and grid.uniform
        assert grid.span == 1.0

    @pytest.mark.parametrize("lo, hi, m", [
        (0.0, 1.0, 4001), (-3.0, 7.5, 3), (1000.0, 1000.001, 2001),
        (0.0, 1e-310, 2001), (1e6, 1e6 + 1.0, 100001)])
    def test_step_on_float_grids(self, lo, hi, m):
        grid = SampleGrid(function_model.uniform_abscissae(lo, hi, m),
                          np.zeros(m))
        assert type(grid.step) is float
        assert grid.step == (hi - lo) / (m - 1)

    @pytest.mark.parametrize("xs, step", [
        ([Fraction(1, 7) + Fraction(i, 3) for i in range(5)], Fraction(1, 3)),
        ([Fraction(0), Fraction(1, 10), Fraction(1)], Fraction(1, 2)),
        ([0, Fraction(1, 3), 1], Fraction(1, 2)),
    ], ids=["uniform", "non-uniform", "int-and-fraction"])
    def test_step_on_fraction_grids(self, xs, step):
        # the points are rounded to floats first: the float grid's step
        grid = SampleGrid(xs, [0.0] * len(xs))
        floats = SampleGrid([float(x) for x in xs], [0.0] * len(xs))
        assert type(grid.step) is float and grid.step == floats.step
        assert grid.step == pytest.approx(step, rel=1e-15)


ZIGZAG = FunctionSpec.piecewise_linear(
    ((0.0, 0.0), (0.3, 0.6), (0.7, 0.2), (1.0, 0.5)))

_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _unit_points():
    """Floats in [0, 1] stressing the Cantor digit scan: triadic points
    (their first digit 1 ends the scan), non-terminating points whose 64
    digits fill the accumulator, n / 2**s on both sides of the integer
    scan's limit s = 61, and tiny and subnormal points (scalar fallback)."""
    return st.one_of(
        st.floats(0.0, 1.0),
        st.integers(1, 20).flatmap(
            lambda j: st.integers(0, 3**j).map(lambda k: k / 3**j)),
        st.builds(lambda n, s: (2 * n + 1) / 2**s,
                  st.integers(0, 2**52 - 1), st.integers(53, 64)),
        st.floats(0.0, 2.0**-9),
        st.sampled_from([0.0, -0.0, 1.0, 0.25, 0.75, 1 / 3, 2 / 3, 0.5,
                         2.0**-9, 2.0**-61, 2.0**-62, 5e-324]))


@st.composite
def specs_with_points(draw):
    """A function of each kind with points of its domain that stress it."""
    kind = draw(st.sampled_from(("sqrt", "x2sininv", "cantor", "poly", "pwl")))
    if kind == "sqrt":
        f = FunctionSpec.sqrt()
        points = st.one_of(st.floats(0.0, 1e300),
                           st.sampled_from([0.0, -0.0, 5e-324, 2.0**-1022]))
    elif kind == "x2sininv":
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(-INF, INF, False, False))
        tiny = [0.0, 5e-324, 1e-310, 2.0**-1024, math.nextafter(2.0**-1024, 1),
                5.56e-309, 5.57e-309, 2.0**-1022, 1e-160]
        points = st.one_of(_FINITE, st.floats(-1e-300, 1e-300),
                           st.sampled_from(tiny + [-x for x in tiny]))
    elif kind == "cantor":
        f = FunctionSpec.cantor()
        points = _unit_points()
    elif kind == "poly":
        coeffs = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5))
        f = FunctionSpec.polynomial(coeffs)
        points = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))
    else:
        xs = sorted(set(draw(st.lists(st.floats(-10.0, 10.0), min_size=2,
                                      max_size=8, unique=True))))
        if len(xs) < 2:
            xs = [-1.0, 1.0]
        ys = draw(st.lists(st.one_of(st.floats(-1e3, 1e3),
                                     st.sampled_from([0.0, -0.0, 0.1, 0.3])),
                           min_size=len(xs), max_size=len(xs)))
        f = FunctionSpec.piecewise_linear(tuple(zip(xs, ys)))
        points = st.one_of(st.floats(xs[0], xs[-1]), st.sampled_from(xs),
                           st.sampled_from([-0.0, 0.0]).filter(
                               lambda x: xs[0] <= x <= xs[-1]))
    return f, draw(st.lists(points, min_size=1, max_size=40))


def stage_cover_by_thirds(k: int) -> list:
    """The stage-k bricks by the Fraction recursion: cut every brick into
    thirds and keep the first and the last, k times from [0, 1]."""
    bricks = [(Fraction(0), Fraction(1))]
    for _ in range(k):
        nxt = []
        for a, b in bricks:
            third = (b - a) / 3
            nxt += [(a, a + third), (b - third, b)]
        bricks = nxt
    return bricks


@pytest.mark.parametrize("k", range(1, 11))
def test_cantor_bricks_match_the_thirds_recursion(k):
    q = 3 ** k
    bricks = [(Fraction(a, q), Fraction(a + 1, q)) for a in cantor_bricks(k)]
    assert bricks == stage_cover_by_thirds(k)
    assert list(catalog.cantor_stage_cover(k).pairs) == bricks


#: (p, q) with q > 0: any ratio; brick ends a / 3**k, 0 and 1 among them;
#: dyadic ratios, floats or not; and a float's own as_integer_ratio()
_RATIOS = st.one_of(
    st.tuples(st.integers(-2**80, 2**80), st.integers(1, 2**80)),
    st.integers(0, 3**12).map(lambda a: (a, 3**12)),
    st.integers(1, 3**12).map(lambda q: (0, q)),
    st.integers(1, 3**12).map(lambda q: (q, q)),
    st.builds(lambda n, k: (n, 2**k), st.integers(-2**60, 2**60),
              st.integers(0, 1100)),
    _FINITE.map(lambda x: x.as_integer_ratio()),
)


@settings(max_examples=500, deadline=None)
@given(_RATIOS)
def test_round_rational_brackets_the_ratio(ratio):
    p, q = ratio
    exact = Fraction(p, q)
    up, down = _round_rational(p, q, True), _round_rational(p, q, False)
    assert Fraction(down) <= exact <= Fraction(up)
    # the least float above and the greatest below: no float lies between
    below, above = math.nextafter(up, -INF), math.nextafter(down, INF)
    assert below == -INF or Fraction(below) < exact
    assert above == INF or Fraction(above) > exact
    if Fraction(up) == exact:  # p / q is a float: both give it
        assert up == down == p / q


class TestBulkValues:
    @settings(max_examples=400, deadline=None)
    @given(specs_with_points(), st.sampled_from([1, 2, 3, 7, BULK_BLOCK]))
    def test_matches_evaluate(self, spec, block):
        # bit for bit, signed zeros included, with block seams everywhere
        f, xs = spec
        with mock.patch.object(function_model, "BULK_BLOCK", block):
            got = _bulk_values(f, np.array(xs))
        assert got.tobytes() == np.array([evaluate(f, x) for x in xs]).tobytes()

    @staticmethod
    def assert_cantor_scan(xs, blocks=(1, 2, 3, 7, BULK_BLOCK)):
        # bit for bit against eval_cantor, with block seams everywhere
        xs = np.asarray(xs, dtype=float)
        want = np.array([eval_cantor(x) for x in xs.tolist()]).tobytes()
        for block in blocks:
            with mock.patch.object(function_model, "BULK_BLOCK", block):
                assert _bulk_values(FunctionSpec.cantor(), xs).tobytes() == want

    def test_cantor_scan_every_digits_per_pass(self):
        # n / 2**s (n odd) at every exponent of the integer scan, shuffled so
        # that each block holds the groups of 1 to 6 digits per pass
        limit = 1 << 64
        for s, c in enumerate(_CANTOR_PASS_DIGITS.tolist()):
            assert 3 ** c << s <= limit and (c == 6 or 3 ** (c + 1) << s > limit)
        rng = np.random.default_rng(7)
        exponents = rng.permutation(
            np.repeat(np.arange(1, _CANTOR_MAX_EXPONENT + 1), 40))
        assert set(_CANTOR_PASS_DIGITS[exponents].tolist()) == set(range(1, 7))
        xs = [(2 * int(rng.integers(0, 1 << (min(s, 53) - 1))) + 1) / 2 ** s
              for s in exponents.tolist()]
        self.assert_cantor_scan(xs + [1 / 3, 2 / 3, 0.1, 0.9])

    @pytest.mark.parametrize("widest", range(1, 7))
    def test_cantor_scan_stops_at_the_depth_inside_a_pass(self, widest):
        # 1/4 = 0.0202...(base 3) and 3/4 = 0.2020... never meet a digit 1:
        # the 64-digit cap ends their scan inside a pass of 6, 5 or 3 digits
        # (64 = 10*6 + 4 = 12*5 + 4 = 21*3 + 1).  Fewer digits per pass than
        # the exponent allows are exact too, so each width is tested alone.
        near = [math.nextafter(x, d) for x in (0.25, 0.75) for d in (0, 1)]
        rng = np.random.default_rng(widest)
        xs = [0.25, 0.75, *near, *rng.random(50).tolist(), 0.25, 0.75]
        table = np.minimum(_CANTOR_PASS_DIGITS, widest)
        with mock.patch.object(function_model, "_CANTOR_PASS_DIGITS", table):
            self.assert_cantor_scan(xs)

    @pytest.mark.parametrize("lo, m", [
        (0.0, 1025), (0.0, 2001), (0.0, 4001), (0.0, 8193), (0.05, 100001)])
    def test_cantor_scan_on_benchmark_grids(self, lo, m):
        self.assert_cantor_scan(function_model.uniform_abscissae(lo, 1.0, m),
                                blocks=(7, BULK_BLOCK))

    @staticmethod
    def removed_thirds():
        """The open middle thirds of stages 1 to 8 as exact rationals: the
        gaps between consecutive stage-8 bricks."""
        bricks = catalog.cantor_stage_cover(8).pairs
        return [(a[1], b[0]) for a, b in zip(bricks, bricks[1:])]

    def test_cantor_thirds_round_inward(self):
        lefts, rights, segments = function_model._cantor_thirds()
        thirds = self.removed_thirds()
        assert len(thirds) == len(lefts) == len(rights) == 255
        assert np.isnan(segments[::2]).all() and len(segments) == 511
        for (p, q), left, right, value in zip(thirds, lefts.tolist(),
                                              rights.tolist(),
                                              segments[1::2].tolist()):
            # the least float above p and the greatest below q
            assert Fraction(math.nextafter(left, 0.0)) < p < Fraction(left)
            assert Fraction(right) < q < Fraction(math.nextafter(right, 1.0))
            assert value == eval_cantor((p + q) / 2)

    @staticmethod
    def table_points():
        """Floats at and one ulp either side of every table end, with
        points of the Cantor set (1/4 and 3/4 scan all 64 digits), points
        below 2**-9 (the scalar scan), 0 and 1."""
        lefts, rights, _ = function_model._cantor_thirds()
        ends = lefts.tolist() + rights.tolist()
        near = [e for x in ends for e in (math.nextafter(x, 0.0), x,
                                          math.nextafter(x, 1.0))]
        return st.one_of(
            st.sampled_from(near), _unit_points(),
            st.sampled_from([0.0, 1.0, 0.25, 0.75, 1 / 3, 2 / 3, 2.0**-10]),
            st.floats(0.0, 2.0**-9))

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.sampled_from([1, 7, BULK_BLOCK]))
    def test_cantor_table_matches_eval_cantor(self, data, block):
        # bit for bit, in any order of the points and with block seams
        xs = data.draw(st.lists(self.table_points(), min_size=1, max_size=60))
        if data.draw(st.booleans()):
            xs = sorted(xs)
        with mock.patch.object(function_model, "BULK_BLOCK", block):
            got = _bulk_values(FunctionSpec.cantor(), np.array(xs))
        assert got.tobytes() == np.array(
            [eval_cantor(x) for x in xs]).tobytes()

    def test_cantor_table_every_end(self):
        # every table end and its float neighbours, ascending and reversed
        lefts, rights, _ = function_model._cantor_thirds()
        xs = np.array(sorted({e for x in lefts.tolist() + rights.tolist()
                              for e in (math.nextafter(x, 0.0), x,
                                        math.nextafter(x, 1.0))}))
        want = np.array([eval_cantor(x) for x in xs.tolist()])
        f = FunctionSpec.cantor()
        assert _bulk_values(f, xs).tobytes() == want.tobytes()
        assert _bulk_values(f, xs[::-1]).tobytes() == want[::-1].tobytes()

    def test_cantor_scan_runs_once_per_digit_count(self, monkeypatch):
        # the table values about 96% of a grid on [0, 1]; the points left,
        # gathered over all blocks, are scanned in one call, so each group
        # of digits per pass is scanned once, not once per block
        calls = []
        scan = function_model._cantor_scan
        monkeypatch.setattr(function_model, "_cantor_scan",
                            lambda out, idx, num, s, c: calls.append(
                                (c, len(idx))) or scan(out, idx, num, s, c))
        m = 100001
        grid = sample(FunctionSpec.cantor(), IntervalSpec(0.0, 1.0), m)
        digit_counts = [c for c, _ in calls]
        assert len(digit_counts) == len(set(digit_counts)) > 0
        assert sum(n for _, n in calls) < 0.05 * m < BULK_BLOCK
        assert grid.values.tobytes() == np.array(
            [eval_cantor(x) for x in grid.abscissae.tolist()]).tobytes()

    def test_sine_table(self):
        f = catalog.sine_table()
        kx = [x for x, _ in f.knots]
        mids = [(a + b) / 2 for a, b in zip(kx, kx[1:])]
        xs = np.array(kx + mids + function_model.uniform_abscissae(
            kx[0], kx[-1], 16001).tolist())
        assert _bulk_values(f, xs).tobytes() == np.array(
            [evaluate(f, x) for x in xs.tolist()]).tobytes()

    def test_x2sininv_underflow_is_zero(self):
        # 1/x overflows to inf below 2**-1024, where x*x is already 0
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(-1.0, 1.0))
        for x in (1e-310, -1e-310, 5e-324, 2.0**-1024):
            assert evaluate(f, x) == 0.0
        assert _bulk_values(f, np.array([1e-310, -5e-324])).tolist() == [0.0, 0.0]

    def test_evaluate_many_checks_the_domain(self):
        f = FunctionSpec.sqrt(IntervalSpec(0.0, 1.0, lo_closed=False))
        assert evaluate_many(f, [0.25, 1.0]).tolist() == [0.5, 1.0]
        for bad in (0.0, -0.0, 1.5, float("nan")):
            with pytest.raises(DomainError) as got:
                evaluate_many(f, [0.25, bad, 2.0])
            with pytest.raises(DomainError) as want:
                evaluate(f, bad)
            assert str(got.value) == str(want.value)

    def test_evaluate_many_rounds_fractions_to_floats(self):
        f = FunctionSpec.cantor()
        xs = [Fraction(1, 3), Fraction(1, 4), Fraction(2, 9)]
        got = evaluate_many(f, xs).tolist()
        assert got == [evaluate(f, float(x)) for x in xs]
        # 1/3 rounds down, below the plateau at 1/2 that starts there
        assert got[0] < evaluate(f, Fraction(1, 3)) == 0.5


class TestParseFunction:
    def test_forms(self):
        assert parse_function("sqrt").kind == "sqrt"
        assert parse_function("x2sininv").kind == "x2sininv"
        assert parse_function("cantor").kind == "cantor"
        f = parse_function("affine:2,1")
        assert (f.kind, f.coefficients) == ("poly", (1.0, 2.0))
        f = parse_function("poly:1,0,3")
        assert f.coefficients == (1.0, 0.0, 3.0)
        f = parse_function("pwl:0:0,0.5:1,1:0")
        assert f.knots == ((0.0, 0.0), (0.5, 1.0), (1.0, 0.0))

    def test_window_intersection(self):
        f = parse_function("sqrt", parse_interval("[0,1]"))
        assert (f.domain.lo, f.domain.hi) == (0.0, 1.0)
        f = parse_function("sqrt", parse_interval("(-1,2]"))
        assert (f.domain.lo, f.domain.hi) == (0.0, 2.0)

    def test_table_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n0,1\n1,2\n2,0\n")
        f = parse_function(f"table@{path}")
        assert f.kind == "pwl"
        assert f.knots == ((0.0, 1.0), (1.0, 2.0), (2.0, 0.0))
        assert evaluate(f, 0.5) == 1.5
        # a table is a spelling of pwl: through its rows
        assert f == parse_function("pwl:0:1,1:2,2:0")
        window = parse_interval("[0.5,1.5]")
        assert (parse_function(f"table@{path}", window)
                == parse_function("pwl:0:1,1:2,2:0", window))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(-1e6, 1e6, allow_subnormal=False)),
           st.one_of(st.sampled_from([0.0, -0.0]),
                     st.floats(-1e6, 1e6, allow_subnormal=False)),
           st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                              st.floats(-10.0, 10.0)),
                    min_size=1, max_size=5))
    def test_affine_is_a_poly_spelling(self, a, b, xs):
        window = parse_interval("[-10,10]")
        f = parse_function(f"affine:{a!r},{b!r}", window)
        g = parse_function(f"poly:{b!r},{a!r}", window)
        assert f.kind == g.kind == "poly"
        assert f == FunctionSpec.affine(a, b, f.domain)
        # bit-identical to slope*x + intercept, signed zeros included
        for x in xs:
            want = (a * x + b).hex()
            assert evaluate(f, x).hex() == evaluate(g, x).hex() == want
        grid = sample(f, window, 33)
        assert grid.values.tobytes() == sample(g, window, 33).values.tobytes()
        assert grid.values.tobytes() == (a * grid.abscissae + b).tobytes()

    def test_table_tolerates_one_header_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("\nx,y\n\n0,1\n1,2\n")
        f = parse_function(f"table@{path}")
        assert f.knots == ((0.0, 1.0), (1.0, 2.0))
        for text in ("x,y\nfoo,bar\n0,1\n1,2\n", "0,1\nx,y\n1,2\n",
                     "0,1\n1,2\n2\n"):
            path.write_text(text)
            with pytest.raises(ParseError):
                parse_function(f"table@{path}")

    def test_unreadable_table_is_io_error(self, tmp_path):
        for missing in (tmp_path / "missing.csv", tmp_path):
            with pytest.raises(OSError):
                parse_function(f"table@{missing}")

    def test_errors(self):
        for bad in ["", "mystery", "affine:1", "poly:", "pwl:0:0"]:
            with pytest.raises(ParseError):
                parse_function(bad)
        with pytest.raises(ParseError):
            parse_function("cantor", parse_interval("[2,3]"))


class TestKnots:
    @pytest.mark.parametrize("rows, error, message", [
        ([(0, 0), (1, "nan"), (2, 1)], DomainError,
         "knots must be finite: knot 1 is (1.0, nan)"),
        ([("-inf", 0), (1, 1)], DomainError,
         "knots must be finite: knot 0 is (-inf, 0.0)"),
        ([(0, 0), (1, 1), (1, 2)], ParseError,
         "knot abscissae must be strictly increasing: "
         "knot 1 has x = 1.0 and knot 2 has x = 1.0"),
        ([(0, 0), (2, 1), (1, 2)], ParseError,
         "knot abscissae must be strictly increasing: "
         "knot 1 has x = 2.0 and knot 2 has x = 1.0"),
        ([(0, 0), (0.5, -1e308), (1, 1e308)], DomainError,
         "knots (0.5, -1e+308) and (1.0, 1e+308) are too far apart: "
         "their difference overflows"),
    ])
    @pytest.mark.parametrize("spelling", ["pwl", "table"])
    def test_errors_name_the_knot(self, tmp_path, spelling, rows, error,
                                  message):
        if spelling == "pwl":
            text = "pwl:" + ",".join(f"{x}:{y}" for x, y in rows)
        else:
            path = tmp_path / "t.csv"
            path.write_text("".join(f"{x},{y}\n" for x, y in rows))
            text = f"table@{path}"
        for window in (None, parse_interval("[0,1]")):
            with pytest.raises(error) as got:
                parse_function(text, window)
            assert str(got.value) == message

    def test_arrays_are_read_only_and_outside_equality(self):
        f = FunctionSpec.piecewise_linear(((0.0, 1.0), (1.0, 3.0), (2, 0)))
        assert f.knots == ((0.0, 1.0), (1.0, 3.0), (2.0, 0.0))
        assert all(type(c) is float for knot in f.knots for c in knot)
        assert f._kx.tolist() == [0.0, 1.0, 2.0]
        assert f._ky.tolist() == [1.0, 3.0, 0.0]
        for a in (f._kx, f._ky):
            assert a.dtype == np.float64 and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 5.0
        g = FunctionSpec.piecewise_linear(np.array(f.knots))
        assert g == f and hash(g) == hash(f)
        assert "_kx" not in repr(f) and "_views" not in repr(f)
        # the pairs are built from the arrays on first read, and kept; a
        # spec whose pairs were never read compares and hashes the same
        for spec in (parse_function("pwl:0:1,1:3,2:0"),
                     FunctionSpec.piecewise_linear(np.array(f.knots))):
            assert "knots" not in spec.__dict__
            assert spec == f and hash(spec) == hash(f)
            assert spec.knots is spec.knots
            assert repr(spec) == (
                "FunctionSpec(kind='pwl', domain=IntervalSpec(lo=0.0, hi=2.0, "
                "lo_closed=True, hi_closed=True), coefficients=(), "
                "knots=((0.0, 1.0), (1.0, 3.0), (2.0, 0.0)))")
        # value equality, as for tuples of floats: -0.0 == 0.0
        minus = FunctionSpec.piecewise_linear(((-0.0, -0.0), (1.0, 1.0)))
        plus = FunctionSpec.piecewise_linear(((0.0, 0.0), (1.0, 1.0)))
        assert minus == plus and hash(minus) == hash(plus)
        assert minus.knots[0][0].hex() == "-0x0.0p+0"
        assert FunctionSpec.polynomial((1.0,)).knots == ()
        with pytest.raises(AttributeError):
            f.knots = ()
        # copies and pickles are built anew: read-only arrays, same values
        for copied in (copy.copy(f), copy.deepcopy(f),
                       pickle.loads(pickle.dumps(f))):
            assert copied == f and hash(copied) == hash(f)
            assert not copied._kx.flags.writeable
            assert evaluate(copied, 0.5) == evaluate(f, 0.5) == 2.0
        p = FunctionSpec.polynomial((1.0, 2.0), IntervalSpec(0.0, 1.0))
        assert pickle.loads(pickle.dumps(p)) == p

    def test_scalar_evaluate_is_interp_block(self):
        # evaluate's bisection of the memoryviews and _bulk_values' search
        # of the arrays give the same bits at every knot and between them
        f = catalog.sine_table()
        kx, ky = f._kx, f._ky
        xs = np.concatenate([kx, np.random.default_rng(7).uniform(
            kx[0], kx[-1], 10_000)])
        want = function_model._interp_block(kx, ky, xs)
        got = np.array([evaluate(f, x) for x in xs.tolist()])
        assert got.tobytes() == want.tobytes()
        assert [type(evaluate(f, x)) for x in (kx[0], 1.0)] == [float, float]

    def test_table_parse_holds_only_the_arrays(self, tmp_path):
        # the bench's table: parsing it creates no per-knot Python objects.
        # Measured on this 20001-row file (38 characters a row): 8 new
        # GC-tracked objects, a tracemalloc peak of 77 bytes per knot (the
        # file's bytes and their decoded text) and 16 bytes per knot held.
        # A parse that builds the pair tuple and reads the file as a list of
        # lines gives 20005 objects, 159 and 136 bytes
        n, hi = 20001, 2.0 * math.pi
        xs = [i * hi / (n - 1) for i in range(n - 1)] + [hi]
        path = tmp_path / "sine.csv"
        path.write_text("x,y\n" + "".join(f"{x!r},{math.sin(x)!r}\n"
                                          for x in xs))
        spec = f"table@{path}"
        parse_function(spec)  # imports and caches out of the measurement
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            f = parse_function(spec)
            tracked = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert tracked <= 100
        del f
        gc.collect()
        tracemalloc.start()
        try:
            f = parse_function(spec)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 110 * n
        assert held <= 24 * n
        assert "knots" not in f.__dict__
        assert f.knots == tuple((x, math.sin(x)) for x in xs)

    def test_compressed_file_names_take_the_csv_path(self, tmp_path):
        # numpy's loadtxt would open these names as compressed files
        text = "x,y\n0,1\n1,2\n"
        for name in ("t.csv.gz", "t.bz2", "t.xz", "t.lzma"):
            path = tmp_path / name
            path.write_text(text)
            assert function_model._plain_table(str(path)) is None
            assert parse_function(f"table@{path}").knots == (
                (0.0, 1.0), (1.0, 2.0))

    @pytest.mark.parametrize("text, limit, within", [
        ("", 0, True), ("abc", 3, True), ("abc", 2, False),
        ("ab\ncde\nf", 3, True), ("ab\ncdef\ng", 3, False),
        ("abc\r\nabc\rabc\nabc", 3, True), ("abc\r\nabcd\rabc", 3, False),
        ("a\n" * 50 + "abcd", 3, False), ("a\n" * 50 + "abc", 3, True),
        ("abcd" + "\na" * 50, 3, False), ("\n" * 10, 0, True),
    ])
    def test_lines_within(self, text, limit, within):
        assert function_model._lines_within(text, limit) is within
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        assert within is (max(map(len, lines)) <= limit)

    def test_table_is_parsed_and_checked_once(self, tmp_path, monkeypatch):
        # the bench's table: 20001 sine knots on [0, 2*pi] below a header
        n, hi = 20001, 2.0 * math.pi
        xs = [i * hi / (n - 1) for i in range(n - 1)] + [hi]
        path = tmp_path / "sine.csv"
        path.write_text("x,y\n" + "".join(f"{x!r},{math.sin(x)!r}\n"
                                          for x in xs))
        checked = []
        knot_arrays = function_model._knot_arrays
        monkeypatch.setattr(function_model, "_knot_arrays",
                            lambda knots: checked.append(1) or knot_arrays(knots))
        f = parse_function(f"table@{path}", parse_interval("[0.5,6]"))
        assert len(checked) == 1
        assert (f.domain.lo, f.domain.hi) == (0.5, 6.0)
        assert f.knots == tuple((x, math.sin(x)) for x in xs)
        kx, ky = f._kx, f._ky
        assert not kx.flags.writeable and not ky.flags.writeable
        # _bulk_values searches the spec's own arrays and builds none
        seen = []
        interp = function_model._interp_block
        monkeypatch.setattr(function_model, "_interp_block",
                            lambda a, b, x: seen.append((a, b)) or interp(a, b, x))
        monkeypatch.setattr(np, "fromiter", None)
        pts = function_model.uniform_abscissae(0.5, 6.0, 2 * BULK_BLOCK + 3)
        first = _bulk_values(f, pts)
        assert _bulk_values(f, pts).tobytes() == first.tobytes()
        assert len(seen) == 6
        assert all(a is kx and b is ky for a, b in seen)
        assert f._kx is kx and f._ky is ky


def reference_table(path):
    """Table knots as csv.reader and float() read them, row by row."""
    with open(path, newline="") as fh:
        try:
            rows = [row for row in csv.reader(fh) if "".join(row).strip()]
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"unreadable table {path}: {exc}") from exc
    knots = []
    for i, row in enumerate(rows):
        try:
            knots.append((float(row[0]), float(row[1])))
        except (ValueError, IndexError):
            if i > 0:  # only the first row may be a header
                raise ParseError(f"bad table row {row!r} in {path}") from None
    if len(knots) < 2:
        raise ParseError(f"table {path} needs at least two rows")
    return knots


def _spellings(x: float):
    """Ways to write x in a CSV cell: repr, exponents or an integer, with
    spaces around or without."""
    forms = [repr(x), f"{x:.17e}", f"{x:E}"]
    if x == int(x) and abs(x) < 1e15:
        forms.append(str(int(x)))
    return st.sampled_from(forms).flatmap(lambda s: st.sampled_from(
        [s, f" {s}", f"{s}  ", f"\t{s} "]))


_CELLS = st.one_of(
    st.floats(-1e6, 1e6).flatmap(_spellings),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["0.1", "1e-5", "-2.5E+3", "+7", "1_000", "nan", "-inf",
                     "1e400", ".5", "5."]))

#: cells float() refuses, or numpy and float() read differently
_BAD_CELLS = st.sampled_from(
    ["x", "", " ", "1.5.2", "0x10", "nan(1)", "1\x1c", "\x1f2", "١",
     '"1', "1e", "--1"])

_BLANK_ROWS = st.sampled_from(["", "", "  ", ",", " , ", "\t"])


@st.composite
def table_texts(draw):
    """CSV text: rows of two or more cells, maybe a header, blank rows and
    one bad row first, in the middle or last, with any line endings; in
    half of the tables some cells are quoted."""
    quoted = draw(st.booleans())

    def cells(strategy, n):
        out = [draw(strategy) for _ in range(n)]
        return [f'"{c}"' if quoted and draw(st.booleans()) else c
                for c in out]

    rows = [",".join(cells(_CELLS, 2)
                     + cells(_CELLS | _BAD_CELLS, draw(st.integers(0, 2))))
            for _ in range(draw(st.integers(0, 8)))]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(_BLANK_ROWS))
    if draw(st.booleans()):
        bad = ",".join(cells(_CELLS | _BAD_CELLS, draw(st.integers(0, 3))))
        rows.insert(draw(st.sampled_from([0, len(rows) // 2, len(rows)])),
                    bad)
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, 1)), ",".join(
            cells(st.sampled_from(["x", "y", "z"]), draw(st.integers(1, 3)))))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ending.join(rows)
    if draw(st.booleans()):
        text += ending
    return text


class TestLoadTable:
    @settings(max_examples=400, deadline=None)
    @given(table_texts())
    def test_matches_reference_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("tables") / "t.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            want = [(x.hex(), y.hex()) for x, y in reference_table(path)]
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                function_model._load_table(str(path))
            assert str(got.value) == str(exc)
            assert function_model._plain_table(str(path)) is None
            return
        got = function_model._load_table(str(path))
        assert [(x.hex(), y.hex()) for x, y in got.tolist()] == want
        # numpy's reading, where it is taken, is the csv reading
        plain = function_model._plain_table(str(path))
        assert plain is None or plain.tobytes() == got.tobytes()

    @pytest.mark.parametrize("text", [
        "x,y\n0,1\n0.5,2.5\n1,0\n",
        "\r\nx,y\r\n\r\n0, 1\r\n 5e-1,\t2.5E0 \r\n\r\n1.0,0,extra\r\n",
        "0,1\r0.5,2.5,7\r+1,-0\r",
        "0,1\n0.5,2.5\n1,nan",
    ])
    def test_plain_tables_are_read_by_numpy(self, tmp_path, text):
        path = tmp_path / "t.csv"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        plain = function_model._plain_table(str(path))
        assert plain is not None
        want = [(x.hex(), y.hex()) for x, y in reference_table(path)]
        assert [(x.hex(), y.hex()) for x, y in plain.tolist()] == want
