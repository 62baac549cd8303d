"""Tests for intervals, the function catalog, exact evaluation and sampling."""

import math
from fractions import Fraction

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
    clip_window,
    eval_cantor,
    evaluate,
    parse_function,
    parse_interval,
    sample,
)

INF = float("inf")


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

    def test_non_finite_knots(self):
        nan = float("nan")
        for knots in (((0.0, nan), (1.0, 1.0)),
                      ((0.0, 0.0), (0.5, INF), (1.0, 1.0)),
                      ((0.0, 0.0), (nan, 0.5), (1.0, 1.0))):
            with pytest.raises(DomainError):
                FunctionSpec.piecewise_linear(knots, IntervalSpec(0.0, 1.0))

    def test_domain_must_lie_in_knot_span(self):
        with pytest.raises(KindError):
            FunctionSpec.sampled_table(((0.0, 0.0), (1.0, 1.0)),
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
        f = FunctionSpec.sampled_table(knots)
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
        with pytest.raises(ValueError):
            eval_cantor(0.5, depth=0)

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2,
                    max_size=12))
    def test_nondecreasing(self, xs):
        xs = sorted(xs)
        vals = [eval_cantor(x) for x in xs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @settings(max_examples=80, deadline=None)
    @given(st.floats(min_value=0.0, max_value=1.0),
           st.integers(min_value=4, max_value=40))
    def test_depth_stability(self, x, d):
        assert abs(eval_cantor(x, d) - eval_cantor(x, d + 8)) <= 2.0 ** -d


class TestClipWindow:
    def test_examples(self):
        got = clip_window(IntervalSpec(0.0, INF, True, False), width=10.0)
        assert (got.lo, got.hi) == (0.0, 10.0)
        got = clip_window(IntervalSpec(0.0, 1.0, False, False), margin=1e-6)
        assert (got.lo, got.hi) == (1e-6, 1.0 - 1e-6)
        got = clip_window(IntervalSpec(-INF, INF, False, False), width=10.0)
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
        assert got.is_finite and got.lo_closed and got.hi_closed
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

    def test_values_match_pointwise_evaluation(self):
        # sqrt, affine and poly grids are vectorized and must be bit-identical
        for f in (FunctionSpec.sqrt(IntervalSpec(0.0, 1.0)),
                  FunctionSpec.affine(-2.5, 0.75),
                  FunctionSpec.polynomial((0.5, -1.0, 2.0, 0.25))):
            for m in (3, 5001):
                grid = sample(f, IntervalSpec(0.0, 1.0), m)
                assert all(v == evaluate(f, x)
                           for x, v in zip(grid.abscissae.tolist(),
                                           grid.values.tolist()))
                # the abscissae are lo + i * step, the last one exactly hi
                step = 1.0 / (m - 1)
                assert grid.abscissae.tolist() == (
                    [i * step for i in range(m - 1)] + [1.0])


class TestParseFunction:
    def test_forms(self):
        assert parse_function("sqrt").kind == "sqrt"
        assert parse_function("x2sininv").kind == "x2sininv"
        assert parse_function("cantor").kind == "cantor"
        f = parse_function("affine:2,1")
        assert (f.slope, f.intercept) == (2.0, 1.0)
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
        assert f.kind == "table"
        assert f.knots == ((0.0, 1.0), (1.0, 2.0), (2.0, 0.0))
        assert evaluate(f, 0.5) == 1.5

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
