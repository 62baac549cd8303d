"""Tests for the modulus, gluing, worst-sum search and certificates."""

import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contana import (
    Anchor,
    BudgetError,
    Certificate,
    EmptyCollection,
    FunctionSpec,
    GeometryError,
    IntervalCollection,
    InsufficientData,
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
    exact_budget,
    exact_sup,
    monotone_partition,
    glued_single_interval,
    gluing_bound_check,
    modulus_on_grid,
    random_collection,
    refine_to_monotone,
    sample,
    split_collection_at_partition,
    verify_certificate,
    worst_ac_sum_oracle,
)
from contana import catalog, continuity
from contana.continuity import (
    _dp_pairs,
    _glued_ends,
    _increment_step,
    _sup_below,
    _sup_fraction,
    _window_starts,
)
from contana.function_model import uniform_abscissae
from contana.report_cli import _modulus_curve


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


def modulus_per_window(grid, deltas):
    """The per-window modulus kernel that the constant-lag kernel replaced:
    exact starts for every point, then two sparse-table lookups per window."""
    xs, vs = grid.abscissae, grid.values
    m = len(vs)
    ends = np.arange(m)

    def window_starts(delta):
        if grid.uniform:
            starts = ends - math.floor(delta / (grid.span / (m - 1)))
            np.maximum(starts, 0, out=starts)
        else:
            starts = np.searchsorted(xs, xs - delta)
        while (down := (starts > 0) & (xs - xs[starts - 1] <= delta)).any():
            starts -= down
        while (up := xs - xs[starts] > delta).any():
            starts += up
        return starts

    levels = int(np.max(ends - window_starts(deltas[-1])) + 1).bit_length()
    top, bottom = np.empty((levels, m)), np.empty((levels, m))
    top[0] = bottom[0] = vs
    for k in range(1, levels):
        half = 1 << (k - 1)
        np.maximum(top[k - 1, :-half], top[k - 1, half:], out=top[k, :-half])
        np.minimum(bottom[k - 1, :-half], bottom[k - 1, half:],
                   out=bottom[k, :-half])
    best, samples = 0.0, []
    for d in deltas:
        starts = window_starts(d)
        level = np.frexp(ends - starts + 1)[1] - 1
        tail = ends + 1 - (1 << level)
        hi = np.maximum(top[level, starts], top[level, tail])
        lo = np.minimum(bottom[level, starts], bottom[level, tail])
        best = max(best, float(np.max(hi - vs)), float(np.max(vs - lo)))
        samples.append((d, best))
    return tuple(samples)


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


def check_dp_pairs(values, units, kmax):
    """``_dp_pairs`` on values reaches the brute-force sum with a legal
    collection: at most kmax ordered, nonoverlapping intervals covering at
    most `units` steps, no endpoint strictly inside a run of zero steps."""
    m = len(values)
    pairs = _dp_pairs(np.array(values), units, kmax)
    want = brute_force_worst_sum(values, units, kmax)
    assert math.fsum(abs(values[e] - values[s]) for s, e in pairs) == \
        pytest.approx(want, rel=1e-12, abs=1e-12)
    assert len(pairs) <= kmax
    assert sum(e - s for s, e in pairs) <= units
    assert all(s < e for s, e in pairs)
    assert all(e <= s for (_, e), (s, _) in zip(pairs, pairs[1:]))
    inside = {j for j in range(1, m - 1)
              if values[j - 1] == values[j] == values[j + 1]}
    assert not inside & {j for pair in pairs for j in pair}, pairs


@st.composite
def monotone_values(draw, max_size=12):
    """Nondecreasing or nonincreasing values: integer or float steps, zero
    steps for plateaus, at an offset of 0, -2.5 or 1e6."""
    steps = draw(st.lists(
        st.one_of(st.just(0.0), st.integers(0, 3).map(float),
                  st.floats(0.0, 4.0)),
        min_size=1, max_size=max_size - 1))
    sign = draw(st.sampled_from([1.0, -1.0]))
    offset = draw(st.sampled_from([0.0, -2.5, 1e6]))
    return [offset + sign * level
            for level in accumulate(steps, initial=0.0)]


def top_step_runs(values, units):
    """The bound-first selection, step by step: with t the `units`-th
    largest |step| and the program's tie band tau, every step above t + tau, then
    the steps within tau of t, lowest index first, until `units` are taken;
    zero steps dropped, consecutive same-sign steps merged into one
    (start, end) interval."""
    steps = [b - a for a, b in zip(values, values[1:])]
    chosen = []
    if units:
        t = sorted((abs(s) for s in steps), reverse=True)[units - 1]
        tau = continuity._tie_tau(values, t)
        above = [i for i, s in enumerate(steps) if abs(s) > t + tau]
        band = [i for i, s in enumerate(steps) if abs(abs(s) - t) <= tau]
        chosen = sorted(above + band[:units - len(above)])
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
    """(grid, ascending deltas): uniform float, near-uniform float jittered
    by a few ulps, nonuniform float, skewed float (a dense run, then wide
    gaps, so that a guess j - floor(delta / mean step) is off by many
    points) or Fraction abscissae.  Deltas mix pair distances, their float
    neighbours and arbitrary lengths; the first pair may carry the extreme
    values, so that omega changes exactly when the window boundary crosses
    it."""
    kind = draw(st.sampled_from(
        ["uniform", "jittered", "nonuniform", "skewed", "fraction"]))
    m = draw(st.integers(20 if kind == "skewed" else 2, 40))
    values = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                  st.floats(-1e3, 1e3, allow_nan=False)),
        min_size=m, max_size=m))
    lo = draw(st.integers(-5, 5))
    if kind == "uniform":
        xs = uniform_abscissae(lo / 3, lo / 3 + draw(st.floats(1e-3, 100.0)),
                               m).tolist()
    elif kind == "jittered":
        xs = uniform_abscissae(lo / 3, lo / 3 + draw(st.floats(1.0, 100.0)),
                               m).tolist()
        for i in range(1, m - 1):
            for _ in range(draw(st.integers(0, 3))):
                xs[i] = math.nextafter(xs[i], draw(st.sampled_from(
                    [-math.inf, math.inf])))
    elif kind == "nonuniform":
        gaps = draw(st.lists(st.floats(1e-6, 10.0), min_size=m - 1,
                             max_size=m - 1))
        xs = list(accumulate(gaps, initial=lo / 3))
    elif kind == "skewed":
        dense = draw(st.integers(m // 2, m - 2))
        gaps = ([draw(st.floats(1e-6, 1e-4))] * dense
                + [draw(st.floats(0.5, 10.0))] * (m - 1 - dense))
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
    grid = SampleGrid(xs, values)
    if kind in ("uniform", "jittered", "skewed"):
        assert grid.uniform == (kind != "skewed")
    return grid, deltas


def sqrt_on_unit_pieces():
    f = catalog.sqrt_on_unit()
    res = detect_partition(sample(f, IntervalSpec(0.0, 1.0), 2001))
    pieces = [p for s in res.shapes for p in refine_to_monotone(f, s)]
    return f, tuple(pieces)


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
        curve = modulus_on_grid(sample(f, IntervalSpec(0.0, 1.0), 101), [0.1])
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
        grid = sample(catalog.sqrt_on_unit(), IntervalSpec(0.0, 1.0), 51)
        for deltas in ([2.0], [0.2, 0.1], [0.0], [float("nan")],
                       [0.1, float("nan")]):
            with pytest.raises(BudgetError):
                modulus_on_grid(grid, deltas)

    def test_nondecreasing(self):
        f = catalog.cantor_on_unit()
        curve = modulus_on_grid(sample(f, IntervalSpec(0.0, 1.0), 801),
                                [0.001, 0.01, 0.1, 0.3, 0.9])
        assert all(b >= a for a, b in zip(curve.omegas, curve.omegas[1:]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_pair_scan(self, data):
        grid, deltas = data.draw(grids_with_deltas())
        curve = modulus_on_grid(grid, deltas)
        assert [d for d, _ in curve.samples] == list(deltas)
        running = 0.0
        for d, w in curve.samples:
            running = max(running, omega_pair_scan(grid, d))
            assert w == running, d

    @staticmethod
    def assert_exact_starts(grid, deltas):
        """The defining property of every start s_j: xs[j] - xs[s_j] <= delta,
        and s_j == 0 or xs[j] - xs[s_j - 1] > delta."""
        xs = grid.abscissae
        subset = np.unique(np.random.default_rng(len(xs)).integers(
            0, len(xs), 200))
        for d in deltas:
            s = _window_starts(grid, d)
            assert np.all(xs - xs[s] <= d), d
            inner = s > 0
            assert np.all(xs[inner] - xs[s[inner] - 1] > d), d
            # the index-subset form finds the same starts
            for ends in (subset, np.arange(len(xs) - 1, len(xs)),
                         np.empty(0, dtype=np.intp)):
                assert np.array_equal(_window_starts(grid, d, ends), s[ends]), d

    @staticmethod
    def ladder_with_neighbours(grid):
        ladder = [d for d, _ in _modulus_curve(grid).samples]
        return sorted({e for d in ladder for e in
                       (math.nextafter(d, 0.0), d, math.nextafter(d, math.inf))})

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1e-3, 1.0),
                                        (-5 / 3, 98.0)])
    def test_window_starts_uniform_bench_scale(self, lo, hi):
        m = 100001
        grid = SampleGrid(uniform_abscissae(lo, hi, m), np.zeros(m))
        assert grid.uniform
        h = grid.span / (m - 1)
        multiples = [k * h for k in (1, 2, 3, 7, 1000, 33333, 50000, m - 1)]
        self.assert_exact_starts(grid, self.ladder_with_neighbours(grid)
                                 + multiples)

    def test_window_starts_far_from_zero(self):
        # absolute rounding of the abscissae is ~1% of a gap here
        m = 100001
        grid = SampleGrid(uniform_abscissae(1e6, 1e6 + 1e-3, m), np.zeros(m))
        self.assert_exact_starts(grid, self.ladder_with_neighbours(grid))

    def test_window_starts_geometric_grid(self):
        m = 100001
        grid = SampleGrid(np.geomspace(1e-6, 1.0, m), np.zeros(m))
        assert not grid.uniform
        self.assert_exact_starts(grid, self.ladder_with_neighbours(grid))
        # a guess from the mean step would be off by thousands of points
        mean_guess = np.maximum(
            np.arange(m) - math.floor(0.01 / (grid.span / (m - 1))), 0)
        assert np.max(np.abs(_window_starts(grid, 0.01) - mean_guess)) > 1000

    def test_window_starts_fraction_grids(self):
        uniform = SampleGrid([Fraction(k, 3000) for k in range(3001)],
                             np.zeros(3001))
        assert uniform.uniform
        tiny = Fraction(1, 10 ** 9)
        self.assert_exact_starts(uniform, [
            e for k in (1, 2, 17, 1000, 2999)
            for e in (Fraction(k, 3000) - tiny, Fraction(k, 3000),
                      Fraction(k, 3000) + tiny)] + [0.5])
        ends = sorted({x for pair in catalog.cantor_stage_cover(7).pairs
                       for x in pair})
        cantor = SampleGrid(ends, np.zeros(len(ends)))
        assert not cantor.uniform
        self.assert_exact_starts(cantor, [Fraction(1, 3 ** k) + e
                                          for k in range(7, 0, -1)
                                          for e in (-tiny, 0, tiny)])

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


class TestConstantLagKernel:
    """modulus_on_grid against the per-window kernel, bit for bit, where the
    lag test is decided by rounding: deltas on and next to multiples of the
    grid step (most points are then exceptions) and far from zero."""

    @staticmethod
    def tie_deltas(grid):
        m, span = len(grid), grid.span
        h = span / (m - 1)
        ladder = [d for d, _ in _modulus_curve(grid).samples]
        near = {e for d in ladder for e in (math.nextafter(d, 0.0), d,
                                            math.nextafter(d, math.inf))}
        near |= {min(k * h, span) for k in (1, 2, 3, 7, 1000, m - 1)}
        return sorted(d for d in near if d <= span)

    def assert_matches_reference(self, grid, deltas):
        assert modulus_on_grid(grid, deltas).samples == \
            modulus_per_window(grid, deltas)
        for d in deltas[:4] + deltas[-2:]:
            assert modulus_on_grid(grid, [d]).samples == \
                modulus_per_window(grid, [d])

    @pytest.mark.parametrize("m", [20000, 20001, 25001, 100001])
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (1e6, 1e6 + 1e-3)])
    def test_uniform_ties(self, m, lo, hi):
        rng = np.random.default_rng(m)
        grid = SampleGrid(uniform_abscissae(lo, hi, m), rng.standard_normal(m))
        self.assert_matches_reference(grid, self.tie_deltas(grid))

    @pytest.mark.parametrize("m", [20001, 100001])
    def test_oscillating_values(self, m):
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0))
        grid = sample(f, IntervalSpec(0.0, 1.0), m)
        self.assert_matches_reference(grid, self.tie_deltas(grid))

    def test_geometric_grid(self):
        m = 100001
        grid = SampleGrid(np.geomspace(1e-6, 1.0, m),
                          np.random.default_rng(3).standard_normal(m))
        assert not grid.uniform
        self.assert_matches_reference(grid, self.tie_deltas(grid))

    def test_fraction_grids(self):
        tiny = Fraction(1, 10 ** 9)
        uniform = SampleGrid([Fraction(k, 3000) for k in range(3001)],
                             np.random.default_rng(4).standard_normal(3001))
        self.assert_matches_reference(uniform, [
            e for k in (1, 2, 17, 1000, 2999)
            for e in (Fraction(k, 3000) - tiny, Fraction(k, 3000),
                      Fraction(k, 3000) + tiny)] + [Fraction(1)])
        f = catalog.cantor_on_unit()
        ends = sorted({x for pair in catalog.cantor_stage_cover(7).pairs
                       for x in pair})
        cantor = SampleGrid.from_abscissae(f, ends)
        self.assert_matches_reference(cantor, [Fraction(1, 3 ** k) + e
                                               for k in range(7, 0, -1)
                                               for e in (-tiny, 0, tiny)])

    def test_no_gathers_off_the_grid_step(self, monkeypatch):
        # deltas between multiples of h: the gap extremes settle every lag,
        # so no exact slice test runs and no exception index is built
        m = 25001
        grid = SampleGrid(uniform_abscissae(0.0, 1.0, m),
                          np.random.default_rng(5).standard_normal(m))
        h = grid.span / (m - 1)
        deltas = [(k + 0.5) * h for k in (0, 1, 2, 7, 100, 5000, m - 2)]
        expected = modulus_per_window(grid, deltas)

        def forbidden(*args, **kwargs):
            raise AssertionError("exact path taken")

        monkeypatch.setattr(continuity, "_lag", forbidden)
        monkeypatch.setattr(continuity, "_window_starts", forbidden)
        assert modulus_on_grid(grid, deltas).samples == expected

    @pytest.mark.parametrize("m, exact", [(4001, 2), (25001, 2), (20001, 5)])
    def test_exact_lags_only_at_ties(self, monkeypatch, m, exact):
        # the analysis ladder from 2h to the span ties with the step at 2h
        # and at the span; at m = 20001 its ratio is 10 ** (1 / 8), so
        # 20h, 200h and 2000h tie as well.  A generic ladder never ties.
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0))
        grid = sample(f, IntervalSpec(0.0, 0.93), m)
        calls = []
        lag = continuity._lag
        monkeypatch.setattr(continuity, "_lag",
                            lambda g, d: calls.append(d) or lag(g, d))
        ladder = _modulus_curve(grid).samples
        assert len(ladder) == 33 and len(calls) == exact
        h = 0.93 / (m - 1)
        generic = [2.6 * h * 1.2 ** i for i in range(33)]
        calls.clear()
        assert modulus_on_grid(grid, generic).samples == \
            modulus_per_window(grid, generic)
        assert calls == []

    def test_peak_memory(self):
        # rows are built lazily and dropped below the current lag's row:
        # the peak stays a few arrays of m floats, where a table of every
        # row up to the widest window took 17 rows (about 27 MB)
        m = 100001
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0))
        grid = sample(f, IntervalSpec(0.0, 1.0), m)
        ladder = [d for d, _ in _modulus_curve(grid).samples]
        tracemalloc.start()
        try:
            modulus_on_grid(grid, ladder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * m

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_certified_lag_agrees_with_slice_tests(self, data):
        # uniform grids at magnitudes 1e-300 to 1e300, from zero, straddling
        # it or far from it, some jittered within the 1e-9 uniformity rule;
        # deltas generic and on and next to multiples of the step and of the
        # extreme gaps
        m = data.draw(st.integers(2, 300))
        span = data.draw(st.floats(1.0, 10.0)) * 10.0 ** data.draw(
            st.integers(-300, 299))
        lo = data.draw(st.sampled_from([
            0.0, -span * data.draw(st.floats(0.0, 1.0)),
            span * 10.0 ** data.draw(st.integers(1, 6))]))
        xs = uniform_abscissae(lo, lo + span, m)
        h = span / (m - 1)
        if data.draw(st.booleans()):
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
            xs = xs + rng.uniform(-1e-10, 1e-10, m) * h
        if not np.all(np.diff(xs) > 0):  # far from zero, rounding ties
            return
        grid = SampleGrid(xs, np.zeros(m))
        gaps = np.diff(xs)
        gmin, gmax = float(gaps.min()), float(gaps.max())
        ks = data.draw(st.lists(st.integers(0, m - 1), max_size=6))
        deltas = [data.draw(st.floats(0.0, float(grid.span),
                                      exclude_min=True))
                  for _ in range(4)]
        deltas += [math.nextafter(k * h, side) for k in ks
                   for side in (0.0, math.inf)] + [k * h for k in ks]
        deltas += [e for k in ks for g in (gmin, gmax)
                   for e in (k * g, math.nextafter(k * g, 0.0),
                             math.nextafter(k * g, math.inf))]
        for d in deltas:
            if not 0 < d <= grid.span:
                continue
            lag = continuity._certified_lag(d, gmin, gmax)
            if lag is None:
                continue
            assert 0 <= lag <= m - 1
            assert np.all(xs[lag:] - xs[:m - lag] <= d), d
            assert np.all(xs[lag + 1:] - xs[:m - lag - 1] > d), d
            exact, ends = continuity._lag(grid, d)
            assert exact == lag and len(ends) == 0, d

    def test_subnormal_gaps_take_the_exact_path(self):
        m = 201
        grid = SampleGrid(uniform_abscissae(0.0, 1e-306, m),
                          np.random.default_rng(6).standard_normal(m))
        gaps = np.diff(grid.abscissae)
        assert gaps.max() < sys.float_info.min
        h = float(grid.span) / (m - 1)
        deltas = [2.5 * h, 10 * h, 77.5 * h, float(grid.span)]
        for d in deltas:
            assert continuity._certified_lag(
                d, float(gaps.min()), grid.spacing) is None
        curve = modulus_on_grid(grid, deltas)
        assert curve.samples == modulus_per_window(grid, deltas)
        for d, w in curve.samples:
            assert w == omega_pair_scan(grid, d)

    @pytest.mark.parametrize("xs", [uniform_abscissae(0.0, 1.0, 20001),
                                    np.geomspace(1e-6, 1.0, 20001)])
    def test_lag_and_exceptions(self, xs):
        m = len(xs)
        grid = SampleGrid(xs, np.zeros(m))
        for d in self.tie_deltas(grid) + [2.5 * grid.span / (m - 1)]:
            lag, ends = continuity._lag(grid, d)
            assert np.all(xs[lag:] - xs[:m - lag] <= d)
            if lag < m - 1:
                reach = np.flatnonzero(xs[lag + 1:] - xs[:m - lag - 1] <= d)
                assert np.array_equal(ends, reach + lag + 1)
                assert len(ends) < m - lag - 1  # the largest lag
            else:
                assert len(ends) == 0


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


class TestGlueChain:
    def test_left_anchored(self):
        c = IntervalCollection(((0.0, 0.1), (0.3, 0.4)))
        start, end = _glued_ends(c, Anchor.LEFT)
        assert start == 0.0
        assert end == pytest.approx(0.2, abs=1e-15)

    def test_right_anchored(self):
        c = IntervalCollection(((0.0, 0.1), (0.3, 0.4)))
        start, end = _glued_ends(c, Anchor.RIGHT)
        assert end == 0.4
        assert start == pytest.approx(0.2, abs=1e-15)

    def test_single_pair_identity(self):
        c = IntervalCollection(((0.2, 0.7),))
        for anchor in (Anchor.LEFT, Anchor.RIGHT):
            assert _glued_ends(c, anchor) == (0.2, 0.7)

    def test_empty(self):
        for anchor in (Anchor.LEFT, Anchor.RIGHT):
            with pytest.raises(EmptyCollection):
                _glued_ends(IntervalCollection(()), anchor)

    def test_glued_length_is_total_length(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = random_collection(rng, 0.0, 1.0, 0.3, 5)
            if len(c) == 0:
                continue
            for anchor in (Anchor.LEFT, Anchor.RIGHT):
                start, end = _glued_ends(c, anchor)
                assert abs((end - start) - c.total_length) <= (
                    len(c) * math.ulp(max(abs(start), abs(end))))


class TestWorstSumOracle:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            values = [float(v) for v in rng.normal(size=12)]
            knots = tuple((i / 11.0, v) for i, v in enumerate(values))
            f = FunctionSpec.piecewise_linear(knots)
            grid = SampleGrid.from_abscissae(f, [k[0] for k in knots])
            h = grid.spacing
            for units, kmax in ((3, 2), (5, 3), (7, 12)):
                delta = (units + 1) * h
                rep = worst_ac_sum_oracle(grid, delta * 1.0000001, kmax)
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
        rep = worst_ac_sum_oracle(grid, delta, kmax)
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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_planted_rounding_ties_stay_within_the_band(self, data):
        # a piecewise linear function sampled off its knots: the steps on
        # each linear piece are equal in exact arithmetic and differ only by
        # rounding, so the tie band decides which of them are taken
        inner = data.draw(st.lists(st.floats(0.01, 0.99), max_size=3,
                                   unique=True))
        xs = [0.0] + sorted(inner) + [1.0]
        ys = [float(y) for y in data.draw(st.lists(
            st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0)),
            min_size=len(xs), max_size=len(xs)))]
        f = FunctionSpec.piecewise_linear(tuple(zip(xs, ys)))
        m = data.draw(st.integers(2, 12))
        grid = sample(f, IntervalSpec(0.0, 1.0), m)
        values = grid.values.tolist()
        units = data.draw(st.integers(0, m - 1))
        kmax = data.draw(st.integers(1, 4))
        delta = (units + 1) / (m - 1) * (1.0 + 1e-7)
        rep = worst_ac_sum_oracle(grid, delta, kmax)
        want = brute_force_worst_sum(values, units, kmax)
        steps = np.abs(np.diff(values))
        bound = math.fsum(np.sort(steps)[len(steps) - units:])
        assert rep.step_bound == bound
        # r band steps were taken, each within 2 tau of the one it
        # displaced; 8 eps * bound covers the rounding of the sums
        r = tau = 0
        if rep.method == "OracleBound" and units:
            t = np.sort(steps)[len(steps) - units]
            tau = continuity._tie_tau(values, t)
            r = units - int(np.count_nonzero(steps > t + tau))
        assert want - 2 * r * tau - 8 * sys.float_info.epsilon * bound \
            <= rep.best_sum
        assert rep.best_sum <= bound * (1.0 + continuity.BOUND_SLACK)
        assert len(rep.witness) <= kmax
        assert float(rep.witness.total_length) < delta
        assert ac_sum(f, rep.witness) == rep.best_sum

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_compressed_dp_matches_brute_force(self, data):
        # repeated levels plant runs of zero steps; a steep start and a
        # shallow tail put the winner early and leave many small steps after
        if data.draw(st.booleans()):
            levels = data.draw(st.lists(
                st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0)),
                min_size=1, max_size=4))
            values = [float(level) for level in levels
                      for _ in range(data.draw(st.integers(1, 3)))]
        else:
            steep = [data.draw(st.floats(1.0, 4.0)) * data.draw(
                st.sampled_from([1.0, -1.0]))
                for _ in range(data.draw(st.integers(1, 4)))]
            shallow = data.draw(st.lists(st.floats(-0.5, 0.5), max_size=7))
            values = list(accumulate(steep + shallow, initial=0.0))
        values = (values + [values[-1] + 1.0])[:12]  # brute force stays fast
        m = len(values)
        units = data.draw(st.integers(0, m - 1))
        kmax = min(data.draw(st.integers(1, 4)), units)
        check_dp_pairs(values, units, kmax)

    @settings(max_examples=300, deadline=None)
    @given(values=monotone_values(), data=st.data())
    def test_monotone_dp_matches_brute_force(self, values, data):
        # a monotone input carries one open state, rising or falling
        m = len(values)
        units = data.draw(st.integers(0, m - 1))
        kmax = min(data.draw(st.integers(1, 4)), units)
        check_dp_pairs(values, units, kmax)

    @settings(max_examples=300, deadline=None)
    @given(values=monotone_values(max_size=40), data=st.data())
    def test_monotone_dp_is_sign_symmetric(self, values, data):
        # the falling-only DP on -v makes the rising-only DP's float
        # operations on v, so the pairs agree one for one
        v = np.array(values)
        units = data.draw(st.integers(0, len(v) - 1))
        kmax = min(data.draw(st.integers(1, 6)), units)
        assert _dp_pairs(-v, units, kmax) == _dp_pairs(v, units, kmax)

    @pytest.mark.parametrize("units, kmax", [(97, 32), (286, 4)])
    def test_bench_sized_cantor_dp_is_sign_symmetric(self, units, kmax):
        grid = sample(catalog.cantor_on_unit(), IntervalSpec(0.0, 1.0), 8193)
        v = grid.values
        pairs = _dp_pairs(v, units, kmax)
        assert len(pairs) == kmax
        assert _dp_pairs(-v, units, kmax) == pairs

    def test_touching_falling_then_rising_intervals(self):
        # the only collection summing to 9 falls into the local minimum at
        # index 2 and rises out of it: every close at a point comes before
        # any open there
        values = [0.0, 3.0, 0.0, 3.0]
        assert brute_force_worst_sum(values, 3, 3) == 9.0
        assert _dp_pairs(np.array(values), 3, 3) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("name", ["zigzag", "cantor"])
    def test_dp_work_skipping_keeps_bench_sized_pairs(self, name):
        # the DP called directly on the benchmark's 8193-point worst-sum
        # shapes: Cantor's folds its flat runs, the zigzag has none to fold
        # and fills a history row per grid point.  Through the oracle the
        # zigzag's steps glue and never reach the DP (next test); called
        # directly, the DP reaches the same step bound
        if name == "zigzag":
            f = FunctionSpec.piecewise_linear(
                ((0.0, 0.0), (0.3, 0.6), (0.7, 0.2), (1.0, 0.5)))
        else:
            f = catalog.cantor_on_unit()
        m = 8193
        grid = sample(f, IntervalSpec(0.0, 1.0), m)
        v = grid.values
        for units, kmax in ((97, 32), (286, 4)):
            with mock.patch.object(continuity, "_backtrack",
                                   wraps=continuity._backtrack) as walk:
                pairs = _dp_pairs(v, units, kmax)
            hist, kept = walk.call_args.args[:2]
            assert len(hist) == len(kept)
            if name == "zigzag":
                assert len(kept) == m
                _, _, bound = continuity._step_bound(
                    grid, (units + 1) / (m - 1) * (1.0 + 1e-7))
                assert math.fsum(abs(v[e] - v[s]) for s, e in pairs) == \
                    pytest.approx(bound, rel=1e-12)
            else:
                assert len(kept) < m // 10

    @pytest.mark.parametrize("units, kmax", [(97, 32), (286, 4)])
    def test_bench_sized_zigzag_glues_without_the_dp(self, units, kmax):
        # the zigzag's steepest piece is linear: its steps tie up to
        # rounding, so the top ones form one glued interval at its start
        f = FunctionSpec.piecewise_linear(
            ((0.0, 0.0), (0.3, 0.6), (0.7, 0.2), (1.0, 0.5)))
        m = 8193
        grid = sample(f, IntervalSpec(0.0, 1.0), m)
        delta = (units + 1) / (m - 1) * (1.0 + 1e-7)
        with mock.patch.object(continuity, "_dp_pairs",
                               side_effect=AssertionError("DP ran")):
            rep = worst_ac_sum_oracle(grid, delta, kmax)
        assert rep.method == "OracleBound"
        assert rep.witness.pairs == ((0.0, grid.abscissae[units]),)
        assert rep.best_sum == pytest.approx(rep.step_bound, rel=1e-12)

    @pytest.mark.parametrize("m, kmax", [(501, 32), (2001, 32), (2001, 4)])
    def test_large_offset_keeps_the_largest_steps(self, m, kmax):
        # steps of a few ulps of the 1e6 offset lie far inside
        # 16 eps max|v|; the band is capped at BOUND_SLACK t / 2, so the
        # answer stays at the bound (or the DP's), not at the lowest-index
        # steps, which sum to about a quarter of it
        f = FunctionSpec.polynomial((1e6, 1e-6, 4.5e-6))
        grid = sample(f, IntervalSpec(0.0, 1.0), m)
        v = grid.values
        rep = worst_ac_sum_oracle(grid, 0.25, kmax)
        units = int(0.25 * (m - 1)) - 1
        dp = math.fsum(abs(v[e] - v[s])
                       for s, e in continuity._dp_pairs(v, units,
                                                         min(kmax, units)))
        assert rep.best_sum >= dp * (1.0 - continuity.BOUND_SLACK)
        assert rep.best_sum >= \
            rep.step_bound * (1.0 - continuity.BOUND_SLACK) or \
            rep.method == "OracleDP"
        assert rep.best_sum > 2e-6
        assert ac_sum(f, rep.witness) == rep.best_sum

    def test_dp_memory_within_stated_bound(self):
        # Cantor's top steps form far more runs than intervals allowed, so
        # the DP runs; its history is one byte per state
        f = catalog.cantor_on_unit()
        m, units, kmax = 8193, 100, 32
        grid = sample(f, IntervalSpec(0.0, 1.0), m)
        tracemalloc.start()
        try:
            rep = worst_ac_sum_oracle(grid, (units + 1) / (m - 1), kmax)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.method == "OracleDP"
        assert len(rep.witness) == kmax
        # only points outside the runs of zero steps get a history row
        steps = np.diff(grid.values)
        kept = m - np.count_nonzero((steps[:-1] == 0) & (steps[1:] == 0))
        history = kept * (units + 1) * (kmax + 1)
        assert peak <= history + 16 * 8 * ((units + 1) * (kmax + 1) + m)

    def test_sqrt_single_left_interval(self):
        f = catalog.sqrt_on_unit()
        grid = sample(f, IntervalSpec(0.0, 1.0), 401)
        rep = worst_ac_sum_oracle(grid, 0.25)
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
        rep = worst_ac_sum_oracle(grid, 0.15)
        # 14 grid units of 0.01 fit strictly under 0.15
        assert rep.best_sum == pytest.approx(3.0 * 0.14, abs=1e-12)
        assert float(rep.witness.total_length) == pytest.approx(0.14, abs=1e-12)

    def test_cantor_stage3_cover(self):
        f = catalog.cantor_on_unit()
        xs = [Fraction(i, 27) for i in range(28)]
        grid = SampleGrid.from_abscissae(f, xs)
        rep = worst_ac_sum_oracle(grid, Fraction(1, 3))
        assert rep.best_sum == 1.0
        assert rep.witness.total_length <= Fraction(8, 27)
        assert ac_sum(f, rep.witness) == 1.0
        # the witness's endpoints are the grid's own Fractions
        assert all(type(x) is Fraction and x in xs
                   for pair in rep.witness.pairs for x in pair)

    def test_budget_error(self):
        f = catalog.sqrt_on_unit()
        grid = sample(f, IntervalSpec(0.0, 1.0), 101)
        with pytest.raises(BudgetError):
            worst_ac_sum_oracle(grid, 0.005)

    def test_glued_closed_form_agreement(self):
        f = catalog.sqrt_on_unit()
        piece = ShapePiece(IntervalSpec(0.0, 1.0), Shape.CONCAVE,
                           Monotonicity.INCREASING, 0.0)
        grid = sample(f, IntervalSpec(0.0, 1.0), 401)
        rep = worst_ac_sum_oracle(grid, 0.25)
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
        f, pieces = sqrt_on_unit_pieces()
        cert = ac_certificate(f, pieces, 0.1)
        assert 0.006 <= cert.delta1 <= 0.01
        assert cert.per_piece_budget == pytest.approx(0.1)
        assert cert.delta1 < cert.partition.min_piece_length

    def test_partition_and_budget_follow_the_pieces(self):
        f = catalog.sine_table()
        pieces = monotone_partition(f, 1001).pieces
        cert = ac_certificate(f, pieces, 0.4)
        assert cert.partition == Partition.from_pieces(cert.monotone_pieces)
        assert cert.partition.points[0] == pieces[0].interval.lo
        assert cert.partition.points[-1] == pieces[-1].interval.hi
        assert len(cert.partition.points) == len(pieces) + 1 == 5
        assert cert.per_piece_budget == 0.4 / 4

    def test_affine_delta1(self):
        f = FunctionSpec.affine(3.0, 0.0, IntervalSpec(0.0, 1.0))
        res = detect_partition(sample(f, IntervalSpec(0.0, 1.0), 2001))
        pieces = [p for s in res.shapes for p in refine_to_monotone(f, s)]
        cert = ac_certificate(f, pieces, 0.1)
        # linear modulus: delta1 ~ 0.99 * 0.9 * (0.1 / 3)
        assert 0.023 <= cert.delta1 <= 0.0333

    def test_verify_sqrt_passes(self):
        f, pieces = sqrt_on_unit_pieces()
        cert = ac_certificate(f, pieces, 0.1)
        ver = verify_certificate(f, cert, trials=500, seed=0)
        assert ver.passed
        assert ver.worst_sum < 0.1
        assert ver.worst_sum == pytest.approx(
            ac_sum(f, ver.worst_collection), abs=1e-12)

    def test_fabricated_cantor_certificate_fails(self):
        f = catalog.cantor_on_unit()
        fake = Certificate(
            epsilon=0.5, delta1=(2.0 / 3.0) ** 6,
            monotone_pieces=(ShapePiece(IntervalSpec(0.0, 1.0), Shape.CONCAVE,
                                        Monotonicity.INCREASING, 0.0),))
        ver = verify_certificate(f, fake, trials=500, seed=0)
        assert not ver.passed
        assert ver.worst_sum >= 0.5
        assert ver.worst_sum == pytest.approx(
            ac_sum(f, ver.worst_collection), abs=1e-12)

    def test_subnormal_piece_gets_no_glued_interval(self):
        # 0.999 * 5e-324 rounds back to the piece length, which
        # glued_single_interval refuses; the piece is left to Phi, which
        # bounds the whole window
        f = catalog.sqrt_on_unit()
        cert = Certificate(epsilon=0.5, delta1=0.1, monotone_pieces=tuple(
            ShapePiece(IntervalSpec(lo, hi), Shape.CONCAVE,
                       Monotonicity.INCREASING, 0.0)
            for lo, hi in ((0.0, 5e-324), (5e-324, 1.0))))
        ver = verify_certificate(f, cert, trials=50, seed=0)
        assert ver.passed
        assert ver.worst_sum == ac_sum(f, ver.worst_collection)

    def test_unachievable_on_steep_data(self):
        def certify(knot):
            f = FunctionSpec.piecewise_linear(
                ((0.0, 0.0), (knot, 1.0), (1.0, 1.0000001)))
            res = detect_partition(sample(f, IntervalSpec(0.0, 1.0), 2001))
            assert isinstance(res, PiecewiseConvexPartition)
            pieces = [p for s in res.shapes for p in refine_to_monotone(f, s)]
            return f, ac_certificate(f, pieces, 0.5)

        # one concave increasing piece of initial slope 1e7: the anchored
        # increment reaches the budget 0.5 at 5e-8, however steep that is
        f, cert = certify(1e-7)
        assert cert.delta1 == pytest.approx(0.99 * 0.9 * 0.5 / 1e7, rel=1e-6)
        assert verify_certificate(f, cert, trials=500, seed=0).passed
        # a jump at float resolution: every positive step overshoots
        with pytest.raises(Unachievable):
            certify(5e-324)
        # steps below the resolution at -1e150 leave lo + a == lo: the
        # increment tested is a rounded 0, not a certified one
        f = FunctionSpec.polynomial((0.0, 0.0, 1.0),
                                    IntervalSpec(-1e150, 1e150))
        with pytest.raises(Unachievable, match=r"\[-1e\+150, "):
            ac_certificate(f, monotone_partition(f, 501).pieces, 0.1)

    def test_certificate_bound_is_semantic(self):
        # the certified guarantee: every collection under the budget stays
        # below epsilon, checked against the exact worst case sqrt(delta1)
        f, pieces = sqrt_on_unit_pieces()
        cert = ac_certificate(f, pieces, 0.1)
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


def favourable_end_layouts(piece, left, length):
    """Collections of `parts` equal pairs of total `length`, parts = 2, 4
    and 8, packed against the piece's favourable end with gaps of at most
    half a pair, inside 0.999 of the piece; a layout whose gap would not be
    positive is skipped."""
    lo, hi = piece.interval.lo, piece.interval.hi
    for parts in (2, 4, 8):
        seg = length / parts
        gap = min(seg / 2.0, (0.999 * (hi - lo) - length) / (parts - 1))
        if not gap > 0:
            continue
        pairs = []
        pos = lo if left else hi
        for _ in range(parts):
            pairs.append((pos, pos + seg) if left else (pos - seg, pos))
            pos = pos + (seg + gap) if left else pos - (seg + gap)
        yield IntervalCollection(tuple(sorted(pairs)))


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

        # the glued interval that verify_certificate attacks with dominates
        # the 2-, 4- and 8-part layouts of its length at the same end, so
        # those stay below the budget too
        total = 0.999 * step
        for c in favourable_end_layouts(piece, left, total):
            chk = gluing_bound_check(f, piece, c)
            assert chk.holds, (c, chk)
            assert chk.lhs < budget
            assert chk.rhs == pytest.approx(inc(total), rel=1e-9, abs=tol)


class TestRandomCollection:
    def test_shape(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            c = random_collection(rng, 0.25, 1.5, 0.2, 6)
            assert float(c.total_length) <= 0.2 + 1e-12
            for x, y in c.pairs:
                assert 0.25 <= x < y <= 1.5


def row_trials(seed, lo, hi, d1, trials):
    """The pairs of the random trials as they are defined, decoded and laid
    out one at a time: trial t is row t of one rng.random((trials, 35))."""
    out = []
    for t, row in enumerate(
            np.random.default_rng(seed).random((trials, 35)).tolist()):
        mode = t % 5
        n = 1 + int(8 * row[0]) if mode < 3 else (1, 16)[mode - 3]
        base, scale = (((0.3, 0.69),) * 3 + ((0.9, 0.099), (0.5, 0.45)))[mode]
        total = min(d1 * (base + scale * row[1]), (hi - lo) * 0.5)
        if total <= 0:
            continue
        x, y, keep = continuity._collection_rows(
            np.array([row[2:n + 2]]), np.array([row[n + 2:2 * n + 3]]),
            np.array([total]), lo, hi)
        out.append(tuple(zip(x[keep].tolist(), y[keep].tolist())))
    return out


def drawn_trials(f, seed, lo, hi, d1, trials):
    """(pairs, sum) of every trial that _random_blocks draws, in order."""
    out = []
    for sums, rows in continuity._random_blocks(
            f, np.random.default_rng(seed), lo, hi, d1, trials):
        out += [(continuity._row_pairs(rows, i), s)
                for i, s in enumerate(sums.tolist())]
    return out


def verification(f, lo, hi, d1, trials, seed):
    """The sampled attack's (worst sum, collection) for one convex
    increasing piece on [lo, hi], or the type and message of the error it
    raises."""
    piece = ShapePiece(IntervalSpec(lo, hi), Shape.CONVEX,
                       Monotonicity.INCREASING, 0.0)
    cert = Certificate(epsilon=1.0, delta1=d1, monotone_pieces=(piece,))
    try:
        return continuity._sampled_attack(f, cert, trials, seed)
    except (GeometryError, InsufficientData) as e:
        return type(e), str(e)


ZIGZAG = FunctionSpec.piecewise_linear(
    ((0.0, 0.0), (0.3, 0.6), (0.7, 0.2), (1.0, 0.5)))


class TestRandomAttack:
    """The batched random attack against its trials decoded one by one,
    and the skipped worst-sum oracle against the one that runs.  Kinds
    that ``verify_certificate`` proves by Phi take the sampled attack
    through ``_sampled_attack`` itself, which works on every kind."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), lo=st.floats(-1e3, 1e3),
           span=st.floats(1e-3, 1e3), exponent=st.floats(-15.0, 0.5),
           trials=st.integers(1, 40))
    @example(seed=3, lo=0.0, span=1.0, exponent=0.5, trials=12)
    @example(seed=2, lo=-2.0, span=3.0, exponent=-11.8, trials=20)
    def test_trials_are_rows_of_one_draw(self, seed, lo, span, exponent,
                                         trials):
        # blocks of 1 and 7 trials split the draw at every boundary and
        # give the trials, sums and report of one block; exponent 0.5
        # makes d1 > span, so the total is capped at span * 0.5, and near
        # -12 some or all pairs are no longer than the 1e-13 * span floor
        # and are dropped
        hi = lo + span
        d1 = span * 10.0 ** exponent
        f = FunctionSpec.polynomial((0.25, -1.0, 0.5, 0.125),
                                    IntervalSpec(lo, hi))
        want = row_trials(seed, lo, hi, d1, trials)
        reports = []
        for block in (1, 7, 4096):
            with mock.patch.object(continuity, "VERIFY_BLOCK", block):
                got = drawn_trials(f, seed, lo, hi, d1, trials)
                reports.append(verification(f, lo, hi, d1, trials, seed))
            assert [pairs for pairs, _ in got] == want
            for pairs, s in got:
                assert s.hex() == ac_sum(f, IntervalCollection(pairs)).hex()
        assert reports[0] == reports[1] == reports[2]
        if isinstance(reports[0][0], float):
            assert len({r[0].hex() for r in reports}) == 1

    def test_stream_cases_are_covered(self):
        # the explicit examples above reach every branch of the layout:
        # sixteen pairs, and totals capped at half the span,
        pairs = [p for p, _ in drawn_trials(catalog.sqrt_on_unit(), 3,
                                            0.0, 1.0, 10.0 ** 0.5, 12)]
        assert len(pairs[4]) == 16
        assert all(float(IntervalCollection(p).total_length) <= 0.5 + 1e-12
                   for p in pairs)
        # and sixteen-pair trials with some or all pairs dropped
        f = FunctionSpec.polynomial((0.0, 1.0), IntervalSpec(-2.0, 1.0))
        sixteen = [p for p, _ in drawn_trials(f, 2, -2.0, 1.0,
                                              3.0 * 10.0 ** -11.8, 20)][4::5]
        assert any(len(p) == 0 for p in sixteen)
        assert any(0 < len(p) < 16 for p in sixteen)

    def test_random_collection_is_one_row_of_the_kernel(self):
        # random_collection lays out the stream as the loop it replaced
        rng = np.random.default_rng(11)
        c = random_collection(rng, 0.25, 1.5, 0.2, 6)
        rng = np.random.default_rng(11)
        w, g = rng.random(6), rng.random(7)
        w = (w * (0.2 / w.sum())).tolist()
        g = (g * ((1.25 - 0.2) / g.sum())).tolist()
        pos, pairs = 0.25, []
        for i in range(6):
            pos += g[i]
            x = pos
            pos += w[i]
            pairs.append((x, min(pos, 1.5)))
        assert c.pairs == tuple(pairs)

    @pytest.mark.parametrize("f, epsilon", [
        (catalog.sqrt_on_unit(), 0.4),
        (catalog.sqrt_on_unit(), 0.1),
        (catalog.sqrt_on_unit(), 0.02),
        (catalog.squared(), 0.4),
        (catalog.cubed(), 0.1),
        (catalog.affine_fn(), 0.1),
        (ZIGZAG, 0.1),
        (catalog.sine_table(), 0.4),
        (catalog.cantor_on_unit(), None),
    ], ids=["sqrt-0.4", "sqrt-0.1", "sqrt-0.02", "xsquared", "xcubed",
            "affine", "zigzag", "sine_table", "cantor-fake"])
    def test_oracle_skip_keeps_the_report(self, f, epsilon):
        # on monotone convex or concave pieces the anchored adversarial
        # interval of length 0.999 d1 beats the grid's step bound, whose
        # units * h <= d1 - h, so the oracle is skipped; on Cantor's
        # staircase the bound is far above every sampled collection.  The
        # sampled attack is called directly, as verify_certificate proves
        # sqrt, affine and piecewise linear certificates by Phi instead
        if epsilon is None:
            cert = Certificate(
                epsilon=0.5, delta1=(2.0 / 3.0) ** 6,
                monotone_pieces=(ShapePiece(
                    IntervalSpec(0.0, 1.0), Shape.CONCAVE,
                    Monotonicity.INCREASING, 0.0),))
        else:
            cert = ac_certificate(f, monotone_partition(f, 501).pieces,
                                  epsilon)
        with mock.patch.object(continuity, "worst_ac_sum_oracle",
                               wraps=continuity.worst_ac_sum_oracle) as oracle:
            got = continuity._sampled_attack(f, cert, 500, 1)
        real = continuity._step_bound
        # a step bound of inf makes every oracle call look as if it could win
        with mock.patch.object(continuity, "_step_bound",
                               lambda g, d: real(g, d)[:2] + (math.inf,)), \
                mock.patch.object(continuity, "worst_ac_sum_oracle",
                                  wraps=continuity.worst_ac_sum_oracle) as forced:
            want = continuity._sampled_attack(f, cert, 500, 1)
        assert forced.call_count == 1
        assert oracle.call_count == (epsilon is None)
        assert got == want
        assert got[0].hex() == want[0].hex()
        # the kinds with a closed form are proved by it, and no sampled
        # sum, searched ones included, exceeds it
        lo, hi = cert.partition.points[0], cert.partition.points[-1]
        sup = exact_sup(f, lo, hi, cert.delta1)
        ver = verify_certificate(f, cert, trials=500, seed=1)
        assert ver.method == ("sampled" if sup is None else "exact_sup")
        if sup is not None:
            assert ver.trials == 0 and ver.sup == sup.value
            pairs = len(got[1])
            assert got[0] <= (sup.value + sup.rounding
                              + pairs * pair_rounding(f, lo, hi))

    @pytest.mark.parametrize("f, epsilon", [
        (catalog.sqrt_on_unit(), 0.1), (ZIGZAG, 0.1)], ids=["sqrt", "zigzag"])
    def test_collections_and_bulk_calls_do_not_grow_with_trials(
            self, f, epsilon, monkeypatch):
        # one glued interval per piece, the random winner and the oracle's
        # witness are all that is built; the random trials are evaluated
        # once per block, and nothing else is evaluated in bulk
        cert = ac_certificate(f, monotone_partition(f, 501).pieces, epsilon)
        built = []
        init = IntervalCollection.__post_init__

        def counting(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(IntervalCollection, "__post_init__", counting)
        monkeypatch.setattr(continuity, "VERIFY_BLOCK", 512)
        with mock.patch.object(continuity, "evaluate_many",
                               wraps=continuity.evaluate_many) as bulk:
            continuity._sampled_attack(f, cert, 2000, 0)
        assert len(built) <= len(cert.monotone_pieces) + 2
        assert bulk.call_count == 4

    def test_block_memory_within_stated_bound(self):
        # under 3 KB per trial of a block
        f = catalog.sqrt_on_unit()
        trials = continuity.VERIFY_BLOCK
        tracemalloc.start()
        try:
            for _ in continuity._random_blocks(
                    f, np.random.default_rng(0), 0.0, 1.0, 0.05, trials):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3072 * trials


# ---------------------------------------------------------------------------
# The exact supremum Phi(d)
# ---------------------------------------------------------------------------

EPS = sys.float_info.epsilon


def pair_rounding(f, lo, hi):
    """exact_sup's stated bound on how far one pair's increment of evaluate()
    values lies from the exact function's: 16 * eps * Y, or
    (4 n + 16) * eps * Y for a polynomial of degree n >= 2."""
    if f.kind == "sqrt":
        scale = math.sqrt(hi)
    elif f.kind == "poly":
        reach = max(abs(lo), abs(hi))
        scale = sum(abs(c) * reach**k for k, c in enumerate(f.coefficients))
        degree = len(f.coefficients) - 1
        if degree >= 2:  # Horner's rounding, twice
            return (4 * degree + 16) * EPS * scale
    else:
        kx = np.array([x for x, _ in f.knots])
        i = max(int(np.searchsorted(kx, lo, side="right")) - 1, 0)
        j = int(np.searchsorted(kx, hi, side="left"))
        scale = max(abs(y) for _, y in f.knots[i:j + 1])
    return 16 * EPS * scale


@st.composite
def pwl_windows(draw, ties=False):
    """(piecewise linear f, lo, hi) with knots in [0, 1], a window inside
    their span, and sub-grid spikes: a knot pair much closer together than
    the others, with a large rise between them.  With ties, the knots lie
    on one line up to rounding, so their slopes tie up to rounding."""
    n = draw(st.integers(2, 8))
    xs = sorted({k / 10**6 for k in draw(st.lists(
        st.integers(0, 10**6), min_size=n, max_size=n))} | {0.0, 1.0})
    if ties:
        a, b = draw(st.floats(-10.0, 10.0)), draw(st.floats(-1.0, 1.0))
        ys = [a * x + b for x in xs]
    else:
        ys = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(xs),
                           max_size=len(xs)))
    knots = list(zip(xs, ys))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.floats(0.01, 0.98))
        width = draw(st.floats(1e-9, 1e-4))
        height = draw(st.floats(-100.0, 100.0))
        if all(not at - 1e-3 < x < at + 2e-3 for x, _ in knots):
            knots += [(at, 0.0), (at + width, height),
                      (at + 2 * width, 0.0)]
    knots.sort()
    f = FunctionSpec.piecewise_linear(tuple(knots))
    u, v = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                max_size=2)))
    if not v - u > 1e-6:
        u, v = 0.0, 1.0
    return f, u, v


@st.composite
def poly_windows(draw, degrees=(2, 5)):
    """(polynomial f, lo, hi) of degree 2 to 5 with coefficients in
    [-10, 10], nonzero leading one, on a window of length 1e-3 to 10 at an
    offset of up to 1e3 from zero."""
    n = draw(st.integers(*degrees))
    coefficients = draw(st.lists(st.floats(-10.0, 10.0), min_size=n,
                                 max_size=n))
    lead = draw(st.floats(0.01, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
    lo = draw(st.sampled_from([0.0, -1.0, draw(st.floats(-1e3, 1e3))]))
    hi = lo + draw(st.floats(1e-3, 10.0))
    f = FunctionSpec.polynomial(tuple(coefficients) + (lead,),
                                IntervalSpec(lo, hi))
    return f, lo, hi


def quadratic_phi(f, lo, hi, d):
    """Phi(d) of a quadratic in exact rationals.  |p'| = L |x - v| with
    v = -c1 / (2 c2) and L = 2 |c2|, so on each side of v the window is
    an interval [a, b] of distances u = |x - v| of density L u; the
    steepest measure d is every u above a level t, and its integral is
    the sum of L (b**2 - max(a, t)**2) / 2."""
    c0, c1, c2 = map(Fraction, f.coefficients)
    lo, hi, d = Fraction(lo), Fraction(hi), Fraction(d)
    v, slope = -c1 / (2 * c2), 2 * abs(c2)
    sides = [(a, b) for a, b in ((max(v - hi, 0), v - lo),
                                 (max(lo - v, 0), hi - v)) if a < b]

    def measure(t):
        return sum(b - max(a, t) for a, b in sides if b > t)

    levels = sorted({u for side in sides for u in side}, reverse=True)
    t = levels[-1]
    for top, below in zip(levels, levels[1:]):
        if measure(below) >= d:  # measure is linear on [below, top]
            count = sum(1 for a, b in sides if a <= below and top <= b)
            t = top - (d - measure(top)) / count
            break
    return sum(slope * (b * b - max(a, t) ** 2) / 2
               for a, b in sides if b > t)


@st.composite
def sqrt_windows(draw):
    lo = draw(st.sampled_from([0.0, draw(st.floats(0.0, 100.0))]))
    return FunctionSpec.sqrt(IntervalSpec(0.0, 200.0)), lo, \
        lo + draw(st.floats(1e-3, 100.0))


class TestExactSup:
    """Phi against every attack that builds collections, against an exact
    rational reference, and on the repros that sampling missed."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(pwl_windows(), sqrt_windows(), poly_windows()),
           st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
    def test_no_collection_exceeds_phi(self, case, share, seed):
        f, lo, hi = case
        d = share * (hi - lo)
        sup = exact_sup(f, lo, hi, d)
        per_pair = pair_rounding(f, lo, hi)

        def below(total, pairs):
            return total <= sup.value + sup.rounding + pairs * per_pair

        for sums, rows in continuity._random_blocks(
                f, np.random.default_rng(seed), lo, hi, d, 200):
            for i, s in enumerate(sums.tolist()):
                assert below(s, len(continuity._row_pairs(rows, i))), (s, sup)
        window = IntervalSpec(lo, hi)
        for shape in (Shape.CONVEX, Shape.CONCAVE):  # right, left anchor
            piece = ShapePiece(window, shape, Monotonicity.INCREASING, 0.0)
            if 0 < 0.999 * d < hi - lo:
                rep = glued_single_interval(f, piece, 0.999 * d)
                assert below(rep.best_sum, 1), (rep, sup)
        grid = sample(f, window, 257)
        if grid.uniform and d > grid.spacing:
            rep = worst_ac_sum_oracle(grid, d, 8)
            assert below(rep.best_sum, len(rep.witness)), (rep, sup)
        # and the collection that Phi takes comes within the rounding of it
        witness = continuity._sup_witness(f, lo, hi, d)
        total = witness.total_length
        assert total < d
        at = exact_sup(f, lo, hi, total)
        assert ac_sum(f, witness) >= (at.value - at.rounding
                                      - len(witness) * per_pair), (witness, at)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(pwl_windows(), pwl_windows(ties=True)),
           st.floats(0.0, 1.2), st.integers(0, 3))
    def test_float_phi_matches_the_rational_knapsack(self, case, share, cut):
        f, lo, hi = case
        d = share * (hi - lo)
        if cut:  # a budget that ends where some segments end, in float
            lengths = np.sort(np.diff(continuity._segments(f, lo, hi)[1]))
            d = float(np.cumsum(lengths)[min(cut, len(lengths)) - 1])
        sup = exact_sup(f, lo, hi, d)
        exact = _sup_fraction(f, lo, hi, d)
        assert abs(Fraction(sup.value) - exact) <= Fraction(sup.rounding)
        # the rational decision agrees with the reference on both sides
        for epsilon in (sup.value, math.nextafter(sup.value, math.inf)):
            if epsilon > 0:
                assert _sup_below(f, lo, hi, d, epsilon, sup) == (
                    exact < Fraction(epsilon))

    @settings(max_examples=150, deadline=None)
    @given(poly_windows(degrees=(2, 2)), st.floats(0.0, 1.2))
    def test_quadratic_bracket_holds_the_rational_phi(self, case, share):
        f, lo, hi = case
        d = share * (hi - lo)
        sup = exact_sup(f, lo, hi, d)
        exact = quadratic_phi(f, lo, hi, d)
        assert abs(Fraction(sup.value) - exact) <= Fraction(sup.rounding)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(pwl_windows(), pwl_windows(ties=True), sqrt_windows(),
                     poly_windows()),
           st.floats(1e-6, 10.0))
    def test_budget_is_the_largest_proved_length(self, case, epsilon):
        f, lo, hi = case
        d = exact_budget(f, lo, hi, epsilon)
        sup = exact_sup(f, lo, hi, d)
        assert 0.0 <= d <= hi - lo
        assert sup.value + sup.rounding < epsilon
        if d < hi - lo:  # rounded down by no more than a few roundings
            assert epsilon - sup.value <= 16 * sup.rounding

    @settings(max_examples=25, deadline=None)
    @given(pwl_windows(), st.sampled_from([0.05, 0.1, 0.5]))
    def test_verified_pwl_certificates_are_sound(self, case, epsilon):
        # detection may miss a sub-grid spike and certify pieces it never
        # saw; a certificate verified anyway has Phi(delta1) < epsilon in
        # exact arithmetic
        f, lo, hi = case
        f = FunctionSpec.piecewise_linear(f.knots, IntervalSpec(lo, hi))
        result = monotone_partition(f, 65)
        if not result.stable:
            return
        try:
            cert = ac_certificate(f, result.pieces, epsilon)
        except Unachievable:
            return
        ver = verify_certificate(f, cert, trials=20, seed=0)
        assert ver.method == "exact_sup"
        exact = _sup_fraction(f, lo, hi, cert.delta1)
        assert ver.passed == (exact < epsilon and ver.worst_sum < epsilon)

    def test_sqrt_straddle_is_decided_in_rationals(self):
        # sqrt(0.01) rounds to 0.1, but the float 0.01 lies above 1/100 by
        # less than the float 0.1 lies above 1/10
        f = catalog.sqrt_on_unit()
        sup = exact_sup(f, 0.0, 1.0, 0.01)
        assert sup.value == 0.1
        assert _sup_below(f, 0.0, 1.0, 0.01, 0.1, sup)
        assert not _sup_below(f, 0.0, 1.0, 0.01, math.nextafter(0.1, 0), sup)
        # and the affine map 0.1 * x reaches the float 0.1 exactly at d = 1
        f = FunctionSpec.affine(0.1, 0.0, IntervalSpec(0.0, 1.0))
        sup = exact_sup(f, 0.0, 1.0, 1.0)
        assert not _sup_below(f, 0.0, 1.0, 1.0, 0.1, sup)
        assert _sup_below(f, 0.0, 1.0, 1.0, math.nextafter(0.1, 1), sup)

    def test_spike_between_grid_points_is_not_verified(self):
        # the grids see one increasing affine piece, whose glued interval
        # stays below epsilon; Phi takes both sides of the spike first
        f = FunctionSpec.piecewise_linear(
            ((0.0, 0.0), (0.300011, 0.300011), (0.300013, 5.0),
             (0.300015, 0.300015), (1.0, 1.0)))
        cert = ac_certificate(f, monotone_partition(f, 4001).pieces, 0.1)
        ver = verify_certificate(f, cert, trials=2000, seed=0)
        assert (ver.method, ver.trials, ver.passed) == ("exact_sup", 0, False)
        assert ver.sup == pytest.approx(9.489, abs=1e-3)
        assert exact_budget(f, 0.0, 1.0, 0.1) < 1e-7 < cert.delta1
        # the glued interval misses the spike; the report shows the
        # collection that Phi takes: both sides of the spike and the rest
        # of delta1 on the slope-1 segments
        assert continuity._glued_attack(f, cert)[0] < 0.1
        assert ver.worst_collection.total_length < cert.delta1
        assert ver.worst_sum == ac_sum(f, ver.worst_collection)
        assert ver.worst_sum == pytest.approx(ver.sup, rel=1e-12)

    @pytest.mark.parametrize("f", [
        catalog.cantor_on_unit(),
        FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0))],
        ids=["cantor", "x2sininv"])
    def test_other_kinds_have_no_closed_form(self, f):
        lo, hi = f.domain.lo, f.domain.hi
        assert exact_sup(f, lo, hi, 0.1) is None
        assert exact_budget(f, lo, hi, 0.1) is None

    @pytest.mark.parametrize("f, epsilon, phi, top", [
        (catalog.squared(), 0.4, lambda d: 20 * d - d * d, 10.0),
        (catalog.cubed(), 0.1, lambda d: 2 - 2 * (1 - d / 2) ** 3, 1.0)],
        ids=["squared", "cubed"])
    def test_polynomials_have_a_bracket(self, f, epsilon, phi, top):
        # x^2 on [0, 10] is steepest at 10 and x^3 on [-1, 1] at both
        # ends, so Phi is known; the bracket holds it, is narrow, and
        # proves the paper's certificate without a trial
        lo, hi = f.domain.lo, f.domain.hi
        for d in (1e-3, 0.0179, 0.5, hi - lo):
            sup = exact_sup(f, lo, hi, d)
            assert abs(sup.value - phi(d)) <= sup.rounding
            assert sup.rounding <= 0.01 * top * d  # about r * M2 * d
        budget = exact_budget(f, lo, hi, epsilon)
        assert phi(budget) < epsilon < phi(1.01 * budget)
        cert = ac_certificate(f, monotone_partition(f, 501).pieces, epsilon)
        assert budget > cert.delta1
        with mock.patch.object(continuity, "_random_blocks") as blocks:
            ver = verify_certificate(f, cert, trials=2000, seed=0)
        assert blocks.call_count == 0
        assert (ver.method, ver.trials, ver.passed) == ("exact_sup", 0, True)
        assert ver.worst_sum < ver.sup < epsilon

    def test_open_bracket_takes_the_sampled_attack(self):
        # epsilon at Phi(delta1) itself: every refinement of the cells
        # leaves the bracket straddling it, and the certificate is
        # attacked instead; refined brackets still hold Phi
        f = catalog.squared()
        d = 0.0179
        phi = 20 * d - d * d
        for cells in (1024, 4096, 65536):
            sup = continuity._bracket(
                continuity._knapsacks(f, 0.0, 10.0, cells), d)
            assert abs(sup.value - phi) <= sup.rounding
        piece = ShapePiece(IntervalSpec(0.0, 10.0), Shape.CONVEX,
                           Monotonicity.INCREASING, 0.0)
        cert = Certificate(epsilon=phi, delta1=d, monotone_pieces=(piece,))
        sup = exact_sup(f, 0.0, 10.0, d)
        with mock.patch.object(continuity, "_knapsacks",
                               wraps=continuity._knapsacks) as knapsacks:
            assert _sup_below(f, 0.0, 10.0, d, phi, sup) is None
        assert [c.args[3] for c in knapsacks.call_args_list] == [
            4096, 16384, 65536]
        ver = verify_certificate(f, cert, trials=50, seed=0)
        assert (ver.method, ver.trials, ver.sup) == ("sampled", 50, None)
        assert ver.passed

    def test_overflowing_slope_has_no_closed_form(self):
        # a rise of 1 over a subnormal run: the slope overflows, and the
        # certificate is attacked as for a kind without a closed form
        f = FunctionSpec.piecewise_linear(
            ((0.0, 0.0), (5e-324, 1.0), (1.0, 1.0)))
        assert exact_sup(f, 0.0, 1.0, 0.5) is None
        assert exact_budget(f, 0.0, 1.0, 0.5) is None
        cert = Certificate(epsilon=2.0, delta1=0.5, monotone_pieces=(
            ShapePiece(IntervalSpec(0.0, 1.0), Shape.CONCAVE,
                       Monotonicity.INCREASING, 0.0),))
        ver = verify_certificate(f, cert, trials=50, seed=0)
        assert (ver.method, ver.trials, ver.sup) == ("sampled", 50, None)

    def test_sine_table_window(self):
        # |cos| rearranged: the steepest length d sits around 0, pi and
        # 2 pi, and Phi(d) = 4 sin(d / 4) up to the table's knot spacing
        f = catalog.sine_table()
        sup = exact_sup(f, 0.0, 2 * math.pi, 0.4)
        assert sup.value == pytest.approx(4 * math.sin(0.1), rel=1e-6)
        assert sup.rounding < 1e-12
