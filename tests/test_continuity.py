"""Tests for the modulus, gluing, worst-sum search and certificates."""

import functools
import math
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contana import (
    BudgetError,
    Certificate,
    Direction,
    FunctionSpec,
    GeometryError,
    InsufficientData,
    IntervalCollection,
    IntervalSpec,
    Monotonicity,
    Partition,
    PiecewiseConvexPartition,
    SampleGrid,
    Shape,
    ShapePiece,
    Unachievable,
    ac_certificate,
    ac_sum,
    detect_partition,
    evaluate,
    exact_phi,
    monotone_partition,
    gluing_bound_check,
    modulus_on_grid,
    parse_function,
    random_collection,
    refine_to_monotone,
    sample,
    split_collection_at_partition,
    verify_certificate,
    worst_ac_sum_oracle,
)
from contana import catalog, continuity, function_model
from contana.continuity import (
    _dp_pairs,
    _glued_interval,
    _window_starts,
)
from contana.function_model import uniform_abscissae
from contana.report_cli import _modulus_curve
from contana.suite_checks import _direction_cases, _single_piece
from rational import rational_phi


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


def bridged_runs(values, units, kmax):
    """The bridged answer, step by step: when fewer than `units` steps are
    nonzero and their runs exceed kmax, bridge the len(runs) - kmax
    shortest gaps between neighbouring runs of one sign, lowest index first
    among equal lengths; None when there are too few such gaps, or they
    and the nonzero steps do not fit in `units`."""
    steps = [b - a for a, b in zip(values, values[1:])]
    nonzero = sum(1 for s in steps if s != 0)
    runs = top_step_runs(values, units)
    if nonzero >= units or len(runs) <= kmax:
        return None
    gaps = sorted((runs[i + 1][0] - runs[i][1], i)
                  for i in range(len(runs) - 1)
                  if (steps[runs[i][0]] > 0) == (steps[runs[i + 1][0]] > 0))
    need = len(runs) - kmax
    if len(gaps) < need or nonzero + sum(g for g, _ in gaps[:need]) > units:
        return None
    bridged = {i for _, i in gaps[:need]}
    merged = [list(runs[0])]
    for i, (s, e) in enumerate(runs[1:]):
        if i in bridged:
            merged[-1][1] = e
        else:
            merged.append([s, e])
    return [tuple(pair) for pair in merged]


@st.composite
def zero_run_values(draw):
    """Values with integer steps, exact in floats, at most 90 of them: runs
    of zero steps between runs of nonzero ones, all of one sign (monotone)
    or of a sign drawn per run."""
    monotone = draw(st.booleans())
    sign = draw(st.sampled_from([1, -1]))
    steps = []
    for zeros, n in draw(st.lists(st.tuples(st.integers(0, 6),
                                            st.integers(1, 4)),
                                  min_size=3, max_size=16)):
        s = sign if monotone else draw(st.sampled_from([1, -1]))
        steps += [0] * zeros + [s * draw(st.integers(1, 3)) for _ in range(n)]
    steps += [0] * draw(st.integers(0, 3))
    offset = draw(st.sampled_from([0.0, -7.0, 1e6]))
    return list(accumulate(map(float, steps[:89]), initial=offset))


@st.composite
def grids_with_deltas(draw):
    """(grid, ascending deltas): uniform float, near-uniform float jittered
    by a few ulps, nonuniform float, skewed float (a dense run, then wide
    gaps, so that a guess j - floor(delta / mean step) is off by many
    points) or integer abscissae, whose distances are exact.  Deltas mix
    pair distances, their float neighbours and arbitrary lengths; the first
    pair may carry the extreme values, so that omega changes exactly when
    the window boundary crosses it."""
    kind = draw(st.sampled_from(
        ["uniform", "jittered", "nonuniform", "skewed", "integer"]))
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
        gaps = draw(st.lists(st.integers(1, 180), min_size=m - 1,
                             max_size=m - 1))
        xs = list(accumulate(map(float, gaps), initial=20.0 * lo))
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                    st.integers(0, m - 1)), max_size=6))
    pairs = [(min(i, j), max(i, j)) for i, j in pairs]
    if pairs and pairs[0][0] < pairs[0][1] and draw(st.booleans()):
        i, j = pairs[0]
        values[i], values[j] = min(values) - 1.0, max(values) + 1.0
    deltas = set()
    for i, j in pairs:
        d = xs[j] - xs[i]
        # one ulp either side: where x_j - delta and x_j - x_i round apart
        deltas.update((d, math.nextafter(d, 0.0), math.nextafter(d, math.inf)))
    span = xs[-1] - xs[0]
    for share in draw(st.lists(st.integers(1, 1000), max_size=4)):
        deltas.add(span * share / 1000)
    deltas = sorted(d for d in deltas if 0 < d <= span) or [span]
    grid = SampleGrid(xs, values)
    if kind in ("uniform", "jittered", "skewed"):
        assert grid.uniform == (kind != "skewed")
    return grid, deltas


def cantor_brick_grid(k):
    """The ends a / 3**k of the Cantor stage-k bricks as the integers a,
    with the staircase's values at the exact ends: every pair distance and
    every delta 3**j is an exact float."""
    f = catalog.cantor_on_unit()
    ends = sorted({x for pair in catalog.cantor_stage_cover(k).pairs
                   for x in pair})
    return SampleGrid([float(x * 3 ** k) for x in ends],
                      [evaluate(f, x) for x in ends])


def sqrt_on_unit_pieces():
    f = catalog.sqrt_on_unit()
    res = detect_partition(sample(f, IntervalSpec(0.0, 1.0), 2001))
    pieces = [p for s in res.shapes for p in refine_to_monotone(f, s)]
    return f, tuple(pieces)


class TestPhiWithoutAnswer:
    @pytest.mark.parametrize("answer", [
        # epsilon equal to the rise: Phi(d) < epsilon cannot be decided
        lambda: exact_phi(catalog.cantor_on_unit(), 0.0, 1.0).below(0.5, 1.0),
        # a slope bound that overflows: no Phi
        lambda: exact_phi(FunctionSpec.polynomial((0.0, 0.0, 1e308)),
                          0.0, 10.0),
    ], ids=["cantor-epsilon-at-the-rise", "poly-slope-overflows"])
    def test_none(self, answer):
        assert answer() is None


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
        for (d, w) in curve:
            assert w == omega_pair_scan(grid, d)
        assert curve[-1][1] == 0.5

    def test_affine_linear_law(self):
        f = FunctionSpec.affine(2.0, 0.0, IntervalSpec(0.0, 1.0))
        curve = modulus_on_grid(sample(f, IntervalSpec(0.0, 1.0), 101), [0.1])
        assert curve[0][1] == pytest.approx(0.2, abs=1e-12)

    def test_cantor_self_similarity_exact(self):
        grid = cantor_brick_grid(6)
        deltas = [3.0 ** (6 - k) for k in range(6, 0, -1)]
        curve = modulus_on_grid(grid, deltas)
        for (d, w), k in zip(curve, range(6, 0, -1)):
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
        omegas = [w for _, w in curve]
        assert all(b >= a for a, b in zip(omegas, omegas[1:]))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_pair_scan(self, data):
        grid, deltas = data.draw(grids_with_deltas())
        curve = modulus_on_grid(grid, deltas)
        assert [d for d, _ in curve] == list(deltas)
        running = 0.0
        for d, w in curve:
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
            s = _window_starts(grid, d, np.arange(len(xs)))
            assert np.all(xs - xs[s] <= d), d
            inner = s > 0
            assert np.all(xs[inner] - xs[s[inner] - 1] > d), d
            # the index-subset form finds the same starts
            for ends in (subset, np.arange(len(xs) - 1, len(xs)),
                         np.empty(0, dtype=np.intp)):
                assert np.array_equal(_window_starts(grid, d, ends), s[ends]), d

    @staticmethod
    def ladder_with_neighbours(grid):
        ladder = [d for d, _ in _modulus_curve(grid)]
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
        starts = _window_starts(grid, 0.01, np.arange(m))
        assert np.max(np.abs(starts - mean_guess)) > 1000

    def test_window_starts_integer_grids(self):
        # integer abscissae: the deltas k tie exactly with pair distances
        uniform = SampleGrid(np.arange(3001.0), np.zeros(3001))
        assert uniform.uniform
        self.assert_exact_starts(uniform, [
            k + e for k in (1, 2, 17, 1000, 2999)
            for e in (-1e-6, 0.0, 1e-6)] + [1500.0])
        cantor = cantor_brick_grid(7)
        assert not cantor.uniform
        self.assert_exact_starts(cantor, [3.0 ** (7 - k) + e
                                          for k in range(7, 0, -1)
                                          for e in (-1e-6, 0.0, 1e-6)])

    def test_large_grid_matches_pair_scan(self):
        # windows of a few dozen points on a 24001-point oscillating grid
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0))
        grid = sample(f, IntervalSpec(1e-3, 1.0), 24001)
        h = float(grid.spacing)
        deltas = [h, 7.5 * h, 30 * h]
        curve = modulus_on_grid(grid, deltas)
        running = 0.0
        for d, w in curve:
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
        ladder = [d for d, _ in _modulus_curve(grid)]
        near = {e for d in ladder for e in (math.nextafter(d, 0.0), d,
                                            math.nextafter(d, math.inf))}
        near |= {min(k * h, span) for k in (1, 2, 3, 7, 1000, m - 1)}
        return sorted(d for d in near if d <= span)

    def assert_matches_reference(self, grid, deltas):
        assert modulus_on_grid(grid, deltas) == \
            modulus_per_window(grid, deltas)
        for d in deltas[:4] + deltas[-2:]:
            assert modulus_on_grid(grid, [d]) == \
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

    def test_integer_grids(self):
        # integer abscissae: the deltas k tie exactly with pair distances
        uniform = SampleGrid(np.arange(3001.0),
                             np.random.default_rng(4).standard_normal(3001))
        self.assert_matches_reference(uniform, [
            k + e for k in (1, 2, 17, 1000, 2999)
            for e in (-1e-6, 0.0, 1e-6)] + [3000.0])
        self.assert_matches_reference(cantor_brick_grid(7), [
            3.0 ** (7 - k) + e for k in range(7, 0, -1)
            for e in (-1e-6, 0.0, 1e-6)])

    @staticmethod
    def monotone_grid(kind):
        rng = np.random.default_rng(8)
        m = 20001
        xs = uniform_abscissae(0.0, 1.0, m)
        rising = np.sort(rng.standard_normal(m))
        if kind == "rising":
            return SampleGrid(xs, rising)
        if kind == "falling":
            return SampleGrid(xs, -rising)
        if kind == "signed-zeros":  # constant: 0.0 == -0.0
            return SampleGrid(xs, np.where(rng.random(m) < 0.5, 0.0, -0.0))
        if kind == "rising-signed-zeros":
            return SampleGrid(xs, np.where(
                abs(rising) < 0.5, np.where(rng.random(m) < 0.5, 0.0, -0.0),
                rising))
        if kind == "cantor":  # flat on the removed middle thirds
            return sample(catalog.cantor_on_unit(), IntervalSpec(0.0, 1.0), m)
        if kind in TestConstantLagKernel.SAMPLED:
            f, lo, hi, m = TestConstantLagKernel.SAMPLED[kind]
            return sample(f, IntervalSpec(lo, hi), m)
        if kind == "sqrt-geometric":  # exceptions from exact slice tests
            xs = np.geomspace(1e-6, 1.0, m)
            return SampleGrid(xs, np.sqrt(xs))
        if kind.startswith("tied-"):
            # whole-number steps (i - c + 1/2)**2 sum exactly: they fall,
            # then rise, their two smallest tied; a second tie in the
            # falling run leaves the end windows
            steps = (np.arange(m - 1.0) - m // 3 + 0.5) ** 2
            if kind == "tied-falling":
                steps[m // 6 + 1] = steps[m // 6]
            return SampleGrid(xs, np.concatenate(([0.0], np.cumsum(steps))))
        dipped = rising.copy()  # rising but for one value one ulp down
        dipped[m // 3] = np.nextafter(dipped[m // 3 - 1], -np.inf)
        return SampleGrid(xs, dipped)

    #: sampled kinds: the function, its window and the grid size
    SAMPLED = {
        "sqrt": (FunctionSpec.sqrt(), 0.0, 1.0, 20001),
        "x-squared": (FunctionSpec.polynomial((0, 0, 1)), 0.0, 1.0, 20001),
        "x-cubed": (FunctionSpec.polynomial((0, 0, 0, 1)), -1.0, 1.0, 20001),
        "x-cubed-skew": (FunctionSpec.polynomial((0, 0, 0, 1)), -0.95, 1.05,
                         4001),
        "falling-convex": (FunctionSpec.polynomial((1, -2, 1)), 0.0, 1.0,
                           20001),
        "two-points": (FunctionSpec.sqrt(), 0.0, 1.0, 2),
        "three-points": (FunctionSpec.sqrt(), 0.0, 1.0, 3),
        # steps tied by rounding: the monotone scan
        "affine": (FunctionSpec.affine(2.0, 0.5), 0.0, 1.0, 20001),
        "sqrt-far": (FunctionSpec.sqrt(), 1e6, 1e6 + 1e-3, 20001),
    }

    #: monotone values whose steps fall, then rise: the end windows
    VALLEYS = ["sqrt", "x-squared", "x-cubed", "x-cubed-skew",
               "falling-convex", "sqrt-geometric", "tied-bottom",
               "two-points", "three-points"]

    #: the kinds that scan every window, monotone or not
    SCANNED = ["rising", "falling", "signed-zeros", "rising-signed-zeros",
               "cantor", "affine", "sqrt-far", "tied-falling", "one-ulp-dip"]

    @pytest.mark.parametrize("kind", VALLEYS + SCANNED)
    def test_monotone_values(self, kind):
        # monotone values take their block extrema from the block ends
        grid = self.monotone_grid(kind)
        self.assert_matches_reference(grid, self.tie_deltas(grid))

    @pytest.mark.parametrize("kind", ["rising", "falling", "signed-zeros",
                                      "cantor", "one-ulp-dip"])
    def test_monotone_values_build_no_rows(self, monkeypatch, kind):
        # monotone values answer each delta by end differences: no row of
        # block extrema is read, and past one scratch array the kernel
        # allocates less than m floats, so none is built (a generic ladder,
        # so that no exception index is built either).  One value an ulp
        # down makes the values non-monotone: they take the rows.
        grid = self.monotone_grid(kind)
        m = len(grid)
        generic = [2.6 * grid.span / (m - 1) * 1.2 ** i for i in range(33)]
        rows = []
        widest = continuity._widest_range
        monkeypatch.setattr(continuity, "_widest_range",
                            lambda row, *a: rows.append(row) or widest(row, *a))
        tracemalloc.start()
        try:
            curve = modulus_on_grid(grid, generic)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if kind == "one-ulp-dip":
            shared = {np.shares_memory(a, grid.values)
                      for row in rows for a in row}
            assert shared == {False} and peak > 3 * 8 * m
        else:
            assert rows == [] and peak < 2 * 8 * m
        assert curve == modulus_per_window(grid, generic)

    @pytest.mark.parametrize("kind", VALLEYS + SCANNED)
    def test_valley_steps_read_the_end_windows(self, monkeypatch, kind):
        # steps that fall, then rise, never scan a delta's windows: each is
        # read at its two ends (Lemma 1), exceptions aside; every other
        # grid scans them once per delta at least
        grid = self.monotone_grid(kind)
        deltas = self.tie_deltas(grid)
        scans = []
        largest = continuity._largest_difference
        monkeypatch.setattr(continuity, "_largest_difference",
                            lambda *a: scans.append(len(a[0])) or largest(*a))
        curve = modulus_on_grid(grid, deltas)
        if kind in self.VALLEYS:
            assert scans == []
        else:
            assert len(scans) >= len(deltas)
        assert curve == modulus_per_window(grid, deltas)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_valley_steps_match_pair_scan(self, data):
        # random steps that fall, then rise, of either trend, on uniform or
        # random abscissae.  Whole-number steps sum exactly, so the grid's
        # float steps are the drawn ones and read the end windows; scaled
        # and shifted values round, may tie, and take whichever path
        # ``_trend`` finds
        m = data.draw(st.integers(2, 2000))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        bottom = data.draw(st.integers(0, m - 2))
        rises = rng.integers(1, 1000, m - 1).astype(float)
        steps = np.empty(m - 1)
        steps[bottom:] = np.cumsum(rises[bottom:])
        steps[:bottom] = steps[bottom] + np.cumsum(rises[:bottom][::-1])[::-1]
        if bottom + 2 < m and data.draw(st.booleans()):
            steps[bottom + 1] = steps[bottom]  # a tied bottom
        trend = data.draw(st.sampled_from([1, -1]))
        vs = trend * np.concatenate(([0.0], np.cumsum(steps)))
        exact = data.draw(st.booleans())
        if not exact:
            vs = vs * data.draw(st.floats(1e-9, 1e3)) + data.draw(
                st.sampled_from([0.0, 1.0, -1e3, 1e6]))
        if data.draw(st.booleans()):
            xs = uniform_abscissae(0.0, data.draw(st.floats(1e-3, 10.0)), m)
        else:
            xs = np.cumsum(rng.uniform(1e-3, 1.0, m))
        grid = SampleGrid(xs, vs)
        if exact:
            assert continuity._trend(grid.values, np.empty(m)) == (trend, True)
        h = grid.span / (m - 1)
        ks = data.draw(st.lists(st.integers(1, m - 1), max_size=2))
        deltas = {min(k * h, grid.span) for k in ks}
        deltas |= {grid.span * data.draw(st.floats(1e-4, 1.0))
                   for _ in range(2)}
        deltas = sorted(d for d in deltas if d > 0)
        running, want = 0.0, []
        for d in deltas:
            running = max(running, omega_pair_scan(grid, d))
            want.append((d, running))
        assert modulus_on_grid(grid, deltas) == tuple(want)

    @staticmethod
    def exception_grid(kind):
        """Small monotone grids whose lags leave exceptions: geometric float
        abscissae, and the ends a / 3**7 of the Cantor stage-7 bricks, given
        as Fractions and rounded to floats."""
        if kind.startswith("geometric"):
            xs = np.geomspace(1e-3, 1.0, 301)
            vs = np.sort(np.random.default_rng(9).standard_normal(301))
        else:
            f = catalog.cantor_on_unit()
            xs = sorted({x for pair in catalog.cantor_stage_cover(7).pairs
                         for x in pair})
            vs = function_model.evaluate_many(f, xs)
        return SampleGrid(xs, vs if kind.endswith("rising") else -vs)

    @staticmethod
    def slice_tested(monkeypatch) -> list:
        """The deltas whose lags ``_lag`` finds by slice tests (``_fits``),
        each listed once, in call order."""
        tested = []
        fits = continuity._fits

        def counted(xs, k, delta):
            if delta not in tested:
                tested.append(delta)
            return fits(xs, k, delta)

        monkeypatch.setattr(continuity, "_fits", counted)
        return tested

    @pytest.mark.parametrize("kind", ["geometric-rising", "geometric-falling",
                                      "fraction-rising", "fraction-falling"])
    def test_monotone_exceptions_match_pair_scan(self, monkeypatch, kind):
        # no lag is settled from the gaps (non-uniform abscissae), so exact
        # slice tests find the lags and the exceptions' windows
        # [start, end] are read by their end values
        grid = self.exception_grid(kind)
        xs = grid.abscissae.tolist()
        deltas = sorted({xs[j] - xs[i] for i, j in
                         ((0, 1), (0, 5), (3, 40), (10, 100), (0, 200))}
                        | {grid.span})
        tested = self.slice_tested(monkeypatch)
        calls = []
        starts = continuity._window_starts
        monkeypatch.setattr(continuity, "_window_starts",
                            lambda g, d, e: calls.append(len(e)) or
                            starts(g, d, e))
        monkeypatch.setattr(continuity, "_widest_range", None)
        running, want = 0.0, []
        for d in deltas:
            running = max(running, omega_pair_scan(grid, d))
            want.append((d, running))
        assert modulus_on_grid(grid, deltas) == tuple(want)
        assert tested == deltas and max(calls) > 0

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

        monkeypatch.setattr(continuity, "_fits", forbidden)
        monkeypatch.setattr(continuity, "_window_starts", forbidden)
        assert modulus_on_grid(grid, deltas) == expected

    @pytest.mark.parametrize("m, exact", [(4001, 2), (25001, 2), (20001, 5)])
    def test_exact_lags_only_at_ties(self, monkeypatch, m, exact):
        # the analysis ladder from 2h to the span ties with the step at 2h
        # and at the span; at m = 20001 its ratio is 10 ** (1 / 8), so
        # 20h, 200h and 2000h tie as well.  A generic ladder never ties.
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0))
        grid = sample(f, IntervalSpec(0.0, 0.93), m)
        tested = self.slice_tested(monkeypatch)
        ladder = _modulus_curve(grid)
        assert len(ladder) == 33 and len(tested) == exact
        h = 0.93 / (m - 1)
        generic = [2.6 * h * 1.2 ** i for i in range(33)]
        tested.clear()
        assert modulus_on_grid(grid, generic) == \
            modulus_per_window(grid, generic)
        assert tested == []

    @pytest.mark.parametrize("m", [4001, 25001])
    def test_far_ladder_settles_its_lags(self, monkeypatch, m):
        # on [1e6, 1e6 + 1e-3] the gaps differ by 0.3%, so from a few
        # hundred steps up the gap extremes settle no lag and exact slice
        # tests find them, as they do at the ties with the step (2h and
        # the span); the curve is the pair scan's
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 2e6))
        grid = sample(f, IntervalSpec(1e6, 1e6 + 1e-3), m)
        assert grid.uniform
        ladder = [d for d, _ in _modulus_curve(grid)]
        tested = self.slice_tested(monkeypatch)
        assert modulus_on_grid(grid, ladder) == \
            modulus_per_window(grid, ladder)
        h = grid.span / (m - 1)
        ties = [d for d in tested if d in (ladder[0], ladder[-1])]
        assert ties == [ladder[0], ladder[-1]]
        assert math.isclose(ladder[0], 2 * h) and ladder[-1] == grid.span

    def test_peak_memory(self):
        # rows are built lazily and dropped below the current lag's row:
        # the peak stays a few arrays of m floats, where a table of every
        # row up to the widest window took 17 rows (about 27 MB)
        m = 100001
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0))
        grid = sample(f, IntervalSpec(0.0, 1.0), m)
        ladder = [d for d, _ in _modulus_curve(grid)]
        tracemalloc.start()
        try:
            modulus_on_grid(grid, ladder)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * m

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_lag_agrees_with_slice_tests(self, data):
        # uniform grids at magnitudes 1e-300 to 1e300, from zero, straddling
        # it or far from it, some jittered within the 1e-9 uniformity rule;
        # deltas generic and on and next to multiples of the step and of the
        # extreme gaps.  The reference reads the lag and its exceptions off
        # the longest k-step length for every k, one slice each
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
        longest = np.array([0.0] + [float((xs[k:] - xs[:m - k]).max())
                                    for k in range(1, m)])
        for d in deltas:
            if not 0 < d <= grid.span:
                continue
            want = int(np.flatnonzero(longest <= d)[-1])
            reach = xs[want + 1:] - xs[:m - want - 1]
            lag, ends = continuity._lag(grid, d)
            assert lag == want, d
            assert np.array_equal(ends, np.flatnonzero(reach <= d) + want + 1)

    def test_subnormal_gaps_take_the_exact_path(self, monkeypatch):
        m = 201
        grid = SampleGrid(uniform_abscissae(0.0, 1e-306, m),
                          np.random.default_rng(6).standard_normal(m))
        gaps = np.diff(grid.abscissae)
        assert gaps.max() < sys.float_info.min
        h = float(grid.span) / (m - 1)
        deltas = [2.5 * h, 10 * h, 77.5 * h, float(grid.span)]
        tested = self.slice_tested(monkeypatch)
        curve = modulus_on_grid(grid, deltas)
        assert tested == deltas
        assert curve == modulus_per_window(grid, deltas)
        for d, w in curve:
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
        assert chk.direction_used is Direction.NONINCREASING
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
        assert chk.direction_used is Direction.NONDECREASING
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


def glued_ends_chain(c, direction, lo, hi):
    """The glued interval by the proof's chain, the reference for the closed
    form: from z_{n+1} = y_n the pair lengths are subtracted one by one
    where the increment curve is nondecreasing, else from z_1 = x_1 added
    one by one, and both ends are then clamped into [lo, hi]."""
    sigmas = [y - x for x, y in c.pairs]
    if direction is not Direction.NONDECREASING:
        start = end = c.pairs[0][0]
        for s in sigmas:
            end += s
    else:
        start = end = c.pairs[-1][1]
        for s in reversed(sigmas):
            start -= s
    return min(max(start, lo), hi), min(max(end, lo), hi)


@st.composite
def collections_in(draw, lo, hi):
    """1-32 sorted pairs in [lo, hi]: distinct drawn points taken two at a
    time, or all touching, each pair starting where the last one ends."""
    points = sorted(set(draw(st.lists(st.floats(lo, hi), min_size=2,
                                      max_size=64))))
    assume(len(points) >= 2)
    if draw(st.booleans()):
        pairs = list(zip(points, points[1:]))
    else:
        pairs = list(zip(points[::2], points[1::2]))
    return IntervalCollection(tuple(pairs[:32]))


GLUE_WINDOWS = ((0.0, 1.0), (0.05, 1.0), (1e6, 1e6 + 1.0))


@functools.cache
def criterion_2_piece(name):
    """Suite criterion 2's function of that name and its one piece."""
    f = next(f for n, f, _ in _direction_cases() if n == name)
    return f, _single_piece(f)


class TestGlueChain:
    def test_left_anchored(self):
        c = IntervalCollection(((0.0, 0.1), (0.3, 0.4)))
        start, end = _glued_interval(c, Direction.NONINCREASING, 0.0, 1.0)
        assert start == 0.0
        assert end == pytest.approx(0.2, abs=1e-15)

    def test_right_anchored(self):
        c = IntervalCollection(((0.0, 0.1), (0.3, 0.4)))
        start, end = _glued_interval(c, Direction.NONDECREASING, 0.0, 1.0)
        assert end == 0.4
        assert start == pytest.approx(0.2, abs=1e-15)

    def test_single_pair_identity(self):
        c = IntervalCollection(((0.2, 0.7),))
        for direction in Direction:
            assert _glued_interval(c, direction, 0.0, 1.0) == (0.2, 0.7)

    def test_empty(self):
        # an empty collection glues to nothing: lhs = rhs = 0, which holds
        f, pieces = sqrt_on_unit_pieces()
        chk = gluing_bound_check(f, pieces[0], IntervalCollection(()))
        assert (chk.lhs, chk.rhs, chk.holds) == (0.0, 0.0, True)
        assert chk.direction_used is Direction.NONINCREASING

    def test_glued_length_is_total_length(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            c = random_collection(rng, 0.0, 1.0, 0.3, 5)
            if len(c) == 0:
                continue
            for direction in Direction:
                start, end = _glued_interval(c, direction, 0.0, 1.0)
                assert abs((end - start) - c.total_length) <= (
                    len(c) * math.ulp(max(abs(start), abs(end))))

    @pytest.mark.parametrize("lo, hi", GLUE_WINDOWS)
    @given(data=st.data())
    def test_matches_the_chain(self, lo, hi, data):
        c = data.draw(collections_in(lo, hi))
        # the chain rounds once per pair, the closed form twice in all
        tol = len(c) * math.ulp(max(abs(lo), abs(hi)))
        for direction in Direction:
            start, end = _glued_interval(c, direction, lo, hi)
            ref_start, ref_end = glued_ends_chain(c, direction, lo, hi)
            assert abs(start - ref_start) <= tol
            assert abs(end - ref_end) <= tol
            assert lo <= start <= end <= hi

    @pytest.mark.parametrize("name", [name for name, _, _ in _direction_cases()])
    @given(data=st.data())
    @settings(max_examples=50)
    def test_holds_matches_the_chain(self, name, data):
        f, piece = criterion_2_piece(name)
        lo, hi = piece.interval.lo, piece.interval.hi
        c = data.draw(collections_in(lo, hi))
        chk = gluing_bound_check(f, piece, c, tol=1e-9)
        start, end = glued_ends_chain(c, chk.direction_used, lo, hi)
        ref_rhs = abs(evaluate(f, end) - evaluate(f, start))
        assert chk.holds == (chk.lhs <= ref_rhs + 1e-9)

    @pytest.mark.parametrize("lo, hi, pairs", [
        # x_1 + L rounds one ulp above hi, 1.0000000000000002
        (0.0, 1.0, ((0.11, 0.41), (0.41, 1.0))),
        # on a window far from zero the lengths are exact, so the glued
        # end lands on hi
        (1e6, 1e6 + 1.0, ((1e6, 1e6 + 0.3), (1e6 + 0.3, 1e6 + 1.0))),
    ])
    def test_end_at_hi_clamps(self, lo, hi, pairs):
        c = IntervalCollection(pairs)
        assert _glued_interval(c, Direction.CONSTANT, lo, hi) == (
            pairs[0][0], hi)
        f = FunctionSpec.affine(3.0, 1.0, IntervalSpec(lo, hi))
        piece = ShapePiece(IntervalSpec(lo, hi), Shape.AFFINE,
                           Monotonicity.INCREASING, 0.0)
        chk = gluing_bound_check(f, piece, c)
        assert chk.direction_used is Direction.CONSTANT
        assert chk.holds


class TestWorstSumOracle:
    @pytest.mark.parametrize("k", [9, 17, 33, 65])
    def test_rounded_gaps_keep_witnesses_below_delta(self, k):
        # 1e12 + i * 4.37 ulps rounds to gaps of 4 and 5 ulps: a uniform
        # grid up to its rounding.  Steps that are large only across the
        # wide gaps, alternating in sign, make a witness of single wide
        # steps, units * gmax long; `units` stays below delta / gmax, so
        # its float length stays below delta
        lo = 1e12
        xs = uniform_abscissae(lo, lo + 2000 * 4.37 * math.ulp(lo), 2001)
        gaps = np.diff(xs)
        steps = np.where(gaps == gaps.max(), 1.0, 1e-3) * (-1.0) ** np.arange(
            2000)
        grid = SampleGrid(xs, np.concatenate(([0.0], np.cumsum(steps))))
        assert grid.uniform and gaps.max() == 1.25 * gaps.min()
        delta = k * float(grid.span) / 2000
        rep = worst_ac_sum_oracle(grid, delta)
        assert len(rep.witness) > 1
        assert rep.witness.total_length < delta

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(6):
            values = [float(v) for v in rng.normal(size=12)]
            knots = tuple((i / 11.0, v) for i, v in enumerate(values))
            f = FunctionSpec.piecewise_linear(knots)
            grid = SampleGrid([x for x, _ in knots], values)
            h = grid.spacing
            for units, kmax in ((3, 2), (5, 3), (7, 12)):
                delta = (units + 1) * h
                rep = worst_ac_sum_oracle(grid, delta * 1.0000001, kmax)
                # units + 1 steps stay below the budget
                want = brute_force_worst_sum(values, units + 1, kmax)
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
        units = min(units + 1, m - 1)  # the steps that stay below delta
        rep = worst_ac_sum_oracle(grid, delta, kmax)
        want = brute_force_worst_sum(values, units, kmax)
        assert rep.best_sum == pytest.approx(want, rel=1e-12, abs=1e-12)
        runs = top_step_runs(values, units)
        if len(runs) > min(kmax, units):
            runs = bridged_runs(values, units, min(kmax, units))
        if runs is not None:
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

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_units_count_every_step_below_delta(self, data):
        # delta strictly between multiples of h, near zero and far from it:
        # `units` is the largest u with u * gmax * (1 + s) < delta, the
        # answer is the brute force's at that many steps, and the witness
        # is shorter than delta
        values = [float(v) for v in data.draw(st.lists(
            st.one_of(st.integers(-3, 3), st.floats(-4.0, 4.0)),
            min_size=3, max_size=9))]
        m = len(values)
        lo = data.draw(st.sampled_from([0.0, -0.5, 1e6]))
        grid = SampleGrid(uniform_abscissae(lo, lo + 1.0, m), values)
        kmax = data.draw(st.integers(1, 4))
        delta = (data.draw(st.integers(1, m - 1))
                 + data.draw(st.floats(0.01, 0.99))) * grid.step
        units = continuity._step_bound(grid, delta)[0]
        longest = grid.spacing * (1 + continuity._GAP_SLACK)
        assert units == max(u for u in range(m) if u * longest < delta)
        rep = worst_ac_sum_oracle(grid, delta, kmax)
        want = brute_force_worst_sum(values, units, kmax)
        assert rep.best_sum == pytest.approx(want, rel=1e-12, abs=1e-12)
        assert float(rep.witness.total_length) < delta

    @settings(max_examples=300, deadline=None)
    @given(values=zero_run_values(), data=st.data())
    def test_bridged_runs_match_the_dp(self, values, data):
        # where the bridged runs answer, they reach the DP's sum with its
        # units and interval count (fewest units, then fewest intervals),
        # and its pairs unless the gaps to bridge can be chosen in two ways
        v = np.array(values)
        m = len(v)
        nonzero = int(np.count_nonzero(np.diff(v)))
        units = m - 1 - data.draw(st.integers(0, max(m - 2 - nonzero, 0)))
        kmax = min(data.draw(st.integers(1, 8)), units)
        runs, bound = continuity._top_step_runs(v, units)
        got = (continuity._bridged_runs(v, runs, units, kmax)
               if len(runs) > kmax else None)
        assert got == bridged_runs(values, units, kmax)
        if got is None:
            return
        dp = _dp_pairs(v, units, kmax)
        assert math.fsum(abs(v[e] - v[s]) for s, e in got) == bound == \
            math.fsum(abs(v[e] - v[s]) for s, e in dp)
        assert sum(e - s for s, e in got) == sum(e - s for s, e in dp)
        assert len(got) == len(dp) == kmax
        rising = [v[e] > v[s] for s, e in runs]
        gaps = sorted(b[0] - a[1] for a, b, ra, rb
                      in zip(runs, runs[1:], rising, rising[1:]) if ra == rb)
        need = len(runs) - kmax
        if need == len(gaps) or gaps[need - 1] < gaps[need]:
            assert got == dp
        delta = (units + 0.5) / (m - 1)  # `units` steps stay below it
        grid = SampleGrid(uniform_abscissae(0.0, 1.0, m), v)
        with mock.patch.object(continuity, "_dp_pairs",
                               side_effect=AssertionError("DP ran")):
            rep = worst_ac_sum_oracle(grid, delta, kmax)
        assert rep.method == "OracleBound" and rep.best_sum == bound

    @pytest.mark.parametrize("units", [248, 275, 303])
    def test_bench_sized_cantor_bridges_without_the_dp(self, units):
        # the benchmark's worstsum-cantor-m1025-k32 shape, whose budgets
        # span 248-303 units: 154 nonzero steps in 46 runs, and the 14
        # shortest zero gaps between them fit, so the bound answers with
        # the pairs the DP finds
        grid = sample(catalog.cantor_on_unit(), IntervalSpec(0.0, 1.0), 1025)
        with mock.patch.object(continuity, "_dp_pairs",
                               side_effect=AssertionError("DP ran")):
            rep = worst_ac_sum_oracle(grid, (units + 1) / 1024, 32)
        assert rep.method == "OracleBound"
        assert rep.best_sum == rep.step_bound
        dp = _dp_pairs(grid.values, units, 32)
        assert rep.witness.pairs == tuple(
            (grid.abscissae[s], grid.abscissae[e]) for s, e in dp)
        assert len(dp) == 32

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
        units = min(units + 1, m - 1)  # the steps that stay below delta
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
            delta = (units + 1) / (m - 1) * (1.0 + 1e-7)
            if name == "zigzag":  # units + 1 steps stay below delta
                units += 1
            with mock.patch.object(continuity, "_backtrack",
                                   wraps=continuity._backtrack) as walk:
                pairs = _dp_pairs(v, units, kmax)
            hist, kept = walk.call_args.args[:2]
            assert len(hist) == len(kept)
            if name == "zigzag":
                assert len(kept) == m
                steps, _, bound = continuity._step_bound(grid, delta)
                assert steps == units
                assert math.fsum(abs(v[e] - v[s]) for s, e in pairs) == \
                    pytest.approx(bound, rel=1e-12)
            else:
                assert len(kept) < m // 10

    @pytest.mark.parametrize("units, kmax", [(97, 32), (286, 4)])
    def test_bench_sized_zigzag_glues_without_the_dp(self, units, kmax):
        # the zigzag's steepest piece is linear: its steps tie up to
        # rounding, so the top ones, units + 1 of them below delta, form one
        # glued interval at its start
        f = FunctionSpec.piecewise_linear(
            ((0.0, 0.0), (0.3, 0.6), (0.7, 0.2), (1.0, 0.5)))
        m = 8193
        grid = sample(f, IntervalSpec(0.0, 1.0), m)
        delta = (units + 1) / (m - 1) * (1.0 + 1e-7)
        with mock.patch.object(continuity, "_dp_pairs",
                               side_effect=AssertionError("DP ran")):
            rep = worst_ac_sum_oracle(grid, delta, kmax)
        assert rep.method == "OracleBound"
        assert rep.witness.pairs == ((0.0, grid.abscissae[units + 1]),)
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
        # the points i / 27 as the integers i, with the values at i / 27
        f = catalog.cantor_on_unit()
        grid = SampleGrid(np.arange(28.0),
                          [evaluate(f, Fraction(i, 27)) for i in range(28)])
        rep = worst_ac_sum_oracle(grid, 9.0)
        assert rep.best_sum == 1.0
        assert rep.witness.total_length <= 8
        # the witness's endpoints are the grid's own abscissae
        xs = grid.abscissae.tolist()
        assert all(x in xs for pair in rep.witness.pairs for x in pair)
        cover = IntervalCollection(tuple(
            (Fraction(int(a), 27), Fraction(int(b), 27))
            for a, b in rep.witness.pairs))
        assert ac_sum(f, cover) == 1.0

    def test_budget_error(self):
        f = catalog.sqrt_on_unit()
        grid = sample(f, IntervalSpec(0.0, 1.0), 101)
        with pytest.raises(BudgetError):
            worst_ac_sum_oracle(grid, 0.005)

    def test_glued_closed_form_agreement(self):
        # sqrt's favourable end is 0: the glued interval starts there
        f = catalog.sqrt_on_unit()
        grid = sample(f, IntervalSpec(0.0, 1.0), 401)
        rep = worst_ac_sum_oracle(grid, 0.25)
        glued = ac_sum(f, IntervalCollection((
            (0.0, min(1.0, rep.witness.total_length)),)))
        omega_h = modulus_on_grid(grid, [grid.spacing])[0][1]
        assert abs(rep.best_sum - glued) <= omega_h + 1e-12


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

    def test_straddle_split_at_every_point(self):
        p = Partition((0.0, 0.4, 0.6, 1.0))
        out = split_collection_at_partition(
            IntervalCollection(((0.3, 0.7), (0.8, 0.9))), p)
        assert out.pairs == ((0.3, 0.4), (0.4, 0.6), (0.6, 0.7), (0.8, 0.9))

    @given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                    max_size=12, unique=True),
           collections_in(0.0, 1.0))
    def test_any_partition(self, inner, c):
        # pairs may cross any number of partition points: each output pair
        # lies in one piece, the exact total length is kept and, by the
        # triangle inequality, the increment sum dominates
        p = Partition((0.0, *sorted(inner), 1.0))
        out = split_collection_at_partition(c, p)
        ends = p.points
        for x, y in out.pairs:
            i = int(np.searchsorted(ends, x, side="right")) - 1
            assert ends[i] <= x < y <= ends[i + 1]

        def exact_length(pairs):
            return sum(Fraction(y) - Fraction(x) for x, y in pairs)

        assert exact_length(out.pairs) == exact_length(c.pairs)
        f = parse_function("pwl:0:0,0.3:0.6,0.7:0.2,1:0.5",
                           IntervalSpec(0.0, 1.0))
        tol = len(out) * math.ulp(1.0)
        assert ac_sum(f, out) >= ac_sum(f, c) - tol

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


@st.composite
def pwl_and_a_partition(draw):
    """(piecewise linear f on [0, 1], a partition of [0, 1] whose 0 to 5
    interior points are none of f's knots)."""
    n = draw(st.integers(0, 5))
    cuts = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True,
                                   exclude_max=True), min_size=n, max_size=n))
    xs = sorted({k / 1000 for k in draw(st.lists(st.integers(1, 999),
                                                 max_size=6))} | {0.0, 1.0})
    ys = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(xs),
                       max_size=len(xs)))
    f = FunctionSpec.piecewise_linear(tuple(zip(xs, ys)))
    return f, Partition((0.0, *sorted(set(cuts) - set(xs)), 1.0))


class TestCertificates:
    def test_sqrt_delta1_band(self):
        f, pieces = sqrt_on_unit_pieces()
        cert = ac_certificate(f, Partition.from_pieces(pieces), 0.1)
        assert 0.006 <= cert.delta1 <= 0.01
        assert cert.per_piece_budget == pytest.approx(0.1)
        assert cert.delta1 < cert.partition.min_piece_length

    def test_partition_and_budget_follow_the_pieces(self):
        f = catalog.sine_table()
        result = monotone_partition(f, 1001)
        pieces = result.pieces
        cert = ac_certificate(f, result.partition, 0.4)
        assert cert.partition == Partition.from_pieces(pieces)
        assert cert.partition.points[0] == pieces[0].interval.lo
        assert cert.partition.points[-1] == pieces[-1].interval.hi
        assert len(cert.partition.points) == len(pieces) + 1 == 5
        assert cert.per_piece_budget == 0.4 / 4

    def test_affine_delta1(self):
        f = FunctionSpec.affine(3.0, 0.0, IntervalSpec(0.0, 1.0))
        res = detect_partition(sample(f, IntervalSpec(0.0, 1.0), 2001))
        pieces = [p for s in res.shapes for p in refine_to_monotone(f, s)]
        cert = ac_certificate(f, Partition.from_pieces(pieces), 0.1)
        # linear modulus: delta1 = 0.99 * (0.1 / 3), up to Phi's rounding
        assert cert.delta1 == pytest.approx(0.99 * 0.1 / 3, rel=1e-12)

    def test_verify_sqrt_passes(self):
        f, pieces = sqrt_on_unit_pieces()
        cert = ac_certificate(f, Partition.from_pieces(pieces), 0.1)
        ver = verify_certificate(f, cert)
        assert ver.passed
        assert ver.worst_sum < 0.1
        assert ver.worst_sum == pytest.approx(
            ac_sum(f, ver.worst_collection), abs=1e-12)

    def test_fabricated_cantor_certificate_fails(self):
        f = catalog.cantor_on_unit()
        fake = Certificate(epsilon=0.5, delta1=(2.0 / 3.0) ** 6,
                           partition=Partition((0.0, 1.0)))
        ver = verify_certificate(f, fake)
        assert not ver.passed
        assert ver.worst_sum >= 0.5
        assert ver.worst_sum == pytest.approx(
            ac_sum(f, ver.worst_collection), abs=1e-12)

    def test_subnormal_piece_gets_no_glued_interval(self):
        # a subnormal piece needs no interval of its own: Phi bounds the
        # whole window, and its witness is the one collection built
        f = catalog.sqrt_on_unit()
        cert = Certificate(epsilon=0.5, delta1=0.1,
                           partition=Partition((0.0, 5e-324, 1.0)))
        ver = verify_certificate(f, cert)
        assert ver.passed
        assert ver.worst_sum == ac_sum(f, ver.worst_collection)

    def test_unachievable_on_steep_data(self):
        def certify(knot):
            f = FunctionSpec.piecewise_linear(
                ((0.0, 0.0), (knot, 1.0), (1.0, 1.0000001)))
            res = detect_partition(sample(f, IntervalSpec(0.0, 1.0), 2001))
            assert isinstance(res, PiecewiseConvexPartition)
            pieces = [p for s in res.shapes for p in refine_to_monotone(f, s)]
            return f, ac_certificate(f, Partition.from_pieces(pieces), 0.5)

        # one concave increasing piece of initial slope 1e7: its Phi
        # reaches the budget 0.5 at 5e-8, however steep that is
        f, cert = certify(1e-7)
        assert cert.delta1 == pytest.approx(0.99 * 0.5 / 1e7, rel=1e-6)
        assert verify_certificate(f, cert).passed
        # a jump at float resolution: its slope overflows, so the piece has
        # no Phi, and the message names the piece
        with pytest.raises(Unachievable, match=r"Phi on \[0\.0, 1\.0\] "
                                               r"below 0\.5$"):
            certify(5e-324)
        # x^2 on [-1e150, 1e150]: each piece's Phi proves a step of about
        # 0.05 / 1e150, far below the resolution at its ends, and the
        # window's Phi proves the certificate
        f = FunctionSpec.polynomial((0.0, 0.0, 1.0),
                                    IntervalSpec(-1e150, 1e150))
        cert = ac_certificate(f, monotone_partition(f, 501).partition, 0.1)
        assert cert.delta1 == pytest.approx(2.475e-152, rel=1e-9)
        ver = verify_certificate(f, cert)
        assert (ver.method, ver.passed) == ("exact_sup", True)
        assert cert.delta1 < ver.delta1_opt

    def test_a_sliver_below_its_share_imposes_no_step(self):
        # x^2 on [-1e-12, 1] splits at 0 exactly; the sliver's whole Phi,
        # about 1e-24, stays below its share epsilon / 2, so the [0, 1]
        # piece's step alone sets delta1, 1e10 times the sliver's length
        f = FunctionSpec.polynomial((0.0, 0.0, 1.0), IntervalSpec(-1e-12, 1.0))
        pieces = monotone_partition(f, 501).pieces
        assert [p.interval for p in pieces] == [IntervalSpec(-1e-12, 0.0),
                                                IntervalSpec(0.0, 1.0)]
        sliver = exact_phi(f, -1e-12, 0.0)
        assert sliver.sup(1e-12).value < 2e-24
        assert sliver.below(1e-12, 0.05)
        cert = ac_certificate(f, Partition.from_pieces(pieces), 0.1)
        assert cert.delta1 == 0.99 * exact_phi(f, 0.0, 1.0).budget(0.05)
        # Phi on [0, 1] is 1 - (1 - d)**2, within its bracket
        assert cert.delta1 == pytest.approx(0.99 * (1 - math.sqrt(0.95)),
                                            rel=2e-3)
        ver = verify_certificate(f, cert)
        assert (ver.method, ver.passed) == ("exact_sup", True)

    @pytest.mark.parametrize("f", [
        FunctionSpec.affine(1.0, 0.0, IntervalSpec(0.0, 0.05)),
        FunctionSpec.polynomial((0.0, 0.0, 1.0), IntervalSpec(-0.2, 0.1)),
    ], ids=["one-piece", "two-pieces"])
    def test_every_piece_below_its_share_gives_the_span(self, f):
        cert = ac_certificate(f, monotone_partition(f, 101).partition, 0.1)
        span = f.domain.hi - f.domain.lo
        assert cert.delta1 == 0.99 * span
        ver = verify_certificate(f, cert)
        assert (ver.method, ver.passed) == ("exact_sup", True)

    def test_unknown_or_zero_step_is_named(self):
        # no Phi: a slope bound that overflows
        f = FunctionSpec.polynomial((0.0, 0.0, 1e308), IntervalSpec(0.0, 10.0))
        with pytest.raises(Unachievable, match=r"Phi on \[0\.0, 10\.0\] "
                                               r"below 0\.1$"):
            ac_certificate(f, Partition((0.0, 10.0)), 0.1)
        # zero budget: the staircase's Phi is its rise at every positive
        # length; the first piece, whose rise is below its share, is
        # skipped, and the second is named
        f = catalog.cantor_on_unit()
        with pytest.raises(Unachievable, match=r"Phi on \[0\.01, 1\.0\] "
                                               r"below 0\.25$"):
            ac_certificate(f, Partition((0.0, 0.01, 1.0)), 0.5)

    def test_certificate_bound_is_semantic(self):
        # the certified guarantee: every collection under the budget stays
        # below epsilon, checked against the exact worst case sqrt(delta1)
        f, pieces = sqrt_on_unit_pieces()
        cert = ac_certificate(f, Partition.from_pieces(pieces), 0.1)
        assert math.sqrt(cert.delta1) < 0.1

    @settings(max_examples=200, deadline=None)
    @given(pwl_and_a_partition(), st.floats(1e-3, 2.0))
    @example((FunctionSpec.piecewise_linear(
        ((0.0, 1.0), (0.011, 1.0), (1.0, 1.3644639245359348e-198))),
        Partition((0.0, 1.0))), 1.0)
    def test_sound_on_any_partition(self, case, epsilon):
        # a certificate reads where its pieces end, not what they are: on
        # any partition the window's Phi proves it, or Unachievable names
        # one of its pieces.  In the example Phi(1) = 1 - 1.4e-198 is
        # below epsilon only in rationals, and the witness's float sum
        # rounds to 1.0: the piece gets a step, not a skip
        f, partition = case
        points = partition.points
        try:
            cert = ac_certificate(f, partition, epsilon)
        except Unachievable as exc:
            assert any(f"Phi on [{lo}, {hi}] below " in str(exc)
                       for lo, hi in zip(points, points[1:]))
            return
        assert exact_phi(f, 0.0, 1.0).below(cert.delta1, epsilon) is True
        assert verify_certificate(f, cert).passed is True

    def test_detected_mixed_pieces_are_certified(self):
        # detection cuts the zigzag once, at 0.5, into two pieces that
        # each rise and fall; each piece's Phi still gives its step, the
        # slope-2 segment's 0.025 for the share 0.05
        res = detect_partition(sample(ZIGZAG, IntervalSpec(0.0, 1.0), 501))
        assert res.partition.points == (0.0, 0.5, 1.0)
        assert {p.monotonicity for p in res.shapes} == {Monotonicity.MIXED}
        cert = ac_certificate(ZIGZAG, res.partition, 0.1)
        assert cert.delta1 == pytest.approx(0.02475, rel=1e-12)
        ver = verify_certificate(ZIGZAG, cert)
        assert (ver.method, ver.passed) == ("exact_sup", True)


SINE = FunctionSpec.piecewise_linear(tuple(
    (x, math.sin(x))
    for x in [i * (2.0 * math.pi) / 2000 for i in range(2000)] + [2.0 * math.pi]))
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


def anchored_point(piece, left, d):
    """The float z nearest d away from the piece's favourable end (clamped
    to the piece) that is no farther than d from it, and that distance,
    the length z realizes: lo + d or hi - d rounds to a float that may lie
    farther, or, within half an ulp of the end, onto the end itself."""
    lo, hi = piece.interval.lo, piece.interval.hi
    if left:
        z = min(hi, lo + d)
        if z - lo > d:
            z = math.nextafter(z, lo)
        return z, z - lo
    z = max(lo, hi - d)
    if hi - z > d:
        z = math.nextafter(z, hi)
    return z, hi - z


def anchored_increment(f, piece, left):
    """d -> |f(z) - f(end)| at z = ``anchored_point``: the increment at the
    length z realizes, which is at most d."""
    lo, hi = piece.interval.lo, piece.interval.hi
    end = evaluate(f, lo if left else hi)
    return lambda d: abs(evaluate(f, anchored_point(piece, left, d)[0]) - end)


def increment_step(f, piece, left, budget):
    """Reference inversion of the increment lemma: the largest step whose
    anchored increment stays below budget, by bisection on exact
    evaluation until the midpoint no longer splits the bracket; the piece
    length when the whole piece qualifies."""
    length = piece.interval.hi - piece.interval.lo
    inc = anchored_increment(f, piece, left)
    if inc(length) < budget:
        return length
    a, b = 0.0, length
    while a < (mid := 0.5 * (a + b)) < b:
        if inc(mid) < budget:
            a = mid
        else:
            b = mid
    return a


class TestIncrementStep:
    """The increment lemma on monotone convex/concave pieces: the piece's
    Phi is its increment anchored at the favourable end, Phi.budget inverts
    it, and a grid scan agrees with that inversion."""

    @settings(max_examples=60, deadline=None)
    @given(monotone_pieces(), st.floats(0.0, 1.0))
    # x^4 on [3, 5]: hi - d rounds to hi, so the point realizes length 0
    @example((FunctionSpec.polynomial((0.0, 0.0, 0.0, 0.0, 1.0),
                                      IntervalSpec(3.0, 5.0)),
              ShapePiece(IntervalSpec(3.0, 5.0), Shape.CONVEX,
                         Monotonicity.INCREASING), False), 2.0 ** -52)
    def test_phi_is_the_anchored_increment(self, case, share):
        f, piece, left = case
        lo, hi = piece.interval.lo, piece.interval.hi
        # Phi at the length that the float point z realizes, against the
        # exact increment there
        z, d = anchored_point(piece, left, share * (hi - lo))
        inc = float(abs(exact_value(f, z) - exact_value(f, lo if left else hi)))
        sup = exact_phi(f, lo, hi).sup(d)
        assert abs(sup.value - inc) <= sup.rounding + 1e-13 * max(1.0, inc)

    @settings(max_examples=60, deadline=None)
    @given(monotone_pieces(), st.floats(0.01, 1.2))
    def test_budget_inverts_the_anchored_increment(self, case, fraction):
        f, piece, left = case
        lo, hi = piece.interval.lo, piece.interval.hi
        inc = anchored_increment(f, piece, left)
        budget = fraction * inc(hi - lo)
        step = increment_step(f, piece, left, budget)
        phi = exact_phi(f, lo, hi)
        got = phi.budget(budget)
        assert 0.0 < got <= step
        if f.kind != "poly":  # sqrt and the sine table: exact
            assert got >= step * (1 - 1e-9)
        # short of the whole piece, the increment at Phi's budget falls
        # short of the budget by no more than Phi's rounding there: a few
        # ulps, or the bracket's width for a polynomial of degree >= 2
        if got < hi - lo:
            sup = phi.sup(got)
            assert inc(got) >= budget - 2 * sup.rounding - 1e-13 * budget

    @settings(max_examples=60, deadline=None)
    @given(monotone_pieces(), st.floats(0.01, 1.2), st.integers(1, 60))
    def test_matches_dense_grid_inversion(self, case, fraction, per_step):
        f, piece, left = case
        lo, hi = piece.interval.lo, piece.interval.hi
        length = hi - lo

        inc = anchored_increment(f, piece, left)
        budget = fraction * inc(length)
        step = increment_step(f, piece, left, budget)
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
        xs = [anchored_point(piece, left, k * h)[0] for k in range(n)]
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
            w = modulus_on_grid(grid, [min(k * h, grid.span)])[0][1]
            assert w < budget
            assert anchored[k - 1] - tol <= w <= anchored[k] + tol

        # the glued interval at the favourable end dominates the 2-, 4-
        # and 8-part layouts of its length at the same end, so those stay
        # below the budget too
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


def sqrt_unit_grid(xs=(0.0, 0.25, 0.5, 0.75, 1.0)):
    xs = np.array(xs)
    return SampleGrid(xs, np.sqrt(xs))


@pytest.mark.parametrize("call, error, message", [
    (lambda: ac_certificate(catalog.sqrt_on_unit(), Partition((0.0, 1.0)),
                            0.0),
     ValueError, "epsilon must be positive"),
    (lambda: worst_ac_sum_oracle(sqrt_unit_grid(), 0.5, max_intervals=0),
     ValueError, "max_intervals must be >= 1"),
    (lambda: worst_ac_sum_oracle(sqrt_unit_grid((0.0, 0.1, 0.5, 1.0)), 0.5),
     InsufficientData, "the worst-sum search needs a uniform grid, but its 4 "
     "points on [0.0,1.0] have gaps from 0.1 to 0.5"),
    (lambda: modulus_on_grid(sqrt_unit_grid(), []),
     InsufficientData, "at least one delta is required"),
    (lambda: random_collection(np.random.default_rng(0), 0.0, 1.0, 1.5, 3),
     GeometryError, "total 1.5 must lie in (0, 1.0)"),
    (lambda: random_collection(np.random.default_rng(0), 0.0, 1.0, 0.5, 0),
     ValueError, "n must be >= 1"),
], ids=["epsilon-0", "max-intervals-0", "non-uniform",
        "no-deltas", "total-over-span", "n-0"])
def test_bad_input_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def layout(w, g, total, lo, hi):
    """The pairs of one random collection from its n width and n + 1 gap
    uniforms, as ``random_collection`` lays them out."""
    span = hi - lo
    n = len(w)
    walk = np.empty(2 * n + 1)
    walk[0] = lo
    walk[1::2] = np.array(g[:n]) * ((span - total) / np.sum(g))
    walk[2::2] = np.array(w) * (total / np.sum(w))
    pos = np.cumsum(walk)
    x, y = pos[1::2], np.minimum(pos[2::2], hi)
    keep = y - x > 1e-13 * max(1.0, span)
    return tuple(zip(x[keep].tolist(), y[keep].tolist()))


def random_rows(seed, lo, hi, d1, trials):
    """Random collections in [lo, hi] that mix many-small-interval and
    single-interval shapes: trial t is row t of one
    rng.random((trials, 35)), which gives its pair count (1 to 8, or 1, or
    16, by t mod 5), its total (d1 times 0.3 + 0.69 u, 0.9 + 0.099 u or
    0.5 + 0.45 u, capped at half the span) and its widths and gaps; a
    trial whose total is not positive draws nothing."""
    out = []
    for t, row in enumerate(
            np.random.default_rng(seed).random((trials, 35)).tolist()):
        mode = t % 5
        n = 1 + int(8 * row[0]) if mode < 3 else (1, 16)[mode - 3]
        base, scale = (((0.3, 0.69),) * 3 + ((0.9, 0.099), (0.5, 0.45)))[mode]
        total = min(d1 * (base + scale * row[1]), (hi - lo) * 0.5)
        if total > 0:
            out.append(layout(row[2:n + 2], row[n + 2:2 * n + 3], total,
                              lo, hi))
    return out


ZIGZAG = FunctionSpec.piecewise_linear(
    ((0.0, 0.0), (0.3, 0.6), (0.7, 0.2), (1.0, 0.5)))


class TestRandomAttack:
    """The random collections that attack Phi in the differential tests
    (``random_rows``): they reach every layout case, and
    ``random_collection`` is one row of their layout."""

    def test_stream_cases_are_covered(self):
        # sixteen pairs, and totals capped at half the span,
        pairs = random_rows(3, 0.0, 1.0, 10.0 ** 0.5, 12)
        assert len(pairs[4]) == 16
        assert all(float(IntervalCollection(p).total_length) <= 0.5 + 1e-12
                   for p in pairs)
        # and sixteen-pair trials with some or all pairs dropped
        sixteen = random_rows(2, -2.0, 1.0, 3.0 * 10.0 ** -11.8, 20)[4::5]
        assert any(len(p) == 0 for p in sixteen)
        assert any(0 < len(p) < 16 for p in sixteen)

    def test_random_collection_is_one_row_of_the_kernel(self):
        # random_collection lays out its draws as the loop it replaced,
        # and as the rows of the differential tests
        rng = np.random.default_rng(11)
        c = random_collection(rng, 0.25, 1.5, 0.2, 6)
        rng = np.random.default_rng(11)
        w, g = rng.random(6), rng.random(7)
        assert c.pairs == layout(w.tolist(), g.tolist(), 0.2, 0.25, 1.5)
        w = (w * (0.2 / w.sum())).tolist()
        g = (g * ((1.25 - 0.2) / g.sum())).tolist()
        pos, pairs = 0.25, []
        for i in range(6):
            pos += g[i]
            x = pos
            pos += w[i]
            pairs.append((x, min(pos, 1.5)))
        assert c.pairs == tuple(pairs)


# ---------------------------------------------------------------------------
# The exact supremum Phi(d)
# ---------------------------------------------------------------------------

EPS = sys.float_info.epsilon


def pair_rounding(f, lo, hi):
    """exact_phi's stated bound on how far one pair's increment of evaluate()
    values lies from the exact function's: 16 * eps * Y, or
    (4 n + 16) * eps * Y for a polynomial of degree n >= 2."""
    if f.kind == "sqrt":
        scale = math.sqrt(hi)
    elif f.kind == "x2sininv":
        reach = max(abs(lo), abs(hi))
        scale = reach * (reach + 1)
    elif f.kind == "cantor":
        scale = 1.0
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


def exact_value(f, x):
    """f at the float x in exact rationals: the knots' interpolant, or the
    polynomial; sqrt's value is its correctly rounded float."""
    if f.kind == "sqrt":
        return Fraction(evaluate(f, x))
    x = Fraction(x)
    if f.kind == "poly":
        return sum(Fraction(c) * x ** k for k, c in enumerate(f.coefficients))
    knots = [(Fraction(a), Fraction(b)) for a, b in f.knots]
    for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
        if x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    return knots[-1][1]


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


@st.composite
def cantor_windows(draw):
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                  max_size=2)))
    if not hi - lo > 1e-3:
        lo, hi = 0.0, 1.0
    return catalog.cantor_on_unit(), lo, hi


@st.composite
def x2sininv_windows(draw):
    """(x**2 sin(1/x), lo, hi) on a window of length 1e-3 to 1 that lies
    right of 0, left of 0, or across it."""
    f = FunctionSpec.x_squared_sin_inv(IntervalSpec(-2.0, 2.0))
    span = draw(st.floats(1e-3, 1.0))
    lo = draw(st.sampled_from([0.0, -span, draw(st.floats(-1.0, 1.0)),
                               -span * draw(st.floats(0.0, 1.0))]))
    return f, lo, lo + span


class TestExactSup:
    """Phi against every attack that builds collections, against an exact
    rational reference, and on the repros that sampling missed."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(pwl_windows(), sqrt_windows(), poly_windows(),
                     x2sininv_windows()),
           st.floats(1e-3, 1.0), st.integers(0, 2**32 - 1))
    # the whole window: the least steep segment, the last one Phi takes,
    # touches a steep one of its direction on its right, and the witness
    # trims it, not the steep one, to stay below d
    @example(case=(FunctionSpec.piecewise_linear(
        ((0.0, 1.0), (0.5, 0.0), (0.500010316020404, -1.0),
         (0.500020632040808, 0.0), (0.502, 1.0), (1.0, 0.0))), 0.0, 1.0),
        share=1.0, seed=0)
    def test_no_collection_exceeds_phi(self, case, share, seed):
        # every kind with a window strategy; x^2 sin(1/x) on windows right
        # of 0, left of it and across it
        f, lo, hi = case
        d = share * (hi - lo)
        phi = exact_phi(f, lo, hi)
        sup = phi.sup(d)
        per_pair = pair_rounding(f, lo, hi)

        def below(total, pairs):
            return total <= sup.value + sup.rounding + pairs * per_pair

        for pairs in random_rows(seed, lo, hi, d, 200):
            s = ac_sum(f, IntervalCollection(pairs))
            assert below(s, len(pairs)), (s, sup)
        window = IntervalSpec(lo, hi)
        # one interval of length 0.999 d at either end of the window
        for pair in ((lo, lo + 0.999 * d), (hi - 0.999 * d, hi)):
            if pair[0] < pair[1]:
                glued = ac_sum(f, IntervalCollection((pair,)))
                assert below(glued, 1), (glued, sup)
        grid = sample(f, window, 257)
        if grid.uniform and d > grid.spacing:
            rep = worst_ac_sum_oracle(grid, d, 8)
            assert below(rep.best_sum, len(rep.witness)), (rep, sup)
        # and the collection that Phi takes comes within the rounding of it
        witness = phi.witness(d, sup.value)
        total = witness.total_length
        assert total < d
        at = phi.sup(total)
        assert ac_sum(f, witness) >= (at.value - at.rounding
                                      - len(witness) * per_pair), (witness, at)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(pwl_windows(), pwl_windows(ties=True),
                     poly_windows(degrees=(2, 4))), st.floats(1e-3, 1.0))
    # d passes the intervals taken whole by less than an ulp of the cut
    # interval's left end
    @example(case=(FunctionSpec.polynomial(
        (0.0, 0.0, 1.0), IntervalSpec(1 / 3, 2 / 3)), 1 / 3, 2 / 3),
        share=0.5)
    def test_witness_glues_monotone_runs(self, case, share):
        # touching intervals over which f keeps one direction become one,
        # except on the cut interval's right: against the same knapsack
        # without directions, the witness has no more intervals and the
        # same exact sum, and the cut interval's run stays last and ends
        # with it, where Phi.witness trims it
        f, lo, hi = case
        d = share * (hi - lo)
        phi = exact_phi(f, lo, hi)
        knapsack = phi.lower
        glued = knapsack.pairs(d, math.inf)
        apart = knapsack._replace(dirs=np.zeros_like(knapsack.dirs)).pairs(
            d, math.inf)
        assert phi.witness(d, math.inf).total_length < d
        assert len(glued) <= len(apart)

        def exact_sum(pairs):
            return sum(abs(exact_value(f, y) - exact_value(f, x))
                       for x, y in pairs)

        assert exact_sum(glued) == exact_sum(apart)
        ends, dirs = knapsack.ends, knapsack.dirs
        runs = sorted(glued)
        for (_, y), (x, _) in zip(runs, runs[1:]):
            # touching runs meet at an end of the window's cells
            if y == x and y != glued[-1][1]:
                i = int(np.searchsorted(ends, x))
                assert ends[i] == x
                assert dirs[i - 1] == 0 or dirs[i - 1] != dirs[i]
        k = min(int(np.searchsorted(knapsack.reach, d)), len(ends) - 2)
        cut = ends[knapsack.order[k]]
        assert glued[-1][0] <= cut < glued[-1][1]
        assert glued[-1][1] <= ends[knapsack.order[k] + 1]

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(pwl_windows(), sqrt_windows(), poly_windows(),
                     x2sininv_windows(), cantor_windows()),
           st.floats(1e-3, 1.0), st.floats(1e-3, 10.0))
    def test_decided_worst_sum_is_below_phi(self, case, share, epsilon):
        # the report's worst collection is Phi's witness: its sum never
        # passes Phi(delta1) by more than Phi's rounding and that of its
        # increments, whatever the piece that the certificate names
        f, lo, hi = case
        d = share * (hi - lo)
        cert = Certificate(epsilon=epsilon, delta1=d,
                           partition=Partition((lo, hi)))
        ver = verify_certificate(f, cert)
        if ver.method != "exact_sup":
            return
        sup = exact_phi(f, lo, hi).sup(d)
        assert ver.worst_collection.total_length < d
        assert ver.worst_sum <= (sup.value + sup.rounding
                                 + len(ver.worst_collection)
                                 * pair_rounding(f, lo, hi))
        # and a proved certificate never shows a sum at epsilon
        assert not ver.passed or ver.worst_sum < epsilon

    @pytest.mark.parametrize("f", [
        catalog.cubed(-0.5, 0.0),
        FunctionSpec.x_squared_sin_inv(IntervalSpec(-0.5, 0.0))],
        ids=["cubed", "x2sininv"])
    def test_witness_ends_on_a_window_ending_at_zero(self, f):
        # at d = the span every cell is taken, the least steep last, and
        # it ends at 0, where an ulp of its end is far below one of its
        # length: trimming must still end, below d and near Phi
        phi = exact_phi(f, -0.5, 0.0)
        witness = phi.witness(0.5, math.inf)
        assert witness.total_length < 0.5
        at = phi.sup(witness.total_length)
        assert ac_sum(f, witness) >= (
            at.value - at.rounding
            - len(witness) * pair_rounding(f, -0.5, 0.0))

    @pytest.mark.parametrize("lo, hi, d, reference", [
        (0.05, 1.0, 0.003015478125, 0.0040016305),
        (0.0, 1.0, 0.08, 0.1059700),
        (0.0, 0.05, 0.0125, 0.0121891)])
    def test_x2sininv_bracket_holds_the_rearrangement(self, lo, hi, d,
                                                      reference):
        # the integral of the decreasing rearrangement of |f'| over
        # [0, d], from 4e6 midpoint samples (within 1e-7 here); the
        # 1024-cell bracket holds it, and 65536 cells narrow it at least
        # fivefold (cells near 0 take the cap at every size)
        f = FunctionSpec.x_squared_sin_inv(IntervalSpec(-1.0, 1.0))
        coarse = exact_phi(f, lo, hi).sup(d)
        fine = function_model._envelope_phi(function_model._x2sininv_cells,
                                            lo, hi, 65536).sup(d)
        for sup in (coarse, fine):
            assert abs(sup.value - reference) <= sup.rounding + 1e-7
        assert fine.rounding < 0.2 * coarse.rounding

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(1, 9),
           st.floats(1e-3, 1.0), st.floats(0.0, 1.0))
    def test_cantor_rise_is_the_clipped_stage_cover_sum(self, u, v, k, d,
                                                        share):
        # C rises only on the Cantor set, which the stage-k bricks cover:
        # their increments clipped to the window add up to Phi(d), the
        # rise, for every k and every d > 0
        lo, hi = min(u, v), max(u, v)
        f = catalog.cantor_on_unit()
        phi = exact_phi(f, lo, hi)
        sup = phi.sup(d)
        a, b = Fraction(lo), Fraction(hi)
        clipped = [(max(x, a), min(y, b))
                   for x, y in catalog.cantor_stage_cover(k).pairs
                   if x < b and a < y]
        total = math.fsum(evaluate(f, y) - evaluate(f, x) for x, y in clipped)
        assert abs(total - sup.value) <= (sup.rounding
                                          + len(clipped) * 2.0 ** -62)
        assert phi.sup(0.0) == (0.0, 0.0)
        # a share of the rise: the witness's bricks are shorter in total
        # than d and sum to at least epsilon, and some stage up to 8 has
        # enough of them once d is (2/3)**8 and epsilon 3 / 2**8 short of
        # the rise
        epsilon = share * sup.value
        if not epsilon > 0:
            return
        witness = phi.witness(d, epsilon)
        if len(witness):
            assert witness.total_length < d
            assert ac_sum(f, witness) >= epsilon
            assert all(lo <= x < y <= hi for x, y in witness.pairs)
        elif d >= 0.04:
            assert epsilon > sup.value - 3 / 2 ** 8
        want = (True if epsilon > sup.value + sup.rounding
                else False if epsilon < sup.value - sup.rounding else None)
        assert phi.below(d, epsilon) is want

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
    def test_no_attack_beats_phi_on_paper_certificates(self, f, epsilon):
        # Phi decides every certificate; random collections and a grid
        # search of about 128 steps per delta1 stay below Phi(delta1) and
        # its rounding, and the staircase's fabricated certificate is
        # refused with a witness of sum >= epsilon
        if epsilon is None:
            cert = Certificate(epsilon=0.5, delta1=(2.0 / 3.0) ** 6,
                               partition=Partition((0.0, 1.0)))
        else:
            cert = ac_certificate(f, monotone_partition(f, 501).partition,
                                  epsilon)
        lo, hi = cert.partition.points[0], cert.partition.points[-1]
        d1 = cert.delta1
        sup = exact_phi(f, lo, hi).sup(d1)
        ver = verify_certificate(f, cert)
        assert (ver.method, ver.sup) == ("exact_sup", sup.value)
        assert ver.passed is (epsilon is not None)
        per_pair = pair_rounding(f, lo, hi)

        def below(total, pairs):
            return total <= sup.value + sup.rounding + pairs * per_pair

        for pairs in random_rows(1, lo, hi, d1, 500):
            s = ac_sum(f, IntervalCollection(pairs))
            assert below(s, len(pairs)), (s, sup)
        m = max(257, int(min(8192.0, (hi - lo) / (d1 / 128.0))) + 1)
        rep = worst_ac_sum_oracle(sample(f, IntervalSpec(lo, hi), m), d1)
        assert below(rep.best_sum, len(rep.witness)), (rep, sup)
        if epsilon is None:
            assert ver.worst_sum >= 0.5
            assert ver.worst_collection.total_length < d1

    @pytest.mark.parametrize("f, epsilon", [
        (catalog.sqrt_on_unit(), 0.1), (ZIGZAG, 0.1)], ids=["sqrt", "zigzag"])
    def test_verification_builds_few_collections(self, f, epsilon,
                                                 monkeypatch):
        # Phi's witness is the one collection that a proved certificate
        # builds, and nothing is evaluated in bulk
        cert = ac_certificate(f, monotone_partition(f, 501).partition,
                              epsilon)
        built = []
        init = IntervalCollection.__post_init__

        def counting(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(IntervalCollection, "__post_init__", counting)
        with mock.patch.object(function_model, "_bulk_values",
                               wraps=function_model._bulk_values) as bulk:
            assert verify_certificate(f, cert).passed
        assert len(built) == 1
        assert bulk.call_count == 0

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(pwl_windows(), pwl_windows(ties=True)),
           st.floats(0.0, 1.2), st.integers(0, 3))
    def test_float_phi_matches_the_rational_knapsack(self, case, share, cut):
        f, lo, hi = case
        phi = exact_phi(f, lo, hi)
        d = share * (hi - lo)
        if cut:  # a budget that ends where some segments end, in float
            lengths = np.sort(np.diff(phi.upper.ends))
            d = float(np.cumsum(lengths)[min(cut, len(lengths)) - 1])
        sup = phi.sup(d)
        exact = rational_phi(f.knots, lo, hi, d)
        assert abs(Fraction(sup.value) - exact) <= Fraction(sup.rounding)
        # the rational decision agrees with the reference on both sides
        for epsilon in (sup.value, math.nextafter(sup.value, math.inf)):
            if epsilon > 0:
                assert phi.below(d, epsilon) == (exact < Fraction(epsilon))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6), st.integers(-20, 500), st.floats(1e-3, 1e3),
           st.floats(1e-15, 1e-6))
    def test_tied_slopes_cost_at_most_d(self, teeth, scale, height, share):
        # 2**teeth segments of one exact |slope| over [-2**scale,
        # 2**scale]: every segment ties with the cut, but the tied
        # intervals taken add up to d at most, so Phi(d)'s rounding stays
        # a few ulps of Phi(d) however long the window; the rational
        # decision holds Phi inside it
        n, half = 2 ** teeth, 2.0 ** scale
        xs = [-half + k * (2 * half / n) for k in range(n + 1)]
        f = FunctionSpec.piecewise_linear(tuple(
            (x, height * (k % 2)) for k, x in enumerate(xs)))
        phi = exact_phi(f, -half, half)
        d = share * 2 * half
        sup = phi.sup(d)
        assert sup.rounding <= 1e-13 * sup.value
        exact = rational_phi(f.knots, -half, half, d)
        assert abs(Fraction(sup.value) - exact) <= Fraction(sup.rounding)
        assert phi.settle(d, sup.value + sup.rounding) is True
        assert phi.settle(d, sup.value - sup.rounding) is False

    @settings(max_examples=150, deadline=None)
    @given(poly_windows(degrees=(2, 2)), st.floats(0.0, 1.2))
    def test_quadratic_bracket_holds_the_rational_phi(self, case, share):
        f, lo, hi = case
        d = share * (hi - lo)
        sup = exact_phi(f, lo, hi).sup(d)
        exact = quadratic_phi(f, lo, hi, d)
        assert abs(Fraction(sup.value) - exact) <= Fraction(sup.rounding)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(pwl_windows(), pwl_windows(ties=True), sqrt_windows(),
                     poly_windows(), x2sininv_windows()),
           st.floats(1e-6, 10.0))
    def test_budget_is_the_largest_proved_length(self, case, epsilon):
        f, lo, hi = case
        phi = exact_phi(f, lo, hi)
        d = phi.budget(epsilon)
        sup = phi.sup(d)
        assert 0.0 <= d <= hi - lo
        assert sup.value + sup.rounding < epsilon
        if d < hi - lo:  # rounded down by no more than a few roundings
            assert epsilon - sup.value <= 16 * sup.rounding
            # of the upper bound itself: a bracket's Phi+ gives up none of
            # its half-width
            top = phi.upper.sup(d)
            assert epsilon - (sup.value + sup.rounding) <= 16 * top.rounding

    @settings(max_examples=25, deadline=None)
    @given(pwl_windows(), st.sampled_from([0.05, 0.1, 0.5]))
    @example(case=(FunctionSpec.piecewise_linear(((0.0, 0.0), (1.0, 0.0))),
                   0.99999, 1.0), epsilon=0.05)
    def test_verified_pwl_certificates_are_sound(self, case, epsilon):
        # detection may miss a sub-grid spike and certify pieces it never
        # saw; a certificate verified anyway has Phi(delta1) < epsilon in
        # exact arithmetic.  Near 1 a 1e-5 window's 257 points have gaps
        # that differ by more than 1e-9 relative but within their rounding:
        # the grid is uniform and detection runs.
        f, lo, hi = case
        f = FunctionSpec.piecewise_linear(f.knots, IntervalSpec(lo, hi))
        result = monotone_partition(f, 65)
        if not result.stable:
            return
        try:
            cert = ac_certificate(f, result.partition, epsilon)
        except Unachievable:
            return
        ver = verify_certificate(f, cert)
        assert ver.method == "exact_sup"
        exact = rational_phi(f.knots, lo, hi, cert.delta1)
        assert ver.passed == (exact < epsilon and ver.worst_sum < epsilon)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1.0, 10.0), st.integers(0, 12), st.integers(22, 40),
           st.sampled_from(["sqrt", "pwl"]),
           st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2),
           st.floats(0.01, 2.0))
    def test_far_windows_verify_only_proved_certificates(
            self, mantissa, exponent, ulps, kind, ys, share):
        # windows up to 1e12 from zero and 2**22 to 2**40 ulps wide: their
        # grids' gaps differ by more than 1e-9 relative, within 4 ulps, so
        # they are uniform.  A certificate verified there has Phi(delta1)
        # < epsilon in exact arithmetic, and no worst-sum witness's float
        # length reaches its budget.
        lo = mantissa * 10.0 ** exponent
        hi = lo + math.ulp(lo) * 2.0 ** ulps
        window = IntervalSpec(lo, hi)
        if kind == "sqrt":
            f = FunctionSpec.sqrt(window)
            rise = float(Decimal(hi).sqrt() - Decimal(lo).sqrt())
        else:
            mid = lo + (hi - lo) / 3
            f = FunctionSpec.piecewise_linear(
                ((lo, 0.0), (mid, ys[0]), (hi, ys[1])))
            rise = abs(ys[0]) + abs(ys[1] - ys[0])
        epsilon = share * rise
        if not epsilon > 0:
            return
        result = monotone_partition(f, 65)
        assert all(g.uniform for g in result.grids)
        cert = None
        if result.stable:
            try:
                cert = ac_certificate(f, result.partition, epsilon)
            except Unachievable:
                pass
        if cert is not None:
            ver = verify_certificate(f, cert)
            assert ver.method == "exact_sup"
            if ver.passed:
                if kind == "sqrt":
                    with localcontext() as ctx:
                        ctx.prec = 60
                        d = min(Decimal(cert.delta1), Decimal(hi) - Decimal(lo))
                        exact = (Decimal(lo) + d).sqrt() - Decimal(lo).sqrt()
                    assert exact < Decimal(epsilon)
                else:
                    assert rational_phi(f.knots, lo, hi, cert.delta1) < epsilon
        grid = sample(f, window, 2001)
        assert grid.uniform
        budget = cert.delta1 if cert is not None else (hi - lo) / 7
        if budget > grid.spacing:
            rep = worst_ac_sum_oracle(grid, budget)
            assert rep.witness.total_length < budget

    def test_sqrt_straddle_is_decided_in_rationals(self):
        # sqrt(0.01) rounds to 0.1, but the float 0.01 lies above 1/100 by
        # less than the float 0.1 lies above 1/10
        phi = exact_phi(catalog.sqrt_on_unit(), 0.0, 1.0)
        sup = phi.sup(0.01)
        assert sup.value == 0.1
        assert phi.below(0.01, 0.1)
        assert not phi.below(0.01, math.nextafter(0.1, 0))
        # and the affine map 0.1 * x reaches the float 0.1 exactly at d = 1
        phi = exact_phi(FunctionSpec.affine(0.1, 0.0, IntervalSpec(0.0, 1.0)),
                        0.0, 1.0)
        sup = phi.sup(1.0)
        assert abs(sup.value - 0.1) <= sup.rounding  # the float leaves it open
        assert not phi.below(1.0, 0.1)
        assert phi.below(1.0, math.nextafter(0.1, 1))

    def test_spike_between_grid_points_is_not_verified(self):
        # the grids see one increasing affine piece, whose interval at
        # the favourable end stays below epsilon up to 0.1; Phi takes both
        # sides of the spike first, so a certificate at that length fails
        f = FunctionSpec.piecewise_linear(
            ((0.0, 0.0), (0.300011, 0.300011), (0.300013, 5.0),
             (0.300015, 0.300015), (1.0, 1.0)))
        pieces = monotone_partition(f, 4001).pieces
        assert [(p.shape, p.monotonicity) for p in pieces] == [
            (Shape.AFFINE, Monotonicity.INCREASING)]  # the false label
        budget = exact_phi(f, 0.0, 1.0).budget(0.1)
        # ac_certificate reads the piece's Phi, not its label: proved
        proved = ac_certificate(f, Partition.from_pieces(pieces), 0.1)
        assert proved.delta1 == pytest.approx(0.99 * budget, rel=1e-12)
        assert verify_certificate(f, proved).passed
        cert = Certificate(epsilon=0.1, delta1=0.0891,
                           partition=Partition.from_pieces(pieces))
        ver = verify_certificate(f, cert)
        assert (ver.method, ver.passed) == ("exact_sup", False)
        assert ver.sup == pytest.approx(9.489, abs=1e-3)
        assert ver.delta1_opt == budget < 1e-7 < cert.delta1
        # the report shows the collection that Phi takes: both sides of
        # the spike, which f climbs and falls, so they stay two intervals,
        # and the rest of delta1 on the first slope-1 segment
        first, *spike = ver.worst_collection.pairs
        assert spike == [(0.300011, 0.300013), (0.300013, 0.300015)]
        assert first[0] == 0.0 and first[1] < cert.delta1
        assert ver.worst_collection.total_length < cert.delta1
        assert ver.worst_sum == ac_sum(f, ver.worst_collection)
        assert ver.worst_sum == pytest.approx(ver.sup, rel=1e-12)

    @pytest.mark.parametrize("f, sup, passed", [
        (catalog.cantor_on_unit(), (1.0, 1.0), False),
        (FunctionSpec.x_squared_sin_inv(IntervalSpec(0.0, 1.0)),
         (0.13, 0.14), True)],
        ids=["cantor", "x2sininv"])
    def test_counterexample_kinds_have_phi(self, f, sup, passed):
        # the staircase's Phi is its whole rise at every d > 0, so no
        # budget is proved; x^2 sin(1/x) is Lipschitz, and its bracket
        # proves a budget of 0.0752 at epsilon 0.1
        phi = exact_phi(f, f.domain.lo, f.domain.hi)
        cert = Certificate(epsilon=0.5, delta1=0.1,
                           partition=Partition((f.domain.lo, f.domain.hi)))
        ver = verify_certificate(f, cert)
        assert (ver.method, ver.passed) == ("exact_sup", passed)
        assert sup[0] <= ver.sup <= sup[1]
        assert ver.delta1_opt == phi.budget(0.5)
        assert ver.worst_collection.total_length < 0.1
        assert ver.worst_sum == ac_sum(f, ver.worst_collection)
        if passed:
            assert 0.1 < ver.delta1_opt and ver.worst_sum < 0.5
            assert phi.budget(0.1) == pytest.approx(0.0752, abs=1e-4)
        else:
            assert ver.delta1_opt == 0.0 and ver.worst_sum >= 0.5
            assert phi.sup(0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("f, epsilon, phi, top", [
        (catalog.squared(), 0.4, lambda d: 20 * d - d * d, 10.0),
        (catalog.cubed(), 0.1, lambda d: 2 - 2 * (1 - d / 2) ** 3, 1.0)],
        ids=["squared", "cubed"])
    def test_polynomials_have_a_bracket(self, f, epsilon, phi, top):
        # x^2 on [0, 10] is steepest at 10 and x^3 on [-1, 1] at both
        # ends, so Phi is known; the bracket holds it, is narrow, and
        # proves the paper's certificate without a trial
        lo, hi = f.domain.lo, f.domain.hi
        bracket = exact_phi(f, lo, hi)
        for d in (1e-3, 0.0179, 0.5, hi - lo):
            sup = bracket.sup(d)
            assert abs(sup.value - phi(d)) <= sup.rounding
            assert sup.rounding <= 0.01 * top * d  # about r * M2 * d
        budget = bracket.budget(epsilon)
        assert phi(budget) < epsilon < phi(1.01 * budget)
        cert = ac_certificate(f, monotone_partition(f, 501).partition,
                              epsilon)
        assert budget > cert.delta1
        ver = verify_certificate(f, cert)
        assert (ver.method, ver.passed) == ("exact_sup", True)
        # sup is the bracket's midpoint, so the witness's sum may pass it;
        # both lie within the bracket around Phi(delta1), below epsilon
        sup = bracket.sup(cert.delta1)
        assert ver.sup == sup.value
        assert ver.worst_sum <= sup.value + sup.rounding < epsilon
        assert ver.worst_sum <= phi(cert.delta1) * (1 + 1e-12)

    def test_open_bracket_is_undecided(self):
        # epsilon at Phi(delta1) itself: every refinement of the cells
        # leaves the bracket straddling it, so nothing is proved; refined
        # brackets still hold Phi
        f = catalog.squared()
        d = 0.0179
        phi = 20 * d - d * d
        cells = function_model._poly_cells(f.coefficients)
        for n in (1024, 4096, 65536):
            sup = function_model._envelope_phi(cells, 0.0, 10.0, n).sup(d)
            assert abs(sup.value - phi) <= sup.rounding
        cert = Certificate(epsilon=phi, delta1=d,
                           partition=Partition((0.0, 10.0)))
        bracket = exact_phi(f, 0.0, 10.0)
        with mock.patch.object(function_model, "_envelope_phi",
                               wraps=function_model._envelope_phi) as envelopes:
            assert bracket.below(d, phi) is None
        assert [c.args[3] for c in envelopes.call_args_list] == [
            4096, 16384, 65536]
        ver = verify_certificate(f, cert)
        assert (ver.method, ver.passed) == ("undecided", None)
        assert abs(ver.sup - phi) <= bracket.sup(d).rounding
        assert ver.worst_sum < phi

    def test_overflowing_slope_has_no_closed_form(self):
        # a rise of 1 over a subnormal run: the slope overflows, so Phi
        # decides nothing and the certificate is not proved
        f = FunctionSpec.piecewise_linear(
            ((0.0, 0.0), (5e-324, 1.0), (1.0, 1.0)))
        assert exact_phi(f, 0.0, 1.0) is None
        cert = Certificate(epsilon=2.0, delta1=0.5,
                           partition=Partition((0.0, 1.0)))
        ver = verify_certificate(f, cert)
        assert (ver.method, ver.passed, ver.sup, ver.delta1_opt) == (
            "undecided", None, None, None)

    def test_overflowing_sup_builds_no_witness(self):
        # finite slopes whose sum overflows: Phi(delta1) is not known, and
        # the witness's sum would overflow too, so none is built
        f = FunctionSpec.piecewise_linear(
            ((0.0, 0.0), (1.0, 1e308), (2.0, 0.0), (3.0, 1e308), (4.0, 0.0)))
        phi = exact_phi(f, 0.0, 4.0)
        assert phi is not None and phi.sup(3.5) is None
        cert = Certificate(epsilon=1.0, delta1=3.5,
                           partition=Partition((0.0, 4.0)))
        ver = verify_certificate(f, cert)
        assert (ver.method, ver.passed, ver.sup, ver.worst_sum) == (
            "undecided", None, None, 0.0)
        assert len(ver.worst_collection) == 0
        assert ver.delta1_opt == phi.budget(1.0)

    def test_sine_table_window(self):
        # |cos| rearranged: the steepest length d sits around 0, pi and
        # 2 pi, and Phi(d) = 4 sin(d / 4) up to the table's knot spacing
        f = catalog.sine_table()
        sup = exact_phi(f, 0.0, 2 * math.pi).sup(0.4)
        assert sup.value == pytest.approx(4 * math.sin(0.1), rel=1e-6)
        assert sup.rounding < 1e-12
