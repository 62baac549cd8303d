"""Modulus of continuity, interval gluing, worst-sum search and certificates.

The central objects are finite collections of nonoverlapping subintervals
{(x_i, y_i)} with a total-length budget.  Four complementary tools bound or
search their increment sums sum |f(y_i) - f(x_i)|:

* ``gluing_bound_check`` packs a collection into one
  contiguous interval of the same total length, anchored at the end where
  increments are largest; on monotone convex/concave pieces the packed
  increment dominates the collection's sum.
* ``worst_ac_sum_oracle`` finds the grid-aligned collection with the largest
  increment sum: in closed form when the largest grid steps within the
  budget, rounding-level ties taken lowest index first so that a linear
  piece yields one glued run, form few enough same-sign runs, else by
  dynamic programming over (grid index, budget units, interval count).
* ``exact_phi`` builds Phi, the supremum Phi(d) of the increment sums
  over every collection of total length at most d, once per window: in
  closed form for piecewise linear data, polynomials of degree at most one,
  the square root and the Cantor staircase, and as a certified bracket for
  polynomials of higher degree and x**2 sin(1/x).  Its methods give Phi(d),
  the largest d proved to have Phi(d) < epsilon, that decision for a given
  d, and a collection that nearly reaches Phi(d) or reaches epsilon.
* ``ac_certificate`` / ``verify_certificate`` invert each piece's anchored
  increment into a concrete (epsilon, delta_1) certificate: every
  collection of total length below delta_1 has increment sum below epsilon.
  Phi proves or refuses the certificate, or the report says that it could
  not decide.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .convexity import (
    Direction,
    Partition,
    ShapePiece,
    expected_direction,
)
from .errors import (
    BudgetError,
    EmptyCollection,
    GeometryError,
    InsufficientData,
    PreconditionError,
    Unachievable,
)
from .function_model import (
    CANTOR,
    CANTOR_DEPTH,
    POLY,
    SQRT,
    X2SININV,
    FunctionSpec,
    SampleGrid,
    _cantor_bricks,
    _horner,
    _round_rational,
    evaluate,
)

#: default interval cap for the worst-sum search
DEFAULT_MAX_INTERVALS = 32

#: ac_certificate shrinks each piece's inverted step by this factor
MODULUS_SAFETY = 0.9

#: delta_1 keeps this fraction of the per-piece bound
DELTA1_SAFETY = 0.99

#: the worst-sum oracle's answer never exceeds its step-sum bound times
#: 1 + BOUND_SLACK (the slack absorbs the rounding of the grid steps)
BOUND_SLACK = 1e-9

#: the worst-sum oracle treats steps within _TIE_BAND * eps * max|v| of the
#: `units`-th largest |step| as tied, capped so that the band never costs
#: more than BOUND_SLACK (``_tie_tau``)
_TIE_BAND = 16

#: relative slack of the modulus kernel's gap-extreme lag test: it covers the
#: rounding of the float gaps, of the differences and of the test's products
_GAP_SLACK = 8 * sys.float_info.epsilon

#: equal cells of the |f'| envelope that brackets Phi for a polynomial of
#: degree >= 2 and for x**2 sin(1/x); ``_envelope_phi`` refines them
#: fourfold, up to _MAX_CELLS, while the bracket leaves Phi(d) < epsilon open
_CELLS = 1024
_MAX_CELLS = 65536

#: finest stage of the Cantor witness's bricks: at most 2**12 intervals
_CANTOR_STAGES = 12


class Anchor(str, Enum):
    LEFT = "LeftAnchored"
    RIGHT = "RightAnchored"


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalCollection:
    """Sorted nonoverlapping pairs (x_i, y_i) with x_i < y_i, y_i <= x_{i+1}."""

    pairs: tuple

    def __post_init__(self) -> None:
        ps = tuple((x, y) for x, y in self.pairs)
        for x, y in ps:
            if not x < y:
                raise GeometryError(f"degenerate pair ({x}, {y})")
        for (_, y0), (x1, _) in zip(ps, ps[1:]):
            if y0 > x1:
                raise GeometryError("pairs overlap or are unsorted")
        object.__setattr__(self, "pairs", ps)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def total_length(self):
        lens = [y - x for x, y in self.pairs]
        if all(isinstance(l, float) for l in lens):
            return math.fsum(lens)
        return sum(lens)


@dataclass(frozen=True)
class ModulusCurve:
    """Tabulated (delta, omega) pairs with delta strictly increasing."""

    samples: tuple

    @property
    def omegas(self) -> tuple:
        return tuple(w for _, w in self.samples)


@dataclass(frozen=True)
class ACWorstReport:
    delta: float
    best_sum: float
    witness: IntervalCollection
    method: str
    grid_spacing: float
    #: the sum of the `units` largest grid steps, which caps best_sum (grid
    #: searches only; None for a closed form)
    step_bound: float | None = None


@dataclass(frozen=True)
class Certificate:
    """(epsilon, delta_1) certificate; partition and budget follow the pieces."""

    epsilon: float
    delta1: float
    monotone_pieces: tuple

    @property
    def partition(self) -> Partition:
        return Partition.from_pieces(self.monotone_pieces)

    @property
    def per_piece_budget(self) -> float:
        return self.epsilon / len(self.monotone_pieces)


@dataclass(frozen=True)
class GluingCheck:
    lhs: float
    rhs: float
    holds: bool
    direction_used: Anchor


@dataclass(frozen=True)
class VerificationReport:
    #: Phi(delta_1) < epsilon proved (True) or refused (False); None where
    #: Phi could not decide it
    passed: bool | None
    #: the largest increment sum of the collections built, and one of them
    worst_sum: float
    worst_collection: IntervalCollection
    #: "exact_sup" when Phi(delta_1) decided ``passed``, else "undecided"
    method: str
    #: Phi(delta_1) in float (a bracket's midpoint for a polynomial of
    #: degree >= 2 or x**2 sin(1/x)), None where it overflows
    sup: float | None = None
    #: the largest length that Phi proves on the certificate's window
    #: (``Phi.budget``), None where no Phi exists
    delta1_opt: float | None = None


class ExactSup(NamedTuple):
    """Phi(d) in float and a bound on its rounding:
    |value - Phi(d)| <= rounding."""

    value: float
    rounding: float


def ac_sum(f: FunctionSpec, c: IntervalCollection) -> float:
    """Increment sum of a collection: sum of |f(y_i) - f(x_i)|."""
    return math.fsum(abs(evaluate(f, y) - evaluate(f, x)) for x, y in c.pairs)


# ---------------------------------------------------------------------------
# Modulus of continuity
# ---------------------------------------------------------------------------

def modulus_on_grid(grid: SampleGrid, deltas) -> ModulusCurve:
    """Modulus curve on an explicit grid, exact at every grid size.

    omega(delta) is the largest |v_j - v_i| over grid pairs with
    x_j - x_i <= delta, compared in the abscissae's own arithmetic (float or
    exact rational), made nondecreasing by a running maximum.  It is read as
    the largest max - min over the windows [s_j, j] within delta of x_j
    (float subtraction is monotone, so the values are a pair scan's).  On a
    constant lag L the windows [j - L, j], j >= L, contain the clipped
    ones.  L comes from bounds on the grid's L-step lengths
    (``_certified_lag``), or else from exact slice tests (``_lag``), whose
    exceptions, the points with xs[j] - xs[j - L - 1] <= delta too, get
    exact starts and gathers.

    On monotone values (``_trend``) a window's range is its end difference:
    each delta costs two O(m) passes, the largest +-(vs[j] - vs[j - L]),
    plus O(e) for e exceptions, and no row is built: past the exact slice
    tests the kernel holds one scratch array of m floats.  Other values
    read the windows as two contiguous slices of one row of block extrema,
    in four O(m) passes per delta.  The rows of 2**k-point block maxima and
    minima are built as the lags ascend, two O(m) passes each, and dropped
    below the current lag's row: a uniform grid keeps one or two rows of
    16 * m bytes, for a peak of a few arrays of m floats (under 8 MB at
    m = 100001); other grids keep the rows their exceptions read.
    """
    ds = list(deltas)
    if not ds:
        raise InsufficientData("at least one delta is required")
    if any(not d > 0 for d in ds):
        raise BudgetError("deltas must be positive")
    if any(b <= a for a, b in zip(ds, ds[1:])):
        raise BudgetError("deltas must be strictly increasing")
    span = grid.span
    if any(d > span for d in ds):
        raise BudgetError(f"delta exceeds the window length {span}")
    xs, vs = grid.abscissae, grid.values
    m = len(vs)
    # a rational grid's lags are all settled exactly (gmin 0)
    gmin = 0.0 if xs.dtype == object else grid.narrowest
    gmax, h = float(grid.spacing), float(grid.step)
    drift = math.inf  # measured when the gap extremes first settle no lag
    scratch = np.empty(m)  # no m-float array per delta
    trend = _trend(vs)
    if not trend:
        lo = np.empty(m)
        rows = {0: (vs, vs)}  # level k -> max and min of vs[i : i + 2**k]
    best = 0.0
    samples = []
    for d in ds:
        lag = _certified_lag(d, gmin, gmax, h, drift)
        if lag is None and drift == math.inf and gmin > 0:
            drift = _drift(xs, h)
            lag = _certified_lag(d, gmin, gmax, h, drift)
        ends = ()
        if lag is None:
            lag, ends = _lag(grid, d)
            starts = _window_starts(grid, d, ends)
        n = m - lag
        if trend:
            # the windows [j - lag, j] and the exceptions' [start, end]
            up, down = (vs[lag:], vs[:n]) if trend > 0 else (vs[:n], vs[lag:])
            found = [float(np.subtract(up, down, out=scratch[:n]).max())]
            if len(ends):
                up, down = (ends, starts) if trend > 0 else (starts, ends)
                found.append(float((vs[up] - vs[down]).max()))
            best = max(best, *found)
            samples.append((d, best))
            continue
        groups = []  # exceptions by row: (level, first and last block columns)
        if len(ends):
            levels = np.frexp(ends - starts + 1)[1] - 1  # floor(log2(length))
            for k in np.unique(levels).tolist():
                at = levels == k
                groups.append((k, starts[at], ends[at] + 1 - (1 << k)))
        level = (lag + 1).bit_length() - 1
        high = max([level] + [k for k, _, _ in groups])
        # rows up to `high`, each made from the one below it; the lags
        # ascend with delta, so no later window reads a row below `level`
        for k in range(min(rows), min(level, max(rows))):
            del rows[k]
        for k in range(max(rows), high):
            top, bottom = rows.pop(k) if k < level else rows[k]
            half = 1 << k
            rows[k + 1] = (np.maximum(top[:-half], top[half:]),
                           np.minimum(bottom[:-half], bottom[half:]))
        # windows [j - lag, j] for j >= lag: the blocks of row `level` at
        # columns j - lag and j - lag + shift, i.e. two contiguous slices
        shift = lag + 1 - (1 << level)
        found = [_widest_range(rows[level], slice(0, n),
                               slice(shift, shift + n), scratch[:n], lo[:n])]
        found += [_widest_range(rows[k], i, j, scratch[:len(i)], lo[:len(i)])
                  for k, i, j in groups]
        best = max(best, *found)
        samples.append((d, best))
    return ModulusCurve(tuple(samples))


def _trend(vs: np.ndarray) -> int:
    """1 if vs never falls, -1 if it falls and never rises, else 0; one
    comparison pass, in the direction its end values allow."""
    if vs[-1] >= vs[0]:
        return 1 if (vs[1:] >= vs[:-1]).all() else 0
    return -1 if (vs[1:] <= vs[:-1]).all() else 0


def _certified_lag(delta, gmin: float, gmax: float, h: float,
                   drift: float = math.inf):
    """L = floor(delta / h) if every xs[j] - xs[j - L] is provably within
    delta and no xs[j] - xs[j - L - 1] is, else None.

    A k-step length lies within [k gmin, k gmax] (the gap extremes) and
    within k h +- 2 drift, drift bounding |xs[j] - (xs[0] + j h)|
    (``_drift``).  The tighter bounds, with a relative slack s for the
    rounding of the products and of the float differences, decide: the
    gaps settle every lag off a tie near zero, the drift far from it,
    where the gaps differ by their rounding (0.3% at 1e6 with h = 4e-8)
    but each point is within a few ulps of its place.  None also for
    subnormal gaps, whose products have no relative accuracy.
    """
    if not gmin >= sys.float_info.min:
        return None
    lag = math.floor(delta / h)
    longest = min(lag * gmax, lag * h + 2 * drift) * (1 + _GAP_SLACK)
    shortest = max((lag + 1) * gmin, (lag + 1) * h - 2 * drift)
    if longest <= delta < shortest * (1 - _GAP_SLACK):
        return lag
    return None


def _drift(xs: np.ndarray, h: float) -> float:
    """A bound on |xs[j] - (xs[0] + j h)| over a float grid, in one array
    built in place: the largest computed distance, plus the rounding of
    the line xs[0] + j h itself, half an ulp of j h and of the sum, under
    2 ulps of max(max |x|, span)."""
    line = np.arange(len(xs), dtype=float)
    line *= h
    line += xs[0]
    line -= xs
    top = max(-float(xs[0]), float(xs[-1]), float(xs[-1] - xs[0]))
    return float(np.abs(line, out=line).max()) * (1 + _GAP_SLACK) + (
        2 * math.ulp(top))


def _lag(grid: SampleGrid, delta) -> tuple:
    """The largest lag L with xs[j] - xs[j - L] <= delta for every j >= L,
    and the exceptions: the indices j > L with xs[j] - xs[j - L - 1] <= delta
    as well, whose windows reach further back.

    floor(delta / (gmax * (1 + s))) is a valid lag on every grid, since
    ``_GAP_SLACK`` absorbs the rounding of the quotient; the search gallops
    up from it, then bisects, with one contiguous slice test per probe (the
    test is monotone in the lag).
    """
    xs = grid.abscissae
    m = len(xs)

    def fits(k):
        return k < m and (xs[k:] - xs[:m - k]).max() <= delta

    lag = min(math.floor(delta / (grid.spacing * (1 + _GAP_SLACK))), m - 1)
    step = 1
    while fits(lag + step):
        lag += step
        step *= 2
    while step > 1:  # lag fits and lag + step does not
        step //= 2
        if fits(lag + step):
            lag += step
    reach = xs[lag + 1:] - xs[:m - lag - 1]  # empty at lag m - 1
    return lag, np.flatnonzero(reach <= delta) + (lag + 1)


def _widest_range(row: tuple, i, j, hi, lo) -> float:
    """The largest max - min over the windows covered by the blocks of `row`
    at columns i and j (slices or index arrays); hi and lo are scratch."""
    top, bottom = row
    np.maximum(top[i], top[j], out=hi)
    np.minimum(bottom[i], bottom[j], out=lo)
    return float(np.subtract(hi, lo, out=hi).max())


def _window_starts(grid: SampleGrid, delta, ends=None) -> np.ndarray:
    """For every j in ``ends`` (default: every index), the smallest i with
    xs[j] - xs[i] <= delta.

    The first guess is j - floor(delta / h), clipped at 0, on a uniform grid
    (``SampleGrid.uniform``), in O(e) for e ends, and ``searchsorted`` on
    xs[i] >= xs[j] - delta on any other, in O(e log m).  The loops then step
    each start, one point per pass, to the exact boundary of the difference
    test (monotone in i); the guesses are off by a point or two, since
    xs[j] - delta rounds differently from xs[j] - xs[i].
    """
    xs = grid.abscissae
    m = len(xs)
    if ends is None:
        ends = np.arange(m)
    ys = xs[ends]
    if grid.uniform:
        starts = ends - math.floor(delta / grid.step)
        np.maximum(starts, 0, out=starts)
    else:
        starts = np.searchsorted(xs, ys - delta)
    while (down := (starts > 0) & (ys - xs[starts - 1] <= delta)).any():
        starts -= down
    while (up := ys - xs[starts] > delta).any():
        starts += up
    return starts


# ---------------------------------------------------------------------------
# Gluing
# ---------------------------------------------------------------------------

def _glued_ends(c: IntervalCollection, anchor: Anchor) -> tuple:
    """Ends (z_1, z_{n+1}) of the collection packed into one interval.

    Left-anchored: z_1 = x_1 and the pair lengths are added one by one from
    the left.  Right-anchored: z_{n+1} = y_n and they are subtracted one by
    one from the right.  Every partial sum must move the running end.
    """
    if len(c) == 0:
        raise EmptyCollection("cannot glue an empty collection")
    sigmas = [y - x for x, y in c.pairs]
    if anchor is Anchor.LEFT:
        start = end = c.pairs[0][0]
        for s in sigmas:
            end, previous = end + s, end
            if not end > previous:
                raise GeometryError(
                    "chain breakpoints collapsed; lengths too small")
    else:
        start = end = c.pairs[-1][1]
        for s in reversed(sigmas):
            start, previous = start - s, start
            if not start < previous:
                raise GeometryError(
                    "chain breakpoints collapsed; lengths too small")
    return start, end


def _anchor_for(piece: ShapePiece) -> Anchor:
    direction = expected_direction(piece)
    if direction is Direction.NONDECREASING:
        return Anchor.RIGHT
    return Anchor.LEFT


def _favourable_interval(piece: ShapePiece, d):
    """The interval of length d at the piece's favourable end, clamped to
    the piece: (lo, lo + d) when left-anchored, (hi - d, hi) when
    right-anchored.  By the increment lemma its increment is the largest of
    any interval of length d in the piece."""
    lo, hi = piece.interval.lo, piece.interval.hi
    if _anchor_for(piece) is Anchor.LEFT:
        return lo, min(hi, lo + d)
    return max(lo, hi - d), hi


def _clamp_into(x, lo, hi, slack):
    if x < lo:
        if lo - x > slack:
            raise GeometryError(f"chain point {x} escapes piece [{lo}, {hi}]")
        return lo
    if x > hi:
        if x - hi > slack:
            raise GeometryError(f"chain point {x} escapes piece [{lo}, {hi}]")
        return hi
    return x


def gluing_bound_check(f: FunctionSpec, piece: ShapePiece, c: IntervalCollection,
                       tol: float | None = None) -> GluingCheck:
    """Check that the glued single increment dominates the collection sum.

    The chain is anchored at the end where increments are largest: left when
    the increment curve is nonincreasing, right when nondecreasing.  Reports
    lhs = sum |f(y_i) - f(x_i)| and rhs = |f(z_{n+1}) - f(z_1)|.
    """
    lo, hi = piece.interval.lo, piece.interval.hi
    for x, y in c.pairs:
        if x < lo or y > hi:
            raise GeometryError(f"pair ({x}, {y}) leaves the piece [{lo}, {hi}]")
    anchor = _anchor_for(piece)
    z_first, z_last = _glued_ends(c, anchor)
    span = hi - lo
    slack = 16.0 * sys.float_info.epsilon * (abs(lo) + abs(hi) + span) * max(1, len(c))
    z_first = _clamp_into(z_first, lo, hi, slack)
    z_last = _clamp_into(z_last, lo, hi, slack)
    lhs = ac_sum(f, c)
    rhs = abs(evaluate(f, z_last) - evaluate(f, z_first))
    if tol is None:
        tol = 1e-9 * max(1.0, abs(lhs), abs(rhs))
    return GluingCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol,
                       direction_used=anchor)


# ---------------------------------------------------------------------------
# Worst-sum search
# ---------------------------------------------------------------------------

def worst_ac_sum_oracle(grid: SampleGrid, delta,
                        max_intervals: int = DEFAULT_MAX_INTERVALS) -> ACWorstReport:
    """Maximize the increment sum over grid-aligned collections.

    Interval endpoints are restricted to the (uniform) grid, so every
    interval length is an exact multiple of the grid unit and the strict
    total-length constraint `< delta` becomes the exact unit budget
    `<= delta - one unit`.

    Splitting an interval never lowers its increment sum, and touching
    pairs are legal, so the sum of the `units` largest steps
    |v[j+1] - v[j]| bounds every collection (``step_bound``).  The
    bound-first path (method "OracleBound") takes `units` steps by one
    tie-aware rule (``_top_step_runs``): every step above the band
    t +- tau around the `units`-th largest |step| t, then band steps,
    lowest index first, with tau = min(16 eps max|v|, BOUND_SLACK t / 2)
    covering the steps' rounding (``_tie_tau``).  It groups the nonzero
    ones into maximal runs of consecutive same-sign steps; when there are
    at most `max_intervals` runs, one interval per run answers within
    2 r tau <= BOUND_SLACK * bound of the bound, r being the number of band
    steps taken, in O(m) time and memory.  On an affine piece the steps tie
    up to rounding, so they form one glued interval, which by the gluing
    bound dominates any collection there.  When there are more runs but
    fewer nonzero steps than `units`, the bound is the total of all steps,
    and ``_bridged_runs`` glues neighbouring runs of one sign across the
    shortest gaps of zero steps between them; if the nonzero steps and the
    len(runs) - kmax gaps bridged fit in `units`, its kmax intervals reach
    the bound exactly (method "OracleBound" too).  Otherwise a dynamic program
    (method "OracleDP", ``_dp_pairs``) searches states (grid index, units
    used, intervals used), with kmax = min(max_intervals, units).  It
    carries a rising open interval only if some step is > 0 and a falling
    one only if some step is < 0: on monotone data the other direction
    never wins, so one open state suffices.  It walks only the m' grid
    points that do not lie strictly inside a run of zero steps, in
    m' * (units + 1) * (kmax + 1) bytes of choice history plus
    O(m + (units + 1) * (kmax + 1)) floats; the folding does not change its
    answer.  Only the DP is limited by the state-space guard (BudgetError
    when 3 * m' * (units + 1) * (kmax + 1) > 4e8, whichever directions it
    carries; its message names ``step_bound``), and its result never
    exceeds the bound.  The witness's endpoints are the grid's own
    abscissae, looked up by index, so a grid of Fractions gives exact ones.
    """
    if max_intervals < 1:
        raise ValueError("max_intervals must be >= 1")
    units, pairs_idx, bound = _step_bound(grid, delta)
    v = grid.values
    # touching pairs (y_i = x_{i+1}) are legal, so up to `units` intervals fit
    kmax = min(max_intervals, units)
    if len(pairs_idx) > kmax:
        pairs_idx = _bridged_runs(v, pairs_idx, units, kmax)
    if pairs_idx is not None:
        method = "OracleBound"
    else:
        method = "OracleDP"
        try:
            pairs_idx = _dp_pairs(v, units, kmax)
        except BudgetError as exc:
            raise BudgetError(f"{exc} (step_bound {bound!r})") from None
    # only the pairs' endpoints, as Python floats (or exact Fractions)
    idx = np.array(pairs_idx, dtype=np.intp).reshape(-1, 2)
    witness = IntervalCollection(
        tuple(map(tuple, grid.abscissae[idx].tolist())))
    best_sum = math.fsum(abs(v[e] - v[s]) for s, e in pairs_idx)
    assert best_sum <= bound * (1.0 + BOUND_SLACK), (best_sum, bound)
    return ACWorstReport(delta=delta, best_sum=best_sum, witness=witness,
                         method=method, grid_spacing=float(grid.spacing),
                         step_bound=bound)


def _step_bound(grid: SampleGrid, delta):
    """(units, runs, bound) of a budget delta on a uniform grid.

    ``units`` is the number of grid steps that fit strictly below delta,
    and (runs, bound) are ``_top_step_runs`` of the grid's values for that
    many units: ``bound`` caps every grid-aligned collection's increment
    sum, and ``worst_ac_sum_oracle``'s answer never exceeds it.  Any
    `units` steps are at most units * gmax long, which exceeds units * h by
    the gaps' rounding, so `units` is also kept below
    delta / (gmax (1 + s)): no witness's float length reaches delta.
    """
    m = len(grid)
    if not grid.uniform:
        raise InsufficientData("the worst-sum search requires a uniform grid")
    if not delta > grid.spacing:
        raise BudgetError(
            f"delta {delta} must exceed the grid spacing {grid.spacing}")
    units = int(math.floor(float(delta) / float(grid.step) - 1.0 + 1e-9))
    longest = float(grid.spacing) * (1 + _GAP_SLACK)
    units = min(units, m - 1, math.ceil(float(delta) / longest) - 1)
    runs, bound = _top_step_runs(grid.values, units)
    return units, runs, bound


def _top_step_runs(values: np.ndarray, units: int):
    """(runs, bound) for the `units` largest steps |values[j+1] - values[j]|.

    ``bound`` is the exact sum of the `units` largest |steps|; BudgetError
    when it overflows, although every step is finite.  The steps
    taken are chosen by one tie-aware rule: with t the `units`-th largest
    |step| and tau = ``_tie_tau(values, t)``, every step above
    t + tau is taken, then steps within tau of t, lowest index first, until
    `units` are taken.  Zero steps are dropped and the rest grouped into
    maximal runs of consecutive same-sign steps; run (s, e) covers steps
    s .. e - 1, i.e. the grid interval from index s to index e.

    tau covers the rounding of the steps themselves, so steps that differ
    by less are treated as equal.  On an affine piece every step is the same
    up to rounding, and the chosen steps then form one contiguous run: one
    glued interval, as the gluing bound says, instead of the scatter a
    strict order of the rounding noise would pick.  Each of the r steps
    taken from the band is within 2 tau of the one it displaces, so the
    runs' summed magnitude is within 2 r tau <= r BOUND_SLACK t
    <= BOUND_SLACK * ``bound`` of ``bound``.  O(m) time.
    """
    if units == 0:
        return [], 0.0
    steps = np.diff(values)
    magnitude = np.abs(steps)
    n = len(magnitude)
    top = np.partition(magnitude, n - units)[n - units:]
    try:
        bound = math.fsum(top)
    except OverflowError:
        raise BudgetError(f"the sum of the {units} largest grid steps "
                          "overflows") from None
    t = top[0]
    tau = _tie_tau(values, t)
    taken = magnitude > t + tau
    band = np.flatnonzero(np.abs(magnitude - t) <= tau)
    taken[band[:units - np.count_nonzero(taken)]] = True
    sign = np.zeros(n + 2)
    sign[1:-1] = np.where(taken, np.sign(steps), 0.0)
    change = sign[1:] != sign[:-1]
    starts = np.flatnonzero(change & (sign[1:] != 0))
    ends = np.flatnonzero(change & (sign[:-1] != 0))
    return list(zip(starts.tolist(), ends.tolist())), bound


def _bridged_runs(values: np.ndarray, runs: list, units: int, kmax: int):
    """``_top_step_runs``'s runs merged into kmax intervals that reach the
    step bound exactly, or None.

    When the runs cover fewer than `units` steps, every nonzero step is in
    one (the `units`-th largest |step| is 0, so no tie band applies), the
    bound is their total, and only zero steps lie between runs.  Two
    neighbouring runs of one sign then glue, across their gap of zero
    steps, into one interval of the same increment, at the gap's length in
    units.  Bridging the len(runs) - kmax shortest such gaps (lowest index
    first among equal lengths) leaves kmax intervals; if the nonzero steps
    and those gaps fit in `units`, they reach the bound.  That is the DP's
    answer up to ties: a collection reaching the bound covers every
    nonzero step with intervals of one sign each, so it bridges at least
    as many gaps, and the shortest ones take the fewest units and, since
    every gap costs a unit, the fewest intervals.  O(len(runs)) time.
    """
    starts, ends = np.array(runs, dtype=np.intp).T
    spare = units - int(np.sum(ends - starts))
    if spare <= 0:
        return None
    rising = values[ends] > values[starts]
    gaps = starts[1:] - ends[:-1]
    same = np.flatnonzero(rising[1:] == rising[:-1])
    need = len(runs) - kmax
    bridged = same[np.argsort(gaps[same], kind="stable")[:need]]
    if len(bridged) < need or int(np.sum(gaps[bridged])) > spare:
        return None
    cut = np.ones(len(runs) - 1, bool)
    cut[bridged] = False
    cuts = np.flatnonzero(cut)
    return list(zip(starts[np.append(0, cuts + 1)].tolist(),
                    ends[np.append(cuts, len(runs) - 1)].tolist()))


def _tie_tau(values, t) -> float:
    """Half-width of ``_top_step_runs``'s tie band around the step t.

    _TIE_BAND * eps * max|values| covers the rounding of steps taken
    between values of that size.  It is capped at BOUND_SLACK * t / 2: where
    the steps are small next to the values' offset, every step would
    otherwise fall in the band and the lowest-index steps would be taken
    in place of the largest, while under the cap the r band steps cost at
    most 2 r tau <= BOUND_SLACK times the step bound (t = 0 gives 0).
    """
    scale = _TIE_BAND * sys.float_info.epsilon * float(np.max(np.abs(values)))
    return min(scale, 0.5 * BOUND_SLACK * float(t))


#: bits of the DP's one-byte choice code per state: the rising (+v[end] -
#: v[start]) or falling interval closed here improved the closed state (the
#: falling one is tried last, so its bit wins), or the rising or falling
#: open state was opened here; a direction the DP does not carry sets none
_CLOSED_P, _CLOSED_M, _OPENED_P, _OPENED_M = 1, 2, 4, 8


def _dp_pairs(v: np.ndarray, units: int, kmax: int):
    """Index pairs of a best collection of at most `kmax` intervals covering
    at most `units` grid steps in total.

    The DP walks the grid with states (intervals used, units used): a closed
    value, and an open-interval carry per direction the data can use.  A
    rising interval scores v[end] - v[start], a falling one v[start] -
    v[end].  The rising carry is kept iff some step v[j+1] - v[j] is > 0,
    the falling one iff some step is < 0, so monotone data such as the
    Cantor staircase carries one.  The dropped direction could not win:
    with no step < 0, v[s] <= v[e] for every s < e, so a falling interval
    never scores more than the rising one with the same start and units,
    and symmetrically.  Each kept direction makes the same float
    operations, the falling one on v those of the rising one on -v, so
    monotone data costs half the float work per point of mixed-sign data;
    only candidates that tie up to rounding can pick other pairs than a DP
    carrying both directions.  At each point every direction closes before
    any opens, so a falling interval and a rising one may touch there.

    Among equal sums the closed state with the fewest units, then the
    fewest intervals, wins.  Zero runs are folded: a point strictly inside
    a run of zero steps |v[j+1] - v[j]| = 0 is never an endpoint of the
    winner, since moving a start there to the run's right end, or an end to
    its left end, or dropping an interval inside the run, keeps the sum and
    frees units, and the winner has the fewest units among equal sums.  The
    DP walks only the other m' points, and an open interval crosses a run
    of g steps in one transition that costs g units.

    Every buffer is allocated once and updated in place, and each state
    records one uint8 choice code per kept point, so the memory is
    m' * (units + 1) * (kmax + 1) bytes of history plus
    O(m + (units + 1) * (kmax + 1)) floats.  Raises BudgetError when the DP
    would hold more than 4e8 states, 3 * m' * (units + 1) * (kmax + 1),
    whichever directions it carries.
    """
    flat = np.diff(v) == 0
    inside = np.zeros(len(v), bool)
    inside[1:-1] = flat[:-1] & flat[1:]
    kept = np.flatnonzero(~inside)
    n = len(kept)
    if 3 * n * (units + 1) * (kmax + 1) > 400_000_000:
        raise BudgetError("worst-sum state space too large; coarsen the grid")
    vk = v[kept]
    steps = np.diff(vk)
    gaps = np.diff(kept, prepend=-1).tolist()
    shape = (kmax + 1, units + 1)
    neg = -math.inf
    # one open state per direction that some step can use, the rising one
    # first: its carries, their extension to the current point, and its
    # close and open flags.  An open state counts its interval, so row 0 of
    # the carries, of the extension and of the open flags, and columns
    # 0 .. g - 1 (fewer units than the crossing) of the extension, stay -inf
    # (False)
    dirs, terms = [], []
    for sign, closed_bit, opened_bit, used in (
            (1.0, _CLOSED_P, _OPENED_P, steps > 0),
            (-1.0, _CLOSED_M, _OPENED_M, steps < 0)):
        if used.any():
            closed_flag = np.empty(shape, bool)
            opened_flag = np.zeros(shape, bool)
            carry, ext = np.full(shape, neg), np.full(shape, neg)
            dirs.append((sign, carry, ext, carry[1:], ext[1:], closed_flag,
                         opened_flag[1:]))
            terms += [(closed_bit, closed_flag.view(np.uint8)),
                      (opened_bit, opened_flag.view(np.uint8))]
    if not dirs:  # no nonzero step: the empty collection wins
        return []
    # a code row is the sum of bit * flag: the largest bit is written into
    # the row, and a bit of 1 is added unscaled
    (top_bit, top_flag), *rest = sorted(terms, key=lambda t: -t[0])
    closed = np.full(shape, neg)
    closed[0, 0] = 0.0
    cand = np.empty(shape)
    bits = np.empty(shape, np.uint8)
    hist = np.empty((n,) + shape, np.uint8)
    # rows 1.. (one interval more) and the closed states they open from
    closed_fewer, cand_k = closed[:-1], cand[1:]
    for j, (vj, g) in enumerate(zip(vk.tolist(), gaps)):
        # every direction closes at j before any opens there, so a falling
        # interval and a rising one may touch at j
        for sign, carry, ext, _, _, closed_flag, _ in dirs:
            # an open interval runs on to kept point j: g more units
            if g > 1:
                ext[:, :g] = neg
            ext[:, g:] = carry[:, :-g]
            # close it at j (sign * vj is exact, so a falling interval on v
            # makes a rising one's float operations on -v)
            np.add(ext, sign * vj, out=cand)
            np.greater(cand, closed, out=closed_flag)
            np.maximum(closed, cand, out=closed)
        for sign, _, _, carry_k, ext_k, _, opened_flag in dirs:
            # or open one more interval at j
            np.subtract(closed_fewer, sign * vj, out=cand_k)
            np.greater(cand_k, ext_k, out=opened_flag)
            np.maximum(ext_k, cand_k, out=carry_k)
        code = hist[j]
        np.multiply(top_flag, top_bit, out=code)
        for bit, flag in rest:
            if bit > 1:
                flag = np.multiply(flag, bit, out=bits)
            np.add(code, flag, out=code)
    # among equal sums, the fewest units, then the fewest intervals
    u, k = divmod(int(np.argmax(closed.T)), kmax + 1)
    return _backtrack(hist, kept.tolist(), gaps, u, k)


def _backtrack(hist: np.ndarray, kept: list, gaps: list, u: int, k: int):
    """Follow the choice codes back from the closed state (k, u) at the
    last row; returns the intervals as (start, end) grid index pairs.

    Row j of ``hist`` belongs to grid point kept[j], and reaching it from
    row j - 1 costs gaps[j] units.
    """
    pairs = []
    state = 0  # 0 closed, else the bit of the open state being followed
    end = -1
    j = len(hist) - 1
    while j >= 0:
        code = int(hist[j, k, u])
        if state == 0:
            if u == 0 and k == 0:
                break
            if code & (_CLOSED_P | _CLOSED_M):
                end = j
                state = _OPENED_M if code & _CLOSED_M else _OPENED_P
                u -= gaps[j]
            j -= 1
        elif code & state:
            pairs.append((kept[j], kept[end]))
            k -= 1
            state = 0
        else:
            u -= gaps[j]
            j -= 1
    pairs.reverse()
    return pairs


def glued_single_interval(f: FunctionSpec, piece: ShapePiece,
                          budget) -> ACWorstReport:
    """Closed-form worst case on a monotone piece: one glued interval.

    Anchors a single interval of length ``budget`` at the end of the piece
    where increments are largest and reports its increment magnitude.
    """
    lo, hi = piece.interval.lo, piece.interval.hi
    if not 0 < budget < hi - lo:
        raise GeometryError(
            f"budget {budget} must lie strictly inside (0, {hi - lo})")
    witness = IntervalCollection((_favourable_interval(piece, budget),))
    return ACWorstReport(delta=budget, best_sum=ac_sum(f, witness),
                         witness=witness, method="GluedClosedForm",
                         grid_spacing=0.0)


# ---------------------------------------------------------------------------
# The exact supremum Phi(d)
# ---------------------------------------------------------------------------

def exact_phi(f: FunctionSpec, lo: float, hi: float) -> Phi | None:
    """Phi of f on the window [lo, hi], or None where a bound overflows.

    Phi(d) is the supremum of sum |f(b_i) - f(a_i)| over the collections of
    nonoverlapping intervals in [lo, hi] of total length at most d.  Each
    increment is at most the integral of |f'| over its interval, with
    equality where f is monotone, so for an absolutely continuous f Phi(d)
    is the integral over [0, d] of the decreasing rearrangement of |f'|:
    the steepest total length d of the window, wherever it lies.  It bounds
    every collection, with no reference to detected pieces.  This is the
    one place that tells the kinds apart:

    * ``pwl`` (``table@`` included), and ``poly`` of degree at most one as
      one segment: one exact ``_Knapsack`` over the segments clipped to the
      window, its ties with epsilon decided in rationals;
    * ``poly`` of degree n >= 2 and ``x2sininv``: a certified bracket
      (``_envelope_phi`` on ``_poly_cells`` or ``_x2sininv_cells``);
    * ``sqrt``: sqrt(min(lo + d, hi)) - sqrt(lo) (``_SqrtCurve``);
    * ``cantor``: the rise C(hi) - C(lo) for every d > 0 (``_CantorCurve``);
    * slopes or bounds that overflow: None.

    Phi is that of the exact function: the knots' interpolant, the
    polynomial, the square root, x**2 sin(1/x) or the staircase.  An
    increment of ``evaluate`` values is within 16 * eps * Y of the exact
    one, where Y is the largest |y| of the knots of the segments that meet
    the window, sqrt(hi), R * (R + 1) for ``x2sininv`` with
    R = max(|lo|, |hi|), 1 for ``cantor``, or for ``poly``
    sum |c_k| R**k, and within (4 n + 16) * eps * Y for a polynomial of
    degree n >= 2.  Cost: O(n log n) for the n segments or cells.
    """
    if f.kind == SQRT:
        curve = _SqrtCurve(lo, hi)
        return Phi(lo, hi, curve, curve, curve.settle)
    if f.kind == CANTOR:
        curve = _CantorCurve(lo, hi, evaluate(f, hi) - evaluate(f, lo))
        return Phi(lo, hi, curve, curve, curve.settle)
    if f.kind == X2SININV:
        return _envelope_phi(_x2sininv_cells, lo, hi, _CELLS)
    if f.kind == POLY and len(f.coefficients) > 2:
        return _envelope_phi(_poly_cells(f.coefficients), lo, hi, _CELLS)
    if f.kind == POLY:  # one segment of slope c_1
        x, y = np.array([0.0, 1.0]), np.array([0.0, (*f.coefficients, 0.0)[1]])
        ends = np.array([lo, hi], dtype=float)
    else:  # PWL
        kx, ky = f._kx, f._ky
        i = max(int(np.searchsorted(kx, lo, side="right")) - 1, 0)
        j = int(np.searchsorted(kx, hi, side="left"))
        x, y = kx[i:j + 1], ky[i:j + 1]
        ends = x.copy()
        ends[0], ends[-1] = lo, hi
    with np.errstate(over="ignore"):
        knapsack = _Knapsack.build(np.abs(np.diff(y)) / np.diff(x), ends)
    if knapsack is None:
        return None
    return Phi(lo, hi, knapsack, knapsack,
               functools.partial(_rational_below, x, y, ends))


@dataclass(frozen=True, eq=False)
class Phi:
    """Phi on one window [lo, hi] of one f, built by ``exact_phi``.

    ``upper`` and ``lower`` bound the decreasing rearrangement of |f'| from
    above and from below (one object where it is exact); each gives
    sup(d), its own Phi with a rounding bound, invert(e), a d where that
    Phi is about e, and pairs(d, epsilon), the intervals it takes.
    ``settle(d, epsilon)`` decides Phi(d) < epsilon where the rounding
    leaves it open (True, False, or None where it cannot).
    """

    lo: float
    hi: float
    upper: _Knapsack | _SqrtCurve | _CantorCurve
    lower: _Knapsack | _SqrtCurve | _CantorCurve
    settle: Callable

    def sup(self, d) -> ExactSup | None:
        """Phi(d) in float and a bound on its rounding; None where it
        overflows.  From two bounds, the midpoint and half-width of
        [Phi-, Phi+], each widened by its own rounding, plus
        4 * eps * (|Phi+| + |Phi-|) + ulp(0)."""
        top = self.upper.sup(d)
        if top is None or self.lower is self.upper:
            return top
        bottom = self.lower.sup(d)
        if bottom is None:
            return None
        a, b = top.value + top.rounding, bottom.value - bottom.rounding
        return ExactSup(0.5 * (a + b),
                        0.5 * (a - b) + 4 * sys.float_info.epsilon
                        * (abs(a) + abs(b)) + math.ulp(0.0))

    def budget(self, epsilon) -> float | None:
        """delta1_opt: the largest d <= hi - lo with Phi(d) < epsilon,
        rounded down by a few roundings of the upper bound.

        The upper bound is inverted at epsilon - m, and the first d whose
        ``sup`` is below epsilon with its rounding is returned; m starts at
        0 and then grows to twice itself plus the upper bound's own
        rounding at d (not a bracket's half-width), and 0 is returned once
        m reaches epsilon.  None where ``sup`` overflows.
        """
        span = self.hi - self.lo
        margin = 0.0
        while margin < epsilon:
            d = min(max(self.upper.invert(epsilon - margin), 0.0), span)
            sup = self.sup(d)
            if sup is None:
                return None
            if d == 0.0 or sup.value + sup.rounding < epsilon:
                return d
            margin = 2.0 * (margin + self.upper.sup(d).rounding)
        return 0.0

    def below(self, d, epsilon) -> bool | None:
        """Phi(d) < epsilon by ``sup``, else ``settle``; None if neither."""
        sup = self.sup(d)
        if sup is None:
            return None
        if sup.value + sup.rounding < epsilon:
            return True
        if sup.value - sup.rounding > epsilon:
            return False
        return self.settle(d, epsilon)

    def witness(self, d, epsilon) -> IntervalCollection:
        """A collection of total length below d whose sum nearly reaches
        Phi(d), or for the Cantor staircase reaches epsilon: the lower
        bound's intervals (``pairs``).  A knapsack's or the square root's
        lie where that bound holds, steepest first, so each exact increment
        is at least the bound times its length, and the exact sum is at
        least Phi- at the collection's total length.  The last interval is
        shortened, or dropped, until ``IntervalCollection.total_length`` is
        below d: by the excess and one ulp of d each time, as an ulp of y,
        near 0, can be far below one of its length."""
        pairs = self.lower.pairs(d, epsilon)
        while pairs:
            excess = math.fsum(y - x for x, y in pairs) - d
            x, y = pairs[-1]
            if excess < 0 and x < y:
                break
            y = min(math.nextafter(y, x), y - excess - math.ulp(d))
            if x < y:
                pairs[-1] = (x, y)
            else:
                pairs.pop()
        return IntervalCollection(tuple(sorted(p for p in pairs if p[0] < p[1])))


class _SqrtCurve(NamedTuple):
    """sqrt on [lo, hi]: |f'| decreases, so Phi takes [lo, lo + d]."""

    lo: float
    hi: float

    def sup(self, d) -> ExactSup:
        """sqrt(min(lo + d, hi)) - sqrt(lo), rounded by at most
        4 * eps * sqrt(min(lo + d, hi)) + ulp(0)."""
        top = math.sqrt(min(self.lo + d, self.hi))
        return ExactSup(top - math.sqrt(self.lo),
                        4 * sys.float_info.epsilon * top + math.ulp(0.0))

    def invert(self, e) -> float:
        top = e + math.sqrt(self.lo)
        return top * top - self.lo

    def pairs(self, d, epsilon) -> list:
        """[lo, lo + d], clamped to the window, whatever epsilon."""
        return [(self.lo, min(self.lo + d, self.hi))]

    def settle(self, d, epsilon) -> bool:
        """Phi(d) < epsilon in rationals: sqrt(a) - sqrt(b) < e iff
        a - b - e**2 < 2 e sqrt(b)."""
        a = min(Fraction(self.lo) + Fraction(d), Fraction(self.hi))
        b, e = Fraction(self.lo), Fraction(epsilon)
        gap = a - b - e * e
        return gap < 0 or gap * gap < 4 * e * e * b


class _CantorCurve(NamedTuple):
    """The Cantor staircase C on [lo, hi], rising by ``rise``.

    C is constant off the Cantor set, and the stage-k bricks, the 2**k
    closed thirds left at step k of the middle-thirds cut, cover it with
    total length (2/3)**k while C rises 2**-k across each.  So for every
    d > 0 the bricks of some stage take the whole rise C(hi) - C(lo) within
    total length d: Phi(d) is the rise for d > 0, and 0 at d = 0.
    """

    lo: float
    hi: float
    rise: float

    def sup(self, d) -> ExactSup:
        """The rise, within 2 * 2**-CANTOR_DEPTH (``eval_cantor``'s digit
        depth, at each end) plus eps: the rounding of the two values, both
        in [0, 1], to floats, and of their difference."""
        if not d > 0:
            return ExactSup(0.0, 0.0)
        return ExactSup(self.rise, 2.0 ** (1 - CANTOR_DEPTH)
                        + sys.float_info.epsilon)

    def invert(self, e) -> float:
        return 0.0 if e <= self.rise else math.inf

    def pairs(self, d, epsilon) -> list:
        """Stage-k bricks inside the window, each rounded outward to
        floats, from the left: k is the least stage up to _CANTOR_STAGES at
        which ceil(epsilon * 2**k) of them are shorter in total than d; []
        if none is.  C is flat on the gaps beside each brick, so a brick
        still rises exactly 2**-k, and their exact sum is at least epsilon.
        The bricks [a / 3**k, (a + 1) / 3**k] are ``_cantor_bricks(k)``,
        kept when lo <= a / 3**k and (a + 1) / 3**k <= hi, both compared
        in integers."""
        lo_num, lo_den = self.lo.as_integer_ratio()
        hi_num, hi_den = self.hi.as_integer_ratio()
        for k in range(1, _CANTOR_STAGES + 1):
            n = math.ceil(epsilon * 2 ** k)
            if not n * 3.0 ** -k < d:  # too long before rounding
                continue
            q = 3 ** k
            inside = [a for a in _cantor_bricks(k) if lo_num * q <= a * lo_den
                      and (a + 1) * hi_den <= hi_num * q][:n]
            pairs = [(_round_rational(a, q, False),
                      _round_rational(a + 1, q, True)) for a in inside]
            if len(pairs) == n and math.fsum(y - x for x, y in pairs) < d:
                return pairs
        return []

    def settle(self, d, epsilon) -> None:
        """Never decides: C at a float is rational but not always dyadic
        (C(1/4) = 1/3), and its ternary period can be 2**(q - 2) digits
        long at p / 2**q, so no exact test of the rise is cheap."""
        return None


class _Knapsack(NamedTuple):
    """Intervals tiling a window, steepest first: a bound s on |f'| over
    each (its exact |slope| on a linear segment), its length, and their
    running sums; interval order[i] runs from ends[order[i]] to
    ends[order[i] + 1].

    Its Phi is a fractional knapsack.  With the cut level c, the s of the
    interval the budget d ends in (0 when it covers them all), Phi is
    summed as its LP dual c * d + sum of L_i * (s_i - c) over the k
    intervals taken whole, whose terms are nonnegative.  The rounding is at
    most (k + 16) * eps * (c * d + sum L_i * s_i over those k)
    + 16 * eps * c * T + (k + 16) * ulp(0), eps being the float epsilon
    and T the length of the other intervals whose s is within 8 * eps * c
    of c.  It covers the rounding of the slopes, the lengths and the sum,
    and a cut that their rounding, or that of the running lengths, puts on
    a neighbouring interval.
    """

    s: np.ndarray
    lengths: np.ndarray
    order: np.ndarray
    ends: np.ndarray
    reach: np.ndarray
    rises: np.ndarray

    @classmethod
    def build(cls, s: np.ndarray, ends: np.ndarray) -> _Knapsack | None:
        """The knapsack of bounds s between ends; None if one is not finite."""
        if not np.isfinite(s).all():
            return None
        order = np.argsort(-s, kind="stable")
        s, lengths = s[order], np.diff(ends)[order]
        with np.errstate(over="ignore"):
            return cls(s, lengths, order, ends, np.cumsum(lengths),
                       np.cumsum(lengths * s))

    def sup(self, d) -> ExactSup | None:
        s, lengths = self.s, self.lengths
        k = int(np.searchsorted(self.reach, d))  # intervals taken whole
        cut = float(s[k]) if k < len(s) else 0.0
        taken, whole = lengths[:k], s[:k]
        eps = sys.float_info.epsilon
        tied = np.abs(s - cut) <= 8 * eps * cut
        tied[k:k + 1] = False
        with np.errstate(over="ignore", invalid="ignore"):
            value = cut * d + float(np.sum(taken * (whole - cut)))
            rounding = ((k + 16) * (eps * (cut * d
                                           + float(np.sum(taken * whole)))
                                    + math.ulp(0.0))
                        + 16 * eps * cut * float(np.sum(lengths[tied])))
        if not math.isfinite(value + rounding):
            return None
        return ExactSup(value, rounding)

    def invert(self, e) -> float:
        """The d at which the knapsack's rise reaches e (inf past it)."""
        k = int(np.searchsorted(self.rises, e, side="right"))  # whole below e
        if k == len(self.s):
            return math.inf
        if k == 0:
            return float(e / self.s[0])
        return float(self.reach[k - 1] + (e - self.rises[k - 1]) / self.s[k])

    def pairs(self, d, epsilon) -> list:
        """The intervals taken at budget d, the last one cut short, whatever
        epsilon."""
        k = int(np.searchsorted(self.reach, d))  # intervals taken whole
        at = self.order[:k + 1]
        left, right = self.ends[at].tolist(), self.ends[at + 1].tolist()
        if k < len(self.reach):  # the cut interval takes what is left of d
            right[k] = min(right[k], left[k] + (d - (self.reach[k - 1] if k
                                                     else 0.0)))
        return list(zip(left, right))


def _rational_below(x, y, ends, d, epsilon) -> bool:
    """Phi(d) < epsilon in rationals: the knapsack on the exact slopes of
    the segments between the knots (x, y) and their lengths between ends."""
    x, y, ends = ([Fraction(v) for v in a.tolist()] for a in (x, y, ends))
    slopes = [abs(y1 - y0) / (x1 - x0)
              for x0, x1, y0, y1 in zip(x, x[1:], y, y[1:])]
    lengths = [b - a for a, b in zip(ends, ends[1:])]
    left, total = Fraction(d), Fraction(0)
    for slope, length in sorted(zip(slopes, lengths), reverse=True):
        take = min(length, left)
        total += slope * take
        left -= take
        if not left:
            break
    return total < epsilon


def _envelope_phi(cell_bounds, lo, hi, cells: int) -> Phi | None:
    """Phi of a kind with per-cell bounds on |f'|, as a certified bracket.

    The window is cut into ``cells`` equal cells, and on a cell of
    midpoint m and half-width r |f'| lies within |f'(m)| +- (r * M2 + E),
    capped above and floored at 0 below, where M2 bounds |f''| on the cell
    and E covers the rounding of |f'(m)| and of the bounds themselves.
    ``cell_bounds(ends, mid, half)`` gives (|f'(m)|, r * M2, E, cap) for
    every cell, each an array or one number (``_poly_cells``,
    ``_x2sininv_cells``).  The knapsack on the upper bounds gives
    Phi+ >= Phi, and on the lower ones Phi- <= Phi; the width is about
    2 r M2 d.  Where the bracket leaves Phi(d) < epsilon open, it is
    refined on 4 times as many cells, up to _MAX_CELLS.  None where a bound
    overflows.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ends = np.minimum(np.linspace(lo, hi, cells + 1), hi)
        mid = 0.5 * (ends[:-1] + ends[1:])
        half = np.maximum(mid - ends[:-1], ends[1:] - mid)
        slope, spread, slack, cap = cell_bounds(ends, mid, half)
        upper = np.minimum(slope + spread + slack, cap)
        lower = np.maximum(slope - spread - slack, 0.0)
    top = _Knapsack.build(upper, ends)
    if top is None:
        return None

    def refined_below(d, epsilon):
        finer = (None if cells >= _MAX_CELLS
                 else _envelope_phi(cell_bounds, lo, hi, 4 * cells))
        return None if finer is None else finer.below(d, epsilon)

    return Phi(lo, hi, top, _Knapsack.build(lower, ends), refined_below)


def _poly_cells(c):
    """``_envelope_phi``'s cell bounds for the polynomial with coefficients
    c, of degree n >= 2: M2 = sum k (k - 1) |c_k| R**(k - 2) bounds |p''|
    for R = max(|lo|, |hi|) on every cell, E = 8 (n + 2) (eps * (M1 +
    r_max * M2) + ulp(0)), with M1 = sum k |c_k| R**(k - 1), covers the
    Horner rounding of p'(m) and of the bounds, and nothing caps them."""
    n = len(c) - 1
    d1 = [k * c[k] for k in range(1, n + 1)]  # p', from the constant up
    d2 = [k * (k - 1) * c[k] for k in range(2, n + 1)]  # p''

    def bounds(ends, mid, half):
        reach = max(abs(float(ends[0])), abs(float(ends[-1])))
        m1 = _horner([abs(a) for a in d1], reach)
        m2 = _horner([abs(a) for a in d2], reach)
        slack = 8 * (n + 2) * (sys.float_info.epsilon
                               * (m1 + float(half.max()) * m2)
                               + math.ulp(0.0))
        return np.abs(_horner(d1, mid)), half * m2, slack, math.inf

    return bounds


def _x2sininv_cells(ends, mid, half):
    """``_envelope_phi``'s cell bounds for f(x) = x**2 sin(1/x), whose
    derivative is f'(x) = 2 x sin(1/x) - cos(1/x) (0 at 0).

    |f'| <= 2 |x| + 1 everywhere: the cap, at the cell's largest |x|, R,
    widened by 2 eps for its own rounding.  On a cell whose least |x| is
    a > 0, |f''| = |2 sin(1/x) - 2 cos(1/x) / x - sin(1/x) / x**2|
    <= 2 + 2 / a + 1 / a**2 = M2.  E = 8 eps (cap (1 + 1 / a) + r M2)
    covers the rounding of 1 / m, which moves sin and cos by up to
    eps / (2 |m|), of sin, cos and f'(m), and of the bounds: it grows like
    eps / a, and where it swamps the local bound the cap wins.  A cell
    that meets 0, or whose bounds overflow, gets [0, cap].
    """
    eps = sys.float_info.epsilon
    left, right = np.abs(ends[:-1]), np.abs(ends[1:])
    cap = (2.0 * np.maximum(left, right) + 1.0) * (1.0 + 2 * eps)
    least = np.where((ends[:-1] > 0) | (ends[1:] < 0),
                     np.minimum(left, right), 0.0)
    inv = 1.0 / mid
    slope = np.abs(2.0 * mid * np.sin(inv) - np.cos(inv))
    spread = half * (2.0 + 2.0 / least + 1.0 / (least * least))
    slack = 8 * eps * (cap * (1.0 + 1.0 / least) + spread)
    loose = ~np.isfinite(slope + spread + slack)
    return (np.where(loose, 0.0, slope), np.where(loose, cap, spread),
            np.where(loose, 0.0, slack), cap)


# ---------------------------------------------------------------------------
# Partition splitting and certificates
# ---------------------------------------------------------------------------

def split_collection_at_partition(c: IntervalCollection,
                                  p: Partition) -> IntervalCollection:
    """Split pairs at the single partition point they may contain.

    Requires every pair to contain at most one interior partition point (a
    consequence of total_length < min piece length).  Total length is
    preserved and, by the triangle inequality, the increment sum of the
    output dominates the input's for any function.
    """
    inner = p.points[1:-1]
    out = []
    for x, y in c.pairs:
        hits = [a for a in inner if x < a < y]
        if len(hits) > 1:
            raise PreconditionError(
                f"pair ({x}, {y}) straddles {len(hits)} partition points")
        if hits:
            out.append((x, hits[0]))
            out.append((hits[0], y))
        else:
            out.append((x, y))
    return IntervalCollection(tuple(out))


def random_collection(rng, lo: float, hi: float, total: float,
                      n: int) -> IntervalCollection:
    """Seeded random collection of n nonoverlapping pairs with given total.

    Draws n width and then n + 1 gap uniforms from rng, scales the widths
    to total and the gaps to span - total, and walks from lo adding gap,
    width, gap, width, ...; one ``np.cumsum`` adds them in that
    left-to-right order, as a loop of ``pos += step`` would.  The last gap
    is drawn but never walked.  Pair i runs from x_i to min(position, hi),
    and the pairs no longer than 1e-13 * max(1, span) are dropped.
    """
    lo, hi = float(lo), float(hi)
    span = hi - lo
    if not 0 < total < span:
        raise GeometryError(f"total {total} must lie in (0, {span})")
    if n < 1:
        raise ValueError("n must be >= 1")
    w = rng.random(n)
    g = rng.random(n + 1)
    walk = np.empty(2 * n + 1)
    walk[0] = lo
    walk[1::2] = g[:n] * ((span - total) / g.sum())
    walk[2::2] = w * (total / w.sum())
    pos = np.cumsum(walk)
    x, y = pos[1::2], pos[2::2]
    y = np.where(hi < y, hi, y)
    keep = y - x > 1e-13 * max(1.0, span)
    return IntervalCollection(tuple(zip(x[keep].tolist(), y[keep].tolist())))


def ac_certificate(f: FunctionSpec, pieces, epsilon: float) -> Certificate:
    """Synthesize an (epsilon, delta_1) certificate from monotone pieces.

    With N monotone convex/concave pieces, each piece receives budget
    epsilon / N.  By the increment lemma the exact modulus of such a piece
    is its increment anchored at the favourable end, so the largest step
    whose anchored increment stays below the budget is found by bisection
    with exact evaluation (``_increment_step``).  delta_1 is
    0.99 * min(0.9 * step, min piece length); any collection of total
    length below delta_1 then has increment sum below epsilon.

    The inversion is exact, but each piece's shape and monotonicity are
    certified only at the detection resolution, so the 0.9 factor
    (MODULUS_SAFETY) is kept as a margin against shape changes finer than
    that resolution.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    pieces = tuple(pieces)
    if not pieces:
        raise PreconditionError("at least one piece is required")
    for piece in pieces:
        expected_direction(piece)  # raises ShapeError if not certified
    span = pieces[-1].interval.hi - pieces[0].interval.lo
    for a, b in zip(pieces, pieces[1:]):
        if abs(a.interval.hi - b.interval.lo) > 1e-9 * span:
            raise PreconditionError("pieces do not tile the window contiguously")

    budget = epsilon / len(pieces)
    min_len = min(piece.interval.hi - piece.interval.lo for piece in pieces)
    step = min(_increment_step(f, piece, budget) for piece in pieces)
    delta1 = DELTA1_SAFETY * min(MODULUS_SAFETY * step, min_len)
    return Certificate(epsilon=float(epsilon), delta1=float(delta1),
                       monotone_pieces=pieces)


def _increment_step(f: FunctionSpec, piece: ShapePiece, budget: float) -> float:
    """Largest step whose increment anchored at the favourable end is < budget.

    The anchored increment is |f(lo + d) - f(lo)| for a left-anchored piece
    and |f(hi) - f(hi - d)| for a right-anchored one; on a monotone piece it
    is nondecreasing in d.  Returns the piece length when the whole piece
    qualifies, else bisects (0, length) until the midpoint no longer splits
    the bracket.  Raises Unachievable when no positive step qualifies.
    """
    lo, hi = piece.interval.lo, piece.interval.hi
    length = hi - lo

    def increment(d):
        x, y = _favourable_interval(piece, d)
        return abs(evaluate(f, y) - evaluate(f, x))

    if increment(length) < budget:
        return length
    a, b = 0.0, length
    while a < (mid := 0.5 * (a + b)) < b:
        if increment(mid) < budget:
            a = mid
        else:
            b = mid
    # below float resolution at the anchor (a = 0 included) the increment
    # tested was that of a degenerate interval, a rounded 0
    x, y = _favourable_interval(piece, a)
    if not x < y:
        raise Unachievable(
            f"no positive step keeps the anchored increment on "
            f"[{lo}, {hi}] below {budget}")
    return a


def verify_certificate(f: FunctionSpec,
                       cert: Certificate) -> VerificationReport:
    """Prove or refuse a certificate by Phi(delta_1), or say that Phi
    could not decide it.

    The adversarial collections of ``_glued_attack``, one glued interval
    per piece, give the observed worst sum and its witness.  Where the
    certificate window's ``Phi`` decides Phi(delta_1) < epsilon (method
    "exact_sup"), the certificate passes iff it does and no glued sum
    reaches epsilon.  Phi bounds every collection on the window, so this is
    a proof that does not rest on the detected pieces.  A refused
    certificate also gets ``Phi.witness``'s collection of total length
    below delta_1, whose sum is near Phi(delta_1) or at least epsilon, when
    it beats the glued ones.  Where a bracket stays open at _MAX_CELLS
    cells, or a bound overflows, nothing is proved: ``passed`` is None
    (method "undecided").  The report carries Phi(delta_1) and Phi's
    budget, ``delta1_opt``, where they are known.
    """
    phi = exact_phi(f, cert.partition.points[0], cert.partition.points[-1])
    below = sup = budget = None
    if phi is not None:
        below = phi.below(cert.delta1, cert.epsilon)
        sup = phi.sup(cert.delta1)
        budget = phi.budget(cert.epsilon)
    worst_sum, worst_c = _glued_attack(f, cert)
    if below is False:
        witness = phi.witness(cert.delta1, cert.epsilon)
        witness_sum = ac_sum(f, witness)
        if witness_sum > worst_sum:
            worst_sum, worst_c = witness_sum, witness
    return VerificationReport(
        passed=None if below is None else below and worst_sum < cert.epsilon,
        worst_sum=worst_sum, worst_collection=worst_c,
        method="undecided" if below is None else "exact_sup",
        sup=None if sup is None else sup.value, delta1_opt=budget)


def _glued_attack(f: FunctionSpec, cert: Certificate) -> tuple:
    """(worst sum, its collection) of one glued interval per piece.

    Each is of length 0.999 * min(delta_1, piece length) at the piece's
    favourable end (``glued_single_interval``): by the increment lemma and
    the gluing bound its increment dominates every collection of that total
    length on the piece, split ones included.  The first strictly largest
    sum wins; none gives (0.0, the empty collection).
    """
    worst_sum = 0.0
    worst_c = IntervalCollection(())
    for piece in cert.monotone_pieces:
        plen = piece.interval.hi - piece.interval.lo
        # a subnormal piece length can round 0.999 * plen back to plen
        length = 0.999 * min(cert.delta1, plen)
        if 0 < length < plen:
            rep = glued_single_interval(f, piece, length)
            if rep.best_sum > worst_sum:
                worst_sum, worst_c = rep.best_sum, rep.witness
    return worst_sum, worst_c
