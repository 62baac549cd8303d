"""Modulus of continuity, interval gluing, worst-sum search and certificates.

The central objects are finite collections of nonoverlapping subintervals
{(x_i, y_i)} with a total-length budget.  Three complementary tools bound or
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
* ``ac_certificate`` / ``verify_certificate`` invert each piece's anchored
  increment into a concrete (epsilon, delta_1) certificate: every
  collection of total length below delta_1 has increment sum below epsilon.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

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
    FunctionSpec,
    IntervalSpec,
    SampleGrid,
    evaluate,
    evaluate_many,
    sample,
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

#: trials per block of verify_certificate's random attack; bounds its memory
VERIFY_BLOCK = 4096

#: the worst-sum oracle treats steps within _TIE_BAND * eps * max|v| of the
#: `units`-th largest |step| as tied, capped so that the band never costs
#: more than BOUND_SLACK (``_tie_tau``)
_TIE_BAND = 16

#: relative slack of the modulus kernel's gap-extreme lag test: it covers the
#: rounding of the float gaps, of the differences and of the test's products
_GAP_SLACK = 8 * sys.float_info.epsilon


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
    passed: bool
    worst_sum: float
    worst_collection: IntervalCollection


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
    constant lag L the windows [j - L, j], j >= L, which contain the clipped
    ones, are two contiguous slices of one row of block extrema.  L comes
    from the grid's gap extremes (``_certified_lag``), or else from exact
    slice tests (``_lag``), whose exceptions, the points with
    xs[j] - xs[j - L - 1] <= delta too, get exact starts and gathers.

    Cost: four O(m) passes per delta, plus O(e) for e exceptions.  The rows
    of 2**k-point block maxima and minima are built as the lags ascend and
    dropped below the current lag's row: a uniform grid keeps one or two
    rows of 16 * m bytes, for a peak of a few arrays of m floats (under
    8 MB at m = 100001); other grids keep the rows their exceptions read.
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
    gmin = 0.0 if xs.dtype == object else float(np.diff(xs).min())
    hi, lo = np.empty(m), np.empty(m)  # scratch: no m-float array per delta
    rows = {0: (vs, vs)}  # level k -> max and min of vs[i : i + 2**k]
    best = 0.0
    samples = []
    for d in ds:
        lag = _certified_lag(d, gmin, grid.spacing)
        groups = []  # exceptions by row: (level, first and last block columns)
        if lag is None:
            lag, ends = _lag(grid, d)
            starts = _window_starts(grid, d, ends)
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
        n, shift = m - lag, lag + 1 - (1 << level)
        found = [_widest_range(rows[level], slice(0, n),
                               slice(shift, shift + n), hi[:n], lo[:n])]
        found += [_widest_range(rows[k], i, j, hi[:len(i)], lo[:len(i)])
                  for k, i, j in groups]
        best = max(best, *found)
        samples.append((d, best))
    return ModulusCurve(tuple(samples))


def _certified_lag(delta, gmin: float, gmax: float):
    """L = floor(delta / h) if L * gmax * (1 + s) <= delta and
    delta < (L + 1) * gmin * (1 - s): every xs[j] - xs[j - L] is then within
    delta and no xs[j] - xs[j - L - 1] is.  Else None, also for subnormal
    gaps, whose products have no relative accuracy."""
    if not gmin >= sys.float_info.min:
        return None
    lag = math.floor(delta / (gmax * (1 + _GAP_SLACK)))
    if lag * gmax * (1 + _GAP_SLACK) <= delta < (
            (lag + 1) * gmin * (1 - _GAP_SLACK)):
        return lag
    return None


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
        starts = ends - math.floor(delta / (grid.span / (m - 1)))
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
    bound dominates any collection there.  Otherwise a dynamic program
    (method "OracleDP", ``_dp_pairs``) searches states (grid index, units
    used, intervals used), with
    kmax = min(max_intervals, units).  It walks only the m' grid points
    that do not lie strictly inside a run of zero steps, in
    m' * (units + 1) * (kmax + 1) bytes of choice history plus
    O(m + (units + 1) * (kmax + 1)) floats; the folding does not change its
    answer.  Only the DP is limited by the state-space guard (BudgetError
    when 3 * m' * (units + 1) * (kmax + 1) > 4e8), and its result never
    exceeds the bound.
    """
    if max_intervals < 1:
        raise ValueError("max_intervals must be >= 1")
    units, pairs_idx, bound = _step_bound(grid, delta)
    v = grid.values
    # touching pairs (y_i = x_{i+1}) are legal, so up to `units` intervals fit
    kmax = min(max_intervals, units)
    if len(pairs_idx) <= kmax:
        method = "OracleBound"
    else:
        method = "OracleDP"
        pairs_idx = _dp_pairs(v, units, kmax)
    points = grid.abscissae.tolist()
    witness = IntervalCollection(
        tuple((points[s], points[e]) for s, e in pairs_idx))
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
    sum, and ``worst_ac_sum_oracle``'s answer never exceeds it.
    """
    m = len(grid)
    xs = grid.abscissae
    if not grid.uniform:
        raise InsufficientData("the worst-sum search requires a uniform grid")
    if not delta > grid.spacing:
        raise BudgetError(
            f"delta {delta} must exceed the grid spacing {grid.spacing}")
    h = (xs[-1] - xs[0]) / (m - 1)
    units = int(math.floor(float(delta) / float(h) - 1.0 + 1e-9))
    units = min(units, m - 1)
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
#: open state was opened here
_CLOSED_P, _CLOSED_M, _OPENED_P, _OPENED_M = 1, 2, 4, 8


def _dp_pairs(v: np.ndarray, units: int, kmax: int):
    """Index pairs of a best collection of at most `kmax` intervals covering
    at most `units` grid steps in total.

    The DP walks the grid with states (intervals used, units used): a closed
    value, and open-interval carries for a rising and a falling interval.
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
    would hold more than 4e8 states, 3 * m' * (units + 1) * (kmax + 1).
    """
    flat = np.diff(v) == 0
    inside = np.zeros(len(v), bool)
    inside[1:-1] = flat[:-1] & flat[1:]
    kept = np.flatnonzero(~inside)
    n = len(kept)
    if 3 * n * (units + 1) * (kmax + 1) > 400_000_000:
        raise BudgetError("worst-sum state space too large; coarsen the grid")
    vk = v[kept]
    gaps = np.diff(kept, prepend=-1).tolist()
    shape = (kmax + 1, units + 1)
    neg = -math.inf
    closed = np.full(shape, neg)
    closed[0, 0] = 0.0
    # an open state counts its interval, so row 0 of the open states and
    # columns 0 .. g - 1 (fewer units than the crossing) of the extended
    # ones stay -inf
    open_p, open_m = np.full(shape, neg), np.full(shape, neg)
    ext_p, ext_m = np.full(shape, neg), np.full(shape, neg)
    cand = np.empty(shape)
    closed_p, closed_m = np.empty(shape, bool), np.empty(shape, bool)
    opened_p = np.empty((kmax, units + 1), bool)
    opened_m = np.empty((kmax, units + 1), bool)
    opened = np.empty((kmax, units + 1), np.uint8)
    # the same flags as 0/1 bytes, to assemble the codes from
    closed_p8, closed_m8, opened_p8, opened_m8 = (
        a.view(np.uint8) for a in (closed_p, closed_m, opened_p, opened_m))
    hist = np.empty((n,) + shape, np.uint8)
    # rows 1.. (one interval more) and the closed states they open from
    closed_fewer, cand_k = closed[:-1], cand[1:]
    ext_p_k, ext_m_k = ext_p[1:], ext_m[1:]
    open_p_k, open_m_k = open_p[1:], open_m[1:]
    for j, (vj, g) in enumerate(zip(vk.tolist(), gaps)):
        code = hist[j]
        # an open interval runs on to kept point j: g more units
        if g > 1:
            ext_p[:, :g] = neg
            ext_m[:, :g] = neg
        ext_p[:, g:] = open_p[:, :-g]
        ext_m[:, g:] = open_m[:, :-g]
        # close it at j
        np.add(ext_p, vj, out=cand)
        np.greater(cand, closed, out=closed_p)
        np.maximum(closed, cand, out=closed)
        np.subtract(ext_m, vj, out=cand)
        np.greater(cand, closed, out=closed_m)
        np.maximum(closed, cand, out=closed)
        # or open one more interval at j
        np.subtract(closed_fewer, vj, out=cand_k)
        np.greater(cand_k, ext_p_k, out=opened_p)
        np.maximum(ext_p_k, cand_k, out=open_p_k)
        np.add(closed_fewer, vj, out=cand_k)
        np.greater(cand_k, ext_m_k, out=opened_m)
        np.maximum(ext_m_k, cand_k, out=open_m_k)
        # code = closed_p + 2 closed_m + 4 (opened_p + 2 opened_m)
        np.add(closed_m8, closed_m8, out=code)
        np.add(code, closed_p8, out=code)
        np.add(opened_m8, opened_m8, out=opened)
        np.add(opened, opened_p8, out=opened)
        np.multiply(opened, _OPENED_P, out=opened)
        np.add(code[1:], opened, out=code[1:])
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

    Draws n width and then n + 1 gap uniforms from rng and lays them out
    with ``_collection_rows``, the kernel that ``verify_certificate`` runs
    on many trials at once.
    """
    span = hi - lo
    if not 0 < total < span:
        raise GeometryError(f"total {total} must lie in (0, {span})")
    if n < 1:
        raise ValueError("n must be >= 1")
    w = rng.random((1, n))
    g = rng.random((1, n + 1))
    x, y, keep = _collection_rows(w, g, np.array([total]), float(lo),
                                  float(hi))
    return IntervalCollection(tuple(zip(x[keep].tolist(), y[keep].tolist())))


def _collection_rows(w: np.ndarray, g: np.ndarray, totals: np.ndarray,
                     lo: float, hi: float):
    """(x, y, keep) of one random collection per row.

    Row r scales its n width uniforms w[r] to total totals[r] and its
    n + 1 gap uniforms g[r] to span - totals[r], then walks from lo
    adding gap, width, gap, width, ...; one ``np.cumsum`` adds them in that
    left-to-right order, as a loop of ``pos += step`` would.  The last gap
    is drawn but never walked.  Pair i runs from x[r, i] to y[r, i] =
    min(position, hi); keep[r, i] is False for the pairs it drops, those
    no longer than 1e-13 * max(1, span).
    """
    span = hi - lo
    n = w.shape[1]
    walk = np.empty((len(w), 2 * n + 1))
    walk[:, 0] = lo
    walk[:, 1::2] = g[:, :n] * ((span - totals) / g.sum(axis=1))[:, None]
    walk[:, 2::2] = w * (totals / w.sum(axis=1))[:, None]
    pos = np.cumsum(walk, axis=1)
    x, y = pos[:, 1::2], pos[:, 2::2]
    y = np.where(hi < y, hi, y)
    return x, y, y - x > 1e-13 * max(1.0, span)


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


def verify_certificate(f: FunctionSpec, cert: Certificate, trials: int = 10000,
                       seed: int = 0) -> VerificationReport:
    """Stress a certificate with adversarial, random and searched collections.

    The adversarial stage is one glued interval per piece, of length
    0.999 * min(delta_1, piece length) at the favourable end
    (``glued_single_interval``): by the increment lemma and the gluing
    bound its increment dominates every collection of that total length on
    the piece, split ones included.  Then ``trials`` random
    collections mix many-small-interval and single-interval shapes: trial t
    is one row of 35 uniforms from ``np.random.default_rng(seed)``, which
    gives its pair count (1 to 8, or 16, or 1, by t mod 5), its total and
    its widths and gaps, and ``_random_blocks`` lays out every trial of a
    block at once.  Every sum is the exact ``math.fsum`` of the pair
    increments, equal to ``ac_sum``; the first strictly largest one is the
    worst so far.

    The worst-sum oracle searches a grid sized so the budget spans about
    128 units, but only when it can win: its answer never exceeds the grid's
    step-sum bound times 1 + BOUND_SLACK (``_step_bound``; the oracle
    asserts it), so when that ceiling is at most the worst sum already
    seen, the oracle could not replace it and is skipped.  A skipped oracle
    raises nothing, such as the DP's state-space BudgetError.

    Passes iff the worst sum stays below epsilon.  The random attack works
    in blocks of VERIFY_BLOCK trials and holds at most about 3 KB per trial
    of a block, ~12 MB at 4096 trials, on top of the oracle's grid.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lo = cert.partition.points[0]
    hi = cert.partition.points[-1]
    span = hi - lo
    d1 = cert.delta1
    worst_sum = 0.0
    worst_c = IntervalCollection(())
    for piece in cert.monotone_pieces:
        plen = piece.interval.hi - piece.interval.lo
        # a subnormal piece length can round 0.999 * plen back to plen
        length = 0.999 * min(d1, plen)
        if 0 < length < plen:
            rep = glued_single_interval(f, piece, length)
            if rep.best_sum > worst_sum:
                worst_sum, worst_c = rep.best_sum, rep.witness
    winner = None
    for sums, rows in _random_blocks(f, np.random.default_rng(seed), lo, hi,
                                     d1, trials):
        top = int(np.argmax(sums))
        if sums[top] > worst_sum:
            worst_sum, winner = float(sums[top]), _row_pairs(rows, top)
    if winner is not None:
        worst_c = IntervalCollection(winner)

    # about 128 grid steps per budget, sized in float: a subnormal d1 makes
    # span / h infinite, or h itself 0
    h = d1 / 128.0
    m = max(257, int(min(8192.0, span / h if h > 0 else math.inf)) + 1)
    grid = sample(f, IntervalSpec(lo, hi), m)
    if d1 > grid.spacing:
        bound = _step_bound(grid, d1)[2]
        if bound * (1.0 + BOUND_SLACK) > worst_sum:
            report = worst_ac_sum_oracle(grid, d1, DEFAULT_MAX_INTERVALS)
            if report.best_sum > worst_sum:
                worst_sum, worst_c = report.best_sum, report.witness

    return VerificationReport(passed=worst_sum < cert.epsilon,
                              worst_sum=worst_sum, worst_collection=worst_c)


def _random_blocks(f: FunctionSpec, rng, lo, hi, d1, trials: int):
    """Yield (sums, rows) for each block of random trials that draws any.

    Trial t is one row u of 35 uniforms; a block of VERIFY_BLOCK trials
    draws its rows with one ``rng.random`` call, so the trials depend on
    rng and trials only, not on the block size.  By t mod 5 the trial has
    one pair (3), sixteen (4) or 1 + floor(8 u[0]) (else), and its total is
    d1 times 0.9 + 0.099 u[1], 0.5 + 0.45 u[1] or 0.3 + 0.69 u[1], capped
    at half the span; a trial whose total is not positive draws nothing.
    Its n width and n + 1 gap uniforms are u[2:2n + 3], and every trial
    with the same n is laid out at once by ``_collection_rows``; one
    ``evaluate_many`` call evaluates the block's kept endpoints.  sums[i]
    is the i-th drawing trial's increment sum, the exact ``math.fsum`` of
    its pair increments (so it equals ``ac_sum``); rows holds (positions,
    x, y, keep) per pair count as ``_collection_rows`` returns them,
    positions being the indices into sums (``_row_pairs``).  Per trial a
    block holds its 35 uniforms, the gathered width and gap rows, the walk
    and its positions, and the kept endpoints and their values: under 3 KB.
    """
    half_span = (hi - lo) * 0.5
    for t0 in range(0, trials, VERIFY_BLOCK):
        mode = np.arange(t0, min(trials, t0 + VERIFY_BLOCK)) % 5
        u = rng.random((len(mode), 35))  # 2 + 16 widths + 17 gaps
        counts = np.where(mode < 3, 1 + (8.0 * u[:, 0]).astype(np.int64),
                          np.array([0, 0, 0, 1, 16])[mode])
        base = np.array([0.3, 0.3, 0.3, 0.9, 0.5])[mode]
        scale = np.array([0.69, 0.69, 0.69, 0.099, 0.45])[mode]
        totals = np.minimum(d1 * (base + scale * u[:, 1]), half_span)
        live = np.flatnonzero(totals > 0)
        if not len(live):
            continue
        counts, totals = counts[live], totals[live]
        rows = []
        for n in np.unique(counts).tolist():
            at = np.flatnonzero(counts == n)
            r = live[at]
            rows.append((at,) + _collection_rows(
                u[r, 2:n + 2], u[r, n + 2:2 * n + 3], totals[at], lo, hi))
        ends = np.concatenate([x[keep] for _, x, _, keep in rows]
                              + [y[keep] for _, _, y, keep in rows])
        v = evaluate_many(f, ends)
        steps = np.abs(v[len(v) // 2:] - v[:len(v) // 2])
        sums = np.empty(len(counts))
        done = 0
        for at, x, _, keep in rows:
            increments = np.zeros(x.shape)
            increments[keep] = steps[done:done + np.count_nonzero(keep)]
            done += np.count_nonzero(keep)
            sums[at] = [math.fsum(r) for r in increments.tolist()]
        yield sums, rows


def _row_pairs(rows, i: int) -> tuple:
    """The kept pairs of the trial at position i of a ``_random_blocks``
    block."""
    for at, x, y, keep in rows:
        hit = np.flatnonzero(at == i)
        if len(hit):
            r = hit[0]
            return tuple(zip(x[r, keep[r]].tolist(), y[r, keep[r]].tolist()))
    raise IndexError(i)
