"""Modulus of continuity, interval gluing, worst-sum search and certificates.

The central objects are finite collections of nonoverlapping subintervals
{(x_i, y_i)} with a total-length budget.  Four complementary tools bound or
search their increment sums sum |f(y_i) - f(x_i)|; none reads the
function's kind, which only ``function_model`` tells apart:

* ``gluing_bound_check`` glues a collection of total length L into one
  interval, [x_1, x_1 + L] or [y_n - L, y_n] at the end where increments
  are largest, clamped into the piece; on monotone convex/concave pieces
  its increment dominates the collection's sum.
* ``worst_ac_sum_oracle`` finds the grid-aligned collection with the largest
  increment sum: in closed form when the largest grid steps within the
  budget, rounding-level ties taken lowest index first so that a linear
  piece yields one glued run, form few enough same-sign runs, else by
  dynamic programming over (grid index, budget units, interval count).
* ``exact_phi`` (``function_model``) builds Phi, the supremum Phi(d) of
  the increment sums over every collection of total length at most d,
  once per window.  Its methods give Phi(d), the largest d proved to have
  Phi(d) < epsilon, that decision for a given d, and a collection that
  nearly reaches Phi(d) or reaches epsilon.
* ``ac_certificate`` inverts each piece's Phi into a concrete
  (epsilon, delta_1) certificate: every collection of total length below
  delta_1 has increment sum below epsilon.  ``verify_certificate``'s Phi,
  on the whole window, proves or refuses it, or the report says that it
  could not decide, and its witness is the one collection that attacks it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .convexity import (
    Direction,
    Partition,
    ShapePiece,
    expected_direction,
)
from .errors import (
    BudgetError,
    GeometryError,
    InsufficientData,
    Unachievable,
)
from .function_model import (
    FunctionSpec,
    IntervalCollection,
    SampleGrid,
    evaluate,
    exact_phi,
)

#: default interval cap for the worst-sum search
DEFAULT_MAX_INTERVALS = 32

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


# ---------------------------------------------------------------------------
# Data types
# ---------------------------------------------------------------------------

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
    #: the sum of the `units` largest grid steps, which caps best_sum
    step_bound: float


@dataclass(frozen=True)
class Certificate:
    """(epsilon, delta_1) certificate on a partition of its window; each of
    its N pieces has budget epsilon / N."""

    epsilon: float
    delta1: float
    partition: Partition

    @property
    def per_piece_budget(self) -> float:
        return self.epsilon / (len(self.partition.points) - 1)


@dataclass(frozen=True)
class GluingCheck:
    lhs: float
    rhs: float
    holds: bool
    #: the piece's increment-curve direction; the glued interval sits at
    #: the right end when it is NONDECREASING, else at the left
    direction_used: Direction


@dataclass(frozen=True)
class VerificationReport:
    #: Phi(delta_1) < epsilon proved and the witness's sum below epsilon
    #: (True), or refused (False); None where Phi could not decide it
    passed: bool | None
    #: ``Phi.witness``'s collection at delta_1 and its increment sum, a
    #: lower bound just under Phi(delta_1); 0.0 and no interval where no
    #: Phi exists
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


def ac_sum(f: FunctionSpec, c: IntervalCollection) -> float:
    """Increment sum of a collection: sum of |f(y_i) - f(x_i)|."""
    return math.fsum(abs(evaluate(f, y) - evaluate(f, x)) for x, y in c.pairs)


# ---------------------------------------------------------------------------
# Modulus of continuity
# ---------------------------------------------------------------------------

def modulus_on_grid(grid: SampleGrid, deltas) -> ModulusCurve:
    """Modulus curve on an explicit grid, exact at every grid size.

    omega(delta) is the largest |v_j - v_i| over grid pairs with
    x_j - x_i <= delta, compared in float arithmetic, made nondecreasing by
    a running maximum.  It is read as the largest max - min over the
    windows [s_j, j] within delta of x_j (float subtraction is monotone, so
    the values are a pair scan's).  On a constant lag L the windows
    [j - L, j], j >= L, contain the clipped ones.  ``_lag`` makes one call
    per delta: the gap extremes give L off a tie with the grid step, exact
    slice tests elsewhere, and the exceptions, the points with
    xs[j] - xs[j - L - 1] <= delta too, get exact starts and gathers.

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
    vs = grid.values
    m = len(vs)
    scratch = np.empty(m)  # no m-float array per delta
    trend = _trend(vs)
    if not trend:
        lo = np.empty(m)
        rows = {0: (vs, vs)}  # level k -> max and min of vs[i : i + 2**k]
    best = 0.0
    samples = []
    for d in ds:
        lag, ends = _lag(grid, d)
        if len(ends):
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


def _lag(grid: SampleGrid, delta) -> tuple:
    """The largest lag L with xs[j] - xs[j - L] <= delta for every j >= L,
    and the exceptions: the indices j > L with xs[j] - xs[j - L - 1] <= delta
    as well, whose windows reach further back.

    The first guess L = floor(delta / (gmax (1 + s))), clipped at m - 1, is
    valid on every grid, s = ``_GAP_SLACK`` absorbing the rounding.  It is
    the answer, with no exception and no slice test, at m - 1 or where the
    gaps are normal floats and delta < (L + 1) gmin (1 - s); else the search
    gallops up from it, then bisects, one slice test (``_fits``) per probe.
    """
    xs = grid.abscissae
    m = len(xs)
    lag = min(math.floor(delta / (grid.spacing * (1 + _GAP_SLACK))), m - 1)
    gmin = grid.narrowest
    if lag == m - 1 or (gmin >= sys.float_info.min
                        and delta < (lag + 1) * gmin * (1 - _GAP_SLACK)):
        return lag, np.empty(0, np.intp)
    step = 1
    while _fits(xs, lag + step, delta):
        lag += step
        step *= 2
    while step > 1:  # lag fits and lag + step does not
        step //= 2
        if _fits(xs, lag + step, delta):
            lag += step
    reach = xs[lag + 1:] - xs[:m - lag - 1]  # empty at lag m - 1
    return lag, np.flatnonzero(reach <= delta) + (lag + 1)


def _fits(xs: np.ndarray, k: int, delta) -> bool:
    """Slice test: every k-step length xs[j] - xs[j - k] is within delta."""
    m = len(xs)
    return k < m and (xs[k:] - xs[:m - k]).max() <= delta


def _widest_range(row: tuple, i, j, hi, lo) -> float:
    """The largest max - min over the windows covered by the blocks of `row`
    at columns i and j (slices or index arrays); hi and lo are scratch."""
    top, bottom = row
    np.maximum(top[i], top[j], out=hi)
    np.minimum(bottom[i], bottom[j], out=lo)
    return float(np.subtract(hi, lo, out=hi).max())


def _window_starts(grid: SampleGrid, delta, ends: np.ndarray) -> np.ndarray:
    """For every index j in ``ends``, the smallest i with
    xs[j] - xs[i] <= delta.

    The first guess is j - floor(delta / h), clipped at 0, on a uniform grid
    (``SampleGrid.uniform``), in O(e) for e ends, and ``searchsorted`` on
    xs[i] >= xs[j] - delta on any other, in O(e log m).  The loops then step
    each start, one point per pass, to the exact boundary of the difference
    test (monotone in i); the guesses are off by a point or two, since
    xs[j] - delta rounds differently from xs[j] - xs[i].
    """
    xs = grid.abscissae
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

def _glued_interval(c: IntervalCollection, direction: Direction,
                    lo, hi) -> tuple:
    """The nonempty collection packed into one interval of its total length
    L (``fsum`` of the pair lengths), clamped into [lo, hi]: (y_n - L, y_n)
    where the increment curve is nondecreasing, else (x_1, x_1 + L)."""
    (x, _), (_, y) = c.pairs[0], c.pairs[-1]
    if direction is Direction.NONDECREASING:
        return max(lo, y - c.total_length), y
    return x, min(hi, x + c.total_length)


def gluing_bound_check(f: FunctionSpec, piece: ShapePiece, c: IntervalCollection,
                       tol: float | None = None) -> GluingCheck:
    """Check that the glued single increment dominates the collection sum.

    The glued interval (``_glued_interval``) sits at the end where
    increments are largest, by Lemma 1 (``expected_direction``): right when
    the increment curve is nondecreasing, left otherwise.  Reports
    lhs = sum |f(y_i) - f(x_i)| and rhs, its increment; both are 0 for an
    empty collection.
    """
    lo, hi = piece.interval.lo, piece.interval.hi
    for x, y in c.pairs:
        if x < lo or y > hi:
            raise GeometryError(f"pair ({x}, {y}) leaves the piece [{lo}, {hi}]")
    direction = expected_direction(piece)
    lhs, rhs = ac_sum(f, c), 0.0
    if c.pairs:
        z_first, z_last = _glued_interval(c, direction, lo, hi)
        rhs = abs(evaluate(f, z_last) - evaluate(f, z_first))
    if tol is None:
        tol = 1e-9 * max(1.0, abs(lhs), abs(rhs))
    return GluingCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol,
                       direction_used=direction)


# ---------------------------------------------------------------------------
# Worst-sum search
# ---------------------------------------------------------------------------

def worst_ac_sum_oracle(grid: SampleGrid, delta,
                        max_intervals: int = DEFAULT_MAX_INTERVALS) -> ACWorstReport:
    """Maximize the increment sum over grid-aligned collections.

    Interval endpoints are restricted to the (uniform) grid, and the strict
    total-length constraint `< delta` becomes a budget of `units` grid
    steps, the most whose float length stays below delta
    (``_step_bound``).

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
    abscissae, looked up by index.
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
    # only the pairs' endpoints, as Python floats
    idx = np.array(pairs_idx, dtype=np.intp).reshape(-1, 2)
    witness = IntervalCollection(
        tuple(map(tuple, grid.abscissae[idx].tolist())))
    best_sum = math.fsum(abs(v[e] - v[s]) for s, e in pairs_idx)
    assert best_sum <= bound * (1.0 + BOUND_SLACK), (best_sum, bound)
    return ACWorstReport(delta=delta, best_sum=best_sum, witness=witness,
                         method=method, grid_spacing=grid.spacing,
                         step_bound=bound)


def _step_bound(grid: SampleGrid, delta):
    """(units, runs, bound) of a budget delta on a uniform grid.

    ``units`` is the most grid steps whose float length stays below delta:
    any u steps are at most u * gmax long, so units = min(m - 1,
    ceil(delta / (gmax (1 + s))) - 1), s = ``_GAP_SLACK`` covering the
    rounding of the quotient and of the lengths.  A delta above m - 1 such
    lengths takes all m - 1 steps without the quotient, which overflows
    where the step is subnormal.  (runs, bound) are
    ``_top_step_runs`` of the grid's values for that many units: ``bound``
    caps every grid-aligned collection's increment sum, and
    ``worst_ac_sum_oracle``'s answer never exceeds it.
    """
    grid.require_uniform("the worst-sum search")
    if not delta > grid.spacing:
        raise BudgetError(
            f"delta {delta} must exceed the grid spacing {grid.spacing}")
    longest = grid.spacing * (1 + _GAP_SLACK)
    units = len(grid) - 1
    if not delta > units * longest:
        units = min(units, math.ceil(delta / longest) - 1)
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


# ---------------------------------------------------------------------------
# Partition splitting and certificates
# ---------------------------------------------------------------------------

def split_collection_at_partition(c: IntervalCollection,
                                  p: Partition) -> IntervalCollection:
    """Cut every pair at each interior partition point that it contains.

    Each output pair lies in one piece, the exact total length is
    preserved and, by the triangle inequality, the increment sum of the
    output dominates the input's for any function.
    """
    inner = p.points[1:-1]
    out = []
    for x, y in c.pairs:
        cuts = [x, *(a for a in inner if x < a < y), y]
        out.extend(zip(cuts, cuts[1:]))
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


def ac_certificate(f: FunctionSpec, partition: Partition,
                   epsilon: float) -> Certificate:
    """Synthesize an (epsilon, delta_1) certificate on a partition.

    With N pieces [a_{i-1}, a_i], each receives budget epsilon / N, and
    its step is the largest length that its Phi proves below the budget
    (``exact_phi(f, lo, hi).budget``), on a monotone convex/concave piece
    the increment anchored at the favourable end, by the increment lemma.
    A piece whose step is its whole length is skipped: no collection
    inside it reaches its share.  delta_1 is 0.99 * the smallest other
    step, or of the window's span if none.  A collection of total length
    below delta_1, split at the partition points, puts less than its step
    in each piece or lies in a skipped one, so its sum is below
    N * epsilon / N, wherever the partition's points lie.  Unachievable
    names the first piece whose Phi is unknown or proves no positive step.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    points = partition.points
    budget = epsilon / (len(points) - 1)
    steps = [points[-1] - points[0]]
    for lo, hi in zip(points, points[1:]):
        phi = exact_phi(f, lo, hi)
        step = None if phi is None else phi.budget(budget)
        if not step:
            raise Unachievable(f"no positive step keeps Phi on [{lo}, {hi}] "
                               f"below {budget}")
        if step < hi - lo:
            steps.append(step)
    return Certificate(epsilon=float(epsilon),
                       delta1=float(DELTA1_SAFETY * min(steps)),
                       partition=partition)


def verify_certificate(f: FunctionSpec,
                       cert: Certificate) -> VerificationReport:
    """Prove or refuse a certificate by Phi(delta_1), or say that Phi
    could not decide it.

    Phi bounds every collection on the certificate's window, with no
    reference to the detected pieces.  Where it decides Phi(delta_1) <
    epsilon (method "exact_sup"), the certificate passes iff it does and
    the sum of ``Phi.witness``'s collection, of total length below
    delta_1, is below epsilon.  That collection is the report's worst one:
    its sum lies just under Phi(delta_1), or reaches epsilon for the
    Cantor staircase.  Where a bracket stays open at _MAX_CELLS cells, or
    a bound overflows, nothing is proved: ``passed`` is None (method
    "undecided"); where Phi(delta_1) itself overflows, or no Phi exists,
    the worst sum is 0.0 on the empty collection.  The report carries
    Phi(delta_1) and Phi's budget, ``delta1_opt``, where they are known.
    """
    phi = exact_phi(f, cert.partition.points[0], cert.partition.points[-1])
    budget = None if phi is None else phi.budget(cert.epsilon)
    sup = None if phi is None else phi.sup(cert.delta1)
    if sup is None:
        return VerificationReport(passed=None, worst_sum=0.0,
                                  worst_collection=IntervalCollection(()),
                                  method="undecided", delta1_opt=budget)
    below = phi.below(cert.delta1, cert.epsilon)
    witness = phi.witness(cert.delta1, cert.epsilon)
    worst_sum = ac_sum(f, witness)
    return VerificationReport(
        passed=None if below is None else below and worst_sum < cert.epsilon,
        worst_sum=worst_sum, worst_collection=witness,
        method="undecided" if below is None else "exact_sup",
        sup=sup.value, delta1_opt=budget)
