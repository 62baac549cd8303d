"""Modulus of continuity, interval gluing, worst-sum search and certificates.

The central objects are finite collections of nonoverlapping subintervals
{(x_i, y_i)} with a total-length budget.  Three complementary tools bound or
search their increment sums sum |f(y_i) - f(x_i)|:

* ``glue_chain`` / ``gluing_bound_check`` pack a collection into one
  contiguous interval of the same total length, anchored at the end where
  increments are largest; on monotone convex/concave pieces the packed
  increment dominates the collection's sum.
* ``worst_ac_sum_oracle`` finds the grid-aligned collection with the largest
  increment sum: in closed form when the largest grid steps within the
  budget form few enough same-sign runs, else by dynamic programming over
  (grid index, budget units, interval count).
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
    sample,
)

#: default interval cap for the worst-sum search
DEFAULT_MAX_INTERVALS = 32

#: invert_modulus and ac_certificate shrink the inverted step by this factor
MODULUS_SAFETY = 0.9

#: delta_1 keeps this fraction of the per-piece bound
DELTA1_SAFETY = 0.99


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
class GluedChain:
    """Breakpoints z_1 < ... < z_{n+1} whose gaps reproduce the pair lengths."""

    z: tuple
    direction: Anchor


@dataclass(frozen=True)
class ModulusCurve:
    """Tabulated (delta, omega) pairs with delta strictly increasing."""

    samples: tuple

    def __post_init__(self) -> None:
        ss = tuple((d, float(w)) for d, w in self.samples)
        if any(b[0] <= a[0] for a, b in zip(ss, ss[1:])):
            raise InsufficientData("modulus deltas must be strictly increasing")
        object.__setattr__(self, "samples", ss)

    @property
    def deltas(self) -> tuple:
        return tuple(d for d, _ in self.samples)

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


@dataclass(frozen=True)
class Certificate:
    """(epsilon, delta_1) certificate over a monotone-refined partition."""

    epsilon: float
    delta1: float
    partition: Partition
    per_piece_budget: float
    monotone_pieces: tuple


@dataclass(frozen=True)
class GluingCheck:
    lhs: float
    rhs: float
    holds: bool
    direction_used: Anchor
    tolerance: float


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

def modulus(f: FunctionSpec, window: IntervalSpec, deltas, m: int = 4001) -> ModulusCurve:
    """Tabulate omega(delta) = max |f(x) - f(y)| over grid pairs |x - y| <= delta."""
    grid = sample(f, window, m)
    return modulus_on_grid(grid, deltas)


def modulus_on_grid(grid: SampleGrid, deltas) -> ModulusCurve:
    """Modulus curve on an explicit grid, exact at every grid size.

    omega(delta) is the largest |v_j - v_i| over grid pairs with
    x_j - x_i <= delta, compared in the abscissae's own arithmetic (float or
    exact rational), and the curve is made nondecreasing by a running
    maximum.  Each point's window starts at the first point within delta
    (``_window_starts``); a sparse table of maxima and minima over
    power-of-two blocks then answers every window with two lookups.  The
    table costs O(m log w) time once and 16 * m * (floor(log2 w) + 1) bytes,
    w being the longest window at the largest delta (at most m points:
    about 27 MB at m = 100001); each delta then costs O(m log m) for the
    window starts and O(m) for the lookups.
    """
    ds = list(deltas)
    if not ds:
        raise InsufficientData("at least one delta is required")
    if any(d <= 0 for d in ds):
        raise BudgetError("deltas must be positive")
    if any(b <= a for a, b in zip(ds, ds[1:])):
        raise BudgetError("deltas must be sorted ascending")
    span = grid.span
    if any(d > span for d in ds):
        raise BudgetError(f"delta exceeds the window length {span}")
    xs, vs = grid.abscissae, grid.values
    ends = np.arange(len(xs))
    widest = int(np.max(ends - _window_starts(xs, ds[-1]))) + 1
    top, bottom = _block_extrema(vs, widest.bit_length())
    best = 0.0
    samples = []
    for d in ds:
        starts = _window_starts(xs, d)
        level = np.frexp(ends - starts + 1)[1] - 1  # floor(log2(length))
        tail = ends - (1 << level) + 1
        hi = np.maximum(top[level, starts], top[level, tail])
        lo = np.minimum(bottom[level, starts], bottom[level, tail])
        best = max(best, float(np.max(hi - vs)), float(np.max(vs - lo)))
        samples.append((d, best))
    return ModulusCurve(tuple(samples))


def _window_starts(xs: np.ndarray, delta) -> np.ndarray:
    """For every j, the smallest i with xs[j] - xs[i] <= delta.

    ``searchsorted`` answers xs[i] >= xs[j] - delta, which may round
    differently; the loops then step each start to the exact boundary of
    the difference test, which is monotone in i.
    """
    starts = np.searchsorted(xs, xs - delta)
    while (down := (starts > 0) & (xs - xs[starts - 1] <= delta)).any():
        starts -= down
    while (up := xs - xs[starts] > delta).any():
        starts += up
    return starts


def _block_extrema(vs: np.ndarray, levels: int):
    """Sparse tables: row k holds max/min of vs[i : i + 2**k] at column i.

    Columns whose block would run past the end are left unset; a window
    lookup never reads them.
    """
    top = np.empty((levels, len(vs)))
    bottom = np.empty((levels, len(vs)))
    top[0] = bottom[0] = vs
    for k in range(1, levels):
        half = 1 << (k - 1)
        np.maximum(top[k - 1, :-half], top[k - 1, half:], out=top[k, :-half])
        np.minimum(bottom[k - 1, :-half], bottom[k - 1, half:],
                   out=bottom[k, :-half])
    return top, bottom


def invert_modulus(curve: ModulusCurve, epsilon: float) -> float:
    """Largest tabulated delta with omega(delta) < epsilon, shrunk by 0.9."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    qualifying = [d for d, w in curve.samples if w < epsilon]
    if not qualifying:
        raise Unachievable(
            f"no tabulated step keeps increments below {epsilon}; "
            "refine the curve or lower expectations")
    return MODULUS_SAFETY * float(max(qualifying))


# ---------------------------------------------------------------------------
# Gluing
# ---------------------------------------------------------------------------

def glue_chain(c: IntervalCollection, direction: Anchor) -> GluedChain:
    """Pack a collection into one contiguous run of breakpoints.

    Left-anchored: z_1 = x_1 and each gap reproduces the next pair length.
    Right-anchored: z_{n+1} = y_n and gaps reproduce the lengths leading
    backward from the right end.
    """
    if len(c) == 0:
        raise EmptyCollection("cannot glue an empty collection")
    sigmas = [y - x for x, y in c.pairs]
    if direction is Anchor.LEFT:
        z = [c.pairs[0][0]]
        for s in sigmas:
            z.append(z[-1] + s)
    else:
        z_end = c.pairs[-1][1]
        acc = z_end
        rev = [acc]
        for s in reversed(sigmas):
            acc = acc - s
            rev.append(acc)
        z = rev[::-1]
    if any(b <= a for a, b in zip(z, z[1:])):
        raise GeometryError("chain breakpoints collapsed; lengths too small")
    return GluedChain(z=tuple(z), direction=direction)


def _anchor_for(piece: ShapePiece) -> Anchor:
    direction = expected_direction(piece)
    if direction is Direction.NONDECREASING:
        return Anchor.RIGHT
    return Anchor.LEFT


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
    chain = glue_chain(c, anchor)
    span = hi - lo
    slack = 16.0 * sys.float_info.epsilon * (abs(lo) + abs(hi) + span) * max(1, len(c))
    z_first = _clamp_into(chain.z[0], lo, hi, slack)
    z_last = _clamp_into(chain.z[-1], lo, hi, slack)
    lhs = ac_sum(f, c)
    rhs = abs(evaluate(f, z_last) - evaluate(f, z_first))
    if tol is None:
        tol = 1e-9 * max(1.0, abs(lhs), abs(rhs))
    return GluingCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + tol,
                       direction_used=anchor, tolerance=tol)


# ---------------------------------------------------------------------------
# Worst-sum search
# ---------------------------------------------------------------------------

def worst_ac_sum_oracle(f: FunctionSpec, grid: SampleGrid, delta,
                        max_intervals: int = DEFAULT_MAX_INTERVALS) -> ACWorstReport:
    """Maximize the increment sum over grid-aligned collections.

    Interval endpoints are restricted to the (uniform) grid, so every
    interval length is an exact multiple of the grid unit and the strict
    total-length constraint `< delta` becomes the exact unit budget
    `<= delta - one unit`.

    Splitting an interval never lowers its increment sum, and touching
    pairs are legal, so the sum of the `units` largest steps
    |v[j+1] - v[j]| bounds every collection.  The bound-first path
    (method "OracleBound") takes those steps, ties going to the lowest
    index, and groups the nonzero ones into maximal runs of consecutive
    same-sign steps; when there are at most `max_intervals` runs, one
    interval per run attains the bound, in O(m log m) time and O(m)
    memory.  Otherwise a dynamic program (method "OracleDP", ``_dp_pairs``)
    searches states (grid index, units used, intervals used) in
    m * (units + 1) * (kmax + 1) bytes of choice history plus
    O((units + 1) * (kmax + 1)) floats, kmax = min(max_intervals, units).
    Only the DP is limited by the state-space guard (BudgetError), and its
    result never exceeds the bound.
    """
    if max_intervals < 1:
        raise ValueError("max_intervals must be >= 1")
    m = len(grid)
    xs, v = grid.abscissae, grid.values
    gaps = np.diff(xs)
    hmin, hmax = gaps.min(), gaps.max()
    if float(hmax - hmin) > 1e-9 * float(hmax):
        raise InsufficientData("the worst-sum search requires a uniform grid")
    if not delta > grid.spacing:
        raise BudgetError(
            f"delta {delta} must exceed the grid spacing {grid.spacing}")
    h = (xs[-1] - xs[0]) / (m - 1)
    units = int(math.floor(float(delta) / float(h) - 1.0 + 1e-9))
    units = min(units, m - 1)
    # touching pairs (y_i = x_{i+1}) are legal, so up to `units` intervals fit
    kmax = min(max_intervals, units)
    pairs_idx, bound = _top_step_runs(np.diff(v), units)
    if len(pairs_idx) <= kmax:
        method = "OracleBound"
    else:
        if 3 * m * (units + 1) * (kmax + 1) > 400_000_000:
            raise BudgetError(
                "worst-sum state space too large; coarsen the grid")
        method = "OracleDP"
        pairs_idx = _dp_pairs(v, units, kmax)
    points = xs.tolist()
    witness = IntervalCollection(
        tuple((points[s], points[e]) for s, e in pairs_idx))
    best_sum = math.fsum(abs(v[e] - v[s]) for s, e in pairs_idx)
    assert best_sum <= bound * (1.0 + 1e-9), (best_sum, bound)
    return ACWorstReport(delta=delta, best_sum=best_sum, witness=witness,
                         method=method, grid_spacing=float(grid.spacing))


def _top_step_runs(steps: np.ndarray, units: int):
    """(runs, bound) for the `units` largest |steps|.

    Ties go to the lowest index, as in a stable descending sort.  Zero
    steps are dropped and the rest grouped into maximal runs of consecutive
    same-sign steps; run (s, e) covers steps s .. e - 1, i.e. the grid
    interval from index s to index e.  ``bound`` is the selected steps'
    summed magnitude.
    """
    magnitude = np.abs(steps)
    top = np.argsort(-magnitude, kind="stable")[:units]
    bound = math.fsum(magnitude[top])
    sign = np.zeros(len(steps) + 2)
    sign[top + 1] = np.sign(steps[top])
    change = sign[1:] != sign[:-1]
    starts = np.flatnonzero(change & (sign[1:] != 0))
    ends = np.flatnonzero(change & (sign[:-1] != 0))
    return list(zip(starts.tolist(), ends.tolist())), bound


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
    Every buffer is allocated once and updated in place, and each state
    records one uint8 choice code per grid point, so the memory is
    m * (units + 1) * (kmax + 1) bytes of history plus
    O((units + 1) * (kmax + 1)) floats.
    """
    m = len(v)
    shape = (kmax + 1, units + 1)
    neg = -math.inf
    closed = np.full(shape, neg)
    closed[0, 0] = 0.0
    # an open state counts its interval, so row 0 of the open states and
    # column 0 (no unit yet) of the extended ones stay -inf
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
    hist = np.empty((m,) + shape, np.uint8)
    # rows 1.. (one interval more) and the closed states they open from
    closed_fewer, cand_k = closed[:-1], cand[1:]
    ext_p_k, ext_m_k = ext_p[1:], ext_m[1:]
    open_p_k, open_m_k = open_p[1:], open_m[1:]
    for j, vj in enumerate(v.tolist()):
        code = hist[j]
        # an open interval runs on to grid point j: one more unit
        ext_p[:, 1:] = open_p[:, :-1]
        ext_m[:, 1:] = open_m[:, :-1]
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
    return _backtrack(hist, u, k)


def _backtrack(hist: np.ndarray, u: int, k: int):
    """Follow the choice codes back from the closed state (k, u) at the
    last grid point; returns the intervals as (start, end) index pairs."""
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
                u -= 1
            j -= 1
        elif code & state:
            pairs.append((j, end))
            k -= 1
            state = 0
        else:
            u -= 1
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
    if _anchor_for(piece) is Anchor.LEFT:
        pair = (lo, lo + budget)
    else:
        pair = (hi - budget, hi)
    witness = IntervalCollection((pair,))
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
    """Seeded random collection of n nonoverlapping pairs with given total."""
    span = hi - lo
    if not 0 < total < span:
        raise GeometryError(f"total {total} must lie in (0, {span})")
    if n < 1:
        raise ValueError("n must be >= 1")
    w = rng.random(n)
    w = w * (total / w.sum())
    g = rng.random(n + 1)
    g = g * ((span - total) / g.sum())
    pairs = []
    pos = lo
    for i in range(n):
        pos += g[i]
        x = pos
        pos += w[i]
        y = min(pos, hi)
        if y - x > 1e-13 * max(1.0, span):
            pairs.append((float(x), float(y)))
    return IntervalCollection(tuple(pairs))


def ac_certificate(f: FunctionSpec, p: Partition, pieces, epsilon: float) -> Certificate:
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
    span = p.points[-1] - p.points[0]
    if abs(pieces[0].interval.lo - p.points[0]) > 1e-9 * span or \
       abs(pieces[-1].interval.hi - p.points[-1]) > 1e-9 * span:
        raise PreconditionError("pieces do not span the partition window")
    for a, b in zip(pieces, pieces[1:]):
        if abs(a.interval.hi - b.interval.lo) > 1e-9 * span:
            raise PreconditionError("pieces do not tile the window contiguously")

    budget = epsilon / len(pieces)
    min_len = min(piece.interval.hi - piece.interval.lo for piece in pieces)
    step = min(_increment_step(f, piece, budget) for piece in pieces)
    delta1 = DELTA1_SAFETY * min(MODULUS_SAFETY * step, min_len)
    boundaries = [pieces[0].interval.lo]
    boundaries.extend(piece.interval.hi for piece in pieces)
    return Certificate(epsilon=float(epsilon), delta1=float(delta1),
                       partition=Partition(tuple(boundaries)),
                       per_piece_budget=float(budget),
                       monotone_pieces=pieces)


def _increment_step(f: FunctionSpec, piece: ShapePiece, budget: float) -> float:
    """Largest step whose increment anchored at the favourable end is < budget.

    The anchored increment is |f(lo + d) - f(lo)| for a left-anchored piece
    and |f(hi) - f(hi - d)| for a right-anchored one; on a monotone piece it
    is nondecreasing in d.  Returns the piece length when the whole piece
    qualifies, else bisects (0, length) until the midpoint no longer splits
    the bracket.  Raises Unachievable when no positive step qualifies.
    """
    lo, hi = float(piece.interval.lo), float(piece.interval.hi)
    length = hi - lo
    left = _anchor_for(piece) is Anchor.LEFT
    base = evaluate(f, lo if left else hi)

    def increment(d):
        x = min(hi, lo + d) if left else max(lo, hi - d)
        return abs(evaluate(f, x) - base)

    if increment(length) < budget:
        return length
    a, b = 0.0, length
    while a < (mid := 0.5 * (a + b)) < b:
        if increment(mid) < budget:
            a = mid
        else:
            b = mid
    if a == 0.0:
        raise Unachievable(
            f"no positive step keeps the anchored increment on "
            f"[{lo}, {hi}] below {budget}")
    return a


def verify_certificate(f: FunctionSpec, cert: Certificate, trials: int = 10000,
                       seed: int = 0) -> VerificationReport:
    """Stress a certificate with random, adversarial and searched collections.

    Random collections mix many-small-interval and single-interval shapes;
    adversarial collections anchor the budget at the favorable end of each
    piece; the worst-sum oracle searches a grid sized so the budget spans
    about 128 units.  Passes iff every observed increment sum stays below
    epsilon.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    lo = cert.partition.points[0]
    hi = cert.partition.points[-1]
    span = hi - lo
    d1 = cert.delta1
    worst_sum = 0.0
    worst_c = IntervalCollection(())

    def consider(c: IntervalCollection, s: float | None = None):
        nonlocal worst_sum, worst_c
        if len(c) == 0:
            return
        if s is None:
            s = ac_sum(f, c)
        if s > worst_sum:
            worst_sum = s
            worst_c = c

    for piece in cert.monotone_pieces:
        plo, phi = piece.interval.lo, piece.interval.hi
        plen = phi - plo
        length = min(d1 * 0.999, plen * 0.999)
        if length <= 0:
            continue
        at_left = _anchor_for(piece) is Anchor.LEFT
        if at_left:
            consider(IntervalCollection(((plo, plo + length),)))
        else:
            consider(IntervalCollection(((phi - length, phi),)))
        for parts in (2, 4, 8):
            seg = length / parts
            gap = min(seg / 2.0, (plen * 0.999 - length) / max(1, parts - 1))
            if gap <= 0 or seg <= 0:
                continue
            pairs = []
            if at_left:
                pos = plo
                for _ in range(parts):
                    pairs.append((pos, pos + seg))
                    pos += seg + gap
            else:
                pos = phi
                for _ in range(parts):
                    pairs.append((pos - seg, pos))
                    pos -= seg + gap
                pairs.reverse()
            consider(IntervalCollection(tuple(pairs)))

    for t in range(trials):
        mode = t % 5
        if mode == 3:
            n = 1
            total = d1 * (0.9 + 0.099 * rng.random())
        elif mode == 4:
            n = 16
            total = d1 * (0.5 + 0.45 * rng.random())
        else:
            n = 1 + int(rng.integers(0, 8))
            total = d1 * (0.3 + 0.69 * rng.random())
        total = min(total, span * 0.5)
        if total <= 0:
            continue
        consider(random_collection(rng, lo, hi, total, n))

    m_target = int(span / (d1 / 128.0)) + 1
    m = max(257, min(8193, m_target))
    grid = sample(f, IntervalSpec(lo, hi), m)
    if d1 > grid.spacing:
        report = worst_ac_sum_oracle(f, grid, d1, DEFAULT_MAX_INTERVALS)
        consider(report.witness, report.best_sum)

    return VerificationReport(passed=worst_sum < cert.epsilon,
                              worst_sum=worst_sum, worst_collection=worst_c)
