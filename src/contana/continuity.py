"""Modulus of continuity, interval gluing, worst-sum search and certificates.

The central objects are finite collections of nonoverlapping subintervals
{(x_i, y_i)} with a total-length budget.  Three complementary tools bound or
search their increment sums sum |f(y_i) - f(x_i)|:

* ``glue_chain`` / ``gluing_bound_check`` pack a collection into one
  contiguous interval of the same total length, anchored at the end where
  increments are largest; on monotone convex/concave pieces the packed
  increment dominates the collection's sum.
* ``worst_ac_sum_oracle`` searches grid-aligned collections exhaustively by
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
    """Maximize the increment sum over grid-aligned collections by DP.

    Interval endpoints are restricted to the (uniform) grid, so every
    interval length is an exact multiple of the grid unit and the strict
    total-length constraint `< delta` becomes the exact unit budget
    `<= delta - one unit`.  The search runs over states (grid index, units
    used, intervals used) with open-interval carry states for both increment
    signs, and reconstructs the maximizing witness from recorded choices.
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
    spacing = float(grid.spacing)
    if units < 1:
        return ACWorstReport(delta=delta, best_sum=0.0,
                             witness=IntervalCollection(()),
                             method="OracleDP", grid_spacing=spacing)
    # touching pairs (y_i = x_{i+1}) are legal, so up to min(units, m-1)
    # intervals can fit
    kmax = min(max_intervals, units, m - 1)
    if 3 * m * (units + 1) * (kmax + 1) > 400_000_000:
        raise BudgetError("worst-sum state space too large; coarsen the grid")

    neg = -math.inf
    shape = (units + 1, kmax + 1)
    closed = np.full(shape, neg)
    closed[0, 0] = 0.0
    open_p = np.full(shape, neg)
    open_m = np.full(shape, neg)
    hist = []
    for j in range(m):
        vj = v[j]
        ext_p = np.full(shape, neg)
        ext_p[1:, :] = open_p[:-1, :]
        ext_m = np.full(shape, neg)
        ext_m[1:, :] = open_m[:-1, :]

        c_code = np.zeros(shape, dtype=np.int8)
        cand = ext_p + vj
        better = cand > closed
        closed = np.where(better, cand, closed)
        c_code[better] = 1
        cand = ext_m - vj
        better = cand > closed
        closed = np.where(better, cand, closed)
        c_code[better] = 2

        base = np.full(shape, neg)
        base[:, 1:] = closed[:, :-1]

        p_code = np.zeros(shape, dtype=np.int8)
        cand = base - vj
        better = cand > ext_p
        open_p = np.where(better, cand, ext_p)
        p_code[better] = 1

        m_code = np.zeros(shape, dtype=np.int8)
        cand = base + vj
        better = cand > ext_m
        open_m = np.where(better, cand, ext_m)
        m_code[better] = 1

        hist.append((c_code, p_code, m_code))

    flat = int(np.argmax(closed))
    u, k = divmod(flat, kmax + 1)
    pairs_idx = _backtrack(hist, u, k, m)
    points = xs.tolist()
    pairs = tuple((points[s], points[e]) for s, e in pairs_idx)
    witness = IntervalCollection(pairs)
    best_sum = math.fsum(abs(v[e] - v[s]) for s, e in pairs_idx)
    return ACWorstReport(delta=delta, best_sum=best_sum, witness=witness,
                         method="OracleDP", grid_spacing=spacing)


_CLOSED, _OPEN_P, _OPEN_M = 0, 1, 2


def _backtrack(hist, u: int, k: int, m: int):
    pairs = []
    state = _CLOSED
    end = -1
    j = m - 1
    while j >= 0:
        c_code, p_code, m_code = hist[j]
        if state == _CLOSED:
            if u == 0 and k == 0:
                break
            code = c_code[u, k]
            if code == 0:
                j -= 1
            else:
                end = j
                state = _OPEN_P if code == 1 else _OPEN_M
                u -= 1
                j -= 1
        else:
            code = p_code[u, k] if state == _OPEN_P else m_code[u, k]
            if code == 1:
                pairs.append((j, end))
                k -= 1
                state = _CLOSED
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
    piece; the DP oracle searches a grid sized so the budget spans about 128
    units.  Passes iff every observed increment sum stays below epsilon.
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
