"""Piecewise-convexity detection and slope-monotonicity certification.

A function that is monotone and convex (or concave) on an interval has a
monotone increment curve: for a fixed step sigma > 0, x |-> |f(x+sigma) -
f(x)| never changes direction.  This module detects a finite convex/concave
partition from samples, decides by resolution whether it is stable, refines
it to monotone pieces by each kind's exact slope sign
(``function_model.slope_sign``), and certifies the increment-curve
direction on each.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (
    GeometryError,
    InsufficientData,
    KindError,
    ShapeError,
)
from .function_model import (
    FunctionSpec,
    IntervalSpec,
    SampleGrid,
    clip_window,
    evaluate,
    evaluate_many,
    sample,
    slope_sign,
    uniform_abscissae,
)

#: partitions with more pieces than this are reported as not piecewise convex
DEFAULT_MAX_PIECES = 64


class Shape(str, Enum):
    CONVEX = "Convex"
    CONCAVE = "Concave"
    AFFINE = "Affine"


class Monotonicity(str, Enum):
    """A piece's direction; MIXED marks a detected piece whose direction
    ``refine_to_monotone`` decides."""

    INCREASING = "Increasing"
    DECREASING = "Decreasing"
    CONSTANT = "Constant"
    MIXED = "Mixed"


class Direction(str, Enum):
    NONINCREASING = "Nonincreasing"
    NONDECREASING = "Nondecreasing"
    CONSTANT = "Constant"


@dataclass(frozen=True)
class Partition:
    """Strictly increasing breakpoints a_0 < a_1 < ... < a_N."""

    points: tuple

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        if len(pts) < 2:
            raise InsufficientData("a partition needs at least two points")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise InsufficientData("partition points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_pieces(cls, pieces) -> "Partition":
        """The breakpoints of contiguous pieces: every lo, then the last hi."""
        return cls((pieces[0].interval.lo, *(p.interval.hi for p in pieces)))

    @property
    def min_piece_length(self) -> float:
        return min(b - a for a, b in zip(self.points, self.points[1:]))


@dataclass(frozen=True)
class ShapePiece:
    """A closed finite piece with certified shape and monotonicity flags."""

    interval: IntervalSpec
    shape: Shape
    monotonicity: Monotonicity
    tolerance: float = 0.0


@dataclass(frozen=True)
class PiecewiseConvexPartition:
    shapes: tuple
    sign_change_count: int

    @property
    def partition(self) -> Partition:
        return Partition.from_pieces(self.shapes)


@dataclass(frozen=True)
class NotPiecewiseConvex:
    sign_change_count: int


@dataclass(frozen=True)
class GSigmaReport:
    """``ok``: no violation beyond 1e-9 of the largest increment (or of 1)."""

    direction: Direction
    max_violation: float
    ok: bool


@dataclass(frozen=True)
class MonotonePartition:
    """The piecewise-convexity verdict of ``monotone_partition``.

    ``grids``, ``detections`` and their ``sign_change_counts`` run from the
    coarsest resolution to the finest; ``pieces`` are the monotone pieces
    of the finest partition, empty unless the verdict is ``stable``, and
    ``partition`` is where they end, None unless it is.
    """

    grids: tuple
    detections: tuple
    sign_change_counts: list
    stable: bool
    pieces: tuple

    @property
    def partition(self) -> Partition | None:
        return Partition.from_pieces(self.pieces) if self.stable else None


# ---------------------------------------------------------------------------
# Partition detection
# ---------------------------------------------------------------------------

def detect_partition(grid: SampleGrid):
    """Detect a convex/concave partition from second differences.

    Works on uniform grids (``SampleGrid.uniform``; any other grid raises
    InsufficientData): raw second differences, taken as differences of the
    steps (v[j+1] - v[j]) - (v[j] - v[j-1]), carry the curvature sign.  The
    zero band is the rounding noise floor, so that rounding noise on
    exactly affine data never registers as curvature: 16 ulps of the value
    scale max |value|, plus what the abscissae's rounding adds where their
    gaps differ (by up to 4 ulps of max |x| far from zero, as
    ``SampleGrid.uniform`` allows), twice the steepest step times
    (max gap - min gap) / min gap, a product that cannot overflow.
    Near-zero entries are treated as locally affine and absorbed into the
    adjacent run (leftward ties).  Returns a PiecewiseConvexPartition, or
    NotPiecewiseConvex when the number of sign runs exceeds
    DEFAULT_MAX_PIECES.  Detection reads curvature only: its pieces are
    Monotonicity.MIXED, and ``refine_to_monotone`` decides their direction.
    """
    if len(grid) < 3:
        raise InsufficientData("partition detection needs at least 3 points")
    if not grid.uniform:
        raise InsufficientData("partition detection requires a uniform grid")
    xs = grid.abscissae
    vs = grid.values
    scale = float(np.max(np.abs(vs)))
    # differences of the steps stay finite wherever twice the value range
    # does; past that an entry overflows to an inf of the right sign
    dv = np.diff(vs)
    gmin = grid.narrowest
    steepest = max(float(dv.max()), -float(dv.min()))
    band = (16.0 * sys.float_info.epsilon * scale
            + 2.0 * (grid.spacing - gmin) / gmin * steepest)
    with np.errstate(over="ignore"):
        d2 = dv[1:] - dv[:-1]
    signs = (d2 > band).view(np.int8) - (d2 < -band).view(np.int8)

    # runs of nonzero sign over interior grid indices 1..m-2
    runs = _sign_runs(signs, DEFAULT_MAX_PIECES)
    if isinstance(runs, int):
        return NotPiecewiseConvex(sign_change_count=runs - 1)
    # one piece per run (no run: one affine piece), cut midway between runs
    runs = [(s, first + 1, last + 1) for s, first, last in runs] or [(0, 0, 0)]
    ends = [0] + [(a[2] + b[1] + 1) // 2 for a, b in zip(runs, runs[1:])]
    shapes = tuple(
        ShapePiece(IntervalSpec(float(xs[i]), float(xs[j])), _BY_CURVATURE[s],
                   Monotonicity.MIXED, grid.spacing)
        for (s, _, _), i, j in zip(runs, ends, ends[1:] + [len(grid) - 1]))
    return PiecewiseConvexPartition(shapes, sign_change_count=len(runs) - 1)


#: the shape of curvature sign s is _BY_CURVATURE[s]
_BY_CURVATURE = (Shape.AFFINE, Shape.CONVEX, Shape.CONCAVE)


def _sign_runs(signs: np.ndarray, max_runs: int):
    """Maximal runs of equal nonzero signs, zeros skipped: (sign, first, last).

    More runs than ``max_runs`` are counted and not listed: the result is
    then their number.  The count comes first, from the nonzero signs
    alone, so a count over the limit locates no run.
    """
    run_signs = signs[signs != 0]
    changes = run_signs[1:] != run_signs[:-1]
    count = int(np.count_nonzero(changes)) + (len(run_signs) > 0)
    if count > max_runs:
        return count
    if not count:
        return []
    nonzero = np.flatnonzero(signs)
    firsts = np.append(0, np.flatnonzero(changes) + 1)
    lasts = np.append(firsts[1:] - 1, len(nonzero) - 1)
    return [(int(run_signs[a]), int(nonzero[a]), int(nonzero[b]))
            for a, b in zip(firsts, lasts)]


# ---------------------------------------------------------------------------
# Monotone refinement
# ---------------------------------------------------------------------------

def refine_to_monotone(f: FunctionSpec, piece: ShapePiece) -> tuple:
    """Split a convex, concave or affine piece where f' changes sign.

    Its ends' directions are ``slope_sign`` just inside it.  Strictly
    opposite signs split it at the least float x where the sign just right
    of x leaves its value at lo (``_sign_leaves``): where f turns, as f' is
    monotone on a convex or concave piece.  Otherwise, or where that float
    is hi, it stays whole, labelled by its nonzero end sign (Constant when
    both are 0).  The parts keep the piece's shape and tolerance.
    """
    if piece.shape not in (Shape.CONVEX, Shape.CONCAVE, Shape.AFFINE):
        raise ShapeError(f"piece shape {piece.shape!r} is not certified")
    lo, hi = piece.interval.lo, piece.interval.hi
    first, last = slope_sign(f, lo), slope_sign(f, hi, right=False)
    split = _sign_leaves(f, lo, hi, first) if first * last < 0 else hi
    if split == hi:
        return (replace(piece, monotonicity=_BY_SIGN[first or last]),)
    return (replace(piece, interval=IntervalSpec(lo, split),
                    monotonicity=_BY_SIGN[first]),
            replace(piece, interval=IntervalSpec(split, hi),
                    monotonicity=_BY_SIGN[last]))


#: the label of slope sign s is _BY_SIGN[s]
_BY_SIGN = (Monotonicity.CONSTANT, Monotonicity.INCREASING,
            Monotonicity.DECREASING)


def _sign_leaves(f: FunctionSpec, lo: float, hi: float, sign: int) -> float:
    """The least float in (lo, hi] whose ``slope_sign`` is not sign, its
    sign at lo, or hi if none below hi: a bisection over the floats'
    ranks (``_rank``), so at most 64 ``slope_sign`` calls."""
    a, b = (_rank(n) for n in np.array([lo, hi]).view(np.int64).tolist())
    while b - a > 1:
        mid = (a + b) // 2
        a, b = (mid, b) if slope_sign(f, _ranked_float(mid)) == sign else (a, mid)
    return _ranked_float(b)


def _rank(bits: int) -> int:
    """A float's int64 bit pattern to its rank among the floats, counted
    from 0.0 (which -0.0 shares), and a rank back to its bit pattern."""
    return bits if bits >= 0 else -(1 << 63) - bits


def _ranked_float(rank: int) -> float:
    return float(np.int64(_rank(rank)).view(np.float64))


def monotone_partition(f: FunctionSpec, m: int) -> MonotonePartition:
    """Decide piecewise convexity of f by resolution; refine if it holds.

    Samples ``clip_window(f.domain)`` once at 4(m-1)+1 points and detects
    on every fourth point, every second point and all of them: the grids
    of m, 2(m-1)+1 and 4(m-1)+1 points that sampling separately gives.
    The verdict is stable when every detection is a partition and the
    sign-change count grows by at most 2 from each resolution to the
    next; only then is the finest partition refined to monotone pieces.
    """
    window = clip_window(f.domain)  # names a collapsed or too wide window
    try:
        fine = sample(f, window, 4 * (m - 1) + 1)
    except KindError as exc:  # too narrow a window: name the user's M
        raise KindError(f"{exc} (detection samples 4(M-1)+1 at --grid {m})"
                        ) from exc
    grids = tuple(SampleGrid(fine.abscissae[::s], fine.values[::s])
                  for s in (4, 2)) + (fine,)
    detections = tuple(detect_partition(grid) for grid in grids)
    counts = [d.sign_change_count for d in detections]
    stable = (all(isinstance(d, PiecewiseConvexPartition) for d in detections)
              and all(b <= a + 2 for a, b in zip(counts, counts[1:])))
    pieces = ()
    if stable:
        pieces = tuple(piece for shape in detections[-1].shapes
                       for piece in refine_to_monotone(f, shape))
    return MonotonePartition(grids, detections, counts, stable, pieces)


# ---------------------------------------------------------------------------
# Increment curve
# ---------------------------------------------------------------------------

def g_sigma(f: FunctionSpec, x, sigma) -> float:
    """Increment magnitude |f(x + sigma) - f(x)|."""
    if sigma <= 0:
        raise GeometryError("sigma must be positive")
    return abs(evaluate(f, x + sigma) - evaluate(f, x))


def gsigma_abscissae(lo: float, hi: float, sigma: float, m: int) -> np.ndarray:
    """m equally spaced x from lo to the largest float top with top + sigma <= hi."""
    top = hi - sigma
    while top + sigma > hi:
        top = math.nextafter(top, -math.inf)
    return uniform_abscissae(lo, top, m)


def gsigma_curve(f: FunctionSpec, lo: float, hi: float, sigma: float,
                 m: int) -> tuple:
    """The increment curve at the m gsigma_abscissae: lists (xs, g_sigma).

    f(x + sigma) and f(x) come from one bulk evaluation, with the bits of
    g_sigma at every point (numpy's x + sigma rounds as Python's does).
    """
    if sigma <= 0:
        raise GeometryError("sigma must be positive")
    xs = gsigma_abscissae(lo, hi, sigma, m)
    v = evaluate_many(f, np.concatenate((xs + sigma, xs)))
    return xs.tolist(), np.abs(v[:m] - v[m:]).tolist()


def expected_direction(piece: ShapePiece) -> Direction:
    """The increment-curve direction of Lemma 1 on a monotone piece.

    Constant on an affine or constant piece; otherwise nondecreasing iff
    the piece is increasing and convex or decreasing and concave, and
    nonincreasing on the other two.  A Mixed piece, or a shape outside
    Convex/Concave/Affine, raises ShapeError.
    """
    if piece.shape is Shape.AFFINE or piece.monotonicity is Monotonicity.CONSTANT:
        return Direction.CONSTANT
    if (piece.monotonicity is Monotonicity.MIXED
            or piece.shape not in (Shape.CONVEX, Shape.CONCAVE)):
        raise ShapeError(f"piece is not certified monotone: "
                         f"{piece.monotonicity!r}, {piece.shape!r}")
    rising = piece.monotonicity is Monotonicity.INCREASING
    if rising == (piece.shape == Shape.CONVEX):
        return Direction.NONDECREASING
    return Direction.NONINCREASING


def check_gsigma_monotone(f: FunctionSpec, piece: ShapePiece, sigma: float,
                          m: int = 100) -> GSigmaReport:
    """Certify the direction of the increment curve on a monotone piece.

    Builds an m-point increment curve and reports the certified direction
    with the largest adjacent-pair violation against it.  On an affine or
    constant piece (both end slopes 0, so f is constant where it is convex
    or concave) the curve is flat, and every change violates.
    """
    if m < 3:
        raise ValueError("the increment curve needs m >= 3 samples")
    expected = expected_direction(piece)
    lo, hi = piece.interval.lo, piece.interval.hi
    if hi - lo <= sigma:
        raise GeometryError(
            f"piece length {hi - lo} must exceed sigma {sigma}")
    _, values = gsigma_curve(f, lo, hi, sigma, m)
    diffs = [b - a for a, b in zip(values, values[1:])]
    viol_ni = max(0.0, max(diffs))       # violations of nonincreasing
    viol_nd = max(0.0, -min(diffs))      # violations of nondecreasing
    violation = {Direction.NONINCREASING: viol_ni,
                 Direction.NONDECREASING: viol_nd}.get(
                     expected, max(viol_ni, viol_nd))
    return GSigmaReport(expected, violation,
                        violation <= 1e-9 * max(1.0, max(values)))
