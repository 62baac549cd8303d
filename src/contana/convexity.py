"""Piecewise-convexity detection and slope-monotonicity certification.

A function that is monotone and convex (or concave) on an interval has a
monotone increment curve: for a fixed step sigma > 0, x |-> |f(x+sigma) -
f(x)| never changes direction.  This module detects a finite convex/concave
partition from samples, decides by resolution whether it is stable, refines
it to monotone pieces, and certifies the increment-curve direction on each.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    GeometryError,
    InsufficientData,
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
    uniform_abscissae,
)

#: partitions with more pieces than this are reported as not piecewise convex
DEFAULT_MAX_PIECES = 64

#: zero band for second differences: eta = DEFAULT_ETA_SCALE * max |value|
DEFAULT_ETA_SCALE = 1e-8

#: ternary-search tolerance: fraction of the piece length
DEFAULT_EXTREMUM_TOL = 1e-10


class Shape(str, Enum):
    CONVEX = "Convex"
    CONCAVE = "Concave"
    AFFINE = "Affine"


class Monotonicity(str, Enum):
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
    of the finest partition, empty unless the verdict is ``stable``.
    """

    grids: tuple
    detections: tuple
    sign_change_counts: list
    stable: bool
    pieces: tuple

    @property
    def partition(self) -> Partition:
        return self.detections[-1].partition


# ---------------------------------------------------------------------------
# Partition detection
# ---------------------------------------------------------------------------

def detect_partition(grid: SampleGrid):
    """Detect a convex/concave partition from second differences.

    Works on uniform grids (``SampleGrid.uniform``; any other grid raises
    InsufficientData): raw second differences, taken as differences of the
    steps (v[j+1] - v[j]) - (v[j] - v[j-1]), carry the curvature sign.  The
    zero band is the value-scale band eta = DEFAULT_ETA_SCALE * max |value|,
    rescaled by (h / L)^2 so that a given true curvature keeps the same
    margin at every resolution, and floored at a noise floor so rounding
    noise on exactly affine data never registers as curvature: 16 ulps of
    the value scale, plus what the abscissae's rounding adds where their
    gaps differ (by up to 4 ulps of max |x| far from zero, as
    ``SampleGrid.uniform`` allows), twice the steepest step times
    (max gap - min gap) / min gap, a product that cannot overflow.
    Near-zero entries are treated as locally affine and absorbed into the
    adjacent run (leftward ties).  Returns a PiecewiseConvexPartition, or
    NotPiecewiseConvex when the number of sign runs exceeds
    DEFAULT_MAX_PIECES.
    """
    if len(grid) < 3:
        raise InsufficientData("partition detection needs at least 3 points")
    if not grid.uniform:
        raise InsufficientData("partition detection requires a uniform grid")
    xs = grid.abscissae
    vs = grid.values
    h = grid.step
    scale = float(np.max(np.abs(vs)))
    eta = DEFAULT_ETA_SCALE * scale
    length = grid.span
    # differences of the steps stay finite wherever twice the value range
    # does; past that an entry overflows to an inf of the right sign
    dv = np.diff(vs)
    gmin = grid.narrowest
    steepest = max(float(dv.max()), -float(dv.min()))
    noise_floor = (16.0 * sys.float_info.epsilon * scale
                   + 2.0 * (grid.spacing - gmin) / gmin * steepest)
    band = max(eta * (h / length) ** 2, noise_floor)
    with np.errstate(over="ignore"):
        d2 = dv[1:] - dv[:-1]
    signs = (d2 > band).view(np.int8) - (d2 < -band).view(np.int8)

    # runs of nonzero sign over interior grid indices 1..m-2
    runs = _sign_runs(signs, DEFAULT_MAX_PIECES)
    if isinstance(runs, int):
        return NotPiecewiseConvex(sign_change_count=runs - 1)
    runs = [(s, first + 1, last + 1) for s, first, last in runs]

    m = len(grid)
    tol = grid.spacing
    mono_band = max(eta * (h / length), 8.0 * sys.float_info.epsilon * scale)
    if not runs:
        piece = IntervalSpec(float(xs[0]), float(xs[-1]))
        shape = ShapePiece(piece, Shape.AFFINE,
                           _monotonicity_of(dv, mono_band), tol)
        return PiecewiseConvexPartition(shapes=(shape,), sign_change_count=0)

    sign_changes = len(runs) - 1

    boundaries = [0]
    for left, right in zip(runs, runs[1:]):
        boundaries.append((left[2] + right[1] + 1) // 2)
    boundaries.append(m - 1)

    shapes = []
    for run, lo_idx, hi_idx in zip(runs, boundaries, boundaries[1:]):
        piece = IntervalSpec(float(xs[lo_idx]), float(xs[hi_idx]))
        shape = Shape.CONVEX if run[0] > 0 else Shape.CONCAVE
        shapes.append(ShapePiece(piece, shape,
                                 _monotonicity_of(dv[lo_idx:hi_idx],
                                                  mono_band), tol))
    return PiecewiseConvexPartition(shapes=tuple(shapes),
                                    sign_change_count=sign_changes)


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


def _monotonicity_of(d: np.ndarray, band: float) -> Monotonicity:
    """Monotonicity of a piece from its steps d, each within band of 0
    counted as flat."""
    if len(d) == 0:
        return Monotonicity.CONSTANT
    dmin, dmax = float(np.min(d)), float(np.max(d))
    if dmax <= band and dmin >= -band:
        return Monotonicity.CONSTANT
    if dmin >= -band:
        return Monotonicity.INCREASING
    if dmax <= band:
        return Monotonicity.DECREASING
    return Monotonicity.MIXED


# ---------------------------------------------------------------------------
# Monotone refinement
# ---------------------------------------------------------------------------

def refine_to_monotone(f: FunctionSpec, piece: ShapePiece) -> tuple:
    """Split a certified convex/concave piece at its interior extremum.

    The shape certificate makes the restriction unimodal, so ternary search
    localizes the extremum (minimum for convex, maximum for concave) to a
    DEFAULT_EXTREMUM_TOL share of its length, or to 4 ulps of its ends on a
    piece far from zero, where that share is below the float spacing and
    the search would never end.  Monotone pieces are returned unchanged;
    others as two monotone pieces tiling the input exactly.
    """
    if piece.shape not in (Shape.CONVEX, Shape.CONCAVE, Shape.AFFINE):
        raise ShapeError(f"piece shape {piece.shape!r} is not certified")
    if piece.monotonicity in (Monotonicity.INCREASING, Monotonicity.DECREASING,
                              Monotonicity.CONSTANT):
        return (piece,)
    if piece.shape is Shape.AFFINE:
        raise ShapeError("an affine piece cannot have mixed monotonicity")
    lo, hi = piece.interval.lo, piece.interval.hi
    tol = max(DEFAULT_EXTREMUM_TOL * (hi - lo), 4 * math.ulp(max(-lo, hi)))
    find_min = piece.shape is Shape.CONVEX
    a, b = lo, hi
    while b - a > tol:
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        f1, f2 = evaluate(f, m1), evaluate(f, m2)
        if (f1 > f2) if find_min else (f1 < f2):
            a = m1
        else:
            b = m2
    split = 0.5 * (a + b)
    if split - lo <= 2.0 * tol or hi - split <= 2.0 * tol:
        flo, fhi = evaluate(f, lo), evaluate(f, hi)
        if flo < fhi:
            mono = Monotonicity.INCREASING
        elif flo > fhi:
            mono = Monotonicity.DECREASING
        else:
            mono = Monotonicity.CONSTANT
        return (ShapePiece(piece.interval, piece.shape, mono, tol),)
    if find_min:
        flags = (Monotonicity.DECREASING, Monotonicity.INCREASING)
    else:
        flags = (Monotonicity.INCREASING, Monotonicity.DECREASING)
    return (
        ShapePiece(IntervalSpec(lo, split), piece.shape, flags[0], tol),
        ShapePiece(IntervalSpec(split, hi), piece.shape, flags[1], tol),
    )


def monotone_partition(f: FunctionSpec, m: int) -> MonotonePartition:
    """Decide piecewise convexity of f by resolution; refine if it holds.

    Samples ``clip_window(f.domain)`` once at 4(m-1)+1 points and detects
    on every fourth point, every second point and all of them: the grids
    of m, 2(m-1)+1 and 4(m-1)+1 points that sampling separately gives.
    The verdict is stable when every detection is a partition and the
    sign-change count grows by at most 2 from each resolution to the
    next; only then is the finest partition refined to monotone pieces.
    """
    fine = sample(f, clip_window(f.domain), 4 * (m - 1) + 1)
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


#: (monotonicity, shape) -> certified increment-curve direction
_DIRECTION_TABLE = {
    (Monotonicity.INCREASING, Shape.CONCAVE): Direction.NONINCREASING,
    (Monotonicity.DECREASING, Shape.CONVEX): Direction.NONINCREASING,
    (Monotonicity.INCREASING, Shape.CONVEX): Direction.NONDECREASING,
    (Monotonicity.DECREASING, Shape.CONCAVE): Direction.NONDECREASING,
}


def expected_direction(piece: ShapePiece) -> Direction:
    """Increment-curve direction predicted by the (monotonicity, shape) pair."""
    if piece.shape is Shape.AFFINE or piece.monotonicity is Monotonicity.CONSTANT:
        return Direction.CONSTANT
    try:
        return _DIRECTION_TABLE[(piece.monotonicity, piece.shape)]
    except KeyError:
        raise ShapeError(
            f"piece is not certified monotone: {piece.monotonicity!r}")


def check_gsigma_monotone(f: FunctionSpec, piece: ShapePiece, sigma: float,
                          m: int = 100) -> GSigmaReport:
    """Certify the direction of the increment curve on a monotone piece.

    Builds an m-point increment curve and reports the certified direction
    with the largest adjacent-pair violation against it.  Ambiguous
    (constant) pieces are tested in both directions and the smaller
    violation wins.
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
    direction = expected
    if expected is Direction.NONINCREASING:
        violation = viol_ni
    elif expected is Direction.NONDECREASING:
        violation = viol_nd
    elif piece.shape is Shape.AFFINE:
        violation = max(abs(d) for d in diffs)
    elif viol_ni == viol_nd:
        violation = viol_ni
    elif viol_ni < viol_nd:
        direction, violation = Direction.NONINCREASING, viol_ni
    else:
        direction, violation = Direction.NONDECREASING, viol_nd
    return GSigmaReport(direction, violation,
                        violation <= 1e-9 * max(1.0, max(values)))
