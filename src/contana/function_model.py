"""Interval semantics, the analyzable function catalog, and grid sampling.

The catalog is deliberately small: square root, x^2*sin(1/x) (with value 0
at the origin), the Cantor staircase, polynomials, affine maps, piecewise
linear interpolants and sampled tables.  Evaluation is exact where the
function allows it; the Cantor function is evaluated by ternary digit
scanning on the exact rational value of the input, so it accepts floats,
ints and fractions.Fraction alike.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InsufficientData, KindError, ParseError

INF = float("inf")

#: ternary digits scanned by default when evaluating the Cantor function
CANTOR_DEPTH = 64

#: default truncation width for unbounded domains
DEFAULT_WINDOW_WIDTH = 10.0

#: open endpoints are pulled inward by max(RELATIVE_MARGIN * length, MARGIN_FLOOR)
RELATIVE_MARGIN = 1e-9
MARGIN_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalSpec:
    """An interval of the real line with open/closed/unbounded endpoints."""

    lo: float
    hi: float
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise KindError("interval endpoints must not be NaN")
        if not lo < hi:
            raise KindError(f"interval requires lo < hi, got [{lo}, {hi}]")
        if math.isinf(lo) and self.lo_closed:
            raise KindError("an infinite lower endpoint cannot be closed")
        if math.isinf(hi) and self.hi_closed:
            raise KindError("an infinite upper endpoint cannot be closed")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def is_finite(self) -> bool:
        return not (math.isinf(self.lo) or math.isinf(self.hi))

    def contains(self, x) -> bool:
        """Membership honoring open/closed endpoints; works for any real type."""
        if x != x:  # NaN compares false against everything else
            return False
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def closure_contains(self, x) -> bool:
        return self.lo <= x <= self.hi

    def intersect(self, other: "IntervalSpec") -> "IntervalSpec | None":
        """Intersection, or None when empty or a single point."""
        if self.lo > other.lo:
            lo, lo_closed = self.lo, self.lo_closed
        elif self.lo < other.lo:
            lo, lo_closed = other.lo, other.lo_closed
        else:
            lo, lo_closed = self.lo, self.lo_closed and other.lo_closed
        if self.hi < other.hi:
            hi, hi_closed = self.hi, self.hi_closed
        elif self.hi > other.hi:
            hi, hi_closed = other.hi, other.hi_closed
        else:
            hi, hi_closed = self.hi, self.hi_closed and other.hi_closed
        if not lo < hi:
            return None
        return IntervalSpec(lo, hi, lo_closed, hi_closed)

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{_fmt_endpoint(self.lo)},{_fmt_endpoint(self.hi)}{right}"


def _fmt_endpoint(v: float) -> str:
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return repr(v)


def parse_interval(text: str) -> IntervalSpec:
    """Parse interval syntax such as ``[0,1]``, ``(0,1]`` or ``[0,inf)``."""
    s = text.strip()
    if len(s) < 5 or s[0] not in "[(" or s[-1] not in "])":
        raise ParseError(f"bad interval syntax: {text!r}")
    body = s[1:-1]
    parts = body.split(",")
    if len(parts) != 2:
        raise ParseError(f"interval needs two endpoints: {text!r}")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad interval endpoint in {text!r}") from exc
    lo_closed = s[0] == "["
    hi_closed = s[-1] == "]"
    try:
        return IntervalSpec(lo, hi, lo_closed, hi_closed)
    except KindError as exc:
        raise ParseError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Function catalog
# ---------------------------------------------------------------------------

SQRT = "sqrt"
X2SININV = "x2sininv"
CANTOR = "cantor"
POLY = "poly"
AFFINE = "affine"
PWL = "pwl"
TABLE = "table"

_KINDS = (SQRT, X2SININV, CANTOR, POLY, AFFINE, PWL, TABLE)


@dataclass(frozen=True)
class FunctionSpec:
    """A catalog member bound to a domain interval.

    Only the fields relevant to ``kind`` are meaningful: ``coefficients``
    for polynomials (ascending degree), ``slope``/``intercept`` for affine
    maps, ``knots`` for piecewise linear data and sampled tables.
    """

    kind: str
    domain: IntervalSpec
    coefficients: tuple = ()
    slope: float = 0.0
    intercept: float = 0.0
    knots: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise KindError(f"unknown function kind {self.kind!r}")
        d = self.domain
        if self.kind == SQRT and d.lo < 0:
            raise KindError("sqrt requires a domain within [0, inf)")
        if self.kind == CANTOR and (d.lo < 0 or d.hi > 1):
            raise KindError("cantor requires a domain within [0, 1]")
        if self.kind == POLY:
            if not self.coefficients:
                raise KindError("polynomial requires coefficients")
            object.__setattr__(
                self, "coefficients", tuple(float(c) for c in self.coefficients)
            )
        if self.kind in (PWL, TABLE):
            ks = tuple((float(x), float(y)) for x, y in self.knots)
            if not all(map(math.isfinite, (c for knot in ks for c in knot))):
                raise DomainError("knots must be finite")
            if len(ks) < 2:
                raise KindError("piecewise data requires at least two knots")
            xs = [x for x, _ in ks]
            if any(b <= a for a, b in zip(xs, xs[1:])):
                raise KindError("knot abscissae must be strictly increasing")
            if d.lo < xs[0] or d.hi > xs[-1]:
                raise KindError("domain must lie within the knot span")
            object.__setattr__(self, "knots", ks)

    # -- constructors -------------------------------------------------------

    @classmethod
    def sqrt(cls, domain: IntervalSpec | None = None) -> "FunctionSpec":
        return cls(SQRT, domain or IntervalSpec(0.0, INF, True, False))

    @classmethod
    def x_squared_sin_inv(cls, domain: IntervalSpec | None = None) -> "FunctionSpec":
        return cls(X2SININV, domain or IntervalSpec(0.0, 1.0))

    @classmethod
    def cantor(cls, domain: IntervalSpec | None = None) -> "FunctionSpec":
        return cls(CANTOR, domain or IntervalSpec(0.0, 1.0))

    @classmethod
    def polynomial(cls, coefficients, domain: IntervalSpec | None = None) -> "FunctionSpec":
        return cls(POLY, domain or IntervalSpec(-INF, INF, False, False),
                   coefficients=tuple(coefficients))

    @classmethod
    def affine(cls, slope: float, intercept: float,
               domain: IntervalSpec | None = None) -> "FunctionSpec":
        return cls(AFFINE, domain or IntervalSpec(-INF, INF, False, False),
                   slope=float(slope), intercept=float(intercept))

    @classmethod
    def piecewise_linear(cls, knots, domain: IntervalSpec | None = None) -> "FunctionSpec":
        ks = tuple(knots)
        dom = domain or IntervalSpec(ks[0][0], ks[-1][0])
        return cls(PWL, dom, knots=ks)

    @classmethod
    def sampled_table(cls, knots, domain: IntervalSpec | None = None) -> "FunctionSpec":
        ks = tuple(knots)
        dom = domain or IntervalSpec(ks[0][0], ks[-1][0])
        return cls(TABLE, dom, knots=ks)


def eval_cantor(x, depth: int = CANTOR_DEPTH) -> float:
    """Cantor staircase value via ternary digit scanning.

    The input's exact rational value (``as_integer_ratio``) is expanded in
    base 3.  Digits 0 and 2 emit binary digits 0 and 1; the first digit 1
    emits a binary 1 and terminates.  Up to ``depth`` ternary digits are
    scanned, so the result is within 2**-depth of the exact staircase value
    at the given rational point, and the digit arithmetic itself is exact.
    """
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    try:
        num, den = x.as_integer_ratio()
    except (AttributeError, OverflowError, ValueError) as exc:
        raise DomainError(f"cannot take exact ratio of {x!r}") from exc
    if num < 0 or num > den:
        raise DomainError(f"cantor function requires 0 <= x <= 1, got {x!r}")
    if num == 0:
        return 0.0
    if num == den:
        return 1.0
    acc = 0
    bits = 0
    for _ in range(depth):
        num *= 3
        digit, num = divmod(num, den)
        bits += 1
        acc = (acc << 1) | (1 if digit >= 1 else 0)
        if digit == 1:
            break
    return acc / (1 << bits)


def evaluate(f: FunctionSpec, x) -> float:
    """Exact pointwise evaluation; open endpoints are not evaluable."""
    if not f.domain.contains(x):
        raise DomainError(f"{x!r} outside domain {f.domain}")
    kind = f.kind
    if kind == SQRT:
        return math.sqrt(x)
    if kind == X2SININV:
        if x == 0:
            return 0.0
        xf = float(x)
        return xf * xf * math.sin(1.0 / xf)
    if kind == CANTOR:
        return eval_cantor(x)
    if kind == POLY:
        xf = float(x)
        acc = 0.0
        for c in reversed(f.coefficients):
            acc = acc * xf + c
        return acc
    if kind == AFFINE:
        return f.slope * float(x) + f.intercept
    if kind in (PWL, TABLE):
        return _interp_knots(f.knots, float(x))
    raise KindError(f"unknown function kind {kind!r}")


def _interp_knots(knots, x: float) -> float:
    # domain validation guarantees knots[0][0] <= x <= knots[-1][0]
    idx = bisect_right(knots, x, key=lambda kv: kv[0])
    if idx > 0 and knots[idx - 1][0] == x:
        return knots[idx - 1][1]
    x0, y0 = knots[idx - 1]
    x1, y1 = knots[idx]
    return y0 + (y1 - y0) * ((x - x0) / (x1 - x0))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Strictly increasing abscissae with their function values.

    Both are read-only numpy arrays.  ``values`` is float64; ``abscissae``
    is float64, or ``object`` dtype when the points are exact rationals
    (``fractions.Fraction``), which then stay exact.  ``spacing`` is the
    largest gap between consecutive abscissae.
    """

    abscissae: np.ndarray
    values: np.ndarray
    spacing: float = field(default=0.0)

    def __post_init__(self) -> None:
        xs = np.asarray(self.abscissae)
        if xs.dtype != object:
            xs = xs.astype(float, copy=False)
        vs = np.asarray(self.values, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape:
            raise KindError("abscissae and values must have equal length")
        if len(xs) < 2:
            raise InsufficientData("a grid needs at least two points")
        gaps = np.diff(xs)
        if np.any(gaps <= 0):
            raise KindError("grid abscissae must be strictly increasing")
        bad = np.flatnonzero(~np.isfinite(vs))
        if len(bad):
            i = bad[0]
            raise DomainError(f"non-finite value {vs[i]} at x = {xs[i]}")
        spacing = gaps.max()
        xs, vs = xs.view(), vs.view()
        xs.flags.writeable = vs.flags.writeable = False
        object.__setattr__(self, "abscissae", xs)
        object.__setattr__(self, "values", vs)
        object.__setattr__(self, "spacing",
                           spacing if xs.dtype == object else float(spacing))

    def __len__(self) -> int:
        return len(self.abscissae)

    @property
    def span(self):
        return self.abscissae[-1] - self.abscissae[0]

    @classmethod
    def from_abscissae(cls, f: FunctionSpec, xs) -> "SampleGrid":
        xs = list(xs)
        return cls(np.asarray(xs),
                   np.fromiter((evaluate(f, x) for x in xs), float, len(xs)))


def clip_window(domain: IntervalSpec, width: float = DEFAULT_WINDOW_WIDTH,
                margin: float | None = None) -> IntervalSpec:
    """Produce a finite closed window from an arbitrary interval.

    Infinite endpoints are truncated ``width`` away from the finite side
    (symmetrically about 0 when both are infinite); open finite endpoints
    are pulled inward by ``margin``.
    """
    if width <= 0:
        raise KindError("width must be positive")
    lo, hi = domain.lo, domain.hi
    lo_open = not domain.lo_closed
    hi_open = not domain.hi_closed
    if math.isinf(lo) and math.isinf(hi):
        lo, hi = -width / 2.0, width / 2.0
        lo_open = hi_open = False
    elif math.isinf(lo):
        lo = hi - width
        lo_open = False
    elif math.isinf(hi):
        hi = lo + width
        hi_open = False
    if margin is None:
        margin = max(RELATIVE_MARGIN * (hi - lo), MARGIN_FLOOR)
    if margin <= 0:
        raise KindError("margin must be positive")
    if lo_open:
        lo = lo + margin
    if hi_open:
        hi = hi - margin
    if not lo < hi:
        raise KindError("window collapsed after clipping; margin too large")
    return IntervalSpec(lo, hi)


def sample(f: FunctionSpec, window: IntervalSpec, m: int,
           width: float = DEFAULT_WINDOW_WIDTH,
           margin: float | None = None) -> SampleGrid:
    """Evaluate f on m equally spaced points spanning the clipped window."""
    if m < 2:
        raise InsufficientData("sampling needs m >= 2")
    effective = window.intersect(f.domain)
    if effective is None:
        raise DomainError(f"window {window} is disjoint from domain {f.domain}")
    clipped = clip_window(effective, width=width, margin=margin)
    xs = uniform_abscissae(clipped.lo, clipped.hi, m)
    with np.errstate(over="ignore", invalid="ignore"):
        values = _bulk_values(f, xs)  # SampleGrid rejects non-finite values
    return SampleGrid(xs, values)


def uniform_abscissae(lo: float, hi: float, m: int) -> np.ndarray:
    """m points lo + i * (hi - lo) / (m - 1), the last one exactly hi."""
    step = (hi - lo) / (m - 1)
    return np.append(lo + np.arange(m - 1) * step, hi)


def _bulk_values(f: FunctionSpec, xs: np.ndarray) -> np.ndarray:
    """Values on an in-domain float grid, bit-identical to evaluate().

    Square roots, affine maps and Horner polynomials round identically in
    numpy and scalar arithmetic, so those kinds vectorize; every other kind
    is evaluated point by point.
    """
    if f.kind == SQRT:
        return np.sqrt(xs)
    if f.kind == AFFINE:
        return f.slope * xs + f.intercept
    if f.kind == POLY:
        out = np.zeros_like(xs)
        for c in reversed(f.coefficients):
            out = out * xs + c
        return out
    return np.fromiter((evaluate(f, x) for x in xs.tolist()), float, len(xs))


# ---------------------------------------------------------------------------
# Function mini-language
# ---------------------------------------------------------------------------

def parse_function(text: str, window: IntervalSpec | None = None) -> FunctionSpec:
    """Parse a function spec string, e.g. ``sqrt`` or ``affine:2,1``.

    Supported forms: ``sqrt``, ``x2sininv``, ``cantor``,
    ``affine:<slope>,<intercept>``, ``poly:<c0>,<c1>,...``,
    ``pwl:<x0>:<y0>,<x1>:<y1>,...`` and ``table@<path>`` (two-column CSV,
    the first row may be a header).  When ``window`` is given, the natural
    domain of the kind is intersected with it.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty function spec")
    try:
        if s == SQRT:
            fn = FunctionSpec.sqrt()
        elif s == X2SININV:
            fn = FunctionSpec.x_squared_sin_inv(IntervalSpec(-INF, INF, False, False))
        elif s == CANTOR:
            fn = FunctionSpec.cantor()
        elif s.startswith("affine:"):
            parts = s[len("affine:"):].split(",")
            if len(parts) != 2:
                raise ParseError(f"affine needs slope,intercept: {text!r}")
            fn = FunctionSpec.affine(_parse_num(parts[0]), _parse_num(parts[1]))
        elif s.startswith("poly:"):
            coeffs = [_parse_num(p) for p in s[len("poly:"):].split(",") if p != ""]
            if not coeffs:
                raise ParseError(f"poly needs coefficients: {text!r}")
            fn = FunctionSpec.polynomial(coeffs)
        elif s.startswith("pwl:"):
            fn = FunctionSpec.piecewise_linear(_parse_pairs(s[len("pwl:"):]))
        elif s.startswith("table@"):
            fn = FunctionSpec.sampled_table(_load_table(s[len("table@"):]))
        else:
            raise ParseError(f"unknown function spec {text!r}")
    except KindError as exc:
        raise ParseError(str(exc)) from exc
    if window is not None:
        dom = fn.domain.intersect(window)
        if dom is None:
            raise ParseError(
                f"window {window} is disjoint from the natural domain {fn.domain}")
        try:
            fn = FunctionSpec(fn.kind, dom, coefficients=fn.coefficients,
                              slope=fn.slope, intercept=fn.intercept, knots=fn.knots)
        except KindError as exc:
            raise ParseError(str(exc)) from exc
    return fn


def _parse_num(token: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise ParseError(f"bad number {token!r}") from exc


def _parse_pairs(body: str):
    knots = []
    for item in body.split(","):
        bits = item.split(":")
        if len(bits) != 2:
            raise ParseError(f"bad knot {item!r}, expected x:y")
        knots.append((_parse_num(bits[0]), _parse_num(bits[1])))
    return knots


def _load_table(path: str):
    """Knots from a two-column CSV; the first nonblank row may be a header.

    A file that cannot be opened or read raises OSError (an I/O error, not
    a parse error).
    """
    with open(path, newline="") as fh:
        try:
            rows = [row for row in csv.reader(fh) if "".join(row).strip()]
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ParseError(f"unreadable table {path}: {exc}") from exc
    knots = []
    for i, row in enumerate(rows):
        try:
            knots.append((float(row[0]), float(row[1])))
        except (ValueError, IndexError):
            if i > 0:  # only the first row may be a header
                raise ParseError(f"bad table row {row!r} in {path}") from None
    if len(knots) < 2:
        raise ParseError(f"table {path} needs at least two rows")
    return knots
