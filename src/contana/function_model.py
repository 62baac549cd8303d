"""Interval semantics, the analyzable function catalog, and grid sampling.

The catalog is deliberately small: five kinds, square root, x^2*sin(1/x)
(with value 0 at the origin), the Cantor staircase, polynomials and
piecewise linear interpolants.  Affine maps are degree-one polynomials and
sampled tables are piecewise linear interpolants of their rows; both keep
their own spellings in the mini-language.  Evaluation is exact where the
function allows it; the Cantor function is evaluated by ternary digit
scanning on the exact rational value of the input, so it accepts floats,
ints and fractions.Fraction alike.

``evaluate`` is the one-point reference.  Grids (``sample``) and point
sets (``evaluate_many``) are evaluated in bulk by one vectorized evaluator
per kind, ``_bulk_values``, which gives evaluate()'s bits at every float
point and works in fixed-size blocks, so its memory is bounded (stated in
its docstring).

Piecewise linear knots are checked once, when their spec is built, and
held twice for the spec's lifetime: as the public tuple of float pairs
that ``evaluate`` bisects, and as two read-only float64 arrays that
``_bulk_values`` searches.  A ``table@`` file without quotes is parsed
by numpy in C, any other by the csv module, into the same values.
"""

from __future__ import annotations

import csv
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InsufficientData, KindError, ParseError

INF = float("inf")

#: ternary digits scanned when evaluating the Cantor function
CANTOR_DEPTH = 64

#: truncation width for unbounded domains
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
PWL = "pwl"

_KINDS = (SQRT, X2SININV, CANTOR, POLY, PWL)


@dataclass(frozen=True)
class FunctionSpec:
    """A catalog member bound to a domain interval.

    Only the fields relevant to ``kind`` are meaningful: ``coefficients``
    for polynomials (ascending degree, so the affine map a*x + b is
    ``(b, a)``) and ``knots`` for piecewise linear data (sampled tables
    included).  ``knots`` may be given as (x, y) pairs or an (n, 2) array;
    the spec keeps them as a tuple of float pairs, as the read-only arrays
    ``_kx`` and ``_ky`` for bulk evaluation, and their abscissae as the
    tuple ``_kx_tuple`` for scalar bisection.
    """

    kind: str
    domain: IntervalSpec
    coefficients: tuple = ()
    knots: tuple = ()
    #: the knots' abscissae and ordinates, read-only float64 (kind pwl)
    _kx: np.ndarray | None = field(default=None, init=False, compare=False,
                                   repr=False)
    _ky: np.ndarray | None = field(default=None, init=False, compare=False,
                                   repr=False)
    #: the knots' abscissae as a tuple of floats (kind pwl)
    _kx_tuple: tuple = field(default=(), init=False, compare=False,
                             repr=False)

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
        if self.kind == PWL:
            ks = (self.knots if isinstance(self.knots, _Knots)
                  else _knot_arrays(self.knots))
            if d.lo < ks.x[0] or d.hi > ks.x[-1]:
                raise KindError("domain must lie within the knot span")
            xs = tuple(ks.x.tolist())
            object.__setattr__(self, "knots", tuple(zip(xs, ks.y.tolist())))
            object.__setattr__(self, "_kx_tuple", xs)
            object.__setattr__(self, "_kx", ks.x)
            object.__setattr__(self, "_ky", ks.y)

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
        """The affine map as the degree-one polynomial (intercept, slope)."""
        return cls.polynomial((intercept, slope), domain)

    @classmethod
    def piecewise_linear(cls, knots, domain: IntervalSpec | None = None) -> "FunctionSpec":
        """The interpolant of the knots, by default on their whole span."""
        ks = _knot_arrays(knots)
        return cls(PWL, domain or _knot_span(ks), knots=ks)


class _Knots(NamedTuple):
    """Checked piecewise linear knots: read-only float64 arrays."""

    x: np.ndarray
    y: np.ndarray


def _knot_arrays(knots) -> _Knots:
    """Check (x, y) pairs or an (n, 2) array as piecewise linear knots.

    Each check names the first knot that fails it: every value must be
    finite, there must be two knots or more, the abscissae must increase
    strictly, and consecutive differences must not overflow.  The values
    are float() of the input, bit for bit.
    """
    try:
        a = np.asarray(knots, dtype=float)
    except ValueError as exc:
        raise KindError("knots must be (x, y) pairs") from exc
    if a.size == 0:
        a = a.reshape(0, 2)
    if a.ndim != 2 or a.shape[1] != 2:
        raise KindError("knots must be (x, y) pairs")
    finite = np.isfinite(a).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        x, y = a[i].tolist()
        raise DomainError(f"knots must be finite: knot {i} is ({x}, {y})")
    if len(a) < 2:
        raise KindError("piecewise data requires at least two knots")
    kx, ky = a[:, 0].copy(), a[:, 1].copy()
    rising = kx[1:] > kx[:-1]
    if not rising.all():
        i = int(np.argmin(rising))
        x0, x1 = kx[i:i + 2].tolist()
        raise KindError(f"knot abscissae must be strictly increasing: knot "
                        f"{i} has x = {x0} and knot {i + 1} has x = {x1}")
    with np.errstate(over="ignore"):
        fits = np.isfinite(np.diff(kx)) & np.isfinite(np.diff(ky))
    if not fits.all():
        i = int(np.argmin(fits))
        (x0, y0), (x1, y1) = a[i:i + 2].tolist()
        raise DomainError(f"knots ({x0}, {y0}) and ({x1}, {y1}) are too far "
                          "apart: their difference overflows")
    kx.flags.writeable = ky.flags.writeable = False
    return _Knots(kx, ky)


def _knot_span(ks: _Knots) -> IntervalSpec:
    return IntervalSpec(float(ks.x[0]), float(ks.x[-1]))


def eval_cantor(x) -> float:
    """Cantor staircase value via ternary digit scanning.

    The input's exact rational value (``as_integer_ratio``) is expanded in
    base 3.  Digits 0 and 2 emit binary digits 0 and 1; the first digit 1
    emits a binary 1 and terminates.  Up to CANTOR_DEPTH ternary digits are
    scanned, so the result is within 2**-CANTOR_DEPTH of the exact staircase
    value at the given rational point, and the digit arithmetic itself is
    exact.
    """
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
    for _ in range(CANTOR_DEPTH):
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
        inv = 1.0 / xf
        if math.isinf(inv):  # |x| < 2**-1024: x*x has underflowed to 0 already
            return 0.0
        return xf * xf * math.sin(inv)
    if kind == CANTOR:
        return eval_cantor(x)
    if kind == POLY:
        # Horner from the leading coefficient: degree one gives exactly
        # the bits of a*x + b, signed zeros included
        xf = float(x)
        *rest, acc = f.coefficients
        for c in reversed(rest):
            acc = acc * xf + c
        return acc
    if kind == PWL:
        return _interp_knots(f.knots, f._kx_tuple, float(x))
    raise KindError(f"unknown function kind {kind!r}")


def _interp_knots(knots, kx: tuple, x: float) -> float:
    # domain validation guarantees kx[0] <= x <= kx[-1]
    idx = bisect_right(kx, x)
    if idx > 0 and kx[idx - 1] == x:
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
    (``fractions.Fraction``), which then stay exact.  The values must be
    finite, and so must their range max - min.  ``spacing`` is the
    largest gap between consecutive abscissae.  ``uniform`` says that the
    gaps are equal up to rounding: max gap - min gap <= 1e-9 * max gap.
    """

    abscissae: np.ndarray
    values: np.ndarray
    spacing: float = field(init=False)
    uniform: bool = field(init=False)

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
        lo, hi = int(np.argmin(vs)), int(np.argmax(vs))
        if math.isinf(float(vs[hi]) - float(vs[lo])):
            raise DomainError(
                f"values {vs[lo]} at x = {xs[lo]} and {vs[hi]} at "
                f"x = {xs[hi]} are too far apart: their difference overflows")
        spacing = gaps.max()
        uniform = float(spacing - gaps.min()) <= 1e-9 * float(spacing)
        xs, vs = xs.view(), vs.view()
        xs.flags.writeable = vs.flags.writeable = False
        object.__setattr__(self, "abscissae", xs)
        object.__setattr__(self, "values", vs)
        object.__setattr__(self, "spacing",
                           spacing if xs.dtype == object else float(spacing))
        object.__setattr__(self, "uniform", uniform)

    def __len__(self) -> int:
        return len(self.abscissae)

    @property
    def span(self):
        return self.abscissae[-1] - self.abscissae[0]

    @classmethod
    def from_abscissae(cls, f: FunctionSpec, xs) -> "SampleGrid":
        xs = np.asarray(list(xs))
        return cls(xs, evaluate_many(f, xs))


def clip_window(domain: IntervalSpec) -> IntervalSpec:
    """Produce a finite closed window from an arbitrary interval.

    Infinite endpoints are truncated DEFAULT_WINDOW_WIDTH away from the
    finite side (symmetrically about 0 when both are infinite); open finite
    endpoints are pulled inward (see RELATIVE_MARGIN).
    """
    lo, hi = domain.lo, domain.hi
    lo_open = not domain.lo_closed
    hi_open = not domain.hi_closed
    if math.isinf(lo) and math.isinf(hi):
        lo, hi = -DEFAULT_WINDOW_WIDTH / 2.0, DEFAULT_WINDOW_WIDTH / 2.0
        lo_open = hi_open = False
    elif math.isinf(lo):
        lo = hi - DEFAULT_WINDOW_WIDTH
        lo_open = False
    elif math.isinf(hi):
        hi = lo + DEFAULT_WINDOW_WIDTH
        hi_open = False
    margin = max(RELATIVE_MARGIN * (hi - lo), MARGIN_FLOOR)
    if lo_open:
        lo = lo + margin
    if hi_open:
        hi = hi - margin
    if not lo < hi:
        raise KindError("window collapsed after clipping; margin too large")
    return IntervalSpec(lo, hi)


def sample(f: FunctionSpec, window: IntervalSpec, m: int) -> SampleGrid:
    """Evaluate f on m equally spaced points spanning the clipped window."""
    if m < 2:
        raise InsufficientData("sampling needs m >= 2")
    effective = window.intersect(f.domain)
    if effective is None:
        raise DomainError(f"window {window} is disjoint from domain {f.domain}")
    clipped = clip_window(effective)
    xs = uniform_abscissae(clipped.lo, clipped.hi, m)
    return SampleGrid(xs, _bulk_values(f, xs))  # rejects non-finite values


def uniform_abscissae(lo: float, hi: float, m: int) -> np.ndarray:
    """m points lo + i * (hi - lo) / (m - 1), the last one exactly hi."""
    step = (hi - lo) / (m - 1)
    return np.append(lo + np.arange(m - 1) * step, hi)


def evaluate_many(f: FunctionSpec, xs) -> np.ndarray:
    """evaluate() at every point of xs, as one float64 array.

    Every point is checked against the domain as evaluate() checks it,
    and the first one outside raises the same DomainError.  Float points
    are then evaluated in bulk; exact points (``fractions.Fraction``, an
    ``object`` array) go through evaluate() one by one and stay exact.
    """
    xs = np.asarray(xs)
    if xs.dtype == object:
        return np.fromiter((evaluate(f, x) for x in xs.tolist()), float, len(xs))
    xs = xs.astype(float, copy=False)
    d = f.domain
    inside = (xs > d.lo) | ((xs == d.lo) & d.lo_closed)
    inside &= (xs < d.hi) | ((xs == d.hi) & d.hi_closed)
    if not inside.all():
        x = float(xs[np.argmin(inside)])
        raise DomainError(f"{x!r} outside domain {f.domain}")
    return _bulk_values(f, xs)


#: points per block of _bulk_values; bounds its working memory
BULK_BLOCK = 8192


def _bulk_values(f: FunctionSpec, xs: np.ndarray) -> np.ndarray:
    """Values on an in-domain float64 array, bit-identical to evaluate().

    Every kind is vectorized with the scalar formula's own operations:
    square roots and Horner polynomials; x*x*sin(1/x) with 0.0 where 1/x
    is infinite (x == 0, or |x| < 2**-1024, where x*x is 0 already); the
    Cantor digit scan in integer arithmetic (``_cantor_block``); and
    piecewise linear interpolation from a binary search of the spec's knot
    arrays, with knot hits exact.  Those arrays (16 bytes per knot) are
    built once with the spec and held for its lifetime, not per call.
    The points are evaluated BULK_BLOCK at a time, so besides the m-point
    output the working memory is at most 128 bytes per block point
    (1 MiB).  With its grid (abscissae, values, and the gaps and flags of
    SampleGrid's checks: 26 bytes per point), sample() at m points peaks
    below 26*m + 128*BULK_BLOCK bytes.  Overflow to inf is silent, as in
    scalar arithmetic.
    """
    out = np.empty(len(xs))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(0, len(xs), BULK_BLOCK):
            x = xs[i:i + BULK_BLOCK]
            if f.kind == SQRT:
                v = np.sqrt(x)
            elif f.kind == X2SININV:
                inv = 1.0 / x
                inv[np.isinf(inv)] = 0.0
                v = x * x * np.sin(inv)
            elif f.kind == CANTOR:
                v = _cantor_block(x)
            elif f.kind == POLY:
                *rest, v = f.coefficients
                for c in reversed(rest):
                    v = v * x + c
            else:
                v = _interp_block(f._kx, f._ky, x)
            out[i:i + BULK_BLOCK] = v
    return out


#: largest denominator exponent s of x = n / 2**s for the integer Cantor
#: scan: 3n < 3 * 2**61 < 2**63
_CANTOR_MAX_EXPONENT = 61


def _cantor_block(x: np.ndarray) -> np.ndarray:
    """eval_cantor on in-domain floats, bit for bit.

    Each x is n / 2**s in lowest terms (from frexp), so one ternary digit
    is (3n) >> s with remainder (3n) & (2**s - 1), exact in 64-bit integers
    while s <= 61.  The binary accumulator is uint64: 64 digits fill all
    64 bits.  A point leaves the scan at its first digit 1; points with
    s > 61 (below about 2**-9, or subnormal) go through eval_cantor.
    """
    out = np.where(x == 1.0, 1.0, 0.0)
    mant, exp = np.frexp(x)
    n = (mant * 2.0**53).astype(np.int64)        # x = n * 2**(exp - 53)
    del mant
    tz = np.frexp((n & -n).astype(float))[1] - 1  # trailing zero bits of n
    s = 53 - exp - tz
    interior = (x > 0.0) & (x < 1.0)
    scan = interior & (s <= _CANTOR_MAX_EXPONENT)
    for j in np.flatnonzero(interior & ~scan):
        out[j] = eval_cantor(float(x[j]))
    idx = np.flatnonzero(scan)
    num = (n[idx] >> tz[idx]).astype(np.uint64)
    shift = s[idx].astype(np.uint64)
    del n, tz, s, exp, interior, scan
    mask = (np.uint64(1) << shift) - np.uint64(1)
    acc = np.zeros(len(idx), np.uint64)
    for bits in range(1, CANTOR_DEPTH + 1):
        num *= np.uint64(3)
        digit = num >> shift
        num &= mask
        acc <<= np.uint64(1)
        acc |= digit != 0
        stop = digit == 1
        if bits == CANTOR_DEPTH:
            stop[:] = True
        if stop.any():
            out[idx[stop]] = acc[stop].astype(float) / 2.0**bits
            keep = ~stop
            idx, num, shift, mask, acc = (
                idx[keep], num[keep], shift[keep], mask[keep], acc[keep])
            if not len(idx):
                break
    return out


def _interp_block(kx: np.ndarray, ky: np.ndarray, x: np.ndarray) -> np.ndarray:
    """_interp_knots on in-span floats, bit for bit."""
    idx = np.searchsorted(kx, x, side="right")   # bisect_right
    hit = kx[idx - 1] == x
    j = np.minimum(idx, len(kx) - 1)             # idx == len(kx) is a hit
    x0, y0, x1, y1 = kx[j - 1], ky[j - 1], kx[j], ky[j]
    return np.where(hit, ky[idx - 1], y0 + (y1 - y0) * ((x - x0) / (x1 - x0)))


# ---------------------------------------------------------------------------
# Function mini-language
# ---------------------------------------------------------------------------

def parse_function(text: str, window: IntervalSpec | None = None) -> FunctionSpec:
    """Parse a function spec string, e.g. ``sqrt`` or ``affine:2,1``.

    Supported forms: ``sqrt``, ``x2sininv``, ``cantor``,
    ``poly:<c0>,<c1>,...``, ``pwl:<x0>:<y0>,<x1>:<y1>,...``, and two
    spellings of these: ``affine:<a>,<b>`` for ``poly:<b>,<a>`` (a*x + b)
    and ``table@<path>`` (two-column CSV, the first row may be a header)
    for ``pwl:`` through the file's rows.  When
    ``window`` is given, the natural domain of the kind is intersected
    with it.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty function spec")
    try:
        kind, domain, params = _parse_spec(s, text)
        if window is not None:
            natural, domain = domain, domain.intersect(window)
            if domain is None:
                raise ParseError(f"window {window} is disjoint from the "
                                 f"natural domain {natural}")
        return FunctionSpec(kind, domain, **params)
    except KindError as exc:
        raise ParseError(str(exc)) from exc


def _parse_spec(s: str, text: str):
    """(kind, natural domain, fields) of a stripped function spec.

    Knots are checked here, once: the natural domain is their span.
    """
    if s == SQRT:
        return SQRT, IntervalSpec(0.0, INF, True, False), {}
    if s == X2SININV:
        return X2SININV, IntervalSpec(-INF, INF, False, False), {}
    if s == CANTOR:
        return CANTOR, IntervalSpec(0.0, 1.0), {}
    if s.startswith("affine:"):
        parts = s[len("affine:"):].split(",")
        if len(parts) != 2:
            raise ParseError(f"affine needs slope,intercept: {text!r}")
        coeffs = (_parse_num(parts[1]), _parse_num(parts[0]))
    elif s.startswith("poly:"):
        coeffs = tuple(_parse_num(p) for p in s[len("poly:"):].split(",")
                       if p != "")
        if not coeffs:
            raise ParseError(f"poly needs coefficients: {text!r}")
    elif s.startswith("pwl:"):
        ks = _knot_arrays(parse_pairs(s[len("pwl:"):]))
        return PWL, _knot_span(ks), {"knots": ks}
    elif s.startswith("table@"):
        ks = _knot_arrays(_load_table(s[len("table@"):]))
        return PWL, _knot_span(ks), {"knots": ks}
    else:
        raise ParseError(f"unknown function spec {text!r}")
    return POLY, IntervalSpec(-INF, INF, False, False), {"coefficients": coeffs}


def _parse_num(token: str) -> float:
    try:
        return float(token)
    except ValueError as exc:
        raise ParseError(f"bad number {token!r}") from exc


def parse_pairs(body: str) -> list:
    """Parse ``x1:y1,x2:y2,...`` into a list of float pairs."""
    pairs = []
    for item in body.split(","):
        bits = item.split(":")
        if len(bits) != 2:
            raise ParseError(f"bad pair {item!r}, expected x:y")
        pairs.append((_parse_num(bits[0]), _parse_num(bits[1])))
    return pairs


def _load_table(path: str) -> np.ndarray:
    """Knots from a two-column CSV, as an (n, 2) float64 array.

    Blank rows are skipped and the first nonblank row may be a header; any
    other row whose first two cells are not numbers is named in a
    ParseError.  Extra columns are ignored, and each value is float() of
    its cell, bit for bit.  A file that cannot be opened or read raises
    OSError (an I/O error, not a parse error).
    """
    knots = _plain_table(path)
    return _csv_table(path) if knots is None else knots


#: characters that send a table to the csv reader: the quote, and the
#: ASCII separators that numpy strips from a cell as whitespace and
#: float() refuses
_NOT_PLAIN = '"\x1c\x1d\x1e\x1f'


def _plain_table(path: str) -> np.ndarray | None:
    """_load_table's knots of a plain table, parsed in C; else None.

    Without a quote, csv.reader's cells are the comma-separated pieces of
    each line (unless one exceeds its field size limit), and numpy's
    loadtxt converts a cell with Python's own correctly rounded parser,
    as float() does.  It refuses some cells that float() reads (digit
    underscores, non-ASCII digits, blank rows that are not empty) but
    reads none that float() refuses, except those with the separators in
    _NOT_PLAIN, which it strips as whitespace.  So on a table free of
    those characters, when loadtxt accepts every line after the header,
    it reads exactly the knots that _csv_table reads.  Every other table,
    and every table that fails, returns None.
    """
    try:
        with open(path, newline="") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        return None
    text = "".join(lines)
    if (any(c in text for c in _NOT_PLAIN)
            or max(map(len, lines), default=0) > csv.field_size_limit()):
        return None
    first = next((i for i, line in enumerate(lines)
                  if line.replace(",", "").strip()), len(lines))
    if first < len(lines):
        cells = lines[first].split(",")
        try:
            float(cells[0]), float(cells[1])
        except (ValueError, IndexError):
            first += 1  # only the first nonblank row may be a header
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on no data
        try:
            knots = np.loadtxt(lines[first:], delimiter=",", comments=None,
                               usecols=(0, 1), ndmin=2)
        except ValueError:
            return None
    return knots if len(knots) >= 2 else None


def _csv_table(path: str) -> np.ndarray:
    """_load_table by csv.reader and float() row by row: any table."""
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
    return np.array(knots)

