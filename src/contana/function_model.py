"""Intervals, the function catalog, grid sampling and each kind's Phi(d).

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
its docstring).  The Cantor staircase is read off a table of the 255
gaps between its 256 stage-8 bricks (``cantor_bricks``, the one source
of the bricks), on the i-th of which it is i / 2**8; only the points in
a brick (about 4% of a grid on [0, 1]) are digit-scanned.

Piecewise linear knots are checked once, when their spec is built, and
held for the spec's lifetime as two read-only float64 arrays (16 bytes
per knot): ``_bulk_values`` searches them, and ``evaluate`` bisects them
through memoryviews.  The public tuple of float pairs ``FunctionSpec.knots``
is built from them only when it is read.  A ``table@`` file without
quotes is parsed by numpy in C, any other by the csv module, into the same
values.
"""

from __future__ import annotations

import csv
import functools
import math
import re
import sys
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DomainError,
    GeometryError,
    InsufficientData,
    KindError,
    ParseError,
)

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


class _KnotPairs:
    """The ``knots`` field of FunctionSpec.

    It keeps what ``__init__`` is given until ``__post_init__`` replaces
    a piecewise linear spec's knots by its arrays; reading ``knots`` then
    builds the tuple of float pairs from them, once, on first read.
    """

    def __get__(self, f, owner=None):
        if f is None:
            return ()  # the field's default
        try:
            return f.__dict__["knots"]
        except KeyError:
            pairs = tuple(zip(f._kx.tolist(), f._ky.tolist()))
            f.__dict__["knots"] = pairs
            return pairs

    def __set__(self, f, knots) -> None:
        f.__dict__["knots"] = knots


@dataclass(frozen=True)
class FunctionSpec:
    """A catalog member bound to a domain interval.

    Only the fields relevant to ``kind`` are meaningful: ``coefficients``
    for polynomials (ascending degree, so the affine map a*x + b is
    ``(b, a)``) and ``knots`` for piecewise linear data (sampled tables
    included).  ``knots`` may be given as (x, y) pairs or an (n, 2) array;
    the spec keeps them only as the read-only float64 arrays ``_kx`` and
    ``_ky`` (16 bytes per knot), with a memoryview of each (``_views``)
    for scalar bisection.  Reading ``knots`` gives them as a tuple of
    float pairs, built on first read; equality, hash and repr read it, so
    they compare the knots' values (0.0 == -0.0) as for any tuple.  The
    spec also holds the last Phi that ``exact_phi`` built on it, for one
    window, outside its fields.
    """

    kind: str
    domain: IntervalSpec
    coefficients: tuple = ()
    knots: tuple = _KnotPairs()
    #: the knots' abscissae and ordinates, read-only float64 (kind pwl)
    _kx: np.ndarray | None = field(default=None, init=False, compare=False,
                                   repr=False)
    _ky: np.ndarray | None = field(default=None, init=False, compare=False,
                                   repr=False)
    #: memoryviews of _kx and _ky, whose items are Python floats (kind pwl)
    _views: tuple = field(default=(), init=False, compare=False, repr=False)

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
            given = self.__dict__.pop("knots")
            ks = given if isinstance(given, _Knots) else _knot_arrays(given)
            if d.lo < ks.x[0] or d.hi > ks.x[-1]:
                raise KindError("domain must lie within the knot span")
            object.__setattr__(self, "_kx", ks.x)
            object.__setattr__(self, "_ky", ks.y)
            object.__setattr__(self, "_views",
                               (memoryview(ks.x), memoryview(ks.y)))

    def __reduce__(self):
        # memoryviews do not pickle: a copy is built anew from the fields,
        # a piecewise linear one from its arrays as an (n, 2) array
        knots = (np.column_stack((self._kx, self._ky)) if self.kind == PWL
                 else self.knots)
        return type(self), (self.kind, self.domain, self.coefficients, knots)

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
    """Exact pointwise evaluation; open endpoints are not evaluable.

    A piecewise linear spec is read by bisecting its knot arrays through
    their memoryviews, which give Python floats: the same arithmetic, and
    so the same bits, as ``_interp_block``.
    """
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
        return _horner(f.coefficients, float(x))
    if kind == PWL:
        return _interp_knots(*f._views, float(x))
    raise KindError(f"unknown function kind {kind!r}")


def _horner(coefficients, x):
    """sum coefficients[k] * x**k by Horner's rule from the leading one, x
    a float or a float64 array: degree one gives exactly the bits of
    a*x + b, signed zeros included."""
    *rest, acc = coefficients
    for c in reversed(rest):
        acc = acc * x + c
    return acc


def _interp_knots(kx: memoryview, ky: memoryview, x: float) -> float:
    # domain validation guarantees kx[0] <= x <= kx[-1]
    idx = bisect_right(kx, x)
    if kx[idx - 1] == x:
        return ky[idx - 1]
    x0, y0, x1, y1 = kx[idx - 1], ky[idx - 1], kx[idx], ky[idx]
    return y0 + (y1 - y0) * ((x - x0) / (x1 - x0))


def slope_sign(f: FunctionSpec, x: float, right: bool = True) -> int:
    """The sign (-1, 0 or 1) of f' just right of x, or just left of it.

    Exact for ``pwl`` (the sign of the segment's float rise, which rounding
    cannot flip; ``evaluate`` is monotone along it) and for ``poly`` (p'(x)
    by Horner's rule in Fraction, so 0 at a root of p'; floats underflow
    near a double root).  In floats for ``x2sininv``, 0 where 1/x
    overflows, as ``evaluate`` reads f as 0 there; 1 for ``sqrt`` and
    ``cantor``, which never fall.
    """
    if f.kind == PWL:
        kx, ky = f._views
        i = (bisect_right if right else bisect_left)(kx, x)
        i = min(max(i, 1), len(kx) - 1)
        rise = ky[i] - ky[i - 1]
    elif f.kind == POLY:
        rise = 0
        for k in range(len(f.coefficients) - 1, 0, -1):
            rise = rise * Fraction(x) + k * Fraction(f.coefficients[k])
    elif f.kind == X2SININV:
        inv = 1.0 / x if x else INF
        rise = 0.0 if math.isinf(inv) else 2 * x * math.sin(inv) - math.cos(inv)
    else:  # SQRT, CANTOR
        return 1
    return (rise > 0) - (rise < 0)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampleGrid:
    """Strictly increasing abscissae with their function values.

    Both are read-only float64 arrays; other points, exact rationals
    (``fractions.Fraction``) among them, are converted to floats, and exact
    arithmetic is left to ``evaluate`` and ``IntervalCollection``.  The
    values must be finite, and so must their range max - min.  ``spacing``
    is the largest gap between consecutive abscissae and ``narrowest`` the
    smallest.  ``uniform`` says that the gaps are equal up to the
    abscissae's rounding: max gap - min gap <= max(1e-9 * max gap,
    4 ulp(max |x|)).  Points lo + i * h rounded to floats meet it at any
    distance from zero; a window whose gaps are subnormal, such as
    [0, 1e-310] at 2001 points, does not.

    The checks take one reduction each, the smallest gap and the values'
    max and min, and look for an offending point only to name it: the
    first non-finite value, else the first minimum and maximum, whose
    difference overflows.
    """

    abscissae: np.ndarray
    values: np.ndarray
    spacing: float = field(init=False)
    narrowest: float = field(init=False)
    uniform: bool = field(init=False)

    def __post_init__(self) -> None:
        xs = np.asarray(self.abscissae, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if xs.ndim != 1 or xs.shape != vs.shape:
            raise KindError("abscissae and values must have equal length")
        if len(xs) < 2:
            raise InsufficientData("a grid needs at least two points")
        gaps = np.diff(xs)
        narrowest = gaps.min()
        if not narrowest > 0:
            raise KindError("grid abscissae must be strictly increasing")
        if not math.isfinite(float(vs.max()) - float(vs.min())):
            bad = np.flatnonzero(~np.isfinite(vs))
            if len(bad):
                i = bad[0]
                raise DomainError(f"non-finite value {vs[i]} at x = {xs[i]}")
            lo, hi = int(np.argmin(vs)), int(np.argmax(vs))
            raise DomainError(
                f"values {vs[lo]} at x = {xs[lo]} and {vs[hi]} at "
                f"x = {xs[hi]} are too far apart: their difference overflows")
        spacing, narrowest = float(gaps.max()), float(narrowest)
        rounding = 4.0 * math.ulp(max(-float(xs[0]), float(xs[-1])))
        uniform = spacing - narrowest <= max(1e-9 * spacing, rounding)
        xs, vs = xs.view(), vs.view()
        xs.flags.writeable = vs.flags.writeable = False
        object.__setattr__(self, "abscissae", xs)
        object.__setattr__(self, "values", vs)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "narrowest", narrowest)
        object.__setattr__(self, "uniform", uniform)

    def __len__(self) -> int:
        return len(self.abscissae)

    @property
    def span(self) -> float:
        return float(self.abscissae[-1] - self.abscissae[0])

    @property
    def step(self) -> float:
        """h = span / (m - 1)."""
        return self.span / (len(self) - 1)


def clip_window(domain: IntervalSpec) -> IntervalSpec:
    """Produce a finite closed window from an arbitrary interval.

    Infinite endpoints are truncated DEFAULT_WINDOW_WIDTH away from the
    finite side (symmetrically about 0 when both are infinite); open finite
    endpoints are pulled inward (see RELATIVE_MARGIN).  A window whose
    width hi - lo overflows is refused: no grid or step on it is finite.
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
    if math.isinf(hi - lo):
        raise KindError(f"window {domain} is too wide: its width "
                        f"{hi!r} - ({lo!r}) overflows")
    margin = max(RELATIVE_MARGIN * (hi - lo), MARGIN_FLOOR)
    if lo_open:
        lo = lo + margin
    if hi_open:
        hi = hi - margin
    if not lo < hi:  # an end +- 10 rounds to that end where its ulp > 20
        cause = (f"open-end margin {margin}" if math.isfinite(domain.lo)
                 and math.isfinite(domain.hi) else
                 f"truncation to width {DEFAULT_WINDOW_WIDTH}")
        raise KindError(f"window {domain} collapsed after clipping: {cause}")
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
    try:
        return SampleGrid(xs, _bulk_values(f, xs))  # rejects non-finite values
    except KindError as exc:  # points that round onto each other
        raise KindError(f"the window {clipped} is too narrow for {m} distinct "
                        "grid points") from exc


def uniform_abscissae(lo: float, hi: float, m: int) -> np.ndarray:
    """m points lo + i * (hi - lo) / (m - 1), the last one exactly hi; one
    array, built in place."""
    xs = np.arange(m, dtype=float)
    xs *= (hi - lo) / (m - 1)
    xs += lo
    xs[-1] = hi
    return xs


def evaluate_many(f: FunctionSpec, xs) -> np.ndarray:
    """evaluate() at every point of xs, as one float64 array.

    The points are converted to floats and checked against the domain as
    evaluate() checks it; the first one outside raises the same
    DomainError.  They are then evaluated in bulk.
    """
    xs = np.asarray(xs, dtype=float)
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
    Cantor staircase from the gaps between its bricks (``_cantor_gaps``),
    then the digit scan in integer arithmetic (``_cantor_block``) on the
    points in none, gathered over all blocks and scanned BULK_BLOCK at a
    time (once on a grid on [0, 1] of up to about 200000 points); and
    piecewise linear interpolation from a binary search of the spec's knot
    arrays, with knot hits exact.  Those arrays (16 bytes per knot) are
    built once with the spec and held for its lifetime, not per call.
    The points are evaluated BULK_BLOCK at a time, so besides the m-point
    output the working memory is at most 128 bytes per block point
    (1 MiB; the Cantor scan, the largest, takes about 70 bytes), plus the
    8-byte indices of the points left to the Cantor scan.  With its grid
    (abscissae, values, and the gaps of SampleGrid's checks: 24 bytes per
    point), sample() at m points peaks below 24*m + 128*BULK_BLOCK bytes.
    Overflow to inf is silent, as in scalar arithmetic.
    """
    out = np.empty(len(xs))
    left = []  # Cantor: the points of each block in no removed third
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
                v = _cantor_gaps(x)
                left.append(np.flatnonzero(np.isnan(v)) + i)
            elif f.kind == POLY:
                v = _horner(f.coefficients, x)
            else:
                v = _interp_block(f._kx, f._ky, x)
            out[i:i + BULK_BLOCK] = v
        if left:
            left = np.concatenate(left)
            for i in range(0, len(left), BULK_BLOCK):
                j = left[i:i + BULK_BLOCK]
                out[j] = _cantor_block(xs[j])
    return out


#: stage of the Cantor bricks whose gaps are tabulated for the staircase:
#: 2**8 - 1 = 255 open gaps, which leave a (2/3)**8 share (3.9%) of [0, 1]
_CANTOR_TABLE_STAGES = 8


def cantor_bricks(k: int) -> list:
    """The numerators a of the 2**k stage-k bricks [a / 3**k, (a + 1) / 3**k],
    ascending: the closed thirds left after k middle-thirds cuts of [0, 1],
    each cut keeping the first and last third of every brick."""
    bricks = [0]
    for _ in range(k):
        bricks = [b for a in bricks for b in (3 * a, 3 * a + 2)]
    return bricks


@functools.lru_cache(maxsize=None)
def _cantor_thirds() -> tuple:
    """The open gaps between consecutive stage-_CANTOR_TABLE_STAGES bricks
    (``cantor_bricks``), ascending, as read-only arrays: their ends rounded
    inward to floats (lefts, rights), and the segment values that
    ``_cantor_gaps`` repeats (NaN, the value on gap 1, NaN, on gap 2, ...,
    NaN).  Built on first use.

    The staircase rises 2**-k across each stage-k brick and is constant
    between them, so on gap i, after the first i bricks, it is i / 2**k.
    A gap end p / 3**k is never a float, so a float lies in a gap iff it
    lies between the gap's rounded ends: the left end becomes the least
    float above p / 3**k, the right end the greatest below
    (``_round_rational``).
    """
    k = _CANTOR_TABLE_STAGES
    q, bricks = 3 ** k, cantor_bricks(k)
    lefts = np.array([_round_rational(a + 1, q, True) for a in bricks[:-1]])
    rights = np.array([_round_rational(a, q, False) for a in bricks[1:]])
    segments = np.full(2 * len(bricks) - 1, np.nan)
    segments[1::2] = np.arange(1, len(bricks)) / 2.0 ** k
    for a in (lefts, rights, segments):
        a.flags.writeable = False
    return lefts, rights, segments


def _round_rational(p: int, q: int, up: bool) -> float:
    """The least float >= p / q (``up``) or the greatest float <= p / q,
    for integers p and q > 0; p / q itself when it is a float.  The nearest
    float num / den moves one step when it lies on the wrong side, which
    the integers num * q and p * den tell."""
    x = p / q
    num, den = x.as_integer_ratio()
    if num * q != p * den and (num * q < p * den) == up:
        x = math.nextafter(x, math.inf if up else -math.inf)
    return x


def _cantor_gaps(x: np.ndarray) -> np.ndarray:
    """The Cantor staircase at the points of x in a gap of
    ``_cantor_thirds``, NaN at the others; x in any order.

    One stable argsort puts x in order (the identity on an ascending
    grid); two searchsorted calls of the gap ends cut the ordered points
    into segments that alternate between no gap and one gap, and one
    np.repeat writes every segment's value, which is scattered back.
    """
    lefts, rights, segments = _cantor_thirds()
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    bounds = np.empty(len(segments) + 1, np.intp)
    bounds[0], bounds[-1] = 0, len(x)
    bounds[1:-1:2] = np.searchsorted(ordered, lefts, "left")
    bounds[2:-1:2] = np.searchsorted(ordered, rights, "right")
    v = np.empty(len(x))
    v[order] = np.repeat(segments, np.diff(bounds))
    return v


#: largest denominator exponent s of x = n / 2**s for the integer Cantor
#: scan: 3n < 3 * 2**61 < 2**63
_CANTOR_MAX_EXPONENT = 61

#: ternary digits the Cantor scan reads per pass at exponent s (the index):
#: the largest c <= 6 with 3**c * 2**s <= 2**64, so that a remainder below
#: 2**s times 3**c fits in uint64
_CANTOR_PASS_DIGITS = np.array((6,) * 55 + (5, 5, 4, 3, 3, 2, 1), np.int8)


def _cantor_block(x: np.ndarray) -> np.ndarray:
    """eval_cantor on in-domain floats, bit for bit: the digit scan, which
    ``_bulk_values`` runs on the points that ``_cantor_gaps`` leaves.

    Each x is n / 2**s in lowest terms (from frexp), so its next c ternary
    digits are (3**c * n) >> s with remainder (3**c * n) & (2**s - 1),
    exact in uint64 while 3**c * 2**s <= 2**64: c is 6 up to s = 54 and
    falls to 1 at s = 61 (``_CANTOR_PASS_DIGITS``).  The points are grouped
    by c, and each group reads c digits per pass (``_cantor_scan``).  A
    point leaves the scan at its first digit 1, or after CANTOR_DEPTH
    digits; points with s > 61 (below about 2**-9, or subnormal) go through
    eval_cantor.
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
    s = s[idx]
    del n, tz, exp, interior, scan
    per_pass = _CANTOR_PASS_DIGITS[s]
    counts = np.bincount(per_pass, minlength=7)
    if counts.max() < len(idx):  # several digit counts: sort into groups
        order = np.argsort(per_pass, kind="stable")
        idx, num, s = idx[order], num[order], s[order]
        del order
    end = 0
    for c in np.flatnonzero(counts).tolist():
        start, end = end, end + counts[c]
        _cantor_scan(out, idx[start:end], num[start:end], s[start:end], c)
    return out


def _cantor_scan(out: np.ndarray, idx: np.ndarray, num: np.ndarray,
                 s: np.ndarray, c: int) -> None:
    """Write eval_cantor of the points n / 2**s (n = num, odd) to out[idx],
    reading c ternary digits per pass, fewer on the pass that reaches
    CANTOR_DEPTH.  The binary accumulator is uint64: 64 digits fill all 64
    bits.  A point that meets a digit 1 inside a pass takes that pass's
    bits padded with zeros, and is divided by 2**(digits read) as if it had
    stopped at the 1, which gives the same float."""
    shift = s.astype(np.uint64)
    mask = (np.uint64(1) << shift) - np.uint64(1)
    acc = np.zeros(len(idx), np.uint64)
    bits = 0
    while len(idx):
        step = min(c, CANTOR_DEPTH - bits)
        emitted, has_one = _cantor_digits(step)
        num *= np.uint64(3 ** step)
        digits = (num >> shift).view(np.int64)
        num &= mask
        acc <<= np.uint64(step)
        acc |= emitted[digits]
        bits += step
        stop = has_one[digits] if bits < CANTOR_DEPTH else np.ones(
            len(idx), bool)
        if stop.any():
            out[idx[stop]] = acc[stop].astype(float) / 2.0**bits
            keep = ~stop
            idx, num, shift, mask, acc = (
                idx[keep], num[keep], shift[keep], mask[keep], acc[keep])


@functools.lru_cache(maxsize=None)
def _cantor_digits(c: int) -> tuple:
    """Read-only tables over the 3**c values of c ternary digits, the first
    digit most significant: the binary digits they emit, up to and
    including the first digit 1, padded with zeros to c bits; and whether
    a digit 1 occurs.  Built on first use."""
    value = np.arange(3 ** c)
    emitted = np.zeros(3 ** c, np.uint64)
    scanning = np.ones(3 ** c, bool)
    for t in range(c - 1, -1, -1):
        digit = value // 3 ** t % 3
        emitted = emitted << np.uint64(1) | (scanning & (digit != 0))
        scanning &= digit != 1
    has_one = ~scanning
    emitted.flags.writeable = has_one.flags.writeable = False
    return emitted, has_one


def _interp_block(kx: np.ndarray, ky: np.ndarray, x: np.ndarray) -> np.ndarray:
    """_interp_knots on in-span floats, bit for bit."""
    idx = np.searchsorted(kx, x, side="right")   # bisect_right
    hit = kx[idx - 1] == x
    j = np.minimum(idx, len(kx) - 1)             # idx == len(kx) is a hit
    x0, y0, x1, y1 = kx[j - 1], ky[j - 1], kx[j], ky[j]
    return np.where(hit, ky[idx - 1], y0 + (y1 - y0) * ((x - x0) / (x1 - x0)))


# ---------------------------------------------------------------------------
# The exact supremum Phi(d)
# ---------------------------------------------------------------------------

#: equal cells of the |f'| envelope that brackets Phi for a polynomial of
#: degree >= 2 and for x**2 sin(1/x); ``_envelope_phi`` refines them
#: fourfold, up to _MAX_CELLS, while the bracket leaves Phi(d) < epsilon open
_CELLS = 1024
_MAX_CELLS = 65536

#: finest stage of the Cantor witness's bricks: at most 2**12 intervals
_CANTOR_STAGES = 12


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


class ExactSup(NamedTuple):
    """Phi(d) in float and a bound on its rounding:
    |value - Phi(d)| <= rounding."""

    value: float
    rounding: float


def exact_phi(f: FunctionSpec, lo: float, hi: float) -> Phi | None:
    """Phi of f on the window [lo, hi], or None where a bound overflows.

    Phi(d) is the supremum of sum |f(b_i) - f(a_i)| over the collections of
    nonoverlapping intervals in [lo, hi] of total length at most d.  Each
    increment is at most the integral of |f'| over its interval, with
    equality where f is monotone, so for an absolutely continuous f Phi(d)
    is the integral over [0, d] of the decreasing rearrangement of |f'|:
    the steepest total length d of the window, wherever it lies.  It bounds
    every collection, with no reference to detected pieces.  By kind:

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
    degree n >= 2.

    Building Phi costs O(n log n) for the n segments or cells, once per
    window: the spec keeps the last Phi built on it, for one window, so
    the pieces' and the certificate's calls on a one-piece partition share
    one build.  That slot is keyed on the reprs of lo and hi, which tell
    0.0 from -0.0 and an int from a float, as the witness's ends do.  Each
    query (``sup``, ``budget``'s steps) then costs O(log n) for a knapsack
    and O(1) for the curves.
    """
    window = (repr(lo), repr(hi))
    last = f.__dict__.get("_phi")
    if last is not None and last[0] == window:
        return last[1]
    phi = _build_phi(f, lo, hi)
    f.__dict__["_phi"] = (window, phi)
    return phi


def _build_phi(f: FunctionSpec, lo: float, hi: float) -> Phi | None:
    """``exact_phi``'s Phi, built anew."""
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
    rise = np.diff(y)
    with np.errstate(over="ignore"):
        knapsack = _Knapsack.build(np.abs(rise) / np.diff(x), ends,
                                   np.sign(rise))
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
        least Phi- at the collection's total length.  The last interval,
        the least steep, is shortened, or dropped, until
        ``IntervalCollection.total_length`` is below d: by the excess and
        one ulp of d each time, as an ulp of y, near 0, can be far below
        one of its length."""
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
        The bricks [a / 3**k, (a + 1) / 3**k] are ``cantor_bricks(k)``,
        kept when lo <= a / 3**k and (a + 1) / 3**k <= hi, both compared
        in integers."""
        lo_num, lo_den = self.lo.as_integer_ratio()
        hi_num, hi_den = self.hi.as_integer_ratio()
        for k in range(1, _CANTOR_STAGES + 1):
            n = math.ceil(epsilon * 2 ** k)
            if not n * 3.0 ** -k < d:  # too long before rounding
                continue
            q = 3 ** k
            inside = [a for a in cantor_bricks(k) if lo_num * q <= a * lo_den
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
    ends[order[i] + 1], and f keeps the direction dirs[i] (1 rising, -1
    falling, 0 unknown or flat) on the i-th interval of the window: the
    sign of a segment's slope, or of f' at a cell's midpoint.

    Its Phi is a fractional knapsack.  The budget d takes whole the k
    intervals with reach[k - 1] < d, and c, the cut level, is the s of the
    interval it ends in (0 when it covers them all).  Phi is summed as its
    LP dual c * d + sum of L_i * (s_i - c) over those k, whose terms are
    nonnegative, read off the running sums: c * d + (R - c * reach[k - 1])
    with R = rises[k - 1].  ``build`` sorts once, O(n log n) for n
    intervals; ``sup`` and ``invert`` are binary searches, O(log n) a
    query, with no O(n) temporary.

    The rounding of ``sup`` is at most (k + 16) * eps * (c * d + R)
    + 16 * eps * c * min(T, d) + (k + 16) * ulp(0), eps being the float
    epsilon and T the length of the other intervals whose s is within
    8 * eps * c of c.  With u = eps / 2, each product errs by u relative or
    ulp(0) / 2 where it underflows, and each sum by u relative (a sum that
    is subnormal is exact).  The running sums are sequential: R is within
    k * u * R of its exact value, and reach[k - 1], below d, within
    (k - 1) * u * d, so c * reach[k - 1] within k * u * c * d.  Where that
    rounding puts d past reach[k - 1] only in floats, c is one level too
    low, and the dual there exceeds Phi by at most (k - 1) * u * R.  With
    the last three operations and the rounding of the slopes and lengths
    that is within (k + 4) * eps * (c * d + R) and k + 2 underflows.  The
    tied term covers a cut that the rounding of the slopes puts on a
    neighbouring interval: the tied intervals taken under either order add
    up to length d at most, so the two choices differ on at most min(T, d)
    of length, at levels within 16 * eps * c of each other.  The tied
    intervals are one index range of the descending s, found by searching
    ``key`` (-s) for the levels c +- 8 * eps * c, each rounded to nearest,
    so the range holds every s within 8 * eps * c of c (the rounding can
    only widen it).  T is read off reach, as the range's length less the
    cut interval's, and widened by j * eps * reach[j - 1] for the range's
    end j, which bounds the rounding of the running sums there and of the
    two differences; where a huge cut interval swamps the other tied
    lengths in reach, that widening reaches d.
    """

    s: np.ndarray
    lengths: np.ndarray
    order: np.ndarray
    ends: np.ndarray
    reach: np.ndarray
    rises: np.ndarray
    dirs: np.ndarray
    #: -s, ascending: the key of the tie search
    key: np.ndarray

    @classmethod
    def build(cls, s: np.ndarray, ends: np.ndarray,
              dirs: np.ndarray) -> _Knapsack | None:
        """The knapsack of bounds s and directions dirs between ends; None
        if a bound is not finite."""
        if not np.isfinite(s).all():
            return None
        key = -s
        order = np.argsort(key, kind="stable")
        s, lengths, key = s[order], np.diff(ends)[order], key[order]
        with np.errstate(over="ignore"):
            return cls(s, lengths, order, ends, np.cumsum(lengths),
                       np.cumsum(lengths * s), dirs, key)

    def sup(self, d) -> ExactSup | None:
        d, reach, eps = float(d), self.reach, sys.float_info.epsilon
        k = int(np.searchsorted(reach, d))  # intervals taken whole
        whole, below = ((float(self.rises[k - 1]), float(reach[k - 1]))
                        if k else (0.0, 0.0))
        cut = tied = 0.0
        if k < len(reach):
            cut = float(self.s[k])
            band = 8 * eps * cut
            first = int(np.searchsorted(self.key, -(cut + band)))
            last = int(np.searchsorted(self.key, -(cut - band), side="right"))
            top = float(reach[last - 1])
            tied = (top - (float(reach[first - 1]) if first else 0.0)
                    - float(self.lengths[k]) + last * eps * top)
            tied = max(tied, 0.0) if tied < d else d
        value = cut * d + (whole - cut * below)
        rounding = ((k + 16) * (eps * (cut * d + whole) + math.ulp(0.0))
                    + 16 * eps * cut * tied)
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
        epsilon.  Touching intervals of one nonzero direction are glued
        into one: f is monotone across them, so the exact sum is the same.
        The glued run that holds the cut interval, the least steep, comes
        last, and nothing is glued to the cut interval's right, so
        ``Phi.witness`` trims the least steep length first.  The cut
        interval keeps at least one ulp, so that run is never empty."""
        k = int(np.searchsorted(self.reach, d))  # intervals taken whole
        at = self.order[:k + 1]
        left, right = self.ends[at], self.ends[at + 1]
        if k < len(self.reach):  # the cut interval takes what is left of d,
            # at least one ulp: left[k] + a sliver can round to left[k]
            rest = d - (self.reach[k - 1] if k else 0.0)
            right[k] = min(right[k], max(left[k] + rest,
                                         math.nextafter(left[k], math.inf)))
        place = np.argsort(at)  # the window's order
        cut = int(place.argmax())  # the cut interval's place in it
        left, right, dirs = left[place], right[place], self.dirs[at[place]]
        glue = ((right[:-1] == left[1:]) & (dirs[1:] == dirs[:-1])
                & (dirs[1:] != 0))
        glue[cut:cut + 1] = False
        first = np.flatnonzero(np.append(True, ~glue))
        last = np.append(first[1:], len(at)) - 1
        runs = list(zip(left[first].tolist(), right[last].tolist()))
        runs.append(runs.pop(int(np.searchsorted(first, cut,
                                                 side="right")) - 1))
        return runs


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
    and E covers the rounding of f'(m) and of the bounds themselves.
    ``cell_bounds(ends, mid, half)`` gives (f'(m), r * M2, E, cap) for
    every cell, each an array or one number (``_poly_cells``,
    ``_x2sininv_cells``).  The knapsack on the upper bounds gives
    Phi+ >= Phi, and on the lower ones Phi- <= Phi; the width is about
    2 r M2 d.  Where the lower bound is positive f' keeps the sign of
    f'(m) across the cell, which is the cell's direction.  Where the
    bracket leaves Phi(d) < epsilon open, it is refined on 4 times as many
    cells, up to _MAX_CELLS.  None where a bound overflows.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ends = np.minimum(np.linspace(lo, hi, cells + 1), hi)
        mid = 0.5 * (ends[:-1] + ends[1:])
        half = np.maximum(mid - ends[:-1], ends[1:] - mid)
        slope, spread, slack, cap = cell_bounds(ends, mid, half)
        steep = np.abs(slope)
        upper = np.minimum(steep + spread + slack, cap)
        lower = np.maximum(steep - spread - slack, 0.0)
    dirs = np.where(lower > 0, np.sign(slope), 0.0)
    top = _Knapsack.build(upper, ends, dirs)
    if top is None:
        return None

    def refined_below(d, epsilon):
        finer = (None if cells >= _MAX_CELLS
                 else _envelope_phi(cell_bounds, lo, hi, 4 * cells))
        return None if finer is None else finer.below(d, epsilon)

    return Phi(lo, hi, top, _Knapsack.build(lower, ends, dirs), refined_below)


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
        return _horner(d1, mid), half * m2, slack, math.inf

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
    slope = 2.0 * mid * np.sin(inv) - np.cos(inv)
    spread = half * (2.0 + 2.0 / least + 1.0 / (least * least))
    slack = 8 * eps * (cap * (1.0 + 1.0 / least) + spread)
    loose = ~np.isfinite(slope + spread + slack)
    return (np.where(loose, 0.0, slope), np.where(loose, cap, spread),
            np.where(loose, 0.0, slack), cap)


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


#: one line of a table and its ending, as csv.reader ends lines: \r\n, \r
#: or \n
_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)?")

#: file names that numpy's loadtxt does not open as plain local files: it
#: decompresses these endings and fetches URLs
_NOT_PLAIN_NAMES = re.compile(r"(\.gz|\.bz2|\.xz|\.lzma)$|://")


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

    The text is read once, as one string, and checked in place: the
    characters by substring search, the line lengths by ``_lines_within``,
    and the header on the lines up to the first nonblank one, so no other
    line becomes a Python object.  loadtxt then reads the file itself, in
    chunks, skipping the lines before the data; the text is dropped first,
    so on an ASCII file the parse peaks at about two bytes per character
    (the bytes read and their decoded text) besides the knots.
    """
    if _NOT_PLAIN_NAMES.search(path):
        return None
    try:
        with open(path, newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        return None
    if (any(c in text for c in _NOT_PLAIN)
            or not _lines_within(text, csv.field_size_limit())):
        return None
    skip = 0  # lines before the data
    for line in _LINE.finditer(text):
        if line.group().replace(",", "").strip():
            break
        skip += 1
    else:
        return None  # no nonblank line
    cells = line.group().split(",")
    try:
        float(cells[0]), float(cells[1])
    except (ValueError, IndexError):
        skip += 1  # only the first nonblank row may be a header
    del text, line
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # loadtxt warns on no data
        try:
            knots = np.loadtxt(path, delimiter=",", comments=None,
                               usecols=(0, 1), ndmin=2, skiprows=skip)
        except ValueError:
            return None
    return knots if len(knots) >= 2 else None


def _lines_within(text: str, limit: int) -> bool:
    """Whether no line of text holds more than limit characters before its
    ending.  It hops from a line start to just past the last line end
    within limit + 1 characters, so it takes len(text) / limit steps on a
    table of short lines."""
    start = 0
    while len(text) - start > limit:
        stop = start + limit + 1
        end = max(text.rfind("\n", start, stop), text.rfind("\r", start, stop))
        if end < 0:
            return False
        start = end + 1
    return True


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

