"""Canonical analysis targets used by the demonstration suite and tests.

Functions without a native catalog kind (the reciprocal and the sine) are
realized as dense piecewise-linear tables; linear interpolation preserves both
monotonicity and convexity of the data, so every certified property of the
table holds exactly for the interpolant.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .continuity import IntervalCollection
from .function_model import FunctionSpec, IntervalSpec, _cantor_bricks


def sqrt_on_unit() -> FunctionSpec:
    return FunctionSpec.sqrt(IntervalSpec(0.0, 1.0))


def squared(lo: float = 0.0, hi: float = 10.0) -> FunctionSpec:
    return FunctionSpec.polynomial((0.0, 0.0, 1.0), IntervalSpec(lo, hi))


def cubed(lo: float = -1.0, hi: float = 1.0) -> FunctionSpec:
    return FunctionSpec.polynomial((0.0, 0.0, 0.0, 1.0), IntervalSpec(lo, hi))


def affine_fn(slope: float = 3.0, intercept: float = 1.0,
              lo: float = 0.0, hi: float = 5.0) -> FunctionSpec:
    return FunctionSpec.affine(slope, intercept, IntervalSpec(lo, hi))


def reciprocal_table(lo: float = 0.1, hi: float = 10.0,
                     knots: int = 40001) -> FunctionSpec:
    """Dense piecewise-linear version of 1/x: decreasing and convex."""
    xs = [lo + i * (hi - lo) / (knots - 1) for i in range(knots - 1)]
    xs.append(hi)
    return FunctionSpec.piecewise_linear(tuple((x, 1.0 / x) for x in xs))


def sine_table(knots: int = 20001) -> FunctionSpec:
    """Dense piecewise-linear version of sin on [0, 2*pi]."""
    hi = 2.0 * math.pi
    xs = [i * hi / (knots - 1) for i in range(knots - 1)]
    xs.append(hi)
    return FunctionSpec.piecewise_linear(tuple((x, math.sin(x)) for x in xs))


def cantor_on_unit() -> FunctionSpec:
    return FunctionSpec.cantor(IntervalSpec(0.0, 1.0))


def cantor_stage_cover(k: int) -> IntervalCollection:
    """The 2**k closed thirds remaining at step k of the middle-thirds cut.

    They are ``function_model._cantor_bricks(k)`` as exact rationals
    [a / 3**k, (a + 1) / 3**k]: the staircase rises exactly 2**-k across
    each interval, so the increment sum over the cover is exactly 1 while
    the total length shrinks to (2/3)**k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = 3 ** k
    return IntervalCollection(tuple((Fraction(a, q), Fraction(a + 1, q))
                                    for a in _cantor_bricks(k)))
