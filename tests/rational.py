"""Exact references shared by the test modules."""

from fractions import Fraction


def rational_phi(knots, lo, hi, d):
    """Phi(d) of the knots' interpolant on [lo, hi] in exact rationals:
    the fractional knapsack of its segments' |slopes| over their lengths
    clipped to [lo, hi]."""
    knots = [(Fraction(x), Fraction(y)) for x, y in knots]
    lo, hi = Fraction(lo), Fraction(hi)
    segments = [(abs(y1 - y0) / (x1 - x0), min(x1, hi) - max(x0, lo))
                for (x0, y0), (x1, y1) in zip(knots, knots[1:])]
    left, total = Fraction(d), Fraction(0)
    for slope, length in sorted(segments, reverse=True):
        take = min(max(length, 0), left)
        total += slope * take
        left -= take
    return total
