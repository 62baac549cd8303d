"""Semantic exception hierarchy for the toolkit.

Every error raised by the analysis layers derives from ContanaError so the
CLI can map failures onto stable exit codes.
"""


class ContanaError(Exception):
    """Base class for all toolkit errors."""


class DomainError(ContanaError):
    """A point or window lies outside a function's domain."""


class KindError(ContanaError):
    """A function specification is malformed or inconsistent."""


class ParseError(ContanaError):
    """A mini-language string (function, interval, pairs) failed to parse."""


class InsufficientData(ContanaError):
    """Not enough samples to run an estimator (e.g. < 3 grid points)."""


class ShapeError(ContanaError):
    """An operation required a certified convex/concave/affine monotone piece."""


class GeometryError(ContanaError):
    """Intervals, chains or step sizes do not fit inside the piece at hand."""


class BudgetError(ContanaError):
    """A length budget is unusable (too small for the grid, or too large)."""


class Unachievable(ContanaError):
    """No positive step size meets the requested increment bound."""
