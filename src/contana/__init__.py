"""Numeric toolkit for uniform/absolute continuity analysis of real functions."""

from .errors import (
    BudgetError,
    ContanaError,
    DomainError,
    GeometryError,
    InsufficientData,
    KindError,
    ParseError,
    ShapeError,
    Unachievable,
)
from .function_model import (
    CANTOR_DEPTH,
    FunctionSpec,
    IntervalSpec,
    SampleGrid,
    clip_window,
    eval_cantor,
    evaluate,
    parse_function,
    parse_interval,
    sample,
)
from .convexity import (
    Direction,
    GSigmaReport,
    Monotonicity,
    MonotonePartition,
    NotPiecewiseConvex,
    Partition,
    PiecewiseConvexPartition,
    Shape,
    ShapePiece,
    check_gsigma_monotone,
    detect_partition,
    expected_direction,
    g_sigma,
    monotone_partition,
    refine_to_monotone,
)
from .continuity import (
    ACWorstReport,
    Certificate,
    GluingCheck,
    IntervalCollection,
    ModulusCurve,
    VerificationReport,
    ac_certificate,
    ac_sum,
    exact_phi,
    gluing_bound_check,
    modulus_on_grid,
    random_collection,
    split_collection_at_partition,
    verify_certificate,
    worst_ac_sum_oracle,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
