"""Exact enumeration of generalized derangements, 3-row Latin
rectangles and Latin trapezoids through weighted tilings."""

from .poly import (
    PolyRing,
    PolynomialDivisionError,
    RationalKernel,
    RingMismatchError,
    RING_2ROW,
    RING_3ROW,
    RING_KERNEL,
    SingularSystemError,
    WeightPolynomial,
    exact_divide,
    solve_linear_system,
)
from .tiles import (
    ShiftSpec,
    Tile,
    dump_tiles,
    enumerate_tiles,
    ring_for,
    tile_coefficient,
)
from .dp import (
    BoardShape,
    SeriesTable,
    kernel2,
    rectangle,
    trapezoid3,
    weight_series,
)
from .umbra import (
    UmbralKind,
    factorial_table,
    umbral_eval,
    umbral_eval_2row,
    umbral_eval_3row,
    umbral_eval_trapezoid,
)

__version__ = "0.1.0"
