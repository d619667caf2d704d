"""Exact-arithmetic Nekrasov partition functions for the A1 orbifold, its
resolution, and the plane, with functional-equation checks by exact
evaluation at rational sample points."""

from .diagrams import FrameData, HalfInt
from .series import QSeries, series_zp2, series_zx0, series_zx1, series_zx1_factorized
from .verify import (
    SampleConfig,
    SeriesPair,
    VerificationReport,
    check_factorization,
    check_main,
    check_recursion_must,
    check_symmetry,
)

__version__ = "0.1.0"
