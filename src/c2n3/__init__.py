"""Exact A-polynomials and Riley-Mednykh polynomials of the two-bridge knots C(2n,3).

The laurent module supplies the exact arithmetic kernel; rmpoly and apoly
build the polynomial families along two independent routes each; repcheck
verifies the underlying SL(2, C) representations numerically; cli wraps
everything for the command line.
"""

from .apoly import (
    APolyResult,
    NewtonPolygon,
    apoly_substitution,
    apoly_theorem,
    c_sum,
    newton_polygon,
    substitution_x,
)
from .laurent import (
    ONE,
    UNIT_MONOMIAL,
    VARIABLES,
    ZERO,
    LaurentPoly,
    mono,
)
from .repcheck import (
    BadPoint,
    DegreeCollapseError,
    NonConvergenceError,
    RepeatedRootError,
    SingularPointError,
    VerificationReport,
    build_longitude,
    build_w,
    longitude_eigen,
    relator_word,
    roots_of_rm,
    sample_unit_modulus,
    verify_family,
    verify_point,
)
from .rmpoly import RMResult, binom_z, q_poly, rm_closed, rm_recursive

__version__ = "0.1.0"

__all__ = [
    "APolyResult",
    "BadPoint",
    "DegreeCollapseError",
    "LaurentPoly",
    "NewtonPolygon",
    "NonConvergenceError",
    "ONE",
    "RMResult",
    "RepeatedRootError",
    "SingularPointError",
    "UNIT_MONOMIAL",
    "VARIABLES",
    "VerificationReport",
    "ZERO",
    "apoly_substitution",
    "apoly_theorem",
    "binom_z",
    "build_longitude",
    "build_w",
    "c_sum",
    "longitude_eigen",
    "mono",
    "newton_polygon",
    "q_poly",
    "relator_word",
    "rm_closed",
    "rm_recursive",
    "roots_of_rm",
    "sample_unit_modulus",
    "substitution_x",
    "verify_family",
    "verify_point",
]
