"""Exact computation of initial degrees and asymptotic degree ratios for plane point schemes."""

from .bezout import (BezoutSystem, LowerBoundCertificate, build_system,
                     solve_min_ratio, verify_certificate)
from .classify import ClassificationResult, classify
from .engine import Engine, FormalDivisor, sweep, verify_upper
from .fatpoints import (AlphaResult, FatPointScheme, alpha, hilbert_function,
                        ideal_dimension, interpolation_matrix)
from .fixtures import FixtureSpec, fixture, fixture_names
from .geometry import (IncidenceProfile, PlaneCurve, ProjPoint, conic_through,
                       cubic_with_double_point, incidence_profile, is_irreducible_conic,
                       is_smooth_cubic, line_through, mult_at)
from .linalg import RatMatrix, nullspace, rank_exact, rank_modular

__all__ = [
    "AlphaResult", "BezoutSystem", "ClassificationResult",
    "Engine", "FatPointScheme", "FixtureSpec", "FormalDivisor",
    "IncidenceProfile", "LowerBoundCertificate", "PlaneCurve", "ProjPoint",
    "RatMatrix", "alpha", "build_system", "classify", "conic_through",
    "cubic_with_double_point", "fixture", "fixture_names", "hilbert_function",
    "ideal_dimension", "incidence_profile", "interpolation_matrix",
    "is_irreducible_conic", "is_smooth_cubic", "line_through", "mult_at",
    "nullspace", "rank_exact", "rank_modular",
    "solve_min_ratio", "sweep", "verify_certificate", "verify_upper",
]
