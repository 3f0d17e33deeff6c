"""Exact-arithmetic toolkit for Cartier-Manin matrices, p-ranks of
hyperelliptic curves and double covers of elliptic curves, superspecial
sweeps, and the associated moduli-stratum dimension formulas."""

from .cartier import (
    CartierData,
    HyperellipticModel,
    cartier_matrix,
    is_superspecial,
    p_rank,
    power_coeffs,
    prank_oracle,
)
from .covers import (
    QuotientTriple,
    char3_genus3_witness,
    family_xn_tn,
    genus2_supersingular_pair,
    kani_rosen_triple,
    prop44_case2_points,
    prop45_models,
)
from .curves import quartic_hasse_char3, supersingular_lambdas
from .ff import FieldCtx, FieldElement, field
from .poly import DensePoly, is_squarefree, poly_gcd, poly_pow_naive
from .search import (
    SearchResult,
    SweepConfig,
    ss5_check_pair,
    ss5_sweep,
    superspecial_g2_enumeration,
)
from .strata import (
    BoundaryComponent,
    StratumQuery,
    boundary_components,
    smooth_cover_exists,
    stratum_dim,
)

__version__ = "0.1.0"

__all__ = [
    "FieldCtx",
    "FieldElement",
    "field",
    "DensePoly",
    "poly_pow_naive",
    "poly_gcd",
    "is_squarefree",
    "HyperellipticModel",
    "CartierData",
    "power_coeffs",
    "cartier_matrix",
    "p_rank",
    "is_superspecial",
    "prank_oracle",
    "supersingular_lambdas",
    "quartic_hasse_char3",
    "QuotientTriple",
    "kani_rosen_triple",
    "family_xn_tn",
    "prop44_case2_points",
    "prop45_models",
    "char3_genus3_witness",
    "genus2_supersingular_pair",
    "SweepConfig",
    "SearchResult",
    "ss5_check_pair",
    "ss5_sweep",
    "superspecial_g2_enumeration",
    "StratumQuery",
    "BoundaryComponent",
    "stratum_dim",
    "boundary_components",
    "smooth_cover_exists",
    "__version__",
]
