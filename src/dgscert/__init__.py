"""Exact-arithmetic certification of graphs determined by their generalized
spectrum, with the supporting integer and finite-field linear algebra."""

from .certify import (
    DgsVerdict,
    STATUS_CONDITION_FAILS,
    STATUS_DGS_BY_MAIN,
    STATUS_FACTORIZATION_INCOMPLETE,
    STATUS_NOT_CONTROLLABLE,
    certify_dgs,
)
from .cospec import (
    EnumerationResult,
    RationalOrthogonal,
    SpectrumKey,
    enumerate_generalized_cospectral_classes,
    level_parity_audit,
    recover_q,
    spectrum_key,
    verify_regular_orthogonal,
)
from .errors import InvariantViolation
from .fpalg import (
    ModPoly,
    char_poly_mod_p,
    format_poly,
    poly_gcd,
    sfp,
    sqrt_poly,
    squarefree_decomposition,
)
from .graphcore import (
    Graph,
    Graph6Error,
    Xorshift64Star,
    derive_seed,
    emit_adjacency,
    emit_graph6,
    parse_adjacency,
    parse_graph6,
    random_graph,
)
from .ntheory import FactorizationResult, factor_integer, is_prime
from .specinv import PhiReport, phi_report
from .zlinalg import (
    SnfResult,
    char_poly_int,
    determinant,
    rational_solve,
    smith_normal_form,
    walk_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "DgsVerdict",
    "EnumerationResult",
    "FactorizationResult",
    "Graph",
    "Graph6Error",
    "InvariantViolation",
    "ModPoly",
    "PhiReport",
    "RationalOrthogonal",
    "SnfResult",
    "SpectrumKey",
    "STATUS_CONDITION_FAILS",
    "STATUS_DGS_BY_MAIN",
    "STATUS_FACTORIZATION_INCOMPLETE",
    "STATUS_NOT_CONTROLLABLE",
    "certify_dgs",
    "char_poly_int",
    "char_poly_mod_p",
    "Xorshift64Star",
    "derive_seed",
    "determinant",
    "emit_adjacency",
    "emit_graph6",
    "enumerate_generalized_cospectral_classes",
    "factor_integer",
    "format_poly",
    "is_prime",
    "level_parity_audit",
    "parse_adjacency",
    "parse_graph6",
    "phi_report",
    "poly_gcd",
    "random_graph",
    "rational_solve",
    "recover_q",
    "sfp",
    "smith_normal_form",
    "spectrum_key",
    "sqrt_poly",
    "squarefree_decomposition",
    "verify_regular_orthogonal",
    "walk_matrix",
]
