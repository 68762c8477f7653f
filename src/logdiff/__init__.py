"""Exact symbolic toolkit for differential operators tangent to central
hyperplane arrangements: permanents and symmetric-power determinants,
iterated commutators, higher Jacobians, Saito's freeness criterion, and
the constructive decomposition of tangent operators over free arrangements.
"""

from .arrangement import (
    Arrangement,
    SaitoBasis,
    SaitoFailure,
    builtin_arrangement,
    euler_derivation,
    rank2_basis,
    saito_check,
)
from .exprparse import ParseError, parse_diffop, parse_poly, render
from .jacobian import OpFamily, higher_jacobian, jacobian_power_identity, product_family
from .linalg import (
    determinant,
    multiplicity_product,
    permanent,
    sym_indices,
    sym_power_det_identity_holds,
    sym_power_matrix,
)
from .polyring import (
    LinearForm,
    NotDivisibleError,
    Poly,
    coordinates,
    exact_divide,
)
from .tangent import (
    Decomposition,
    DecompositionError,
    Word,
    decompose,
    decomposition_to_json,
    is_tangent,
    is_tangent_q,
    reassemble,
    tangency_table,
    transport,
)
from .weyl import (
    Derivation,
    DiffOp,
    commutator,
    iterated_commutator,
    value_at_one_expansion,
)

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "Decomposition",
    "DecompositionError",
    "Derivation",
    "DiffOp",
    "LinearForm",
    "NotDivisibleError",
    "OpFamily",
    "ParseError",
    "Poly",
    "SaitoBasis",
    "SaitoFailure",
    "Word",
    "builtin_arrangement",
    "commutator",
    "coordinates",
    "decompose",
    "decomposition_to_json",
    "determinant",
    "euler_derivation",
    "exact_divide",
    "higher_jacobian",
    "is_tangent",
    "is_tangent_q",
    "iterated_commutator",
    "jacobian_power_identity",
    "multiplicity_product",
    "parse_diffop",
    "parse_poly",
    "permanent",
    "product_family",
    "rank2_basis",
    "reassemble",
    "render",
    "saito_check",
    "sym_indices",
    "sym_power_det_identity_holds",
    "sym_power_matrix",
    "tangency_table",
    "transport",
    "value_at_one_expansion",
]
