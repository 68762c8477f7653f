"""Higher Jacobian determinants of operator families.

A family assigns one differential operator to every weakly increasing
index tuple of a fixed length; the higher Jacobian of a coordinate tuple
with respect to such a family is the determinant of the matrix of iterated
commutator values at 1.  For length 1 and derivations this is the usual
Jacobian determinant.

Against linear forms no bracket is formed.  For l = c + sum_k alpha_k x_k,
[a d^beta, l] = sum_k alpha_k beta_k a d^(beta - e_k) is the derivative of
the symbol along alpha, so [u, l_1, ..., l_p](1) pairs u's order-p
symbol with the product of the forms: it is the sum over |beta| = p of
a_beta * beta! * [y^beta] prod_a (alpha_a . y).  Terms of other orders
and the constant parts c drop out.

The same symbol argument checks the jacobian-power lemma with no word
product, against any polynomials f.  A bracket [u, f] with u of order at
most p has order-(p-1) symbol sum_k (d f / d x_k) * d sigma / d y_k, where
sigma is u's order-p symbol, and lower orders never reach order 0 in p
brackets, so [u, f_1, ..., f_p](1) reads only sigma.  For u the product
of operators theta_a of order at most one, sigma is the product of their
order-one symbols, and the value is the permanent of the p x p matrix
[theta_a, f_b](1).  So the product family's commutator value matrix is
the symmetric power of J, J_ik = [theta_i, f_k](1), entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod
from typing import Sequence

from .linalg import (
    _form_product_fold, determinant, PrefixFold, sym_indices, sym_power_det_identity_holds,
)
from .polyring import Poly
from .weyl import DiffOp, _size, commutator, word_fold


@dataclass(frozen=True)
class OpFamily:
    """One operator per weakly increasing index tuple, in sym_indices order."""

    nvars: int
    power: int
    entries: tuple[DiffOp, ...]

    def __post_init__(self):
        idxs = sym_indices(self.nvars, self.power)
        if len(self.entries) != len(idxs):
            raise ValueError(
                f"family needs {len(idxs)} entries for dimension {self.nvars} "
                f"and power {self.power}, got {len(self.entries)}"
            )
        if any(u.nvars != self.nvars for u in self.entries):
            raise ValueError("entry over a different ambient dimension")

    @property
    def index_tuples(self) -> list[tuple[int, ...]]:
        return sym_indices(self.nvars, self.power)


def product_family(ops: Sequence[DiffOp], power: int) -> OpFamily:
    """The family whose entry at (i1..ip) is the product ops[i1]...ops[ip].

    Every entry is a whole Leibniz word product.  ``jacobian_power_identity``
    forms only the power-one family; the higher families serve the public
    API, the acceptance test and the test oracle that checks the lemma
    through them.
    """
    if not ops:
        raise ValueError("need at least one operator")
    nvars = ops[0].nvars
    if len(ops) != nvars:
        raise ValueError("need one operator per variable")
    return OpFamily(nvars, power, tuple(map(word_fold(ops), sym_indices(nvars, power))))


def commutator_value_matrix(fs: Sequence[Poly], fam: OpFamily) -> list[list[Poly]]:
    """Matrix entry (i, j) is [fam_i, fs_{j_1}, ..., fs_{j_p}] applied to 1.

    When every f has degree at most 1, entry (i, j) is the pairing of
    fam_i's order-p symbol with the product of the forms' linear parts
    along j (see the module docstring), read off the product fold that
    ``tangent.decompose`` reads its numerators from
    (``linalg._form_product_fold``); for coordinates column j is the single
    monomial y^mult(j).  Otherwise, within a row, the bracket with each
    prefix of the column tuples is formed once and shared by every column
    that extends it.
    """
    if len(fs) != fam.nvars:
        raise ValueError("need one polynomial per variable")
    idxs = fam.index_tuples
    alphas = [f.linear_coefficients() for f in fs]
    if None not in alphas:
        fold = _form_product_fold(alphas)
        # Column k as (beta, beta! * [y^beta] fold(k)) pairs, all with
        # |beta| = p, so a row reads only its entry's order-p terms.
        cols = [[(beta, c * prod(map(factorial, beta))) for beta, c in fold(k).items() if c]
                for k in idxs]
        zero = Poly.zero(fam.nvars)
        rows = []
        for u in fam.entries:
            symbol = u.as_dict()
            row = []
            for col in cols:
                terms = [symbol[beta] * c for beta, c in col if beta in symbol]
                row.append(sum(terms[1:], terms[0]) if terms else zero)
            rows.append(row)
        return rows
    folds = (PrefixFold(u, lambda w, j: commutator(w, fs[j - 1]), _size) for u in fam.entries)
    return [[fold(k).value_at_one() for k in idxs] for fold in folds]


def higher_jacobian(fs: Sequence[Poly], fam: OpFamily) -> Poly:
    """Determinant of the commutator value matrix."""
    return determinant(commutator_value_matrix(fs, fam))


def jacobian_power_identity(fs: Sequence[Poly], ops: Sequence[DiffOp], power: int) -> bool:
    """Exact check that the Jacobian of the product family collapses.

    For operators of order at most one the higher Jacobian of the product
    family equals the multiplicity product times the ordinary Jacobian
    raised to C(power+dim-1, dim).  No word product is formed: every entry
    of the product family has order at most ``power``, so for any
    polynomials f its commutator value matrix is sym_power_matrix(J, power)
    with J_ik = [ops_i, fs_k](1) (see the module docstring).
    """
    if any(op.order is not None and op.order > 1 for op in ops):
        raise ValueError("every operator must have order at most one")
    return sym_power_det_identity_holds(commutator_value_matrix(fs, product_family(ops, 1)), power)
