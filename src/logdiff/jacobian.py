"""Higher Jacobian determinants of operator families.

A family assigns one differential operator to every weakly increasing
index tuple of a fixed length; the higher Jacobian of a coordinate tuple
with respect to such a family is the determinant of the matrix of iterated
commutator values at 1.  For length 1 and derivations this is the usual
Jacobian determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .linalg import determinant, multiplicity_product, prefix_fold, sym_indices
from .polyring import Poly
from .weyl import DiffOp, commutator, word_fold


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
    """The family whose entry at (i1..ip) is the product ops[i1]...ops[ip]."""
    if not ops:
        raise ValueError("need at least one operator")
    nvars = ops[0].nvars
    if len(ops) != nvars:
        raise ValueError("need one operator per variable")
    return OpFamily(nvars, power, tuple(map(word_fold(ops), sym_indices(nvars, power))))


def commutator_value_matrix(fs: Sequence[Poly], fam: OpFamily) -> list[list[Poly]]:
    """Matrix entry (i, j) is [fam_i, fs_{j_1}, ..., fs_{j_p}] applied to 1.

    Within a row, the bracket with each prefix of the column tuples is
    formed once and shared by every column that extends it.
    """
    if len(fs) != fam.nvars:
        raise ValueError("need one polynomial per variable")
    idxs = fam.index_tuples
    folds = (prefix_fold(u, lambda w, j: commutator(w, fs[j - 1])) for u in fam.entries)
    return [[fold(k).value_at_one() for k in idxs] for fold in folds]


def higher_jacobian(fs: Sequence[Poly], fam: OpFamily) -> Poly:
    """Determinant of the commutator value matrix."""
    return determinant(commutator_value_matrix(fs, fam))


def jacobian_power_identity(fs: Sequence[Poly], ops: Sequence[DiffOp], power: int) -> bool:
    """Exact check that the Jacobian of the product family collapses.

    For operators of order at most one the higher Jacobian of the product
    family equals the multiplicity product times the ordinary Jacobian
    raised to C(power+dim-1, dim).
    """
    if any(op.order is not None and op.order > 1 for op in ops):
        raise ValueError("every operator must have order at most one")
    dim = len(ops)
    lhs = higher_jacobian(fs, product_family(ops, power))
    base = higher_jacobian(fs, product_family(ops, 1))
    rhs = base ** comb(power + dim - 1, dim) * multiplicity_product(dim, power)
    return lhs == rhs
