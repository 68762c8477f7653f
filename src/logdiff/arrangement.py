"""Central hyperplane arrangements and Saito's freeness criterion.

An arrangement is a list of pairwise non-proportional linear forms through
the origin; its defining polynomial is their product.  A candidate basis of
tangent derivations is certified free when it passes the three Saito
conditions: tangency, homogeneity, and coefficient determinant equal to a
nonzero scalar multiple of the defining polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .linalg import determinant
from .polyring import (
    LinearForm,
    NotDivisibleError,
    Poly,
    Scalar,
    divides,
    exact_divide,
)
from .weyl import Derivation


class Arrangement:
    """A central arrangement: forms and defining polynomial."""

    __slots__ = ("dim", "forms", "q")

    def __init__(self, forms: Sequence[LinearForm]):
        forms = tuple(forms)
        if not forms:
            raise ValueError("arrangement needs at least one form")
        dim = forms[0].nvars
        if any(f.nvars != dim for f in forms):
            raise ValueError("forms over mixed ambient dimensions")
        for i in range(len(forms)):
            for j in range(i + 1, len(forms)):
                if forms[i].proportional_to(forms[j]):
                    raise ValueError(
                        f"forms {i + 1} and {j + 1} are proportional; "
                        "the defining polynomial would not be reduced"
                    )
        q = Poly.one(dim)
        for f in forms:
            q = q * f.as_poly()
        self.dim = dim
        self.forms = forms
        self.q = q

    @property
    def size(self) -> int:
        """Number of hyperplanes (the degree of the defining polynomial)."""
        return len(self.forms)

    def __repr__(self) -> str:
        return f"Arrangement({[str(f.as_poly()) for f in self.forms]})"


def is_tangent_derivation(delta: Derivation, arr: Arrangement) -> bool:
    """True iff the derivation maps each form into the ideal it generates."""
    if delta.nvars != arr.dim:
        raise ValueError("derivation over a different ambient dimension")
    for form in arr.forms:
        fp = form.as_poly()
        if not divides(fp, delta.apply(fp)):
            return False
    return True


def is_tangent_derivation_via_q(delta: Derivation, arr: Arrangement) -> bool:
    """Equivalent test through the defining polynomial itself."""
    if delta.nvars != arr.dim:
        raise ValueError("derivation over a different ambient dimension")
    return divides(arr.q, delta.apply(arr.q))


def euler_derivation(dim: int) -> Derivation:
    """sum_i x_i d_i; tangent to every central arrangement."""
    return Derivation(tuple(Poly.variable(dim, i) for i in range(1, dim + 1)))


@dataclass(frozen=True)
class SaitoBasis:
    """A certified basis: tangent, homogeneous, determinant = scalar * Q."""

    thetas: tuple[Derivation, ...]
    scalar: Scalar
    degrees: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class SaitoFailure:
    """Why a candidate basis was rejected, with the offending data."""

    reason: str
    index: int | None = None
    determinant: Poly | None = None

    @property
    def ok(self) -> bool:
        return False


def saito_check(arr: Arrangement, thetas: Sequence[Derivation]) -> SaitoBasis | SaitoFailure:
    """Certify a candidate basis of tangent derivations, or report why not.

    Checks, in order: every candidate is tangent; every candidate is
    homogeneous; the coefficient matrix (theta_i applied to x_j) has
    determinant equal to a nonzero scalar times the defining polynomial.
    """
    thetas = tuple(thetas)
    if len(thetas) != arr.dim:
        raise ValueError(f"need exactly {arr.dim} derivations, got {len(thetas)}")
    if any(th.nvars != arr.dim for th in thetas):
        raise ValueError("derivation over a different ambient dimension")
    for i, th in enumerate(thetas, start=1):
        if not is_tangent_derivation(th, arr):
            return SaitoFailure("derivation is not tangent to the arrangement", index=i)
    degrees = []
    for i, th in enumerate(thetas, start=1):
        d = th.homogeneous_degree()
        if d is None:
            return SaitoFailure("derivation is zero or not homogeneous", index=i)
        degrees.append(d)
    det = determinant([list(th.coeffs) for th in thetas])
    try:
        quot = exact_divide(det, arr.q)
    except NotDivisibleError:
        return SaitoFailure(
            "coefficient determinant is not a multiple of the defining polynomial",
            determinant=det,
        )
    if not quot or quot.degree != 0:
        return SaitoFailure(
            "coefficient determinant is not a nonzero scalar multiple of the defining polynomial",
            determinant=det,
        )
    return SaitoBasis(thetas, quot.constant_term(), tuple(degrees))


def rank2_basis(arr: Arrangement) -> tuple[Derivation, Derivation]:
    """The classical free basis for any central arrangement in two variables.

    Pairs the Euler derivation with the Hamiltonian field of the defining
    polynomial Q, namely (dQ/dx2) d_1 - (dQ/dx1) d_2, which annihilates Q;
    the Saito determinant comes out as -size * Q by the Euler identity.
    """
    if arr.dim != 2:
        raise ValueError("the construction applies to two variables only")
    return (
        euler_derivation(2),
        Derivation((arr.q.diff(2), -arr.q.diff(1))),
    )


_BUILTIN_NAMES = ("boolean1", "boolean2", "boolean3", "triple2", "generic3")


def builtin_arrangement(name: str) -> tuple[Arrangement, tuple[Derivation, ...] | None]:
    """Named fixtures: Boolean arrangements, the three-line plane, and the
    non-free generic four-plane arrangement in three variables.

    Returns the arrangement and, when it is one of the known free fixtures,
    a basis that passes ``saito_check``.
    """
    if name in ("boolean1", "boolean2", "boolean3"):
        dim = int(name[-1])
        forms = [LinearForm(tuple(1 if j == i else 0 for j in range(dim))) for i in range(dim)]
        thetas = tuple(
            Derivation(tuple(
                Poly.variable(dim, i + 1) if j == i else Poly.zero(dim)
                for j in range(dim)
            ))
            for i in range(dim)
        )
        return Arrangement(forms), thetas
    if name == "triple2":
        forms = [LinearForm((1, 0)), LinearForm((0, 1)), LinearForm((1, 1))]
        x2 = Poly.variable(2, 1) ** 2
        y2 = Poly.variable(2, 2) ** 2
        thetas = (euler_derivation(2), Derivation((x2, -y2)))
        return Arrangement(forms), thetas
    if name == "generic3":
        forms = [
            LinearForm((1, 0, 0)),
            LinearForm((0, 1, 0)),
            LinearForm((0, 0, 1)),
            LinearForm((1, 1, 1)),
        ]
        return Arrangement(forms), None
    raise ValueError(f"unknown builtin arrangement {name!r}; choose from {_BUILTIN_NAMES}")
