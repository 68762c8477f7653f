"""Central hyperplane arrangements and Saito's freeness criterion.

An arrangement is a list of pairwise non-proportional linear forms through
the origin; its defining polynomial Q, their product, is formed by the
arrangement's frame (``tangent._frame``) on first use.  A candidate basis
is certified free by the degree form of Saito's criterion (Orlik-Terao
1992, Thm. 4.23): tangent, homogeneous, a nonzero coefficient determinant,
and degrees summing to the number of forms; no division by Q is needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import prod
from typing import Sequence

from .exprparse import MAX_DIGITS, _quote, parse_diffop
from .linalg import determinant
from .polyring import LinearForm, Poly, Scalar, simplify_scalar
from .tangent import _frame, is_tangent
from .weyl import Derivation


class Arrangement:
    """A central arrangement: its ambient dimension and its forms."""

    __slots__ = ("dim", "forms", "__weakref__")

    def __init__(self, forms: Sequence[LinearForm]):
        forms = tuple(forms)
        if not forms:
            raise ValueError("arrangement needs at least one form")
        dim = forms[0].nvars
        if any(f.nvars != dim for f in forms):
            raise ValueError("forms over mixed ambient dimensions")
        # Proportional forms share their monic form, the form over its first
        # nonzero coefficient; the least repeat is the first proportional pair.
        first: dict[Poly, int] = {}
        pairs = [(first.setdefault(f * Fraction(1, next(c for c in f.coeffs if c)), j), j)
                 for j, f in enumerate(forms, start=1)]
        if repeats := [(i, j) for i, j in pairs if i < j]:
            i, j = min(repeats)
            raise ValueError(f"forms {i} and {j} are proportional; "
                             "the defining polynomial would not be reduced")
        self.dim = dim
        self.forms = forms

    @property
    def q(self) -> Poly:
        """The defining polynomial, formed once, by the arrangement's frame."""
        return _frame(self).q

    @property
    def size(self) -> int:
        """Number of hyperplanes (the degree of the defining polynomial)."""
        return len(self.forms)

    def __repr__(self) -> str:
        return f"Arrangement({[str(f) for f in self.forms]})"


def euler_derivation(dim: int) -> Derivation:
    """sum_i x_i d_i; tangent to every central arrangement."""
    return Derivation(tuple(Poly.variable(dim, i) for i in range(1, dim + 1)))


@dataclass(frozen=True)
class SaitoBasis:
    """A certified basis: tangent, homogeneous, det != 0, degrees sum to |A|."""

    thetas: tuple[Derivation, ...]
    scalar: Scalar
    degrees: tuple[int, ...]
    ok = True


@dataclass(frozen=True)
class SaitoFailure:
    """Why a candidate basis was rejected, with the offending data."""

    reason: str
    index: int | None = None
    determinant: Poly | None = None
    ok = False


def saito_check(arr: Arrangement, thetas: Sequence[Derivation]) -> SaitoBasis | SaitoFailure:
    """Certify a candidate basis of tangent derivations, or report why not.

    Checks, in order: every candidate is tangent, which for an order-one
    operator is the single ``is_tangent`` cell t = 1, a | theta(a) for
    every form a; every candidate is homogeneous; the coefficient matrix
    (theta_i applied to x_j) has a nonzero determinant, and the degrees
    sum to ``arr.size``.  Each form divides the determinant by tangency,
    so it is lambda * Q, and lambda is its graded-lex leading coefficient
    over the product of the forms' first nonzero coefficients.
    """
    thetas = tuple(thetas)
    if len(thetas) != arr.dim:
        raise ValueError(f"need exactly {arr.dim} derivations, got {len(thetas)}")
    if any(th.nvars != arr.dim for th in thetas):
        raise ValueError("derivation over a different ambient dimension")
    for i, th in enumerate(thetas, start=1):
        if not is_tangent(th, arr):
            return SaitoFailure("derivation is not tangent to the arrangement", index=i)
    degrees = []
    for i, th in enumerate(thetas, start=1):
        d = th.homogeneous_degree()
        if d is None:
            return SaitoFailure("derivation is zero or not homogeneous", index=i)
        degrees.append(d)
    det = determinant([list(th.coeffs) for th in thetas])
    if not det or sum(degrees) != arr.size:
        return SaitoFailure(
            "coefficient determinant is not a nonzero scalar multiple of the defining polynomial",
            determinant=det,
        )
    lead = prod(next(c for c in f.coeffs if c) for f in arr.forms)
    return SaitoBasis(thetas, simplify_scalar(Fraction(det.sorted_terms()[0][1], lead)), tuple(degrees))


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


# The named fixtures, as specs in the arrangement-file format.
_BUILTINS = {
    "boolean1": {"dim": 1, "forms": [[1]], "basis": ["x1*d1"]},
    "boolean2": {"dim": 2, "forms": [[1, 0], [0, 1]], "basis": ["x1*d1", "x2*d2"]},
    "boolean3": {"dim": 3, "forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 "basis": ["x1*d1", "x2*d2", "x3*d3"]},
    "triple2": {"dim": 2, "forms": [[1, 0], [0, 1], [1, 1]],
                "basis": ["x1*d1 + x2*d2", "x1^2*d1 - x2^2*d2"]},
    "generic3": {"dim": 3, "forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]},
    # The reflection arrangement of type D_4, x_i +- x_j for i < j, with a
    # basis that is not diagonal (Orlik-Terao 1992, ch. 6).
    "D4": {"dim": 4,
           "forms": [[1 if k == i else s if k == j else 0 for k in range(4)]
                     for i in range(4) for j in range(i + 1, 4) for s in (1, -1)],
           "basis": ["x1*d1 + x2*d2 + x3*d3 + x4*d4",
                     "x1^3*d1 + x2^3*d2 + x3^3*d3 + x4^3*d4",
                     "x1^5*d1 + x2^5*d2 + x3^5*d3 + x4^5*d4",
                     "x2*x3*x4*d1 + x1*x3*x4*d2 + x1*x2*x4*d3 + x1*x2*x3*d4"]},
}


@cache
def builtin_arrangement(name: str) -> tuple[Arrangement, tuple[Derivation, ...] | None]:
    """Named fixtures: Boolean arrangements, the three-line plane, the
    non-free generic four-plane arrangement in three variables, and the
    reflection arrangement D_4.

    Returns the arrangement and, when it is one of the known free fixtures,
    a basis that passes ``saito_check``.  Each is built once per process.
    """
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin arrangement {_quote(name)}; choose from {tuple(_BUILTINS)}")
    return _load_spec(_BUILTINS[name])


def _load_spec(spec) -> tuple[Arrangement, tuple[Derivation, ...] | None]:
    """``(arrangement, basis or None)`` from a spec ``{"dim", "forms", "basis"?}``.

    Builtins and arrangement files are both specs; ``ValueError`` says what
    breaks the format.
    """
    if not isinstance(spec, dict) or "dim" not in spec or "forms" not in spec:
        raise ValueError("expected an object with 'dim' and 'forms'")
    dim, rows = spec["dim"], spec["forms"]
    if type(dim) is not int or dim < 1:
        raise ValueError(f"'dim' must be a positive integer, got {_quote(dim)}")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("'forms' must be a list of coefficient lists")
    try:
        arr = Arrangement([LinearForm(tuple(map(_coefficient, row))) for row in rows])
    except ZeroDivisionError as exc:
        raise ValueError(str(exc)) from None
    if arr.dim != dim:
        raise ValueError(f"forms have {arr.dim} coefficients but dim is {_quote(dim)}")
    return arr, (_load_basis(spec["basis"], dim) if "basis" in spec else None)


_COEFFICIENT = re.compile(rf"[-+]?\d{{1,{MAX_DIGITS}}}(?:/\d{{1,{MAX_DIGITS}}})?")


def _coefficient(c) -> Fraction:
    """A form coefficient of a spec: a JSON number, or a string INT ('/' INT)?
    with an optional sign as in operator text, so that no spelling such as
    "1e100000000" builds a huge rational; ``ValueError`` otherwise."""
    if not (type(c) in (int, float) or isinstance(c, str) and _COEFFICIENT.fullmatch(c)):
        raise ValueError(f"coefficient {_quote(c)} is not an integer or a fraction a/b")
    return Fraction(str(c))


def _load_basis(texts, dim: int) -> tuple[Derivation, ...]:
    """Derivations from a list of operator strings; ``ValueError`` if not."""
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValueError("'basis' must be a list of operator strings")
    thetas = []
    for i, text in enumerate(texts, start=1):
        try:
            thetas.append(Derivation.from_diffop(parse_diffop(text, dim)))
        except ValueError as exc:
            raise ValueError(f"basis entry {i} ({_quote(text)}): {exc}") from None
    return tuple(thetas)
