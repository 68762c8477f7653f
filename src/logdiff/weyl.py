"""Differential operators with polynomial coefficients, in normal form.

An operator is stored as a finite map from monomials d^b, packed as the
monomials x^b of a ``Poly`` are (see ``polyring``), to nonzero polynomial
coefficients, with coefficients on the left: ``sum_b f_b d^b``.  Products
are normal-ordered through the generalized Leibniz rule, so the
commutation relation ``d_i * f = f * d_i + df/dx_i`` holds identically.
A polynomial on the left passes no partial, so that product only
multiplies the right's coefficients by it and skips the rule.  Every
product of coefficients is ``Poly.__mul__``, which picks its own kernel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product as cartesian
from math import comb, prod
from operator import attrgetter, mul
from typing import Mapping, Sequence

from .linalg import PrefixFold
from .polyring import (MAX_DEGREE, DegreeLimitError, Monomial, Poly, Scalar, _canon, _FIELD,
                       _shifts, _Terms, _unit, _unpack, _WIDTH)


class DiffOp(_Terms):
    """Normally ordered differential operator over the polynomial ring,
    built as ``DiffOp(nvars, {exponent tuple: Poly})``."""

    __slots__ = ()

    @staticmethod
    def _coefficient(c: Poly, nvars: int) -> Poly:
        if not isinstance(c, Poly):
            raise TypeError(f"coefficient must be a Poly, not {type(c).__name__}")
        if c.nvars != nvars:
            raise ValueError("coefficient over a different ambient dimension")
        return c

    @staticmethod
    def _make(nvars: int, terms: dict[int, Poly]) -> DiffOp:
        """Wrap an already canonical map without validating it.

        Internal results only: every key is a packed ``nvars``-variable
        monomial and every value a nonzero Poly in ``nvars`` variables.
        The map is owned by the new operator.
        """
        out = object.__new__(DiffOp)
        out.nvars = nvars
        out.terms = terms
        return out

    # -- constructors -----------------------------------------------------
    # Static, so that they build a plain DiffOp on a subclass too.

    @staticmethod
    def zero(nvars: int) -> DiffOp:
        return DiffOp(nvars)

    @staticmethod
    def one(nvars: int) -> DiffOp:
        return DiffOp.from_poly(Poly.one(nvars))

    @staticmethod
    def from_poly(f: Poly) -> DiffOp:
        return DiffOp._make(f.nvars, {DiffOp._one: f} if f else {})

    @staticmethod
    def partial(nvars: int, index: int) -> DiffOp:
        """The operator d<index> (1-based index)."""
        if not 1 <= index <= nvars:
            raise ValueError(f"partial index {index} out of range 1..{nvars}")
        return DiffOp._make(nvars, {_unit(nvars, index - 1): Poly.one(nvars)})

    # -- queries ------------------------------------------------------------

    order = property(_Terms._top, doc="Maximal derivative order, or None for the zero operator.")

    def value_at_one(self) -> Poly:
        """The operator applied to 1, i.e. the pure polynomial part."""
        return self.terms.get(self._one) or Poly.zero(self.nvars)

    def apply(self, f: Poly) -> Poly:
        """Evaluate the operator on a polynomial."""
        if f.nvars != self.nvars:
            raise ValueError("polynomial over a different ambient dimension")
        return sum((coeff * f.diff_multi(beta) for beta, coeff in self.as_dict().items()),
                   Poly.zero(self.nvars))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> DiffOp | None:
        if isinstance(other, DiffOp):
            self._check_same_ring(other)
            return other
        if isinstance(other, Poly):
            self._check_same_ring(other)
            return DiffOp.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return DiffOp.from_poly(Poly.constant(self.nvars, other))
        return None

    def __mul__(self, other) -> DiffOp:
        """Normal-ordered product by the Leibniz rule (``_leibniz_into``).

        A polynomial f on the left passes no partial, so f * sum g_gamma
        d^gamma = sum (f g_gamma) d^gamma with no Leibniz term to expand;
        each f g_gamma is a product of nonzero polynomials, hence nonzero.
        Otherwise the principal symbols multiply, so the orders add, and as
        in ``Poly.__mul__`` the sum of the two top keys decides whether the
        product passes ``MAX_DEGREE``.
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = self.nvars
        left = self.terms
        if len(left) == 1 and self._one in left:
            f = left[self._one]
            return DiffOp._make(n, {gamma: f * g for gamma, g in other.terms.items()})
        if left and other.terms and max(left) + max(other.terms) >> _WIDTH * n > MAX_DEGREE:
            raise DegreeLimitError()
        out: dict[int, Poly] = {}
        _leibniz_into(out, n, left, other.terms.items(), 0)
        return DiffOp._make(n, _canon(out))

    def __rmul__(self, other) -> DiffOp:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self


_terms = attrgetter("terms")


def _size(value: DiffOp) -> int:
    """Number of terms, counted over all coefficients."""
    return sum(map(len, map(_terms, value.terms.values())))


def word_fold(ops: Sequence[DiffOp]):
    """fold(word) is the product ops[i1] * ... * ops[ik] along the 1-based
    word (i1, ..., ik), and 1 for the empty word.

    Every word product in the package goes through here.  Words that share
    a prefix share its product (``linalg.PrefixFold``), for as long as the
    fold is kept; ``fold.terms`` counts the terms of the products kept.
    """
    return PrefixFold(DiffOp.one(ops[0].nvars), lambda w, i: w * ops[i - 1], _size)


def _leibniz_into(out: dict[int, Poly], n: int, left: dict[int, Poly], right,
                  skip: int) -> None:
    """Add (sum over ``left`` of f d^beta) * (sum over ``right`` of g d^gamma) into ``out``.

    d^beta g = sum over delta <= beta of C(beta, delta) (d^delta g)
    d^(beta-delta), with delta capped by the degrees of g; each derivative
    of g, with the key of d^delta, serves every left term that reaches it.
    ``skip`` = 1 drops the delta = 0 terms f g d^beta, which come first in
    the delta order.
    """
    units = [_unit(n, j) for j in range(n)]
    left = list(zip(left, _unpack(left, n), left.values()))
    for gamma, g in right:
        degrees = g.degrees()
        derivs: dict[Monomial, tuple[Poly, int]] = {}
        for beta, exponents, f in left:
            caps = map(min, exponents, degrees)
            deltas = cartesian(*(range(c + 1) for c in caps))
            for delta in islice(deltas, skip, None):
                got = derivs.get(delta)
                if got is None:
                    got = derivs[delta] = (g.diff_multi(delta), sum(map(mul, delta, units)))
                dg, step = got
                if not dg:
                    continue
                mult = prod(map(comb, exponents, delta))
                key = beta - step + gamma
                term = f * dg
                if mult != 1:
                    term = term * mult
                acc = out.get(key)
                out[key] = term if acc is None else acc + term


class Derivation(DiffOp):
    """A first-order operator with no constant part: sum_i coeffs[i] * d_i.

    A derivation is the DiffOp it stands for, so it goes wherever an
    operator does; sums, products and brackets of derivations are plain
    DiffOps.  ``coeffs`` keeps every coefficient, zeros included, as the
    rows of the Saito matrix.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Poly]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("derivation needs at least one coefficient")
        n = coeffs[0].nvars
        if len(coeffs) != n or any(c.nvars != n for c in coeffs):
            raise ValueError("derivation needs one coefficient per variable")
        self.nvars = n
        self.terms = {_unit(n, i): c for i, c in enumerate(coeffs) if c}
        self.coeffs = coeffs

    @classmethod
    def from_diffop(cls, u: DiffOp) -> Derivation:
        coeffs = [Poly.zero(u.nvars) for _ in range(u.nvars)]
        for beta, c in u.as_dict().items():
            if sum(beta) != 1:
                raise ValueError("operator is not a derivation")
            coeffs[beta.index(1)] = c
        return cls(coeffs)

    def homogeneous_degree(self) -> int | None:
        """Common degree of the nonzero coefficients, or None.

        None means the derivation is zero or its coefficients fail to be
        homogeneous of one common degree.
        """
        degs = set()
        for c in self.coeffs:
            if c:
                if not c.is_homogeneous():
                    return None
                degs.add(c.degree)
        if len(degs) != 1:
            return None
        return degs.pop()


def _bracket_linear(terms: Mapping[int, Poly], alpha: Sequence[Scalar]) -> dict[int, Poly]:
    """The terms of [u, sum_j alpha_j x_j] for an operator u with these terms.

    [c d^beta, sum_j alpha_j x_j] = sum_j beta_j alpha_j c d^(beta - e_j):
    the only Leibniz terms left take one derivative of the linear form.
    """
    n = len(alpha)
    shifts = _shifts(n)
    out: dict[int, Poly] = {}
    for beta, c in terms.items():
        for j, a in enumerate(alpha):
            if a and (b := beta >> shifts[j] & _FIELD):
                gamma = beta - _unit(n, j)
                term = c * (a * b)
                acc = out.get(gamma)
                out[gamma] = term if acc is None else acc + term
    return _canon(out)


def commutator(u: DiffOp, v) -> DiffOp:
    """[u, v] = uv - vu, with polynomials and scalars coerced.

    For a polynomial or scalar f the delta = 0 Leibniz terms of u*f are
    exactly f*u, so only the rest is formed: [u, f] is the sum, over the
    terms a_beta d^beta of u and 0 < delta <= beta, of
    C(beta, delta) a_beta (d^delta f) d^(beta-delta).  When f has degree
    at most 1 that is ``_bracket_linear`` (a constant part commutes).
    """
    w = u._coerce(v)
    if w is None:
        raise TypeError(f"cannot commute a DiffOp with {type(v).__name__}")
    if isinstance(v, DiffOp):
        return u * w - w * u
    n = u.nvars
    f = w.value_at_one()
    # No verify request reaches this path: ``jacobian.commutator_value_matrix``
    # reads its entries against linear forms off symbols.  It serves the
    # tests' Jacobian oracle (``decompose_by_jacobians``'s ``u_row``),
    # ``tangent.is_tangent_q`` when Q is one form, and public callers.
    alpha = f.linear_coefficients()
    if alpha is not None:
        return DiffOp._make(n, _bracket_linear(u.terms, alpha))
    out: dict[int, Poly] = {}
    _leibniz_into(out, n, u.terms, ((u._one, f),), 1)
    return DiffOp._make(n, _canon(out))


def iterated_commutator(u: DiffOp, fs: Sequence[Poly]) -> DiffOp:
    """Bracket u with each polynomial in turn; the empty list returns u."""
    out = u
    for f in fs:
        out = commutator(out, f)
    return out


def value_at_one_expansion(u: DiffOp, fs: Sequence[Poly]) -> Poly:
    """Inclusion-exclusion form of iterated_commutator(u, fs).value_at_one().

    Computed as sum over subsets J of (-1)^|J| * prod(fs[J]) * u(prod(fs
    outside J)), entirely through polynomial application; kept independent
    of the bracket recursion so the two routes can cross-check each other.
    """
    n = u.nvars
    p = len(fs)
    out = Poly.zero(n)
    for mask in range(1 << p):
        inside = Poly.one(n)
        outside = Poly.one(n)
        bits = 0
        for j in range(p):
            if mask >> j & 1:
                inside = inside * fs[j]
                bits += 1
            else:
                outside = outside * fs[j]
        term = inside * u.apply(outside)
        out = out - term if bits % 2 else out + term
    return out
