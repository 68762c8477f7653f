"""Differential operators with polynomial coefficients, in normal form.

An operator is stored as a finite map from partial-derivative exponent
tuples to nonzero polynomial coefficients, with coefficients on the left:
``sum_b f_b d^b``.  Products are normal-ordered through the generalized
Leibniz rule, so the commutation relation ``d_i * f = f * d_i + df/dx_i``
holds identically.  Two products have no Leibniz term to expand and skip
the rule: a polynomial on the left only multiplies the right's
coefficients, since no partial has to pass a coefficient, and does so
through the packed kernel ``polyring.mul_each``; and constant
coefficients on the right only shift the left's partials, since a
constant has no derivative.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product as cartesian
from math import comb, prod
from operator import add
from typing import Mapping, Sequence

from .linalg import prefix_fold
from .polyring import Monomial, Poly, Scalar, _canon, _Terms, mul_each


class DiffOp(_Terms):
    """Normally ordered differential operator over the polynomial ring."""

    __slots__ = ()

    def __init__(self, nvars: int, terms: Mapping[Monomial, Poly] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: dict[Monomial, Poly] = {}
        if terms:
            for beta, coeff in terms.items():
                beta = tuple(beta)
                if len(beta) != nvars or any(e < 0 for e in beta):
                    raise ValueError(f"bad derivative exponent tuple {beta}")
                if coeff.nvars != nvars:
                    raise ValueError("coefficient over a different ambient dimension")
                if coeff:
                    clean[beta] = coeff
        self.nvars = nvars
        self.terms = clean

    @staticmethod
    def _make(nvars: int, terms: dict[Monomial, Poly]) -> DiffOp:
        """Wrap an already canonical map without validating it.

        Internal results only: every key is a length-``nvars`` tuple of
        non-negative ints and every value a nonzero Poly in ``nvars``
        variables.  The map is owned by the new operator.
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
        return DiffOp._make(f.nvars, {(0,) * f.nvars: f} if f else {})

    @staticmethod
    def partial(nvars: int, index: int) -> DiffOp:
        """The operator d<index> (1-based index)."""
        if not 1 <= index <= nvars:
            raise ValueError(f"partial index {index} out of range 1..{nvars}")
        beta = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return DiffOp(nvars, {beta: Poly.one(nvars)})

    # -- queries ------------------------------------------------------------

    @property
    def order(self) -> int | None:
        """Maximal derivative order present, or None for the zero operator."""
        if not self.terms:
            return None
        return max(sum(b) for b in self.terms)

    def value_at_one(self) -> Poly:
        """The operator applied to 1, i.e. the pure polynomial part."""
        return self.terms.get((0,) * self.nvars, Poly.zero(self.nvars))

    def apply(self, f: Poly) -> Poly:
        """Evaluate the operator on a polynomial."""
        if f.nvars != self.nvars:
            raise ValueError("polynomial over a different ambient dimension")
        out = Poly.zero(self.nvars)
        for beta, coeff in self.terms.items():
            df = f.diff_multi(beta)
            if df:
                out = out + coeff * df
        return out

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> DiffOp | None:
        if isinstance(other, DiffOp):
            if self.nvars != other.nvars:
                raise ValueError("mixed ambient dimensions")
            return other
        if isinstance(other, Poly):
            if self.nvars != other.nvars:
                raise ValueError("mixed ambient dimensions")
            return DiffOp.from_poly(other)
        if isinstance(other, (int, Fraction)):
            return DiffOp.from_poly(Poly.constant(self.nvars, other))
        return None

    def __mul__(self, other) -> DiffOp:
        """Normal-ordered product; two exact shortcuts come before Leibniz.

        (a) A polynomial f on the left passes no partial, so f * sum
        g_gamma d^gamma = sum (f g_gamma) d^gamma, formed by
        ``polyring.mul_each``.  Each f g_gamma is a product of nonzero
        polynomials, hence nonzero: nothing to drop.
        (b) Constants c_gamma on the right have no derivatives, so
        (sum f_beta d^beta)(sum c_gamma d^gamma) = sum c_gamma f_beta
        d^(beta+gamma).  Different (beta, gamma) can meet at one key and
        cancel, so the terms are summed and zeros dropped.
        Every other product runs the Leibniz rule, ``_leibniz_into``.
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = self.nvars
        one = (0,) * n
        left = self.terms
        if len(left) == 1 and one in left:
            return DiffOp._make(n, mul_each(left[one], other.terms))
        out: dict[Monomial, Poly] = {}
        if all(len(g.terms) == 1 and one in g.terms for g in other.terms.values()):
            for gamma, g in other.terms.items():
                c = g.terms[one]
                for beta, f in left.items():
                    key = tuple(map(add, beta, gamma))
                    term = f if c == 1 else f * c
                    acc = out.get(key)
                    out[key] = term if acc is None else acc + term
        else:
            items = left.items()
            for gamma, g in other.terms.items():
                _leibniz_into(out, items, g, gamma, 0)
        return DiffOp._make(n, _canon(out))

    def __rmul__(self, other) -> DiffOp:
        # Polynomials and scalars multiply coefficients on the left directly.
        if isinstance(other, Poly):
            if self.nvars != other.nvars:
                raise ValueError("mixed ambient dimensions")
            if not other:
                return DiffOp.zero(self.nvars)
            return DiffOp._make(self.nvars, mul_each(other, self.terms))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return DiffOp.zero(self.nvars)
        return DiffOp._make(self.nvars, {b: c * other for b, c in self.terms.items()})

    def __pow__(self, n: int) -> DiffOp:
        # exprparse._Parser.power repeats this loop so that it can check
        # the term-pair bound before each step and the term bound after
        # it; keep the two in step.
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator power needs a non-negative integer exponent")
        # A plain copy for n = 1, so that a Derivation's power is no Derivation.
        out = DiffOp._make(self.nvars, dict(self.terms)) if n else DiffOp.one(self.nvars)
        for _ in range(n - 1):
            out = out * self
        return out


def word_fold(ops: Sequence[DiffOp]):
    """fold(word) is the product ops[i1] * ... * ops[ik] along the 1-based
    word (i1, ..., ik), and 1 for the empty word.

    Every word product in the package goes through here.  Words that share
    a prefix share its product (``linalg.prefix_fold``), for as long as the
    fold is kept.
    """
    return prefix_fold(DiffOp.one(ops[0].nvars), lambda w, i: w * ops[i - 1])


def _leibniz_into(out: dict[Monomial, Poly], left, g: Poly, gamma: Monomial,
                  skip: int) -> None:
    """Add (sum over ``left`` of f d^beta) * g d^gamma into ``out``.

    d^beta g = sum over delta <= beta of C(beta, delta) (d^delta g)
    d^(beta-delta), with delta capped by the degrees of g; each derivative
    of g serves every left term that reaches it.  ``skip`` = 1 drops the
    delta = 0 terms f g d^beta, which come first in the delta order.
    """
    degrees = g.degrees()
    derivs: dict[Monomial, Poly] = {}
    for beta, f in left:
        caps = map(min, beta, degrees)
        deltas = cartesian(*(range(c + 1) for c in caps))
        for delta in islice(deltas, skip, None):
            dg = derivs.get(delta)
            if dg is None:
                dg = derivs[delta] = g.diff_multi(delta)
            if not dg:
                continue
            mult = prod(map(comb, beta, delta))
            key = tuple(b - d + c for b, d, c in zip(beta, delta, gamma))
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
        self.terms = {tuple(int(j == i) for j in range(n)): c
                      for i, c in enumerate(coeffs) if c}
        self.coeffs = coeffs

    @classmethod
    def from_diffop(cls, u: DiffOp) -> Derivation:
        coeffs = [Poly.zero(u.nvars) for _ in range(u.nvars)]
        for beta, c in u.terms.items():
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


def _bracket_linear(terms: Mapping[Monomial, Poly],
                    alpha: Sequence[Scalar]) -> dict[Monomial, Poly]:
    """The terms of [u, sum_j alpha_j x_j] for an operator u with these terms.

    [c d^beta, sum_j alpha_j x_j] = sum_j beta_j alpha_j c d^(beta - e_j):
    the only Leibniz terms left take one derivative of the linear form.
    """
    out: dict[Monomial, Poly] = {}
    for beta, c in terms.items():
        for j, (b, a) in enumerate(zip(beta, alpha)):
            if a and b:
                gamma = beta[:j] + (b - 1,) + beta[j + 1:]
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
    if all(sum(m) <= 1 for m in f.terms):
        alpha = [0] * n
        for m, c in f.terms.items():
            if any(m):
                alpha[m.index(1)] = c
        return DiffOp._make(n, _bracket_linear(u.terms, alpha))
    out: dict[Monomial, Poly] = {}
    _leibniz_into(out, u.terms.items(), f, (0,) * n, 1)
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
