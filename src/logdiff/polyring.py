"""Exact sparse polynomials over the rationals in a fixed number of variables.

A polynomial is a finite map from exponent tuples to nonzero rational
coefficients.  Coefficients are arbitrary-precision rationals; integral
values are stored as plain ``int`` (``hash``/``==`` compatible with
``Fraction`` and much faster).  Nothing in this module touches floating
point.

An operator ``sum_b f_b d^b`` (``weyl.DiffOp``) is the same kind of map,
from partial-derivative exponent tuples to nonzero polynomials, so both
classes inherit sums, negation, truth, equality, hashing and printing
from one base, ``_Terms``; each keeps its own products and powers.

Variables are positional and 1-based in the public API: ``x1 .. xl``.
"""

from __future__ import annotations

import heapq
import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import perm, prod
from operator import add, neg, sub
from typing import Mapping, Sequence

Monomial = tuple[int, ...]
Scalar = int | Fraction

# At index k, the ``struct`` code of the narrowest unsigned field of 1, 2,
# 4 or 8 bytes that holds a k-byte exponent.
_FIELD_CODES = "BBHIIQQQQ"
# ``Poly.__mul__`` packs two factors of at least this many terms each.  On
# the 16,788 products of two factors of two terms or more in seed-7
# tangent-transport, decompose and verify requests (2-core Xeon VM), packing
# lost with a 2-term factor (2 by 4 terms: 15.2 ms against 11.5 plain), broke
# even with a 3-term one and won from 4 by 4 terms on (4.8 against 6.5 ms).
_PACKED_MIN_TERMS = 4


class NotDivisibleError(ArithmeticError):
    """Exact division was requested but the divisor leaves a remainder."""


def simplify_scalar(c: Scalar) -> Scalar:
    """Collapse an integral Fraction to int; leave everything else alone."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _grlex(m: Monomial) -> tuple[int, Monomial]:
    # Graded lexicographic key with x1 > x2 > ... > xl.
    return (sum(m), m)


def _canon(terms: dict[Monomial, Scalar]) -> dict[Monomial, Scalar]:
    """Drop zero coefficients, scalar or polynomial, and store integral
    Fractions as int.

    Arithmetic on int and Fraction only ever yields exactly those two
    types, so ``type(c) is Fraction`` suffices (``isinstance`` against the
    numeric ABCs costs far more per coefficient); a polynomial coefficient
    of an operator is never a Fraction and passes through unchanged.
    """
    return {
        m: c.numerator if type(c) is Fraction and c.denominator == 1 else c
        for m, c in terms.items() if c
    }


class _Terms:
    """A finite map ``terms`` from exponent tuples of length ``nvars`` to
    nonzero coefficients, with the operations that only add coefficients.

    Subclasses supply ``_make(nvars, terms)``, which wraps a canonical map
    in a result, and ``_coerce(other)``, which returns ``other`` as an
    instance over the same ``nvars``, None for a type it does not take,
    or raises ValueError for another dimension.
    """

    __slots__ = ("nvars", "terms")

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            s = get(m)
            out[m] = c if s is None else s + c
        return self._make(self.nvars, _canon(out))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            s = get(m)
            out[m] = -c if s is None else s - c
        return self._make(self.nvars, _canon(out))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self._make(self.nvars, {m: -c for m, c in self.terms.items()})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        try:
            other = self._coerce(other)
        except ValueError:
            return False
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # Equal values hash equally across kinds: a map with no key but the
        # zero exponent (a constant polynomial, an operator of order 0)
        # equals its coefficient and hashes as it, and the zero map as 0.
        terms = self.terms
        if len(terms) <= 1:
            if not terms:
                return hash(0)
            c = terms.get((0,) * self.nvars)
            if c is not None:
                return hash(c)
        return hash((self.nvars, frozenset(terms.items())))

    def __str__(self) -> str:
        from .exprparse import render

        return render(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self!s}, nvars={self.nvars})"


class Poly(_Terms):
    """Immutable multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero scalars;
    the zero polynomial has an empty map.  Instances are treated as
    immutable after construction and are safe to share.
    """

    __slots__ = ()

    def __init__(self, nvars: int, terms: Mapping[Monomial, Scalar] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != nvars:
                    raise ValueError(f"exponent tuple {mono} does not have length {nvars}")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in {mono}")
                coeff = simplify_scalar(coeff)
                if coeff != 0:
                    clean[mono] = coeff
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _make(cls, nvars: int, terms: dict[Monomial, Scalar]) -> Poly:
        """Wrap an already canonical map without validating it.

        Internal results only: every key is a length-``nvars`` tuple of
        non-negative ints and every value a nonzero int or non-integral
        Fraction.  The map is owned by the new polynomial.
        """
        out = object.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> Poly:
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> Poly:
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> Poly:
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, index: int) -> Poly:
        """The polynomial ``x<index>`` (1-based index)."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        mono = tuple(1 if i == index - 1 else 0 for i in range(nvars))
        return cls(nvars, {mono: 1})

    @classmethod
    def monomial(cls, nvars: int, exponents: Sequence[int], coeff: Scalar = 1) -> Poly:
        return cls(nvars, {tuple(exponents): coeff})

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Total degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        """True when all terms share one total degree (vacuously for zero)."""
        return len({sum(m) for m in self.terms}) <= 1

    def degrees(self) -> tuple[int, ...]:
        """Per-variable maximum exponents (all zero for the zero polynomial)."""
        out = [0] * self.nvars
        for m in self.terms:
            for i, e in enumerate(m):
                if e > out[i]:
                    out[i] = e
        return tuple(out)

    def constant_term(self) -> Scalar:
        return self.terms.get((0,) * self.nvars, 0)

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """Terms in descending graded-lex order (canonical print order)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex(kv[0]), reverse=True)

    # -- arithmetic --------------------------------------------------------

    def _check_same_ring(self, other: Poly) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mixed ambient dimensions {self.nvars} and {other.nvars}")

    def _coerce(self, other) -> Poly | None:
        if isinstance(other, Poly):
            self._check_same_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.nvars, other)
        return None

    def __mul__(self, other) -> Poly:
        """The package's one polynomial product, by a kernel chosen from the
        factors.  A one-term factor shifts and scales the other's terms: no
        two results meet and none is zero, so nothing is summed or dropped.
        Factors of ``_PACKED_MIN_TERMS`` terms or more multiply packed
        monomials (``_packed_product``) while every field fits in 64 bits.
        All else sums each pair of terms under tuple keys."""
        if not isinstance(other, Poly):
            # Poly first: isinstance against Fraction, an ABC, is slow to fail.
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return Poly._make(self.nvars, _canon({m: c * other for m, c in self.terms.items()}))
        self._check_same_ring(other)
        n = self.nvars
        a, b = self.terms, other.terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            ((ma, ca),) = a.items()
            return Poly._make(n, {
                tuple(map(add, ma, mb)):
                    c.numerator if type(c := ca * cb) is Fraction and c.denominator == 1 else c
                for mb, cb in b.items()
            })
        if min(len(a), len(b)) >= _PACKED_MIN_TERMS:
            out = _packed_product(self, other)
            if out is not None:
                return out
        acc: dict[Monomial, Scalar] = {}
        get = acc.get
        items = b.items()
        for ma, ca in a.items():
            for mb, cb in items:
                key = tuple(map(add, ma, mb))
                acc[key] = get(key, 0) + ca * cb
        return Poly._make(n, _canon(acc))

    def __rmul__(self, other) -> Poly:
        return self * other

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power needs a non-negative integer exponent")
        if n == 0:
            return Poly.one(self.nvars)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, index: int) -> Poly:
        """Partial derivative with respect to ``x<index>`` (1-based)."""
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        return self.diff_multi(tuple(int(i == index) for i in range(1, self.nvars + 1)))

    def diff_multi(self, exponents: Sequence[int]) -> Poly:
        """Apply the mixed partial d^e1/dx1^e1 ... in one pass."""
        if len(exponents) != self.nvars:
            raise ValueError("derivative exponent tuple has wrong length")
        out: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            # perm(e, d) is the falling factorial e(e-1)...(e-d+1), 0 for d > e;
            # distinct surviving monomials keep distinct keys.
            factor = prod(map(perm, m, exponents))
            if factor:
                out[tuple(map(sub, m, exponents))] = c * factor
        return Poly._make(self.nvars, _canon(out))


@lru_cache(maxsize=64)
def _layout(codes: str) -> struct.Struct:
    return struct.Struct(">" + codes)


def _packed_product(f: Poly, g: Poly) -> Poly | None:
    """f * g with every monomial packed into one int, or None where a field
    would pass 64 bits.  Field i is the narrowest unsigned ``struct`` field
    that holds deg_i f + deg_i g, so a monomial product is one int sum with
    no carry between fields.  Each term is packed once and each result term
    unpacked once."""
    tops = list(map(add, map(max, zip(*f.terms)), map(max, zip(*g.terms))))
    if max(tops).bit_length() > 64:
        return None
    layout = _layout("".join([_FIELD_CODES[(top.bit_length() + 7) >> 3] for top in tops]))
    pack, unpack, size = layout.pack, layout.unpack, layout.size
    from_bytes = int.from_bytes
    packed = [(from_bytes(pack(*m), "big"), c) for m, c in g.terms.items()]
    acc: dict[int, Scalar] = {}
    get = acc.get
    for ma, ca in f.terms.items():
        ka = from_bytes(pack(*ma), "big")
        for kb, cb in packed:
            key = ka + kb
            acc[key] = get(key, 0) + ca * cb
    return Poly._make(f.nvars, {
        unpack(key.to_bytes(size, "big")):
            c.numerator if type(c) is Fraction and c.denominator == 1 else c
        for key, c in acc.items() if c
    })


@dataclass(frozen=True)
class LinearForm:
    """A nonzero homogeneous degree-1 form given by its coefficient vector."""

    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        coeffs = tuple(simplify_scalar(c) for c in self.coeffs)
        if not coeffs or all(c == 0 for c in coeffs):
            raise ValueError("linear form must have a nonzero coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def nvars(self) -> int:
        return len(self.coeffs)

    def as_poly(self) -> Poly:
        n = self.nvars
        return Poly(n, {
            tuple(1 if j == i else 0 for j in range(n)): c
            for i, c in enumerate(self.coeffs) if c != 0
        })

    def proportional_to(self, other: LinearForm) -> bool:
        if self.nvars != other.nvars:
            raise ValueError("mixed ambient dimensions")
        a, b = self.coeffs, other.coeffs
        return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a)))


def exact_divide(a: Poly, b: Poly) -> Poly:
    """Return q with a = b*q, raising NotDivisibleError when none exists.

    Single-divisor multivariate division with graded-lex leading terms:
    b divides a exactly iff the running remainder's leading term is always
    divisible by the leading term of b, which this loop enforces.  The
    remainder's monomials sit in a max-heap on the graded-lex key; a
    monomial whose coefficient cancels to zero stays in the map until the
    heap reaches it, so each one is pushed and popped once.
    """
    if not isinstance(a, Poly) or not isinstance(b, Poly):
        raise TypeError("exact_divide expects polynomials")
    a._check_same_ring(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return Poly.zero(a.nvars)
    lead_b = max(b.terms, key=_grlex)
    cb = b.terms[lead_b]
    int_cb = type(cb) is int
    # b's leading term cancels the popped term exactly; the rest of b only
    # reaches monomials below it, so a popped monomial never comes back.
    tail = [(mb, c) for mb, c in b.terms.items() if mb != lead_b]
    rem = dict(a.terms)
    # heapq is a min-heap: negate degree and exponents for a max on grlex.
    heap = [(-sum(m), tuple(map(neg, m)), m) for m in rem]
    heapq.heapify(heap)
    quot: dict[Monomial, Scalar] = {}
    while heap:
        m = heapq.heappop(heap)[2]
        c = rem.pop(m)
        if not c:
            continue
        mq = tuple(map(sub, m, lead_b))
        if min(mq) < 0:
            raise NotDivisibleError("remainder is nonzero")
        if int_cb and type(c) is int and not c % cb:
            cq = c // cb
        else:
            cq = Fraction(c) / cb
            if cq.denominator == 1:
                cq = cq.numerator
        quot[mq] = cq
        for mb, cbb in tail:
            key = tuple(map(add, mq, mb))
            old = rem.get(key)
            if old is None:
                rem[key] = -cq * cbb
                heapq.heappush(heap, (-sum(key), tuple(map(neg, key)), key))
            else:
                rem[key] = old - cq * cbb
    return Poly._make(a.nvars, quot)


def divides(b: Poly, a: Poly) -> bool:
    """True iff b divides a exactly (b nonzero)."""
    try:
        exact_divide(a, b)
    except NotDivisibleError:
        return False
    return True


def coordinates(nvars: int) -> tuple[Poly, ...]:
    """The coordinate tuple (x1, ..., xl) as polynomials."""
    return tuple(Poly.variable(nvars, i) for i in range(1, nvars + 1))
