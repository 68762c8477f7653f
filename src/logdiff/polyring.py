"""Exact sparse polynomials over the rationals in a fixed number of variables.

A polynomial is a finite map from exponent tuples to nonzero rational
coefficients.  Coefficients are arbitrary-precision rationals; integral
values are stored as plain ``int`` (``hash``/``==`` compatible with
``Fraction`` and much faster).  Nothing in this module touches floating
point.

Variables are positional and 1-based in the public API: ``x1 .. xl``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

Monomial = tuple[int, ...]
Scalar = int | Fraction


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


class Poly:
    """Immutable multivariate polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples of length ``nvars`` to nonzero scalars;
    the zero polynomial has an empty map.  Instances are treated as
    immutable after construction and are safe to share.
    """

    __slots__ = ("nvars", "terms")

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

    def __add__(self, other) -> Poly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other) -> Poly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) - c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Poly(self.nvars, out)

    def __rsub__(self, other) -> Poly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self) -> Poly:
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly.zero(self.nvars)
            return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same_ring(other)
        out: dict[Monomial, Scalar] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(ma, mb))
                s = out.get(key, 0) + ca * cb
                if s == 0:
                    out.pop(key, None)
                else:
                    out[key] = s
        return Poly(self.nvars, out)

    def __rmul__(self, other) -> Poly:
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, n: int) -> Poly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial power needs a non-negative integer exponent")
        out = Poly.one(self.nvars)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, index: int) -> Poly:
        """Partial derivative with respect to ``x<index>`` (1-based)."""
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        i = index - 1
        out: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                key = m[:i] + (e - 1,) + m[i + 1:]
                out[key] = out.get(key, 0) + c * e
        return Poly(self.nvars, out)

    def diff_multi(self, exponents: Sequence[int]) -> Poly:
        """Apply the mixed partial d^e1/dx1^e1 ... in one pass."""
        if len(exponents) != self.nvars:
            raise ValueError("derivative exponent tuple has wrong length")
        out: dict[Monomial, Scalar] = {}
        for m, c in self.terms.items():
            factor = 1
            key = []
            for e, d in zip(m, exponents):
                if e < d:
                    factor = 0
                    break
                for k in range(d):
                    factor *= e - k
                key.append(e - d)
            if factor:
                k2 = tuple(key)
                out[k2] = out.get(k2, 0) + c * factor
        return Poly(self.nvars, out)

    # -- protocol ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self.terms.items())))

    def __str__(self) -> str:
        from .exprparse import render

        return render(self)

    def __repr__(self) -> str:
        return f"Poly({self!s}, nvars={self.nvars})"


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
    divisible by the leading term of b, which this loop enforces.
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
    rem = dict(a.terms)
    quot: dict[Monomial, Scalar] = {}
    while rem:
        m = max(rem, key=_grlex)
        mq = tuple(x - y for x, y in zip(m, lead_b))
        if any(e < 0 for e in mq):
            raise NotDivisibleError("remainder is nonzero")
        cq = simplify_scalar(Fraction(rem[m]) / Fraction(cb))
        quot[mq] = cq
        for mb, cbb in b.terms.items():
            key = tuple(x + y for x, y in zip(mq, mb))
            s = rem.get(key, 0) - cq * cbb
            if s == 0:
                rem.pop(key, None)
            else:
                rem[key] = s
    return Poly(a.nvars, quot)


def divides_power(f: Poly, t: int, a: Poly) -> bool:
    """True iff f**t divides a exactly (t = 0 is vacuously true)."""
    if t < 0:
        raise ValueError("power must be non-negative")
    if t == 0:
        return True
    if not f:
        raise ValueError("divisor must be nonzero")
    try:
        exact_divide(a, f ** t)
    except NotDivisibleError:
        return False
    return True


def coordinates(nvars: int) -> tuple[Poly, ...]:
    """The coordinate tuple (x1, ..., xl) as polynomials."""
    return tuple(Poly.variable(nvars, i) for i in range(1, nvars + 1))
