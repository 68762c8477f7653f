"""Exact sparse polynomials over the rationals in a fixed number of variables.

A polynomial is a finite map from monomials to nonzero rational
coefficients.  Coefficients are arbitrary-precision rationals; integral
values are stored as plain ``int`` (``hash``/``==`` compatible with
``Fraction`` and much faster).  Nothing in this module touches floating
point.  A ``LinearForm`` is the degree-one ``Poly`` it stands for.

An operator ``sum_b f_b d^b`` (``weyl.DiffOp``) is the same kind of map,
from monomials d^b to nonzero polynomials.  Both store a monomial as one
int key: the total degree, then the exponents of x1 .. xl (or d1 .. dl),
in fields of ``_WIDTH`` bits from the top down, the same width in every
ring.  The top bit of each field is a guard that stays clear, so every
field holds at most ``MAX_DEGREE``; a total degree or order above that
raises ``DegreeLimitError`` and never wraps.  Three facts follow:

- int order on keys is the graded lexicographic order, x1 > x2 > ... > xl;
- a monomial product is one int sum, with no carry between fields;
- m is divisible by b exactly when m - b sets no guard bit, and then m - b
  is the quotient's key.

Both classes inherit the format, sums, negation, truth, equality, hashing,
printing and powers from one base, ``_Terms``; each keeps its own
products.  The constructors take exponent tuples, and ``as_dict``,
``sorted_terms``, ``top_terms`` and ``degrees`` give them back.  Outside
this module only weyl's operator product reads keys, with ``_WIDTH``,
``_FIELD``, ``_shifts``, ``_unit`` and ``_unpack``.

Variables are positional and 1-based in the public API: ``x1 .. xl``.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cache
from math import perm
from struct import Struct
from typing import Mapping, Sequence

Monomial = tuple[int, ...]
Scalar = int | Fraction

# Bits per field of a packed monomial key, guard bit included.
_WIDTH = 32
_FIELD = (1 << _WIDTH) - 1
MAX_DEGREE = (1 << (_WIDTH - 1)) - 1


class NotDivisibleError(ArithmeticError):
    """Exact division was requested but the divisor leaves a remainder."""


class DegreeLimitError(ValueError):
    """A total degree, or an operator's order, would exceed ``MAX_DEGREE``."""

    def __init__(self):
        super().__init__(f"monomial degree exceeds the limit {MAX_DEGREE}")


def simplify_scalar(c: Scalar) -> Scalar:
    """Collapse an integral Fraction to int; leave everything else alone."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def _exact(c) -> Scalar:
    """A checked constructor scalar: a bool is stored as its int, an integral Fraction as int."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient must be an int or a Fraction, not {type(c).__name__}")
    return int(c) if isinstance(c, int) else simplify_scalar(c)


def _key(mono: Sequence[int], nvars: int) -> int:
    """The key of an exponent tuple, checked: length, signs and ``MAX_DEGREE``."""
    mono = tuple(mono)
    if len(mono) != nvars:
        raise ValueError(f"exponent tuple {mono} does not have length {nvars}")
    if any(e < 0 for e in mono):
        raise ValueError(f"negative exponent in {mono}")
    key = degree = 0
    for e in mono:
        key = key << _WIDTH | e
        degree += e
    if degree > MAX_DEGREE:
        raise DegreeLimitError()
    return degree << (_WIDTH * len(mono)) | key


@cache
def _shifts(nvars: int) -> tuple[int, ...]:
    """The bit offsets of the fields of x1 .. xl."""
    return tuple(_WIDTH * i for i in reversed(range(nvars)))


@cache
def _columns(nvars: int) -> tuple[tuple[int, int], ...]:
    """(i, offset of the field of x<i+1>) for each variable."""
    return tuple(enumerate(_shifts(nvars)))


@cache
def _guards(nvars: int) -> int:
    """The guard bits of every field, the degree field's included."""
    return sum(1 << (_WIDTH * i + _WIDTH - 1) for i in range(nvars + 1))


@cache
def _fields(nvars: int) -> Struct:
    """Reads the exponent fields from a key's bytes: ``I`` is ``_WIDTH`` = 32 bits."""
    return Struct(f">4x{nvars}I")


def _unpack(keys, nvars: int) -> list[Monomial]:
    """The exponent tuples of these keys, in their order."""
    size = 4 * (nvars + 1)
    unpack = _fields(nvars).unpack
    return [unpack(m.to_bytes(size, "big")) for m in keys]


def _canon(terms: dict) -> dict:
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
    """A finite map ``terms`` from packed monomial keys to nonzero
    coefficients, with everything that reads a key and the operations that
    only add coefficients.  Subclasses supply ``_coefficient(c, nvars)``,
    which checks a constructor coefficient and returns it as stored,
    ``_make(nvars, terms)``, which wraps a canonical map in a result,
    ``_coerce(other)``, which returns ``other`` as an instance over the
    same ``nvars``, None for a type it does not take, or raises ValueError
    for another dimension, and ``__mul__``.
    """

    __slots__ = ("nvars", "terms")
    _one = 0  # the key of the monomial 1

    def __init__(self, nvars: int, terms: Mapping[Monomial, object] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        clean = {}
        for mono, coeff in terms.items() if terms else ():
            key = _key(mono, nvars)
            if coeff := self._coefficient(coeff, nvars):
                clean[key] = coeff
        self.nvars = nvars
        self.terms = clean

    def _top(self) -> int | None:
        """The largest total degree of a key, or None for the empty map."""
        return max(self.terms) >> _WIDTH * self.nvars if self.terms else None

    def degrees(self) -> tuple[int, ...]:
        """Per-variable maximum exponents (all zero for the empty map)."""
        out = [0] * self.nvars
        columns = _columns(self.nvars)
        for m in self.terms:
            for i, s in columns:
                e = m >> s & _FIELD
                if e > out[i]:
                    out[i] = e
        return tuple(out)

    def as_dict(self) -> dict[Monomial, object]:
        """The terms as a new map from exponent tuples to coefficients."""
        terms = self.terms
        return dict(zip(_unpack(terms, self.nvars), terms.values()))

    def sorted_terms(self) -> list[tuple[Monomial, object]]:
        """(exponent tuple, coefficient) pairs in descending graded-lex
        order, the canonical print order."""
        terms = self.terms
        keys = sorted(terms, reverse=True)
        return list(zip(_unpack(keys, self.nvars), map(terms.__getitem__, keys)))

    def top_terms(self) -> list[tuple[Monomial, object]]:
        """The pairs of ``sorted_terms`` of the top total degree."""
        top = self._top()
        return [(m, c) for m, c in self.sorted_terms() if sum(m) == top]

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

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("power needs a non-negative integer exponent")
        # Refused before the first product, so that no loop runs up to it.
        if (self._top() or 0) * n > MAX_DEGREE:
            raise DegreeLimitError()
        if not n:
            return self._coerce(1)
        # A fresh copy at 1, so that a form's or a derivation's power is plain.
        out = self if n > 1 else self._make(self.nvars, dict(self.terms))
        for _ in range(n - 1):
            out = out * self
        return out

    def _check_same_ring(self, other: _Terms) -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mixed ambient dimensions {self.nvars} and {other.nvars}")

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
        # monomial 1 (a constant polynomial, an operator of order 0) equals
        # its coefficient and hashes as it, and the zero map as 0.
        terms = self.terms
        if len(terms) <= 1:
            if not terms:
                return hash(0)
            c = terms.get(self._one)
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

    ``Poly(nvars, {exponent tuple: scalar})`` builds one.  ``terms`` maps
    packed monomial keys (see the module docstring) to nonzero scalars;
    the zero polynomial has an empty map.  Instances are treated as
    immutable after construction and are safe to share.
    """

    __slots__ = ()

    @staticmethod
    def _coefficient(c: Scalar, nvars: int) -> Scalar:
        return _exact(c)

    @staticmethod
    def _make(nvars: int, terms: dict[int, Scalar]) -> Poly:
        """Wrap an already canonical map without validating it.

        Internal results only: every key is a packed ``nvars``-variable
        monomial and every value a nonzero int or non-integral Fraction.
        The map is owned by the new polynomial.
        """
        out = object.__new__(Poly)
        out.nvars = nvars
        out.terms = terms
        return out

    # -- constructors -----------------------------------------------------
    # Static, so that they build a plain Poly on a subclass too.

    @staticmethod
    def zero(nvars: int) -> Poly:
        return Poly(nvars)

    @staticmethod
    def one(nvars: int) -> Poly:
        return Poly.constant(nvars, 1)

    @staticmethod
    def constant(nvars: int, value: Scalar) -> Poly:
        out = Poly(nvars)
        if value := _exact(value):
            out.terms[0] = value
        return out

    @staticmethod
    def variable(nvars: int, index: int) -> Poly:
        """The polynomial ``x<index>`` (1-based index)."""
        if not 1 <= index <= nvars:
            raise ValueError(f"variable index {index} out of range 1..{nvars}")
        return Poly._make(nvars, {_unit(nvars, index - 1): 1})

    @staticmethod
    def monomial(nvars: int, exponents: Sequence[int], coeff: Scalar = 1) -> Poly:
        return Poly(nvars, {tuple(exponents): coeff})

    # -- basic queries -----------------------------------------------------

    degree = property(_Terms._top, doc="Total degree, or None for the zero polynomial.")

    def is_homogeneous(self) -> bool:
        """True when all terms share one total degree (vacuously for zero)."""
        shift = _WIDTH * self.nvars
        return len({m >> shift for m in self.terms}) <= 1

    def linear_coefficients(self) -> list[Scalar] | None:
        """[c1, ..., cl] when the polynomial is c0 + c1*x1 + ... + cl*xl,
        None when its degree is 2 or more."""
        n = self.nvars
        shift = _WIDTH * n
        out = [0] * n
        for m, c in self.terms.items():
            degree = m >> shift
            if degree > 1:
                return None
            if degree:
                # The one exponent field that holds 1 is x<i+1>'s.
                out[n - 1 - ((m ^ 1 << shift).bit_length() - 1) // _WIDTH] = c
        return out

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> Poly | None:
        if isinstance(other, Poly):
            self._check_same_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.nvars, other)
        return None

    def __mul__(self, other) -> Poly:
        """The package's one polynomial product.  A one-term factor shifts
        and scales the other's terms: no two results meet and none is zero,
        so nothing is summed or dropped.  Otherwise each pair of terms is
        summed under the sum of their keys.  The leading terms multiply to
        the leading term, so the sum of the leading keys decides whether
        the product's degree passes ``MAX_DEGREE``."""
        if not isinstance(other, Poly):
            # Poly first: isinstance against Fraction, an ABC, is slow to fail.
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            return Poly._make(self.nvars, _canon({m: c * other for m, c in self.terms.items()}))
        self._check_same_ring(other)
        n = self.nvars
        a, b = self.terms, other.terms
        if not a or not b:
            return Poly._make(n, {})
        # Without this path perfbench decompose ops_per_s fell 3.5%, lower in
        # 6 of 6 alternating 8 s pairs (2-core Xeon VM).
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            ((ma, ca),) = a.items()
            if ma + max(b) >> _WIDTH * n > MAX_DEGREE:
                raise DegreeLimitError()
            return Poly._make(n, {
                ma + mb: c.numerator if type(c := ca * cb) is Fraction and c.denominator == 1 else c
                for mb, cb in b.items()
            })
        if max(a) + max(b) >> _WIDTH * n > MAX_DEGREE:
            raise DegreeLimitError()
        acc: dict[int, Scalar] = {}
        get = acc.get
        items = b.items()
        for ma, ca in a.items():
            for mb, cb in items:
                key = ma + mb
                acc[key] = get(key, 0) + ca * cb
        return Poly._make(n, _canon(acc))

    def __rmul__(self, other) -> Poly:
        return self * other

    # An entry of Poly's own: perfbench's tracer wraps ``Poly.__dict__["__pow__"]``.
    __pow__ = _Terms.__pow__

    # -- calculus ----------------------------------------------------------

    def diff(self, index: int) -> Poly:
        """Partial derivative with respect to ``x<index>`` (1-based)."""
        if not 1 <= index <= self.nvars:
            raise ValueError(f"variable index {index} out of range 1..{self.nvars}")
        return self.diff_multi(tuple(int(i == index) for i in range(1, self.nvars + 1)))

    def diff_multi(self, exponents: Sequence[int]) -> Poly:
        """Apply the mixed partial d^e1/dx1^e1 ... in one pass."""
        n = self.nvars
        if len(exponents) != n:
            raise ValueError("derivative exponent tuple has wrong length")
        fields = []
        order = step = 0
        for s, d in zip(_shifts(n), exponents):
            if d:
                if d < 0:
                    raise ValueError(f"negative derivative exponent in {tuple(exponents)}")
                fields.append((s, d))
                order += d
                step |= d << s
        if not fields:
            return self
        # A derivative of order above every term's degree leaves nothing.
        if order > MAX_DEGREE:
            return Poly._make(n, {})
        step |= order << _WIDTH * n
        guards = _guards(n)
        out: dict[int, Scalar] = {}
        for m, c in self.terms.items():
            # A borrow sets a guard bit exactly when some exponent of m is
            # below the derivative's; the distinct survivors keep distinct keys.
            key = m - step
            if key & guards:
                continue
            # perm(e, d) is the falling factorial e(e-1)...(e-d+1).
            for s, d in fields:
                c = c * perm(m >> s & _FIELD, d)
            out[key] = c
        return Poly._make(n, _canon(out))


@cache
def _unit(nvars: int, index: int) -> int:
    """The key of x<index> (0-based index)."""
    return 1 << _WIDTH * nvars | 1 << _shifts(nvars)[index]


class LinearForm(Poly):
    """A nonzero form sum_i coeffs[i] * x_i, the degree-one Poly it stands
    for; ``coeffs`` keeps every coefficient, zeros included."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar]):
        coeffs = tuple(map(_exact, coeffs))
        if not any(coeffs):
            raise ValueError("linear form must have a nonzero coefficient")
        self.nvars = n = len(coeffs)
        self.terms = {_unit(n, i): c for i, c in enumerate(coeffs) if c}
        self.coeffs = coeffs

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
    remainder's keys sit in a heap of their negations, a max-heap on the
    graded-lex order; a monomial whose coefficient cancels to zero stays in
    the map until the heap reaches it, so each one is pushed and popped
    once.
    """
    if not isinstance(a, Poly) or not isinstance(b, Poly):
        raise TypeError("exact_divide expects polynomials")
    a._check_same_ring(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return Poly.zero(a.nvars)
    lead_b = max(b.terms)
    cb = b.terms[lead_b]
    int_cb = type(cb) is int
    guards = _guards(a.nvars)
    # b's leading term cancels the popped term exactly; the rest of b only
    # reaches monomials below it, so a popped monomial never comes back.
    tail = [(mb, c) for mb, c in b.terms.items() if mb != lead_b]
    rem = dict(a.terms)
    heap = [-m for m in rem]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    quot: dict[int, Scalar] = {}
    while heap:
        m = -pop(heap)
        c = rem.pop(m)
        if not c:
            continue
        mq = m - lead_b
        if mq & guards:
            raise NotDivisibleError("remainder is nonzero")
        # Without this path perfbench tangent-transport ops_per_s fell 8.7%
        # and p90 latency rose 14%, worse in 6 of 6 alternating 8 s pairs
        # (2-core Xeon VM).
        if int_cb and type(c) is int and not c % cb:
            cq = c // cb
        else:
            cq = Fraction(c) / cb
            if cq.denominator == 1:
                cq = cq.numerator
        quot[mq] = cq
        for mb, cbb in tail:
            key = mq + mb
            old = rem.get(key)
            if old is None:
                rem[key] = -cq * cbb
                push(heap, -key)
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
