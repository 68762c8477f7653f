"""Matrices over a commutative ring: determinants, permanents, symmetric powers.

Entries may be rationals (``int``/``Fraction``) or :class:`~logdiff.polyring.Poly`;
every routine is exact.  Matrices are plain rectangular sequences of rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, prod
from operator import add
from threading import Lock
from typing import Sequence

from .polyring import Poly, exact_divide, simplify_scalar

Matrix = Sequence[Sequence]

# Cofactor expansion up to this size, Bareiss elimination above it.  Small
# polynomial matrices are the common case, and there Bareiss pays an exact
# division per entry and step where the expansion only multiplies: Bareiss
# at every size cut perfbench verify ops_per_s from 598 to 542, 9.1%, lower
# in 6 of 6 pairs (medians of six alternating 8 s pairs, seeds 61-66, 2-core
# Xeon VM).
_SMALL = 4


def sym_indices(dim: int, power: int) -> list[tuple[int, ...]]:
    """Weakly increasing power-tuples over {1..dim}, lexicographically ascending.

    These index the monomial basis of the degree-``power`` part of the
    symmetric algebra on ``dim`` generators; there are
    C(power+dim-1, dim-1) of them.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    if power < 0:
        raise ValueError("power must be non-negative")
    return list(combinations_with_replacement(range(1, dim + 1), power))


def multiplicity_vector(idx: Sequence[int], dim: int) -> tuple[int, ...]:
    """Entry j counts how many times j+1 appears in the index tuple."""
    out = [0] * dim
    for i in idx:
        if not 1 <= i <= dim:
            raise ValueError(f"index {i} out of range 1..{dim}")
        out[i - 1] += 1
    return tuple(out)


def multiplicity_product(dim: int, power: int) -> int:
    """Product of multiplicity factorials over all weakly increasing tuples."""
    out = 1
    for idx in sym_indices(dim, power):
        for e in multiplicity_vector(idx, dim):
            out *= factorial(e)
    return out


def _square_size(m: Matrix) -> int:
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return n


def _zero_like(x):
    if isinstance(x, Poly):
        return Poly.zero(x.nvars)
    return 0


def permanent(m: Matrix):
    """Permanent of a square matrix: the signless determinant.

    Ryser's inclusion-exclusion with Gray-code row sums, O(2^n * n) ring
    operations.
    """
    n = _square_size(m)
    if n == 0:
        return 1
    total = _zero_like(m[0][0])
    sums = [_zero_like(m[0][0]) for _ in range(n)]
    gray = 0
    sign_n = 1 if n % 2 == 0 else -1
    for k in range(1, 1 << n):
        nxt = k ^ (k >> 1)
        bit = gray ^ nxt
        j = bit.bit_length() - 1
        if nxt & bit:
            for i in range(n):
                sums[i] = sums[i] + m[i][j]
        else:
            for i in range(n):
                sums[i] = sums[i] - m[i][j]
        gray = nxt
        prod = sums[0]
        for i in range(1, n):
            prod = prod * sums[i]
        if nxt.bit_count() % 2:
            total = total - prod
        else:
            total = total + prod
    return sign_n * total


def determinant(m: Matrix):
    """Exact determinant over an integral domain.

    Cofactor expansion up to 4x4; fraction-free Bareiss elimination beyond,
    where every intermediate division is exact by construction.
    """
    n = _square_size(m)
    if n == 0:
        return 1
    if n <= _SMALL:
        return _det_cofactor([list(row) for row in m], n)
    return _det_bareiss([list(row) for row in m], n)


def _det_cofactor(m: list[list], n: int):
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = None
    sign = 1
    for j in range(n):
        entry = m[0][j]
        if entry:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = entry * _det_cofactor(minor, n - 1)
            if sign < 0:
                term = -term
            total = term if total is None else total + term
        sign = -sign
    return _zero_like(m[0][0]) if total is None else total


def _det_bareiss(a: list[list], n: int):
    # Over the integers every intermediate entry is a minor, so each
    # division is an exact integer division.
    integral = all(type(x) is int for row in a for x in row)
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return _zero_like(a[0][0])
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k = a[i], a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                num = row_i[j] * pivot - lead * row_k[j]
                if prev is None:
                    row_i[j] = num
                elif integral:
                    row_i[j], rem = divmod(num, prev)
                    if rem:
                        raise AssertionError("inexact Bareiss division over the integers")
                elif isinstance(num, Poly):
                    row_i[j] = exact_divide(num, prev)
                else:
                    row_i[j] = simplify_scalar(Fraction(num) / Fraction(prev))
        prev = pivot
    result = a[n - 1][n - 1]
    return -result if sign < 0 else result


class PrefixFold:
    """The lookup fold(k): ``start`` folded with ``step`` along the tuple k.

    The value at () is ``start`` and the value at k + (j,) is
    ``step(value at k, j)``.  Every prefix formed is kept, in a trie of
    prefixes, so a later lookup extends the longest prefix already formed
    and ``step`` runs once per distinct prefix.  The walk is a loop, so a
    word of any length folds without recursion.

    ``terms`` is ``size`` summed over every value kept, ``start``
    included.  Each value is sized on the first read of ``terms`` after
    it was formed, so a fold that nobody measures sizes nothing.  Threads
    may share a fold: a prefix formed twice in a race is stored and
    counted once.  Whoever keeps a fold across calls bounds it through
    ``trimmed``, the one rule for starting a kept fold afresh.
    """

    __slots__ = ("_root", "_step", "_size", "_unsized", "_terms", "_lock")

    def __init__(self, start, step, size):
        self._root = (start, {})
        self._step = step
        self._size = size
        self._unsized = [start]
        self._terms = 0
        self._lock = Lock()

    def __call__(self, k):
        value, children = self._root
        for j in k:
            node = children.get(j)
            if node is None:
                value = self._step(value, j)
                node = children.setdefault(j, (value, {}))
                if node[0] is value:
                    self._unsized.append(value)
            value, children = node
        return value

    @property
    def terms(self) -> int:
        with self._lock:
            unsized = self._unsized
            while unsized:
                self._terms += self._size(unsized.pop())
            return self._terms

    def trimmed(self, limit: int) -> PrefixFold:
        """This fold while it keeps at most ``limit`` terms, else a fresh
        fold with the same start, step and size; this one is left as it is."""
        if self.terms <= limit:
            return self
        return PrefixFold(self._root[0], self._step, self._size)


def _form_product_fold(m: Matrix):
    """fold(k) is the product over i in the 1-based tuple k of the linear
    forms sum_j m[i-1][j] y_j, as a dict from exponent vectors of y to
    coefficients.  Rows of ``sym_power_matrix``, the substituted symbols
    of ``tangent.decompose`` and the columns of
    ``jacobian.commutator_value_matrix`` against linear forms are read off
    it.  Every prefix is kept, so keys of length dim hold O(p * dim) for a
    word of p letters, where index-tuple keys would hold O(p^2).
    """
    dim = len(m)
    # Row i of m as (unit exponent vector of y_j, nonzero m[i][j]) pairs.
    forms = [
        [(tuple(int(k == j) for k in range(dim)), x)
         for j, x in enumerate(row) if x]
        for row in m
    ]

    def times_form(prev: dict, i: int) -> dict:
        out: dict = {}
        for mono, c in prev.items():
            for unit, x in forms[i - 1]:
                key = tuple(map(add, mono, unit))
                acc = out.get(key)
                out[key] = c * x if acc is None else acc + c * x
        return out

    # A value's terms are counted over all coefficients, one per scalar.
    if isinstance(m[0][0], Poly):
        one, size = Poly.one(m[0][0].nvars), lambda row: sum(len(c.terms) for c in row.values())
    else:
        one, size = 1, len
    return PrefixFold({(0,) * dim: one}, times_form, size)


def sym_power_matrix(m: Matrix, power: int) -> list[list]:
    """The induced matrix on the degree-``power`` symmetric power.

    Entry (I, J) is the permanent of the power x power matrix whose (a, b)
    entry is m[i_a][j_b]; rows and columns follow the ``sym_indices`` order.
    Row I is read off the product over a of the linear forms
    sum_j m[i_a][j] y_j (``_form_product_fold``): the permanent counts each
    way of giving the factors the columns of J once per reordering of equal
    columns, so entry (I, J) is the coefficient of y^mult(J) times the
    product of the multiplicity factorials of J.
    """
    dim = _square_size(m)
    idxs = sym_indices(dim, power)
    zero = _zero_like(m[0][0])
    fold = _form_product_fold(m)
    cols = []
    for j in idxs:
        mult = multiplicity_vector(j, dim)
        cols.append((mult, prod(map(factorial, mult))))
    out = []
    for i in idxs:
        row = fold(i)
        entries = []
        for mult, f in cols:
            c = row.get(mult)
            entries.append(zero if c is None else c if f == 1 else c * f)
        out.append(entries)
    return out


def sym_power_det_identity_holds(m: Matrix, power: int) -> bool:
    """Exact check of det(sym_power_matrix(m, p)) against the closed form.

    The closed form is the multiplicity product times
    det(m) ** C(power+dim-1, dim).
    """
    dim = _square_size(m)
    lhs = determinant(sym_power_matrix(m, power))
    det = determinant(m)
    rhs = multiplicity_product(dim, power) * det ** comb(power + dim - 1, dim)
    return lhs == rhs
