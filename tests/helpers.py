"""Random generators on top of ``logdiff.sampling``, reference routes and
small constructions that only the tests use, shared across the test
modules."""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from typing import Sequence

from logdiff import sampling
from logdiff.arrangement import Arrangement, SaitoBasis, SaitoFailure
from logdiff.jacobian import OpFamily, commutator_value_matrix, product_family
from logdiff.linalg import determinant, multiplicity_product, permanent, sym_indices
from logdiff.polyring import (
    LinearForm,
    NotDivisibleError,
    Poly,
    coordinates,
    divides,
    exact_divide,
    simplify_scalar,
)
from logdiff.sampling import random_monomial, random_word
from logdiff.tangent import Decomposition, DecompositionError, TangencyRow, Word, is_tangent
from logdiff.weyl import Derivation, DiffOp, iterated_commutator, word_fold


def random_poly(rng: random.Random, nvars: int, max_degree: int = 2,
                nonzero: bool = False) -> Poly:
    """``sampling.random_poly`` with the degree bound most tests use."""
    return sampling.random_poly(rng, nvars, max_degree, nonzero)


def random_diffop(rng: random.Random, nvars: int, max_order: int = 2,
                  max_degree: int = 2, max_terms: int = 3) -> DiffOp:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        beta = random_monomial(rng, nvars, max_order)
        coeff = random_poly(rng, nvars, max_degree)
        if coeff:
            terms[beta] = coeff
    return DiffOp(nvars, terms)


def random_derivation(rng: random.Random, nvars: int, max_degree: int = 2) -> Derivation:
    return Derivation(tuple(random_poly(rng, nvars, max_degree) for _ in range(nvars)))


def random_word_operator(rng: random.Random, thetas, nvars: int,
                         max_len: int = 3, max_words: int = 3) -> DiffOp:
    """A sum of words: polynomial coefficients times products of generators."""
    word_op = word_fold(thetas)
    op = DiffOp.zero(nvars)
    for _ in range(rng.randint(1, max_words)):
        op = op + random_word(rng, word_op, len(thetas), nvars, max_len)
    return op


def mat_mul(a, b) -> list[list]:
    """Ring matrix product."""
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("inner dimensions must agree")
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = None
            for k, x in enumerate(row):
                term = x * b[k][j]
                acc = term if acc is None else acc + term
            new.append(acc)
        out.append(new)
    return out


def apply_linear_map(matrix, polys: Sequence[Poly]) -> tuple[Poly, ...]:
    """Component j of the result is sum_k matrix[j][k] * polys[k]."""
    n = len(polys)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"matrix must be square of size {n}")
    nvars = polys[0].nvars
    out = []
    for row in matrix:
        acc = Poly.zero(nvars)
        for c, f in zip(row, polys):
            if c != 0:
                acc = acc + f * c
        out.append(acc)
    return tuple(out)


def substitute_entry(fam: OpFamily, w: DiffOp, idx: Sequence[int]) -> OpFamily:
    """Replace the entry at ``idx``, leaving all others untouched."""
    pos = fam.index_tuples.index(tuple(idx))
    entries = fam.entries[:pos] + (w,) + fam.entries[pos + 1:]
    return OpFamily(fam.nvars, fam.power, entries)


def sym_power_matrix_by_permanents(m, power: int) -> list[list]:
    """Reference route for ``sym_power_matrix``: entry (I, J) is the
    permanent of the power x power block whose (a, b) entry is
    m[i_a][j_b], computed separately for every pair of index tuples."""
    idxs = sym_indices(len(m), power)
    if power == 0:
        return [[Poly.one(m[0][0].nvars) if isinstance(m[0][0], Poly) else 1]]
    return [
        [permanent([[m[ia - 1][jb - 1] for jb in j] for ia in i]) for j in idxs]
        for i in idxs
    ]


def commutator_value_matrix_by_products(fs: Sequence[Poly], fam: OpFamily) -> list[list[Poly]]:
    """Reference route for ``commutator_value_matrix``: every entry brackets
    from scratch, each bracket [w, f] formed as the products w*f - f*w."""
    rows = []
    for u in fam.entries:
        row = []
        for jdx in fam.index_tuples:
            w = u
            for j in jdx:
                f = fs[j - 1]
                w = w * f - f * w
            row.append(w.value_at_one())
        rows.append(row)
    return rows


def jacobian_power_identity_by_products(fs: Sequence[Poly], ops: Sequence[DiffOp],
                                        power: int) -> bool:
    """Reference route for ``jacobian_power_identity``: both determinants
    of the lemma taken from the product families' commutator value
    matrices, every entry of the higher one a whole word product."""
    dim = len(ops)
    lhs = determinant(commutator_value_matrix(fs, product_family(ops, power)))
    base = determinant(commutator_value_matrix(fs, product_family(ops, 1)))
    return lhs == base ** comb(power + dim - 1, dim) * multiplicity_product(dim, power)


def eval_poly(f: Poly, point) -> Fraction:
    """Independent polynomial evaluation at a rational point."""
    total = Fraction(0)
    for mono, coeff in f.as_dict().items():
        value = Fraction(coeff)
        for e, x in zip(mono, point):
            value *= Fraction(x) ** e
        total += value
    return total


def constant_term(f: Poly):
    """The coefficient of x^0, read through ``as_dict``."""
    return f.as_dict().get((0,) * f.nvars, 0)


def mul_by_terms(a: Poly, b: Poly) -> Poly:
    """Reference route for ``Poly.__mul__``: every pair of terms multiplied
    as Fractions under exponent tuples read through ``Poly.as_dict``,
    summed in one map, which the validating ``Poly`` constructor then
    cleans; no packed key is formed here."""
    out = {}
    b_terms = b.as_dict()
    for ma, ca in a.as_dict().items():
        for mb, cb in b_terms.items():
            key = tuple(x + y for x, y in zip(ma, mb))
            out[key] = out.get(key, Fraction(0)) + Fraction(ca) * Fraction(cb)
    return Poly(a.nvars, out)


def exact_divide_by_rescan(a: Poly, b: Poly) -> Poly:
    """Reference route for ``exact_divide``: rescan the remainder for its
    graded-lex leading term before each quotient term (quadratic in the
    number of terms), raising NotDivisibleError when that term is not a
    multiple of b's leading term.  Monomials are exponent tuples read
    through ``Poly.as_dict`` and ordered by tuple comparison, independent
    of the packed keys."""
    def grlex(m):
        return (sum(m), m)

    b_terms = b.as_dict()
    lead_b = max(b_terms, key=grlex)
    cb = b_terms[lead_b]
    rem = a.as_dict()
    quot = {}
    while rem:
        m = max(rem, key=grlex)
        mq = tuple(x - y for x, y in zip(m, lead_b))
        if any(e < 0 for e in mq):
            raise NotDivisibleError("remainder is nonzero")
        cq = simplify_scalar(Fraction(rem[m]) / Fraction(cb))
        quot[mq] = cq
        for mb, cbb in b_terms.items():
            key = tuple(x + y for x, y in zip(mq, mb))
            s = rem.get(key, 0) - cq * cbb
            if s == 0:
                rem.pop(key, None)
            else:
                rem[key] = s
    return Poly(a.nvars, quot)


def proportional(a: LinearForm, b: LinearForm) -> bool:
    """Reference route for the proportionality test of ``Arrangement``:
    every 2 x 2 minor of the two coefficient vectors vanishes,
    a_i * b_j == a_j * b_i for every i < j."""
    if a.nvars != b.nvars:
        raise ValueError("mixed ambient dimensions")
    a, b = a.coeffs, b.coeffs
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a)))


def tangency_table_by_products(u: DiffOp, arr: Arrangement, t_max: int) -> list[TangencyRow]:
    """Reference route for ``tangency_table``: form each u * a^t as an
    operator product.

    Carries u * a^t and a^t forward from t - 1, one multiplication by the
    form a each, and checks every coefficient of u * a^t for divisibility
    by a^t in graded order; the first one that fails is the witness.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if u.nvars != arr.dim:
        raise ValueError("operator over a different ambient dimension")
    rows = []
    for i, form in enumerate(arr.forms, start=1):
        prod, ft = u, Poly.one(arr.dim)
        for t in range(1, t_max + 1):
            prod, ft = prod * form, ft * form
            witness = None
            for beta, coeff in sorted(prod.as_dict().items(), key=lambda kv: (sum(kv[0]), kv[0])):
                try:
                    exact_divide(coeff, ft)
                except NotDivisibleError:
                    witness = (beta, coeff)
                    break
            rows.append(TangencyRow(i, t, witness is None, witness))
    return rows


def in_right_ideal(u: DiffOp, f: Poly, t: int) -> bool:
    """True iff u lies in f**t * Diff, i.e. f**t divides every coefficient.

    Operators form a free left module over the polynomial ring on the
    normal-form basis, so membership is coefficientwise divisibility.
    """
    if not f:
        raise ValueError("divisor must be nonzero")
    if t < 0:
        raise ValueError("power must be non-negative")
    if t == 0:
        return True
    ft = f ** t
    return all(divides(ft, coeff) for coeff in u.terms.values())


def principal_symbol(u: DiffOp) -> Poly:
    """Top-order part of u as a polynomial in 2l variables.

    Variables 1..l are the coordinates, variables l+1..2l stand for the
    corresponding partials; the result is homogeneous of degree order(u)
    in the second block.  Undefined (ValueError) for the zero operator.
    """
    p = u.order
    if p is None:
        raise ValueError("the zero operator has no principal symbol")
    n = u.nvars
    terms = {}
    for beta, coeff in u.as_dict().items():
        if sum(beta) == p:
            for mono, c in coeff.as_dict().items():
                terms[mono + beta] = c
    return Poly(2 * n, terms)


def is_tangent_q_by_products(u: DiffOp, arr: Arrangement, t_max: int) -> bool:
    """Reference route for ``is_tangent_q``: form each u * Q^t as an
    operator product and test it for membership in Q^t * Diff.

    Carries u * Q^t and Q^t forward from t - 1, one multiplication by the
    defining polynomial Q each, for t = 1..t_max.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if u.nvars != arr.dim:
        raise ValueError("operator over a different ambient dimension")
    q = arr.q
    prod, qt = u, Poly.one(arr.dim)
    for _ in range(t_max):
        prod, qt = prod * q, qt * q
        if not in_right_ideal(prod, qt, 1):
            return False
    return True


def saito_check_by_division(arr: Arrangement,
                            thetas: Sequence[Derivation]) -> SaitoBasis | SaitoFailure:
    """Reference route for ``saito_check``: Saito's criterion in its
    division form, det Theta = lambda * Q with lambda a nonzero scalar.

    After the same tangency and homogeneity checks, det Theta is divided by
    the whole defining polynomial Q, with no appeal to the degrees; the
    quotient is lambda.  The failures carry the reasons of ``saito_check``.
    """
    thetas = tuple(thetas)
    for i, th in enumerate(thetas, start=1):
        if not is_tangent(th, arr):
            return SaitoFailure("derivation is not tangent to the arrangement", index=i)
    degrees = tuple(th.homogeneous_degree() for th in thetas)
    if None in degrees:
        return SaitoFailure("derivation is zero or not homogeneous", index=degrees.index(None) + 1)
    det = determinant([list(th.coeffs) for th in thetas])
    try:
        quot = exact_divide(det, arr.q)
    except NotDivisibleError:
        quot = None
    if not quot or quot.degree != 0:
        return SaitoFailure(
            "coefficient determinant is not a nonzero scalar multiple of the defining polynomial",
            determinant=det,
        )
    return SaitoBasis(thetas, constant_term(quot), degrees)


def decompose_by_jacobians(u: DiffOp, arr: Arrangement, basis: SaitoBasis) -> Decomposition:
    """Reference route for ``decompose``: Cramer's rule.

    At level p the coefficient of the word at index k is read off a higher
    Jacobian: substituting the current operator for the k-th entry of the
    basis product family makes the Jacobian equal (multiplicity product) *
    scalar^E * Q^E times that coefficient, with E = C(p+dim-1, dim) and the
    scalar from ``saito_check_by_division``, not ``basis.scalar``.  Exact
    division extracts it, and subtracting the recovered words must strictly
    drop the order, which it always does once every division succeeds.  A
    failed division raises DecompositionError with the same level and index
    as ``decompose``.

    The routes stay apart from ``decompose``'s.  The base rows, the
    product family's entries, come from ``commutator_value_matrix``, which
    reads their symbols against the coordinates, where each column of the
    product fold is one monomial; ``u_row`` brackets the current operator
    through ``iterated_commutator``; and Cramer's rule divides
    determinants.  ``decompose`` instead substitutes xi = adj(Theta) y
    into the symbol and divides its coefficients.
    """
    n = arr.dim
    fs = coordinates(n)
    thetas = basis.thetas
    if not u:
        return Decomposition((), thetas)
    lam = saito_check_by_division(arr, thetas).scalar

    words: list[Word] = []
    cur = u
    while cur and cur.order >= 1:
        p = cur.order
        idxs = sym_indices(n, p)
        exponent = comb(p + n - 1, n)
        divisor = arr.q ** exponent * (multiplicity_product(n, p) * lam ** exponent)
        fam = product_family(thetas, p)
        base_rows = commutator_value_matrix(fs, fam)
        u_row = [
            iterated_commutator(cur, [fs[j - 1] for j in jdx]).value_at_one()
            for jdx in idxs
        ]
        level_words = []
        for pos, k in enumerate(idxs):
            rows = [u_row if i == pos else base_rows[i] for i in range(len(idxs))]
            jac = determinant(rows)
            if not jac:
                continue
            try:
                coeff = exact_divide(jac, divisor)
            except NotDivisibleError:
                raise DecompositionError("Jacobian not divisible", level=p, index=k) from None
            level_words.append((coeff, k, fam.entries[pos]))
        nxt = cur
        for coeff, _k, op in level_words:
            nxt = nxt - coeff * op
        assert not nxt or nxt.order < p, "the Jacobian route must drop the order"
        words.extend(Word(coeff, k) for coeff, k, _op in level_words)
        cur = nxt
    if cur:
        words.append(Word(cur.value_at_one(), ()))
    return Decomposition(tuple(words), thetas)


def evaluate_expression(tree, nvars: int, ring=DiffOp):
    """The value of an expression tree in ``ring`` (DiffOp or Poly), formed
    by the ring's own ``+``, ``-``, ``*`` and ``**``: the oracle for the
    parser.  A tree is ("num", c) for an int or Fraction c >= 0, ("x", i),
    ("d", i), ("neg", t), ("paren", t), ("^", t, k), or (op, a, b) for op
    in "+", "-", "*"."""
    head = tree[0]
    if head in ("num", "x"):
        f = Poly.constant(nvars, tree[1]) if head == "num" else Poly.variable(nvars, tree[1])
        return DiffOp.from_poly(f) if ring is DiffOp else f
    if head == "d":
        if ring is not DiffOp:
            raise ValueError("a polynomial has no partials")
        return DiffOp.partial(nvars, tree[1])
    if head == "paren":
        return evaluate_expression(tree[1], nvars, ring)
    if head == "neg":
        return -evaluate_expression(tree[1], nvars, ring)
    if head == "^":
        return evaluate_expression(tree[1], nvars, ring) ** tree[2]
    a, b = (evaluate_expression(t, nvars, ring) for t in tree[1:])
    return a + b if head == "+" else a - b if head == "-" else a * b
