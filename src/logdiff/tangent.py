"""Operators tangent to an arrangement and their decomposition into words.

Tangency is membership in every idealizer: u is tangent when u * f^t lands
in f^t * Diff for each defining form f (or for the full defining
polynomial) and every power t >= 1.  Both routes decide it from brackets,
with no operator product: u * f^t = sum_k C(t, k) f^(t-k) ad_f^k(u) with
ad_f(v) = [v, f], and ad_f^k(u) vanishes beyond k = ord u, so the powers
up to max(ord u, 1) already decide it.  ``is_tangent`` brackets with each
linear form, ``is_tangent_q`` with the whole defining polynomial.

Over a free arrangement any tangent operator is a polynomial combination
of products of basis tangent derivations; ``decompose`` computes that
combination level by level, reading each level's coefficients off the
principal symbol after substituting the adjugate of the basis coefficient
matrix, and ``transport`` realizes the weaker statement that a large
enough power of the defining polynomial pushes an arbitrary operator into
such words.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from math import comb, prod
from typing import TYPE_CHECKING, Sequence

from .exprparse import MAX_TERMS, QUOTE_CHARS, _quote, render
from .linalg import _form_product_fold, determinant
from .polyring import NotDivisibleError, Poly, divides, exact_divide
from .weyl import Derivation, DiffOp, _bracket_linear, commutator, word_fold

if TYPE_CHECKING:
    # Annotations only: ``arrangement`` imports ``is_tangent`` from here.
    from .arrangement import Arrangement, SaitoBasis


@dataclass(frozen=True)
class Word:
    """One summand: a polynomial coefficient times a product of generators.

    The word lists 1-based generator indices in weakly increasing order;
    the empty word is a pure polynomial summand.
    """

    coeff: Poly
    word: tuple[int, ...]

    def __post_init__(self):
        if not self.coeff:
            raise ValueError("word coefficient must be nonzero")
        if any(self.word[i] > self.word[i + 1] for i in range(len(self.word) - 1)):
            raise ValueError("word indices must be weakly increasing")


@dataclass(frozen=True)
class Decomposition:
    """A sum of words over a fixed tuple of generator derivations."""

    words: tuple[Word, ...]
    generators: tuple[Derivation, ...]

    def __post_init__(self):
        for w in self.words:
            if any(not 1 <= i <= len(self.generators) for i in w.word):
                raise ValueError("word index out of range for the generators")


class DecompositionError(Exception):
    """Structured failure: the operator is not a word combination at a level.

    ``index`` names the word whose coefficient failed to divide.
    """

    def __init__(self, message: str, level: int, index: tuple[int, ...]):
        super().__init__(message)
        self.level = level
        self.index = index


def is_tangent(u: DiffOp, arr: Arrangement) -> bool:
    """Exact per-form tangency: u * a^t in a^t * Diff for every form a and t >= 1.

    Only the cells t = 1..max(ord u, 1) are checked, and that is exact.
    The d^gamma coefficient of u * a^t is sum_k C(t, k) a^(t-k) T_k with
    T_k the d^gamma coefficient of ad_a^k(u), which does not depend on t
    and vanishes for k > ord u (see ``_tangency_rows``).  The cells 1..t
    all pass exactly when a^k divides T_k for every gamma and every
    k <= t, because the matrix (C(t, k)) is lower triangular with ones on
    the diagonal.  So once the cells up to ord u pass, every T_k is
    divisible and every later cell passes.
    """
    return all(row.ok for row in _tangency_rows(u, arr, max(u.order or 0, 1)))


def is_tangent_q(u: DiffOp, arr: Arrangement, t_max: int) -> bool:
    """Truncated tangency through powers of the defining polynomial Q.

    True when u * Q^t lies in Q^t * Diff for t = 1..t_max.  No operator
    product is formed.  With ad_Q(v) = [v, Q], right multiplication by Q
    is left multiplication by Q plus ad_Q, and the two commute, so
    u * Q^t = sum_k C(t, k) Q^(t-k) ad_Q^k(u).  The d^gamma coefficient of
    u * Q^t is sum_k C(t, k) Q^(t-k) B_k with B_k that of ad_Q^k(u), which
    does not depend on t.  The matrix (C(t, k)) is lower triangular with
    ones on the diagonal, so the cells 1..t all pass exactly when Q^k
    divides B_k for every gamma and every k <= t.  Each bracket lowers the
    order, so ad_Q^k(u) = 0 beyond k = ord u, the first zero bracket
    settles every later cell, and t_max = max(ord u, 1) is exact.

    This route stays independent of ``is_tangent``: it brackets with the
    whole Q through the general Leibniz rule of ``weyl.commutator`` and
    divides by powers of Q, where ``is_tangent`` brackets with one linear
    form at a time and divides by powers of that form.  The powers Q^k
    come from the arrangement's frame (``_frame``), which keeps them.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if u.nvars != arr.dim:
        raise ValueError("operator over a different ambient dimension")
    frame = _frame(arr)
    bracket = u
    try:
        for k in range(1, t_max + 1):
            bracket = commutator(bracket, frame.q)
            if not bracket:
                return True
            power = frame.q_power(k)
            if not all(divides(power, c) for c in bracket.terms.values()):
                return False
        return True
    finally:
        frame.trim()


@dataclass(frozen=True)
class TangencyRow:
    """One (form, power) cell of the tangency table, with a witness on failure."""

    form_index: int
    t: int
    ok: bool
    witness: tuple[tuple[int, ...], Poly] | None = None


def _tangency_rows(u: DiffOp, arr: Arrangement, t_max: int):
    """Yield the cells form by form, t = 1..t_max within each form.

    No operator product is formed.  With ad_a(v) = [v, a] = v * a - a * v,
    right multiplication by a is left multiplication by a plus ad_a, and
    the two commute, so u * a^t = sum_k C(t, k) a^(t-k) ad_a^k(u).
    With T_k the d^gamma coefficient of ad_a^k(u) and K = min(t, last
    nonzero k), the d^gamma coefficient of u * a^t is a^(t-K) * R with
    R = sum_{k <= K} C(t, k) a^(K-k) T_k, and a^t divides it exactly when
    a^K divides R.  While every earlier cell of the form passed, a^k
    already divides T_k for k < t, so cell t passes exactly when a^t
    divides T_t for every gamma.  From the first failing cell on, each
    cell is decided from R.  The gamma are checked in graded order; the
    first one that fails is the witness, with its full coefficient
    a^(t-K) * R.  Each bracket with a (``weyl._bracket_linear``) lowers
    the order by one, and cell t reads T_k only for k <= t, so the
    brackets stop by k = min(ord u, t_max).
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if u.nvars != arr.dim:
        raise ValueError("operator over a different ambient dimension")
    zero = Poly.zero(arr.dim)
    for i, form in enumerate(arr.forms, start=1):
        brackets = [u.terms]
        while len(brackets) <= t_max and (nxt := _bracket_linear(brackets[-1], form.coeffs)):
            brackets.append(nxt)
        last = len(brackets) - 1
        # A gamma that no bracket reaches has coefficient c_gamma * a^t.
        gammas = sorted({g for level in brackets[1:] for g in level})
        powers = [Poly.one(arr.dim)]
        failed = False
        for t in range(1, t_max + 1):
            powers.append(powers[-1] * form)
            witness = None
            for gamma in gammas:
                if not failed:
                    coeff = brackets[t].get(gamma) if t <= last else None
                    if coeff is None or divides(powers[t], coeff):
                        continue
                k_max = min(t, last)
                r = brackets[0].get(gamma, zero)
                for k in range(1, k_max + 1):
                    r = r * form + brackets[k].get(gamma, zero) * comb(t, k)
                if failed and divides(powers[k_max], r):
                    continue
                witness = DiffOp._make(arr.dim, {gamma: r * powers[t - k_max]}).sorted_terms()[0]
                break
            failed = failed or witness is not None
            yield TangencyRow(i, t, witness is None, witness)


def tangency_table(u: DiffOp, arr: Arrangement, t_max: int) -> list[TangencyRow]:
    """Per-form, per-power results; failures carry the offending coefficient."""
    return list(_tangency_rows(u, arr, t_max))


def reassemble(dec: Decomposition) -> DiffOp:
    """Expand the word sum back into one normally ordered operator.

    A decomposition that ``decompose`` or ``transport`` returned reuses the
    word fold that formed its words; any other one gets a fold of its own
    ``generators`` on first use.
    """
    if not dec.generators:
        raise ValueError("decomposition carries no generators")
    word_op = _kept_for(dec) or _keep(dec, word_fold(dec.generators))
    return _word_sum(word_op, ((w.coeff, w.word) for w in dec.words), dec.generators[0].nvars)


def _word_sum(word_op, pairs, n: int) -> DiffOp:
    """The operator sum of coeff * word_op(word) over the (coeff, word)
    pairs, started from the first summand so that it is not copied."""
    summands = (coeff * word_op(word) for coeff, word in pairs)
    return sum(summands, next(summands, DiffOp.zero(n)))


class _Frame:
    """What ``transport``, ``is_tangent_q`` and ``decompose`` keep of one
    arrangement for its lifetime: Q, formed here alone (``Arrangement.q``
    reads it), the generators Q*d_1 .. Q*d_l, their word fold, and the
    powers of Q, up to the largest order requested.

    Every value is a function of Q alone, so threads may share a frame: a
    word formed twice in a race is the same word, and ``q_power`` installs
    a longer list of powers whole, so every list a thread reads has Q^k at
    index k.  Each call that used the frame ends with ``trim``.
    """

    __slots__ = ("q", "generators", "word", "powers")

    def __init__(self, arr: Arrangement):
        n = arr.dim
        self.q = prod(arr.forms, start=Poly.one(n))
        self.generators = tuple(
            Derivation(tuple(self.q if j == i else Poly.zero(n) for j in range(n)))
            for i in range(n)
        )
        self.word = word_fold(self.generators)
        self.powers = [Poly.one(n)]

    def q_power(self, e: int) -> Poly:
        """Q^e, extending a copy of the list of powers as far as e."""
        powers = self.powers
        if e >= len(powers):
            powers = powers[:]
            while len(powers) <= e:
                powers.append(powers[-1] * self.q)
            self.powers = powers
        return powers[e]

    def trim(self) -> None:
        """Start the word fold or the powers afresh once either keeps more
        than ``MAX_TERMS`` terms: a call keeps every prefix and power it
        forms, and the frame keeps at most a parsed operator's worth."""
        self.word = self.word.trimmed(MAX_TERMS)
        if sum(len(power.terms) for power in self.powers) > MAX_TERMS:
            self.powers = self.powers[:1]


class _Basis:
    """What ``decompose`` keeps of one ``SaitoBasis`` for its lifetime:
    det Theta, the word fold of the basis derivations and the product fold
    of the linear forms xi_j = sum_i adj(Theta)_ji y_i.

    Both folds are functions of the basis alone, so threads may share
    them, and ``trim`` bounds them as ``_Frame.trim`` bounds a frame.
    """

    __slots__ = ("det", "word", "xi")

    def __init__(self, basis: SaitoBasis):
        thetas = basis.thetas
        theta = [list(th.coeffs) for th in thetas]
        adj = _adjugate(theta)
        # Laplace along the first row of Theta reads det Theta off the
        # cofactors in adj(Theta).
        self.det = sum((a * adj[j][0] for j, a in enumerate(theta[0])),
                       Poly.zero(thetas[0].nvars))
        self.word = word_fold(thetas)
        self.xi = _form_product_fold(adj)

    def trim(self) -> None:
        self.word, self.xi = self.word.trimmed(MAX_TERMS), self.xi.trimmed(MAX_TERMS)


# What this module keeps for a live object, by ``id``: an arrangement's
# ``_Frame`` and a basis's ``_Basis``, which their ``trim`` bounds between
# calls (``PrefixFold.trimmed``), and the word fold that formed a
# decomposition.  The weak reference in each entry removes it when the
# object dies, before its ``id`` can be reused.
_kept: dict[int, tuple[weakref.ref, object]] = {}


def _keep(obj, value):
    """Keep ``value`` for ``obj`` while ``obj`` lives; return ``value``."""
    key = id(obj)
    _kept[key] = (weakref.ref(obj, lambda _, key=key: _kept.pop(key, None)), value)
    return value


def _kept_for(obj):
    """The value kept for ``obj``, or None."""
    entry = _kept.get(id(obj))
    return None if entry is None else entry[1]


def _frame(arr: Arrangement) -> _Frame:
    """The arrangement's frame, built on first use."""
    return _kept_for(arr) or _keep(arr, _Frame(arr))


def transport(u: DiffOp, arr: Arrangement) -> Decomposition:
    """Represent Q^C(p+1,2) * u as words in the generators Q*d_1 .. Q*d_l.

    Peels the top normal-form layer one level at a time: multiplying the
    current operator, of order p, by Q^p turns each top term into a word
    in the Q-scaled partials up to an error of order below p, which the
    next level peels: Q^p times the operator, minus the level's words as
    one ``_word_sum``.  One exponent e starts at C(p+1, 2) and each level
    of order p spends p of it, so that level's words carry Q^e; the
    order-0 rest is the empty word.  Reassembling the result gives
    Q^C(p+1,2) * u exactly, where p is the order of u.

    The generators, their words and the powers Q^e and Q^p come from the
    arrangement's frame (``_frame``), which keeps them for the
    arrangement's lifetime: the powers of Q up to max(p, C(p, 2)) and the
    words up to the largest order p requested, until either keeps more
    than ``MAX_TERMS`` terms when a call ends (``_Frame.trim``, through
    ``PrefixFold.trimmed`` for the words).  The result keeps the word fold
    that formed it, trimmed or not, so ``reassemble`` forms none of its
    words again.
    """
    if u.nvars != arr.dim:
        raise ValueError("operator over a different ambient dimension")
    if not u:
        raise ValueError("the zero operator has no transport representation")
    frame = _frame(arr)
    word_op = frame.word
    words = []
    cur = u
    e = comb(u.order + 1, 2)
    try:
        while cur and cur.order:
            p = cur.order
            e -= p
            qe = frame.q_power(e)
            level = [(coeff, _letters(beta)) for beta, coeff in cur.top_terms()]
            words.extend(Word(qe * coeff, word) for coeff, word in level)
            nxt = frame.q_power(p) * cur - _word_sum(word_op, level, arr.dim)
            if nxt and nxt.order >= p:
                raise AssertionError("transport must drop the order")
            cur = nxt
        if cur:
            words.append(Word(frame.q_power(e) * cur.value_at_one(), ()))
    finally:
        frame.trim()
    dec = Decomposition(tuple(words), frame.generators)
    _keep(dec, word_op)
    return dec


def _letters(exponents: Sequence[int]) -> tuple[int, ...]:
    """The weakly increasing 1-based letters with these multiplicities:
    (2, 0, 1) gives (1, 1, 3)."""
    return tuple(j for j, e in enumerate(exponents, start=1) for _ in range(e))


def _adjugate(m: list[list[Poly]]) -> list[list[Poly]]:
    """adj(m)[j][i] is the (i, j) cofactor, so that m * adj(m) = det(m) * I."""
    n = len(m)
    if n == 1:
        return [[Poly.one(m[0][0].nvars)]]
    return [
        [
            determinant([r[:j] + r[j + 1:] for k, r in enumerate(m) if k != i])
            * (-1) ** (i + j)
            for i in range(n)
        ]
        for j in range(n)
    ]


def decompose(u: DiffOp, arr: Arrangement, basis: SaitoBasis) -> Decomposition:
    """Write a tangent operator as words in the basis derivations.

    Works down one order level at a time through the principal symbol.
    With Theta = (theta_i(x_j)) and det Theta = lambda * Q, the symbol of
    the word at index K is (Theta xi)^K, so an order-p operator whose top
    part is sum_K c_K theta^K has symbol sum_K c_K (Theta xi)^K.
    Substituting xi = adj(Theta) y turns Theta xi into lambda * Q * y, so
    the coefficient of y^K in the substituted symbol is (lambda Q)^p * c_K.
    Level p is thus read off rows of Sym^p(adj Theta): the top term
    a_beta d^beta becomes a_beta times the product of the linear forms
    xi_j = sum_i adj(Theta)_ji y_i over the letters of beta, expanded by
    the fold that builds ``sym_power_matrix`` rows.  lambda is the
    certified ``basis.scalar``.  det Theta is read off adj(Theta) once per
    basis, and every call compares it with lambda * Q for the arrangement
    given: a mismatch is a ValueError.  Exact division by Q^p lambda^p
    (Q^p from the frame, ``_frame``) extracts c_K.  A failed division is a
    DecompositionError naming the level and the index: that is the
    certificate that u is not a word combination.  The c_K are the same
    rational functions that Cramer's rule reads off the higher Jacobians,
    so a failed division names the same first index on either route: each
    level divides its nonzero numerators in ``sym_indices`` order.

    Once every division at level p succeeds, subtracting the recovered
    words (one ``_word_sum``) always drops the order, so that step is an
    invariant check (an AssertionError, raised under ``python -O`` too)
    and not a negative result.  After the substitution, the order-p symbol
    of the remainder is sum_K (N_K - (lambda Q)^p c_K) y^K, where N_K is
    the y^K coefficient that was divided, and every term is zero once
    N_K = (lambda Q)^p c_K.  The substitution xi = adj(Theta) y is
    injective on polynomials in xi, because det adj(Theta) =
    (lambda Q)^(n-1) is nonzero, so the remainder's order-p symbol is
    itself zero.

    det Theta, the word fold of the basis derivations and the product fold
    of the xi_j are kept for the basis's lifetime (``_Basis``), so later
    calls reuse the xi products and words that earlier calls formed.  A
    call keeps every prefix it forms, so a word of length p costs p
    products; when it ends, a fold that keeps more than ``MAX_TERMS`` terms
    starts afresh (``PrefixFold.trimmed``).  The result keeps the word fold
    that formed it, trimmed or not, and ``reassemble`` reuses its words.

    A successful decomposition certifies tangency, so no separate test
    runs: it reassembles to u exactly, and every word is a product of
    tangent derivations, so u is tangent.  Conversely, by Saito's theorem
    and the decomposition theorem every tangent operator over a free
    arrangement is a word combination in a certified basis, so a tangent u
    never fails.
    """
    n = arr.dim
    if u.nvars != n:
        raise ValueError("operator over a different ambient dimension")
    prepared = _kept_for(basis) or _keep(basis, _Basis(basis))
    frame = _frame(arr)
    # The certificate says det Theta = lambda * Q, for this arrangement's Q.
    lam_q = frame.q * basis.scalar
    if not lam_q or prepared.det != lam_q:
        raise ValueError(
            "basis Jacobian is not the certified nonzero scalar times the defining polynomial"
        )
    word_op, xi_fold = prepared.word, prepared.xi
    words: list[Word] = []
    cur = u
    try:
        while cur and cur.order >= 1:
            p = cur.order
            numerators: dict[tuple[int, ...], Poly] = {}
            for beta, a in cur.top_terms():
                for mult, c in xi_fold(_letters(beta)).items():
                    acc = numerators.get(mult)
                    numerators[mult] = a * c if acc is None else acc + a * c
            divisor = frame.q_power(p) * basis.scalar ** p
            level_words: list[tuple[Poly, tuple[int, ...]]] = []
            # Ascending letter tuples are in ``sym_indices`` order.
            for k, numer in sorted((_letters(mult), c) for mult, c in numerators.items() if c):
                try:
                    coeff = exact_divide(numer, divisor)
                except NotDivisibleError:
                    # The rest of the line is about 170 bytes, so a long
                    # index is quoted shorter than a token; ``index`` keeps
                    # it whole.
                    raise DecompositionError(
                        f"level {p}, index {_quote(k, QUOTE_CHARS // 2)}: symbol "
                        "coefficient is not divisible by the scaled power of the "
                        "defining polynomial; the operator is not a word "
                        "combination at this level",
                        level=p, index=k,
                    ) from None
                level_words.append((coeff, k))
            nxt = cur - _word_sum(word_op, level_words, n)
            if nxt and nxt.order >= p:
                raise AssertionError("decompose must drop the order")
            words.extend(Word(coeff, k) for coeff, k in level_words)
            cur = nxt
    finally:
        prepared.trim()
        frame.trim()
    if cur:
        words.append(Word(cur.value_at_one(), ()))
    dec = Decomposition(tuple(words), basis.thetas)
    _keep(dec, word_op)
    return dec


def decomposition_to_json(dec: Decomposition) -> list[dict]:
    """Stable JSON form: longest words first, then lexicographic order."""
    ordered = sorted(dec.words, key=lambda w: (-len(w.word), w.word))
    return [{"coeff": render(w.coeff), "word": list(w.word)} for w in ordered]
