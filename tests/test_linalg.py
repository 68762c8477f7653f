import random
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mat_mul, random_poly, sym_power_matrix_by_permanents
from logdiff.exprparse import parse_poly
from logdiff.linalg import (
    determinant,
    multiplicity_product,
    multiplicity_vector,
    permanent,
    PrefixFold,
    sym_indices,
    sym_power_det_identity_holds,
    sym_power_matrix,
)
from logdiff.polyring import Poly
from logdiff.sampling import random_int_matrix


def P(text, nvars):
    return parse_poly(text, nvars)


def brute_permanent(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + prod
    return total


def brute_determinant(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1 if sign > 0 else -1
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + prod
    return total


# -- index enumeration ---------------------------------------------------------

def test_sym_indices_small_cases():
    assert sym_indices(3, 2) == [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    assert sym_indices(1, 4) == [(1, 1, 1, 1)]
    assert sym_indices(2, 0) == [()]


def test_sym_indices_count_and_order():
    for dim in (1, 2, 3, 4):
        for power in range(5):
            idxs = sym_indices(dim, power)
            assert len(idxs) == comb(power + dim - 1, dim - 1)
            assert idxs == sorted(idxs)
            assert all(t == tuple(sorted(t)) for t in idxs)


def test_multiplicity_factorial():
    assert multiplicity_vector((1, 1, 3), 3) == (2, 0, 1)
    assert multiplicity_vector((1, 2), 2) == (1, 1)
    assert multiplicity_vector((2, 2, 2, 2), 2) == (0, 4)
    # (1,1,1,1), (1,1,1,2), (1,1,2,2), (1,2,2,2), (2,2,2,2)
    assert multiplicity_product(2, 4) == 24 * 6 * 4 * 6 * 24
    with pytest.raises(ValueError):
        multiplicity_vector((3,), 2)


def test_multiplicity_product():
    assert multiplicity_product(1, 3) == 6
    assert multiplicity_product(2, 2) == 4
    for dim in (1, 2, 3):
        assert multiplicity_product(dim, 1) == 1
    # independent recomputation straight from the definition
    for dim, power in ((2, 3), (3, 2)):
        expected = 1
        for idx in sym_indices(dim, power):
            counts = [idx.count(j) for j in range(1, dim + 1)]
            for c in counts:
                expected *= factorial(c)
        assert multiplicity_product(dim, power) == expected


# -- permanents -----------------------------------------------------------------

def test_permanent_small_examples():
    assert permanent([[1, 2], [3, 4]]) == 10
    for n in (1, 2, 3, 4, 5):
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert permanent(eye) == 1
    assert permanent([[1] * 3] * 3) == brute_permanent([[1] * 3] * 3) == 6


def test_permanent_zero_row():
    assert permanent([[0, 0], [1, 2]]) == 0


def test_permanent_matches_determinant_on_diagonal():
    m = [[3 if i == j else 0 for j in range(4)] for i in range(4)]
    assert permanent(m) == determinant(m) == 81
    assert permanent([[7]]) == determinant([[7]]) == 7


def test_permanent_ryser_against_brute_force():
    rng = random.Random(5)
    for n in range(1, 7):
        for _ in range(5):
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert permanent(m) == brute_permanent(m)
    for n in (1, 2, 3):
        m = [[random_poly(rng, 2, max_degree=1) for _ in range(n)] for _ in range(n)]
        assert permanent(m) == brute_permanent(m)


def test_permanent_rejects_nonsquare():
    with pytest.raises(ValueError):
        permanent([[1, 2, 3], [4, 5, 6]])


# -- determinants -----------------------------------------------------------------

def test_determinant_polynomial_example():
    m = [[P("x", 2), P("x^2", 2)], [P("y", 2), P("-y^2", 2)]]
    # 2x2 cofactor oracle
    expected = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert determinant(m) == expected == P("-x*y^2 - x^2*y", 2)


def test_determinant_identity_and_repeated_row():
    eye = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert determinant(eye) == 1
    m = [[1, 2, 3], [1, 2, 3], [4, 5, 6]]
    assert determinant(m) == 0


def test_determinant_bareiss_against_brute_force_ints():
    rng = random.Random(11)
    for n in (5, 6):
        for _ in range(5):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert determinant(m) == brute_determinant(m)


def test_determinant_bareiss_mixed_int_and_fraction_entries():
    # integer entries take the direct integer division, which must not
    # apply once one entry is a Fraction: then quotients of ints need not
    # be ints
    rng = random.Random(13)
    for n in (5, 6):
        for _ in range(5):
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            m[rng.randrange(n)][rng.randrange(n)] = Fraction(rng.randint(1, 5), rng.randint(2, 4))
            assert determinant(m) == brute_determinant(m)


def test_determinant_bareiss_against_brute_force_polys():
    rng = random.Random(12)
    for _ in range(3):
        m = [[random_poly(rng, 2, max_degree=1) for _ in range(5)]
             for _ in range(5)]
        assert determinant(m) == brute_determinant(m)


def test_determinant_rational_entries():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
    assert determinant(m) == Fraction(1, 10) - Fraction(1, 12)


def test_determinant_bareiss_zero_pivot_forces_swap():
    m = [
        [0, 1, 2, 3, 4],
        [1, 0, 1, 0, 1],
        [2, 1, 0, 1, 2],
        [3, 0, 1, 0, 3],
        [4, 1, 2, 3, 0],
    ]
    assert determinant(m) == brute_determinant(m)
    zero_pivot_poly = [[Poly.zero(1) if i == j == 0 else P(f"x^{i + j}", 1)
                        for j in range(5)] for i in range(5)]
    assert determinant(zero_pivot_poly) == brute_determinant(zero_pivot_poly)


def test_determinant_bareiss_singular():
    m = [
        [1, 2, 3, 4, 5],
        [2, 4, 6, 8, 10],
        [0, 1, 0, 1, 0],
        [1, 1, 1, 1, 1],
        [0, 0, 0, 1, 1],
    ]
    assert determinant(m) == brute_determinant(m) == 0


# -- symmetric powers ----------------------------------------------------------------

def test_sym_power_is_identity_for_power_one():
    m = [[1, 2], [3, 4]]
    assert sym_power_matrix(m, 1) == [[1, 2], [3, 4]]


def test_sym_power_diagonal_case():
    lam = 5
    m = [[lam, 0], [0, 1]]
    s = sym_power_matrix(m, 2)
    assert s == [[2 * lam ** 2, 0, 0], [0, lam, 0], [0, 0, 2]]


def test_sym_power_unipotent_determinant():
    s = sym_power_matrix([[1, 1], [0, 1]], 2)
    assert determinant(s) == brute_determinant(s) == 4


def test_sym_power_det_identity_examples():
    assert sym_power_det_identity_holds([[1, 1], [0, 1]], 2)
    assert sym_power_det_identity_holds([[2, 0], [0, 1]], 2)
    # closed form for diag(2,1), p=2: 4 * det^3 = 32
    assert determinant(sym_power_matrix([[2, 0], [0, 1]], 2)) == 32


def test_sym_power_det_identity_singular_matrix():
    m = [[1, 2], [2, 4]]
    assert determinant(m) == 0
    assert determinant(sym_power_matrix(m, 2)) == 0
    assert sym_power_det_identity_holds(m, 2)


def test_sym_power_det_identity_random_suite():
    rng = random.Random(23)
    for dim in (1, 2, 3):
        for power in (0, 1, 2, 3):
            for _ in range(5):
                m = random_int_matrix(rng, dim)
                assert sym_power_det_identity_holds(m, power)


def test_sym_power_det_invariant_under_index_reordering():
    rng = random.Random(29)
    m = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
    s = sym_power_matrix(m, 2)
    want = determinant(s)
    for perm in permutations(range(len(s))):
        reordered = [[s[perm[i]][perm[j]] for j in range(len(s))] for i in range(len(s))]
        assert determinant(reordered) == want


def test_rescaled_sym_power_is_multiplicative():
    # dividing column j by its multiplicity factorial gives the matrix of the
    # induced map on the symmetric power, which is multiplicative
    rng = random.Random(37)
    dim, power = 2, 2
    facts = [prod(factorial(e) for e in multiplicity_vector(idx, dim))
             for idx in sym_indices(dim, power)]

    def rescale(s):
        return [[Fraction(s[i][j], facts[j]) for j in range(len(s))] for i in range(len(s))]

    for _ in range(10):
        a = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        b = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        left = rescale(sym_power_matrix(mat_mul(a, b), power))
        right = mat_mul(rescale(sym_power_matrix(a, power)),
                        rescale(sym_power_matrix(b, power)))
        assert left == right


def test_prefix_fold_shares_prefixes():
    calls = []

    def step(k, j):
        calls.append(k + (j,))
        return k + (j,)

    def prefixes(tuples):
        return sorted({k[:t] for k in tuples for t in range(1, len(k) + 1)})

    for dim, power in ((1, 3), (2, 0), (3, 2), (4, 3)):
        idxs = sym_indices(dim, power)
        calls.clear()
        fold = PrefixFold((), step, len)
        assert [fold(k) for k in idxs] == idxs
        # one step per weakly increasing tuple of each length 1..power
        assert sorted(calls) == sorted(k for t in range(1, power + 1) for k in sym_indices(dim, t))
        # a subset out of order, asked twice: one step per distinct prefix
        subset = idxs[::-2]
        calls.clear()
        fold = PrefixFold((), step, len)
        assert [fold(k) for k in subset + subset] == subset + subset
        assert sorted(calls) == prefixes(subset)
        # the size of every kept value is counted once, the start's too
        assert fold.terms == sum(map(len, prefixes(subset)))


def test_prefix_fold_long_word_does_not_recurse():
    # 5,000 letters is well past the default recursion limit of 1,000.
    word = tuple(i % 3 + 1 for i in range(5000))
    calls = []

    def step(acc, j):
        calls.append(j)
        return 2 * acc + j

    values = [0]
    for j in word:
        values.append(2 * values[-1] + j)
    fold = PrefixFold(0, step, lambda value: 1)
    assert fold(word) == values[-1]
    # every prefix was kept: reading one back forms nothing new
    assert fold(word[:4000]) == values[4000]
    assert len(calls) == len(word) == fold.terms - 1


def test_prefix_fold_trimmed():
    calls = []

    def step(k, j):
        calls.append(k + (j,))
        return k + (j,)

    fold = PrefixFold((), step, lambda value: len(value) + 1)
    fold((1, 2, 3))
    fold((2,))
    # sizes 1 (start) + 2 + 3 + 4 + 2
    assert fold.terms == 12
    assert fold.trimmed(12) is fold and fold.trimmed(100) is fold
    fresh = fold.trimmed(11)
    assert fresh is not fold
    # the same start, sized alone
    assert fresh(()) == () and fresh.terms == 1
    # it forms values again, through the same step
    calls.clear()
    assert fresh((1, 2)) == (1, 2) and calls == [(1,), (1, 2)]
    assert fresh.terms == 1 + 2 + 3
    # the old fold still answers from its trie, with its count
    calls.clear()
    assert fold((1, 2, 3)) == (1, 2, 3) and fold((2,)) == (2,) and calls == []
    assert fold.terms == 12


def _random_entry(rng, kind):
    if kind == "int":
        return rng.randint(-5, 5)
    if kind == "fraction":
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return random_poly(rng, 2, max_degree=1)


@pytest.mark.parametrize("kind", ["int", "fraction", "poly"])
def test_sym_power_matrix_matches_permanent_oracle(kind):
    # Powers 5 and 6 take the Ryser path inside the oracle's permanents.
    # Rational and polynomial entries skip the largest sizes, where the
    # oracle alone takes seconds.
    rng = random.Random(53)
    for dim in (1, 2, 3, 4):
        for power in range(7):
            if kind != "int" and comb(power + dim - 1, dim - 1) > 21:
                continue
            m = [[_random_entry(rng, kind) for _ in range(dim)] for _ in range(dim)]
            assert sym_power_matrix(m, power) == sym_power_matrix_by_permanents(m, power)


def test_sym_power_matrix_on_singular_and_sparse_inputs():
    for m in ([[0, 0], [0, 0]], [[0, 1], [0, 0]], [[1, 2], [2, 4]], [[0, 0, 3], [0, 0, 0], [1, 0, 0]]):
        for power in range(5):
            assert sym_power_matrix(m, power) == sym_power_matrix_by_permanents(m, power)


_entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
           lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)),
       st.integers(0, 5))
def test_sym_power_matrix_matches_oracle_hypothesis(m, power):
    assert sym_power_matrix(m, power) == sym_power_matrix_by_permanents(m, power)
