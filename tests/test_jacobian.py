import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_linear_map,
    commutator_value_matrix_by_products,
    jacobian_power_identity_by_products,
    random_derivation,
    random_diffop,
    random_poly,
    substitute_entry,
)
from logdiff import jacobian
from logdiff.arrangement import builtin_arrangement
from logdiff.exprparse import parse_diffop, parse_poly
from logdiff.jacobian import (
    OpFamily,
    commutator_value_matrix,
    higher_jacobian,
    jacobian_power_identity,
    product_family,
)
from logdiff.cli import main
from logdiff.linalg import determinant, multiplicity_product, permanent, sym_indices, sym_power_matrix
from logdiff.polyring import Poly, coordinates
from logdiff.weyl import DiffOp, commutator, iterated_commutator, value_at_one_expansion


def P(text, nvars):
    return parse_poly(text, nvars)


def D(text, nvars):
    return parse_diffop(text, nvars)


# -- families -------------------------------------------------------------------

def test_product_family_single_variable():
    arr, thetas = builtin_arrangement("boolean1")
    fam = product_family(thetas, 2)
    assert fam.entries == (D("x^2*d1^2 + x*d1", 1),)


def test_product_family_power_one_is_the_tuple():
    arr, thetas = builtin_arrangement("boolean2")
    fam = product_family(thetas, 1)
    assert fam.entries == tuple(thetas)


def test_product_family_constant_coefficients():
    ops = (DiffOp.partial(2, 1), DiffOp.partial(2, 2))
    fam = product_family(ops, 2)
    assert fam.entries == (D("d1^2", 2), D("d1*d2", 2), D("d2^2", 2))


def test_family_completeness_enforced():
    with pytest.raises(ValueError):
        OpFamily(2, 2, (DiffOp.one(2),))


def test_substitute_entry():
    arr, thetas = builtin_arrangement("boolean1")
    fam = product_family(thetas, 2)
    w = D("x^2*d1^2", 1)
    swapped = substitute_entry(fam, w, (1, 1))
    assert swapped.entries == (w,)
    assert substitute_entry(swapped, fam.entries[0], (1, 1)) == fam
    with pytest.raises(ValueError):
        substitute_entry(fam, w, (1, 2))


# -- higher Jacobians --------------------------------------------------------------

def test_power_one_is_the_usual_jacobian():
    fam = OpFamily(2, 1, (DiffOp.partial(2, 1), DiffOp.partial(2, 2)))
    assert higher_jacobian(coordinates(2), fam) == Poly.one(2)


def test_single_variable_power_two_value():
    arr, thetas = builtin_arrangement("boolean1")
    fam = product_family(thetas, 2)
    assert higher_jacobian(coordinates(1), fam) == P("2*x^2", 1)


def test_low_order_entry_kills_the_jacobian():
    rng = random.Random(41)
    arr, thetas = builtin_arrangement("boolean2")
    fam = product_family(thetas, 2)
    for idx in fam.index_tuples:
        low = DiffOp.from_poly(random_poly(rng, 2)) + random_poly(rng, 2) * DiffOp.partial(2, 1)
        swapped = substitute_entry(fam, low, idx)
        assert higher_jacobian(coordinates(2), swapped) == Poly.zero(2)


def test_s_linearity_in_each_entry():
    rng = random.Random(42)
    arr, thetas = builtin_arrangement("boolean2")
    fam = product_family(thetas, 2)
    fs = coordinates(2)
    for _ in range(6):
        idx = rng.choice(fam.index_tuples)
        a = random_poly(rng, 2)
        w1 = thetas[0] * thetas[rng.randint(0, 1)]
        w2 = thetas[1] * thetas[rng.randint(0, 1)]
        combined = higher_jacobian(fs, substitute_entry(fam, a * w1 + w2, idx))
        split = (a * higher_jacobian(fs, substitute_entry(fam, w1, idx))
                 + higher_jacobian(fs, substitute_entry(fam, w2, idx)))
        assert combined == split


def test_linear_change_of_coordinates_scaling():
    rng = random.Random(43)
    arr, thetas = builtin_arrangement("boolean2")
    for power in (1, 2):
        fam = product_family(thetas, power)
        fs = coordinates(2)
        for _ in range(4):
            a = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
            lhs = higher_jacobian(apply_linear_map(a, fs), fam)
            rhs = determinant(a) ** comb(power + 1, 2) * higher_jacobian(fs, fam)
            assert lhs == rhs


def test_commutator_value_matrix_matches_unshared_routes():
    # Against brackets rebuilt per entry from operator products, and
    # against inclusion-exclusion through polynomial application.
    rng = random.Random(47)
    nonzero = 0
    for trial in range(20):
        nvars = rng.choice([1, 2, 3])
        power = rng.randint(1, 3 if nvars < 3 else 2)
        entries = []
        for _ in sym_indices(nvars, power):
            beta = [0] * nvars
            for _ in range(power):
                beta[rng.randrange(nvars)] += 1
            top = DiffOp(nvars, {tuple(beta): random_poly(rng, nvars, nonzero=True)})
            entries.append(top + random_diffop(rng, nvars, max_order=power + 1))
        fam = OpFamily(nvars, power, tuple(entries))
        fs = coordinates(nvars) if trial % 2 else [random_poly(rng, nvars) for _ in range(nvars)]
        got = commutator_value_matrix(fs, fam)
        assert got == commutator_value_matrix_by_products(fs, fam)
        assert got == [
            [value_at_one_expansion(u, [fs[j - 1] for j in jdx]) for jdx in fam.index_tuples]
            for u in fam.entries
        ]
        nonzero += sum(1 for row in got for x in row if x)
    assert nonzero > 40


def _bracket_route(fs, fam):
    """Every entry bracketed from scratch through ``iterated_commutator``."""
    return [[iterated_commutator(u, [fs[j - 1] for j in jdx]).value_at_one()
             for jdx in fam.index_tuples] for u in fam.entries]


def _order_term(rng, nvars, order):
    """c * d^beta with |beta| = order and a random nonzero polynomial c."""
    beta = [0] * nvars
    for _ in range(order):
        beta[rng.randrange(nvars)] += 1
    return DiffOp(nvars, {tuple(beta): random_poly(rng, nvars, nonzero=True)})


def _straddling_family(rng, nvars, power):
    """Entries with terms of order power - 1, power and power + 1."""
    entries = []
    for _ in sym_indices(nvars, power):
        u = _order_term(rng, nvars, power) + _order_term(rng, nvars, power + 1)
        entries.append(u + _order_term(rng, nvars, power - 1) if power else u)
    return OpFamily(nvars, power, tuple(entries))


def _no_bracket(*args):
    raise AssertionError("the linear route formed a bracket")


_scalars = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))


@st.composite
def _linear_fs(draw, nvars):
    """Forms c + sum alpha_k x_k with rational coefficients, constants
    among them, and forms repeated."""
    fs = []
    for _ in range(nvars):
        kind = draw(st.sampled_from(("form", "constant", "repeat") if fs else ("form", "constant")))
        if kind == "repeat":
            fs.append(draw(st.sampled_from(fs)))
            continue
        alpha = [0] * nvars if kind == "constant" else draw(st.lists(_scalars, min_size=nvars,
                                                                        max_size=nvars))
        terms = {tuple(int(k == j) for k in range(nvars)): a for j, a in enumerate(alpha)}
        terms[(0,) * nvars] = draw(_scalars)
        fs.append(Poly(nvars, terms))
    return fs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    _linear_fs(n), st.integers(0, 3 if n < 3 else 2), st.randoms(use_true_random=False))))
def test_linear_route_matches_brackets(case):
    # Against brackets per entry from operator products and from
    # ``weyl.commutator``; entries straddle the order p.
    fs, power, rng = case
    fam = _straddling_family(rng, len(fs), power)
    got = commutator_value_matrix(fs, fam)
    assert got == commutator_value_matrix_by_products(fs, fam)
    assert got == _bracket_route(fs, fam)


def test_linear_route_forms_no_bracket(monkeypatch):
    rng = random.Random(48)
    half = Fraction(1, 2)
    x, y, z = coordinates(3)
    cases = [
        (coordinates(2), product_family(builtin_arrangement("triple2")[1], 3)),
        (coordinates(4), product_family(builtin_arrangement("D4")[1], 2)),
        ([x - half * y + 2, Poly.constant(3, 5), x - half * y + 2], _straddling_family(rng, 3, 2)),
        ([half * x + 3 * y - z, y + 1, z], _straddling_family(rng, 3, 0)),
        ([Fraction(-2, 3) * coordinates(1)[0] + 1], _straddling_family(rng, 1, 3)),
    ]
    expected = [_bracket_route(fs, fam) for fs, fam in cases]
    monkeypatch.setattr(jacobian, "commutator", _no_bracket)
    for (fs, fam), want in zip(cases, expected):
        got = commutator_value_matrix(fs, fam)
        assert got == want
        assert got == commutator_value_matrix_by_products(fs, fam)
    assert any(x for row in expected[2] for x in row)


def test_one_nonlinear_f_takes_the_bracket_route(monkeypatch):
    rng = random.Random(49)
    x, y = coordinates(2)
    fs = [x + 2 * y - 1, x * y + y]
    fam = _straddling_family(rng, 2, 2)
    brackets = []

    def counted(w, f):
        brackets.append(f)
        return commutator(w, f)
    monkeypatch.setattr(jacobian, "commutator", counted)
    got = commutator_value_matrix(fs, fam)
    assert got == commutator_value_matrix_by_products(fs, fam)
    assert got == _bracket_route(fs, fam)
    assert fs[1] in brackets


def test_product_family_entries_are_left_to_right_products():
    arr, thetas = builtin_arrangement("triple2")
    ops = thetas
    for power in (0, 1, 2, 3):
        fam = product_family(thetas, power)
        for idx, entry in zip(sym_indices(2, power), fam.entries):
            w = DiffOp.one(2)
            for i in idx:
                w = w * ops[i - 1]
            assert entry == w


def test_commutator_value_matrix_of_product_family():
    arr, thetas = builtin_arrangement("triple2")
    fs = coordinates(2)
    for power in (1, 2, 3):
        fam = product_family(thetas, power)
        assert commutator_value_matrix(fs, fam) == commutator_value_matrix_by_products(fs, fam)


def test_permanent_expansion_for_derivation_words():
    rng = random.Random(44)
    for _ in range(25):
        nvars = rng.choice([1, 2])
        p = rng.randint(1, 3)
        deltas = [random_derivation(rng, nvars) for _ in range(p)]
        fs = [random_poly(rng, nvars) for _ in range(p)]
        word = DiffOp.one(nvars)
        for d in deltas:
            word = word * d
        lhs = iterated_commutator(word, fs).value_at_one()
        rhs = permanent([[deltas[a].apply(fs[b]) for b in range(p)] for a in range(p)])
        assert lhs == rhs


# -- the power identity --------------------------------------------------------------

def test_power_identity_single_variable():
    arr, thetas = builtin_arrangement("boolean1")
    assert jacobian_power_identity(coordinates(1), thetas, 2)
    # both sides explicitly
    assert higher_jacobian(coordinates(1), product_family(thetas, 2)) == P("2*x^2", 1)


def test_power_identity_boolean_plane():
    arr, thetas = builtin_arrangement("boolean2")
    fs = coordinates(2)
    assert jacobian_power_identity(fs, thetas, 2)
    got = higher_jacobian(fs, product_family(thetas, 2))
    assert got == multiplicity_product(2, 2) * P("(x*y)^3", 2)


def test_power_identity_trivial_at_power_one():
    arr, thetas = builtin_arrangement("triple2")
    assert jacobian_power_identity(coordinates(2), thetas, 1)


def test_power_identity_for_random_order_one_tuples():
    rng = random.Random(45)
    for _ in range(10):
        nvars = rng.choice([1, 2])
        ops = []
        for _ in range(nvars):
            op = DiffOp.from_poly(random_poly(rng, nvars, max_degree=1))
            for i in range(1, nvars + 1):
                op = op + random_poly(rng, nvars, max_degree=1) * DiffOp.partial(nvars, i)
            ops.append(op)
        assert jacobian_power_identity(coordinates(nvars), ops, 2)


def test_power_identity_rejects_higher_order():
    with pytest.raises(ValueError):
        jacobian_power_identity(coordinates(1), (D("d1^2", 1),), 2)


@st.composite
def _polys(draw, nvars, max_degree, min_terms=0):
    """``min_terms`` to three nonzero terms of total degree at most ``max_degree``."""
    monos = st.tuples(*[st.integers(0, max_degree)] * nvars).filter(lambda m: sum(m) <= max_degree)
    terms = st.dictionaries(monos, _scalars.filter(bool), min_size=min_terms, max_size=3)
    return Poly(nvars, draw(terms))


@st.composite
def _order_one_ops(draw, nvars):
    """Operators c_0 + sum_i c_i d_i, order-zero ones (zero rows of J) and
    repeats among them."""
    ops = []
    for _ in range(nvars):
        kind = draw(st.sampled_from(("op", "order zero", "repeat") if ops else ("op", "order zero")))
        if kind == "repeat":
            ops.append(draw(st.sampled_from(ops)))
            continue
        op = DiffOp.from_poly(draw(_polys(nvars, 2)))
        if kind == "op":
            for i in range(1, nvars + 1):
                op = op + draw(_polys(nvars, 2, min_terms=1)) * DiffOp.partial(nvars, i)
        ops.append(op)
    return ops


@st.composite
def _any_fs(draw, nvars):
    """Polynomials of degree up to 3, constants among them, and repeats."""
    fs = []
    for _ in range(nvars):
        kind = draw(st.sampled_from(("poly", "constant", "repeat") if fs else ("poly", "constant")))
        if kind == "repeat":
            fs.append(draw(st.sampled_from(fs)))
        else:
            fs.append(draw(_polys(nvars, 3, min_terms=1) if kind == "poly" else _polys(nvars, 0)))
    return fs


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(_any_fs(n), _order_one_ops(n), st.integers(0, 3))))
def test_product_family_values_are_the_symmetric_power(case):
    # [ops_i1...ops_ip, f_k1, ..., f_kp](1) is the permanent of
    # J_ik = [ops_i, f_k](1) over the index tuples, for any polynomials f.
    fs, ops, power = case
    jac = commutator_value_matrix(fs, product_family(ops, 1))
    assert commutator_value_matrix(fs, product_family(ops, power)) == sym_power_matrix(jac, power)
    assert jacobian_power_identity(fs, ops, power) == jacobian_power_identity_by_products(
        fs, ops, power)


def test_product_family_values_against_a_nonlinear_f():
    # By hand: ops = (x d1 + 1, y d2), fs = (x^2, x*y), so J = [[2x^2, xy], [0, xy]]
    # and the entry at ((1, 2), (1, 2)) is 2x^2 * xy + xy * 0 = 2x^3y.
    x, y = coordinates(2)
    ops = (x * DiffOp.partial(2, 1) + DiffOp.one(2), y * DiffOp.partial(2, 2))
    fs = [x * x, x * y]
    jac = commutator_value_matrix(fs, product_family(ops, 1))
    assert jac == [[P("2*x^2", 2), P("x*y", 2)], [Poly.zero(2), P("x*y", 2)]]
    got = commutator_value_matrix(fs, product_family(ops, 2))
    assert got == sym_power_matrix(jac, 2)
    assert got[1][1] == P("2*x^3*y", 2)
    assert jacobian_power_identity(fs, ops, 2)
    assert determinant(got) == multiplicity_product(2, 2) * P("2*x^3*y", 2) ** 3


def _no_word_product(ops, power):
    if power > 1:
        raise AssertionError("a word product of the jacobian-power family was formed")
    return product_family(ops, power)


def test_jacobian_power_forms_no_word_product(monkeypatch, capsys):
    ops = builtin_arrangement("triple2")[1]
    assert jacobian_power_identity_by_products(coordinates(2), ops, 3)
    monkeypatch.setattr(jacobian, "product_family", _no_word_product)
    assert jacobian_power_identity(coordinates(2), ops, 3)
    assert main(["verify", "--lemma", "jacobian-power", "--l", "2", "--p", "3"]) == 0
    assert "passed=100 failed=0" in capsys.readouterr().out
