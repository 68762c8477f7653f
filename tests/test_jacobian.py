import random
from math import comb

import pytest

from helpers import (
    apply_linear_map,
    commutator_value_matrix_by_products,
    random_derivation,
    random_diffop,
    random_poly,
    substitute_entry,
)
from logdiff.arrangement import builtin_arrangement
from logdiff.exprparse import parse_diffop, parse_poly
from logdiff.jacobian import (
    OpFamily,
    commutator_value_matrix,
    higher_jacobian,
    jacobian_power_identity,
    product_family,
)
from logdiff.linalg import determinant, multiplicity_product, permanent, sym_indices
from logdiff.polyring import Poly, coordinates
from logdiff.weyl import DiffOp, iterated_commutator, value_at_one_expansion


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
    assert fam.entries == tuple(th.as_diffop() for th in thetas)


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
        w1 = thetas[0].as_diffop() * thetas[rng.randint(0, 1)].as_diffop()
        w2 = thetas[1].as_diffop() * thetas[rng.randint(0, 1)].as_diffop()
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


def test_product_family_entries_are_left_to_right_products():
    arr, thetas = builtin_arrangement("triple2")
    ops = [th.as_diffop() for th in thetas]
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
            word = word * d.as_diffop()
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
