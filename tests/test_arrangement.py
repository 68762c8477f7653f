import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logdiff.linalg
from helpers import random_derivation, saito_check_by_division
from logdiff import tangent
from logdiff.arrangement import (
    _BUILTINS,
    Arrangement,
    SaitoBasis,
    SaitoFailure,
    builtin_arrangement,
    euler_derivation,
    rank2_basis,
    saito_check,
)
from logdiff.exprparse import parse_diffop, parse_poly, render
from logdiff.linalg import determinant
from logdiff.polyring import LinearForm, Poly, exact_divide
from logdiff.tangent import is_tangent, is_tangent_q, tangency_table
from logdiff.weyl import Derivation


def P(text, nvars):
    return parse_poly(text, nvars)


def derivation(texts, nvars):
    return Derivation(tuple(P(t, nvars) for t in texts))


def _reflection(dim, kind):
    """A_l (forms x_i and x_i - x_j, basis sum_i x_i^k d_i for k = 1..l) or
    B_l (forms x_i and x_i +- x_j, basis sum_i x_i^(2k-1) d_i)."""
    unit = [[int(k == i) for k in range(dim)] for i in range(dim)]
    signs = (-1,) if kind == "A" else (1, -1)
    pairs = [[1 if k == i else s if k == j else 0 for k in range(dim)]
             for i in range(dim) for j in range(i + 1, dim) for s in signs]
    powers = range(1, dim + 1) if kind == "A" else range(1, 2 * dim, 2)
    thetas = tuple(Derivation(tuple(Poly.variable(dim, i) ** k for i in range(1, dim + 1)))
                   for k in powers)
    return Arrangement([LinearForm(tuple(f)) for f in unit + pairs]), thetas


def _agrees_with_division(arr, thetas):
    got, expected = saito_check(arr, thetas), saito_check_by_division(arr, thetas)
    assert got.ok == expected.ok
    if got.ok:
        assert (got.scalar, type(got.scalar), got.degrees) == (
            expected.scalar, type(expected.scalar), expected.degrees)
    else:
        assert (got.reason, got.index, got.determinant) == (
            expected.reason, expected.index, expected.determinant)
    return got


# -- construction -------------------------------------------------------------

def test_boolean_defining_polynomial():
    arr = Arrangement([LinearForm((1, 0)), LinearForm((0, 1))])
    assert arr.q == P("x*y", 2)
    assert [exact_divide(arr.q, f) for f in arr.forms] == [P("y", 2), P("x", 2)]


def test_three_line_defining_polynomial():
    arr = Arrangement([LinearForm((1, 0)), LinearForm((0, 1)), LinearForm((1, 1))])
    assert arr.q == P("x*y*(x+y)", 2)
    assert arr.size == 3


def test_proportional_forms_rejected():
    with pytest.raises(ValueError):
        Arrangement([LinearForm((1,)), LinearForm((2,))])
    with pytest.raises(ValueError):
        Arrangement([])


@pytest.mark.parametrize("name", _BUILTINS)
def test_q_is_the_product_of_the_forms(name):
    arr, _ = builtin_arrangement(name)
    assert type(arr.q) is Poly
    assert arr.q == prod(arr.forms, start=Poly.one(arr.dim))
    assert arr.q == prod((parse_poly(str(f), arr.dim) for f in arr.forms), start=Poly.one(arr.dim))


def test_cofactor_identity():
    arr, _ = builtin_arrangement("triple2")
    for form in arr.forms:
        assert form * exact_divide(arr.q, form) == arr.q


# -- tangency of derivations ----------------------------------------------------

def test_euler_is_always_tangent():
    for name in ("boolean1", "boolean2", "boolean3", "triple2", "generic3", "D4"):
        arr, _ = builtin_arrangement(name)
        assert is_tangent(euler_derivation(arr.dim), arr)


def test_plain_partial_is_not_tangent():
    arr, _ = builtin_arrangement("boolean1")
    assert not is_tangent(Derivation((Poly.one(1),)), arr)


def test_three_line_degree_two_derivation():
    arr, _ = builtin_arrangement("triple2")
    delta = derivation(["x^2", "-y^2"], 2)
    assert is_tangent(delta, arr)
    # divisibility made explicit on the third form
    assert delta.apply(P("x+y", 2)) == P("(x-y)*(x+y)", 2)


def test_per_form_test_agrees_with_q_test():
    rng = random.Random(17)
    for name in ("boolean2", "triple2", "generic3"):
        arr, _ = builtin_arrangement(name)
        hits = 0
        for _ in range(40):
            delta = random_derivation(rng, arr.dim)
            a = is_tangent(delta, arr)
            b = is_tangent_q(delta, arr, 1)
            assert a == b
            hits += a
        # the Euler direction guarantees at least one positive case
        assert is_tangent_q(euler_derivation(arr.dim), arr, 1)


def test_q_scaled_partials_are_tangent():
    for name in ("boolean2", "triple2", "generic3"):
        arr, _ = builtin_arrangement(name)
        n = arr.dim
        for i in range(n):
            coeffs = tuple(arr.q if j == i else Poly.zero(n) for j in range(n))
            assert is_tangent(Derivation(coeffs), arr)


def test_euler_derivation_values():
    e1 = euler_derivation(1)
    assert e1.coeffs == (P("x", 1),)
    e2 = euler_derivation(2)
    assert e2.apply(P("x*y", 2)) == P("2*x*y", 2)
    arrT, _ = builtin_arrangement("triple2")
    assert e2.apply(arrT.q) == 3 * arrT.q


# -- Saito criterion --------------------------------------------------------------

def test_saito_boolean():
    arr, thetas = builtin_arrangement("boolean2")
    result = saito_check(arr, thetas)
    assert isinstance(result, SaitoBasis)
    assert result.scalar == 1
    assert result.degrees == (1, 1)


def test_saito_three_lines():
    arr, _ = builtin_arrangement("triple2")
    thetas = (euler_derivation(2), derivation(["x^2", "-y^2"], 2))
    result = saito_check(arr, thetas)
    assert isinstance(result, SaitoBasis)
    assert result.scalar == -1
    assert result.degrees == (1, 2)


def test_saito_rejects_degree_one_candidates_on_generic3():
    arr, _ = builtin_arrangement("generic3")
    eu = euler_derivation(3)
    # three tangent degree-1 derivations are necessarily proportional here,
    # so the determinant cannot be a nonzero multiple of the degree-4 Q
    result = saito_check(arr, (eu, eu, eu))
    assert isinstance(result, SaitoFailure)
    assert result.determinant == Poly.zero(3)


def test_saito_rejects_non_tangent_candidate():
    arr, _ = builtin_arrangement("generic3")
    eu = euler_derivation(3)
    bad = derivation(["x", "0", "0"], 3)
    result = saito_check(arr, (eu, bad, eu))
    assert isinstance(result, SaitoFailure)
    assert result.index == 2
    assert "tangent" in result.reason


def test_saito_rejects_inhomogeneous_candidate():
    arr, thetas = builtin_arrangement("boolean2")
    bad = derivation(["x + x^2", "0"], 2)
    # make it tangent but inhomogeneous: (x + x^2) d1 fixes both axes
    assert is_tangent(bad, arr)
    result = saito_check(arr, (bad, thetas[1]))
    assert isinstance(result, SaitoFailure)
    assert "homogeneous" in result.reason


def test_saito_wrong_count_is_usage_error():
    arr, thetas = builtin_arrangement("boolean2")
    with pytest.raises(ValueError):
        saito_check(arr, thetas[:1])


def test_saito_basis_degrees_sum_to_size():
    for name in ("boolean1", "boolean2", "boolean3", "triple2", "D4"):
        arr, thetas = builtin_arrangement(name)
        result = _agrees_with_division(arr, thetas)
        assert isinstance(result, SaitoBasis)
        assert sum(result.degrees) == arr.size


def test_saito_invariant_under_invertible_scalar_change():
    arr, thetas = builtin_arrangement("boolean2")
    base = saito_check(arr, thetas)
    a = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]  # det = 1
    mixed = tuple(
        Derivation(tuple(
            a[i][0] * thetas[0].coeffs[k] + a[i][1] * thetas[1].coeffs[k]
            for k in range(2)
        ))
        for i in range(2)
    )
    result = saito_check(arr, mixed)
    assert isinstance(result, SaitoBasis)
    assert result.scalar == base.scalar  # det a = 1

    a2 = [[Fraction(3), Fraction(0)], [Fraction(0), Fraction(1)]]  # det = 3
    scaled = (
        Derivation(tuple(3 * c for c in thetas[0].coeffs)),
        thetas[1],
    )
    result2 = saito_check(arr, scaled)
    assert isinstance(result2, SaitoBasis)
    assert result2.scalar == 3 * base.scalar


@pytest.mark.parametrize("kind, dim", [("A", 3), ("A", 4), ("A", 5), ("A", 6),
                                       ("B", 2), ("B", 3), ("B", 4), ("B", 5), ("B", 6)])
def test_saito_degree_form_agrees_with_division_on_reflection_arrangements(kind, dim):
    # A3, B2 and B3 are benchmark fixtures; the others grow Q to 36 forms
    arr, thetas = _reflection(dim, kind)
    result = _agrees_with_division(arr, thetas)
    assert result.ok and abs(result.scalar) == 1 and sum(result.degrees) == arr.size


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
                min_size=1, max_size=6))
def test_saito_degree_form_agrees_with_division_on_rank2(rows):
    # pairwise non-proportional forms, a first coefficient of either sign
    forms = []
    for row in map(LinearForm, rows):
        if not any(row.proportional_to(f) for f in forms):
            forms.append(row)
    arr = Arrangement(forms)
    assert _agrees_with_division(arr, rank2_basis(arr)).ok
    # the Q-scaled partials: tangent, homogeneous, det Q^2, degrees 2|A|
    q = arr.q
    scaled = (Derivation((q, Poly.zero(2))), Derivation((Poly.zero(2), q)))
    result = _agrees_with_division(arr, scaled)
    assert not result.ok and result.determinant == q * q


@pytest.mark.parametrize("name, texts, det", [
    # tangent and homogeneous, a nonzero det, but degrees 2 + 1 != 2
    ("boolean2", ["x1^2*d1", "x2*d2"], "x1^2*x2"),
    # a zero det, and degrees that miss |A| as well
    ("generic3", ["x1*d1 + x2*d2 + x3*d3"] * 3, "0"),
    ("triple2", ["x1*d1 + x2*d2", "2*x1*d1 + 2*x2*d2"], "0"),
    # degrees 2 + 2 != 3, and a zero det
    ("triple2", ["x1^2*d1 - x2^2*d2", "x1^2*d1 - x2^2*d2"], "0"),
])
def test_saito_controls_carry_the_determinant(name, texts, det):
    arr, _ = builtin_arrangement(name)
    thetas = tuple(Derivation.from_diffop(parse_diffop(t, arr.dim)) for t in texts)
    result = _agrees_with_division(arr, thetas)
    assert not result.ok
    assert result.reason == ("coefficient determinant is not a nonzero scalar multiple "
                             "of the defining polynomial")
    assert result.determinant == P(det, arr.dim)
    assert result.determinant == determinant([list(th.coeffs) for th in thetas])


# -- Q is formed only where a route divides by it ---------------------------------

def test_arrangement_keeps_only_its_forms():
    assert Arrangement.__slots__ == ("dim", "forms", "__weakref__")
    arr = Arrangement(builtin_arrangement("triple2")[0].forms)
    assert tangent._kept_for(arr) is None
    assert arr.q is tangent._frame(arr).q and arr.q is arr.q
    assert arr.q == P("x*y*(x+y)", 2)


def test_nothing_forms_q_before_a_route_needs_it():
    # the 66 forms x_i + x_j in 12 variables: Q would be a product of 66
    # sums, far too large to expand, and no route below divides by it
    dim = 12
    forms = [LinearForm(tuple(int(k in (i, j)) for k in range(dim)))
             for i in range(dim) for j in range(i + 1, dim)]
    arr = Arrangement(forms)
    assert arr.size == 66 and tangent._kept_for(arr) is None
    euler = euler_derivation(dim)
    partial = Derivation.from_diffop(parse_diffop("d1", dim))
    assert is_tangent(euler, arr) and not is_tangent(partial, arr)
    rows = tangency_table(partial, arr, 2)
    assert len(rows) == 132 and not all(row.ok for row in rows)
    assert tangent._kept_for(arr) is None


@pytest.mark.parametrize("name", [n for n in _BUILTINS if "basis" in _BUILTINS[n]])
def test_saito_check_divides_by_nothing_and_builds_no_frame(monkeypatch, name):
    def refuse(*args):
        raise AssertionError("exact_divide called")

    # a fresh arrangement: the cached builtin may have a frame from another test
    cached, thetas = builtin_arrangement(name)
    arr = Arrangement(cached.forms)
    monkeypatch.setattr(logdiff.linalg, "exact_divide", refuse)
    monkeypatch.setattr(tangent, "exact_divide", refuse)
    assert saito_check(arr, thetas).ok
    assert tangent._kept_for(arr) is None


# -- the rank-2 family -------------------------------------------------------------

def test_rank2_basis_on_any_two_dimensional_arrangement():
    for forms in (
        [LinearForm((1, 0)), LinearForm((0, 1))],
        [LinearForm((1, 0)), LinearForm((0, 1)), LinearForm((1, 1))],
        [LinearForm((1, 0)), LinearForm((0, 1)), LinearForm((1, 1)), LinearForm((1, -1))],
    ):
        arr = Arrangement(forms)
        thetas = rank2_basis(arr)
        result = saito_check(arr, thetas)
        assert isinstance(result, SaitoBasis)
        assert result.scalar == -arr.size
        assert result.degrees == (1, arr.size - 1)


def test_rank2_basis_needs_two_variables():
    arr, _ = builtin_arrangement("boolean3")
    with pytest.raises(ValueError):
        rank2_basis(arr)


def test_builtin_names():
    with pytest.raises(ValueError) as info:
        builtin_arrangement("nope")
    assert str(info.value) == ("unknown builtin arrangement 'nope'; choose from "
                               "('boolean1', 'boolean2', 'boolean3', 'triple2', 'generic3', 'D4')")
    arr, thetas = builtin_arrangement("generic3")
    assert thetas is None
    assert arr.q == P("x*y*z*(x+y+z)", 3)


def test_builtins_are_pinned():
    # forms stay integer tuples and bases render as they always have
    got = {}
    for name in _BUILTINS:
        arr, thetas = builtin_arrangement(name)
        assert all(type(c) is int for f in arr.forms for c in f.coeffs)
        got[name] = ([f.coeffs for f in arr.forms],
                     thetas and [render(th) for th in thetas])
    assert got == {
        "boolean1": ([(1,)], ["x1*d1"]),
        "boolean2": ([(1, 0), (0, 1)], ["x1*d1", "x2*d2"]),
        "boolean3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], ["x1*d1", "x2*d2", "x3*d3"]),
        "triple2": ([(1, 0), (0, 1), (1, 1)], ["x1*d1 + x2*d2", "x1^2*d1 - x2^2*d2"]),
        "generic3": ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)], None),
        "D4": ([(1, 1, 0, 0), (1, -1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0), (1, 0, 0, 1),
                (1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0), (0, 1, 0, 1), (0, 1, 0, -1),
                (0, 0, 1, 1), (0, 0, 1, -1)],
               ["x1*d1 + x2*d2 + x3*d3 + x4*d4", "x1^3*d1 + x2^3*d2 + x3^3*d3 + x4^3*d4",
                "x1^5*d1 + x2^5*d2 + x3^5*d3 + x4^5*d4",
                "x2*x3*x4*d1 + x1*x3*x4*d2 + x1*x2*x4*d3 + x1*x2*x3*d4"]),
    }


def test_builtins_are_built_once():
    assert builtin_arrangement("triple2") is builtin_arrangement("triple2")
