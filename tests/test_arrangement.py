import random
from fractions import Fraction

import pytest

from helpers import random_derivation
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
from logdiff.exprparse import parse_poly, render
from logdiff.polyring import LinearForm, Poly, exact_divide
from logdiff.tangent import is_tangent, is_tangent_q
from logdiff.weyl import Derivation


def P(text, nvars):
    return parse_poly(text, nvars)


def derivation(texts, nvars):
    return Derivation(tuple(P(t, nvars) for t in texts))


# -- construction -------------------------------------------------------------

def test_boolean_defining_polynomial():
    arr = Arrangement([LinearForm((1, 0)), LinearForm((0, 1))])
    assert arr.q == P("x*y", 2)
    assert [exact_divide(arr.q, f.as_poly()) for f in arr.forms] == [P("y", 2), P("x", 2)]


def test_three_line_defining_polynomial():
    arr = Arrangement([LinearForm((1, 0)), LinearForm((0, 1)), LinearForm((1, 1))])
    assert arr.q == P("x*y*(x+y)", 2)
    assert arr.size == 3


def test_proportional_forms_rejected():
    with pytest.raises(ValueError):
        Arrangement([LinearForm((1,)), LinearForm((2,))])
    with pytest.raises(ValueError):
        Arrangement([])


def test_cofactor_identity():
    arr, _ = builtin_arrangement("triple2")
    for form in arr.forms:
        assert form.as_poly() * exact_divide(arr.q, form.as_poly()) == arr.q


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
        result = saito_check(arr, thetas)
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
