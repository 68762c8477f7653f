import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import apply_linear_map, eval_poly, exact_divide_by_rescan, mul_by_terms, random_poly
from logdiff import polyring
from logdiff.exprparse import MAX_EXPONENT, parse_poly
from logdiff.polyring import (
    LinearForm,
    NotDivisibleError,
    Poly,
    coordinates,
    divides_power,
    exact_divide,
)


def P(text, nvars):
    return parse_poly(text, nvars)


# -- ring operations --------------------------------------------------------

def test_difference_of_squares():
    assert P("x+y", 2) * P("x-y", 2) == P("x^2 - y^2", 2)


def test_multiplication_by_zero_absorbs():
    assert P("x", 1) * Poly.zero(1) == Poly.zero(1)
    assert not (P("x", 1) * Poly.zero(1)).terms


def test_cube_expansion_term_count_and_coefficient():
    cube = P("(x+y+z)^3", 3)
    assert len(cube.terms) == 10
    # multinomial coefficient 3!/(1!1!1!)
    assert cube.terms[(1, 1, 1)] == factorial(3)


def test_scalar_and_power_arithmetic():
    x = P("x", 1)
    assert x * Fraction(1, 2) == P("1/2*x", 1)
    assert (x + 1) ** 2 == P("x^2 + 2*x + 1", 1)
    with pytest.raises(ValueError):
        x ** -1


def test_mixed_dimension_rejected():
    with pytest.raises(ValueError):
        P("x", 1) + P("x", 2)
    with pytest.raises(ValueError):
        P("x", 1) * P("y", 2)


def test_zero_degree_marker():
    assert Poly.zero(2).degree is None
    assert Poly.one(2).degree == 0
    assert P("x*y^2", 2).degree == 3


def test_canonical_form_drops_zero_coefficients():
    p = Poly(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.terms
    q = P("x + y", 2) - P("y", 2)
    assert set(q.terms) == {(1, 0)}


# -- exact division ----------------------------------------------------------

def test_exact_divide_common_factor():
    assert exact_divide(P("x^2*y + x*y^2", 2), P("x*y", 2)) == P("x + y", 2)


def test_exact_divide_signals_nondivisibility():
    with pytest.raises(NotDivisibleError):
        exact_divide(P("x^2 + 1", 1), P("x", 1))


def test_exact_divide_multiply_back():
    a = P("(x+y)^3 * (x-y)", 2)
    b = P("(x+y)^2", 2)
    q = exact_divide(a, b)
    assert q * b == a
    assert q == P("(x+y)*(x-y)", 2)


def test_exact_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        exact_divide(P("x", 1), Poly.zero(1))


def test_divides_power_examples():
    assert divides_power(P("x", 1), 2, P("x^3 + x^2", 1))
    assert not divides_power(P("x+y", 2), 1, P("x^2 + y^2", 2))
    assert divides_power(P("x+y", 2), 0, P("x^2 + y^2", 2))


def test_divides_power_refuted_by_evaluation():
    # any multiple of x+y vanishes at (1, -1); x^2+y^2 does not
    a = P("x^2 + y^2", 2)
    assert eval_poly(a, (1, -1)) == 2
    assert not divides_power(P("x+y", 2), 1, a)


# -- linear maps --------------------------------------------------------------

def test_apply_linear_map_identity_swap_shear():
    fs = coordinates(2)
    assert apply_linear_map([[1, 0], [0, 1]], fs) == fs
    assert apply_linear_map([[0, 1], [1, 0]], fs) == (fs[1], fs[0])
    assert apply_linear_map([[1, 1], [0, 1]], fs) == (fs[0] + fs[1], fs[1])


def test_apply_linear_map_size_mismatch():
    with pytest.raises(ValueError):
        apply_linear_map([[1, 0]], coordinates(2))


# -- linear forms --------------------------------------------------------------

def test_linear_form_validation_and_conversion():
    f = LinearForm((1, -2))
    assert f.as_poly() == P("x - 2*y", 2)
    with pytest.raises(ValueError):
        LinearForm((0, 0))


def test_linear_form_proportionality():
    assert LinearForm((1, 2)).proportional_to(LinearForm((2, 4)))
    assert not LinearForm((1, 2)).proportional_to(LinearForm((2, 1)))


# -- algebraic laws -------------------------------------------------------------

_coeffs = st.integers(min_value=-6, max_value=6)
_monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
_polys = st.dictionaries(_monos, _coeffs, max_size=4).map(lambda d: Poly(2, d))


@settings(max_examples=60)
@given(_polys, _polys, _polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60)
@given(_polys, _polys)
def test_division_inverts_multiplication(a, b):
    if b:
        assert exact_divide(a * b, b) == a


def test_divides_power_matches_exact_divide():
    rng = random.Random(31)
    for _ in range(100):
        f = random_poly(rng, 2, max_degree=2, nonzero=True)
        a = random_poly(rng, 2, max_degree=4)
        t = rng.randint(0, 2)
        try:
            exact_divide(a, f ** t)
            expected = True
        except NotDivisibleError:
            expected = False
        assert divides_power(f, t, a) == expected


# -- the arithmetic kernel against the validating constructor and oracle ------

_qcoeffs = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
_monos3 = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
_qpolys = st.dictionaries(_monos3, _qcoeffs, max_size=5).map(lambda d: Poly(3, d))
_deltas = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))


def assert_canonical(p):
    """No zero coefficient, every integral one an int, and equal (with an
    equal hash) to the same map passed through the validating ``Poly``."""
    for m, c in p.terms.items():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert len(m) == p.nvars and all(type(e) is int and e >= 0 for e in m)
    rebuilt = Poly(p.nvars, p.terms)
    assert rebuilt == p and hash(rebuilt) == hash(p)


def divide_or_fail(divide, a, b):
    try:
        return divide(a, b)
    except NotDivisibleError:
        return NotDivisibleError


@settings(max_examples=100)
@given(_qpolys, _qpolys, _qpolys)
def test_exact_divide_matches_rescan_oracle(a, b, c):
    assume(b)
    for dividend in (a, a * b, a * b + c):
        got = divide_or_fail(exact_divide, dividend, b)
        assert got == divide_or_fail(exact_divide_by_rescan, dividend, b)
        if got is not NotDivisibleError:
            assert_canonical(got)
            assert got * b == dividend
    q = exact_divide(a * b, b)
    assert q == a
    assert_canonical(q)


@settings(max_examples=100)
@given(_qpolys, _qpolys, _qcoeffs, _deltas)
def test_kernel_results_are_canonical(a, b, s, delta):
    for result in (a + b, a - b, a * b, -a, a * s, s * a, a + s, s - a,
                   a.diff(1), a.diff_multi(delta), (a * b).diff_multi(delta)):
        assert_canonical(result)


def test_integral_fraction_results_are_stored_as_int():
    half = Poly(1, {(1,): Fraction(1, 2), (0,): Fraction(3, 2)})
    for result in (half + half, half * 2, (half * half).diff(1),
                   half.diff_multi((1,)) * 4, exact_divide(half * 4, half)):
        assert_canonical(result)
    assert (half + half).terms == {(1,): 1, (0,): 3}
    assert exact_divide(Poly(1, {(1,): 3}), Poly(1, {(1,): 2})).terms == {(0,): Fraction(3, 2)}


# -- the product kernels: one-term, packed and plain ---------------------------

@st.composite
def _products(draw):
    """(f, [g, ...]) over 1-5 variables, so that every kernel of f * g runs:
    up to 8 terms per factor gives one-term and zero factors, pairs with a
    factor of 2-3 terms (plain) and pairs of 4 terms or more (packed).
    Exponents come from a small range, so that products meet at one
    monomial and cancel, or up to a top of 2, 255 or ``MAX_EXPONENT``, so
    that fields of one and two bytes both occur.  One g may be f with its
    first term negated: then f * g = r^2 - t^2 for f = t + r, and every
    cross term cancels.  One g may carry a 2^64 exponent, which no packed
    field holds, so that the plain loop runs instead."""
    n = draw(st.integers(1, 5))
    top = draw(st.sampled_from((2, 255, MAX_EXPONENT)))
    exps = st.one_of(st.integers(0, 2), st.integers(0, top))
    coeffs = st.one_of(
        st.sampled_from((1, -1, 2)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    polys = st.dictionaries(st.tuples(*[exps] * n), coeffs, max_size=8).map(
        lambda d: Poly(n, d))
    f = draw(polys)
    gs = draw(st.lists(polys, max_size=4))
    if len(f.terms) > 1 and draw(st.booleans()):
        t = next(iter(f.terms))
        gs.append(f - Poly.monomial(n, t, 2 * f.terms[t]))
    if draw(st.booleans()):
        gs.append(draw(polys) + Poly.monomial(n, (2 ** 64,) + (0,) * (n - 1), Fraction(1, 2)))
    return f, gs


@settings(max_examples=150)
@given(_products())
def test_products_match_the_term_by_term_route(case):
    f, gs = case
    for g in gs:
        got = f * g
        assert got == g * f == mul_by_terms(f, g)
        assert_canonical(got)


def test_product_kernels_cancel_and_keep_wide_exponents(monkeypatch):
    # ``packed`` records each packed attempt: True for a result, False for
    # a field too wide, after which the plain loop runs
    packed = []
    real = polyring._packed_product

    def spy(*args):
        out = real(*args)
        packed.append(out is not None)
        return out

    monkeypatch.setattr(polyring, "_packed_product", spy)
    f = parse_poly("x1 + x2 + x3 + x4", 4)
    # (x1 + x2 + x3 + x4)(x1 - x2 + x3 - x4) = (x1 + x3)^2 - (x2 + x4)^2:
    # every product of a term from each half cancels
    assert f * parse_poly("x1 - x2 + x3 - x4", 4) == parse_poly(
        "x1^2 + 2*x1*x3 + x3^2 - x2^2 - 2*x2*x4 - x4^2", 4)
    assert packed == [True]
    half = Poly(4, {(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): Fraction(-1, 2)})
    wide = Poly(4, {(2 ** 64, 0, 0, 1): Fraction(1, 2), (0, 0, 0, 1): 4, (1, 1, 0, 0): -1,
                    (0, 0, 3, 0): Fraction(2, 3)})
    cases = [
        (f, Poly.zero(4)), (Poly.zero(4), f),
        # one-term factors on either side, with products that become int
        (f * 2, Poly.monomial(4, (0, 1, 0, 0), Fraction(1, 2))),
        (Poly.monomial(4, (3, 0, 0, 0), Fraction(2, 3)), half * 3),
        # 2-3 terms, and a 2-term factor against a long one: the plain loop
        (half, parse_poly("2*x1 + 2*x2 + x3", 4)), (half * 4, f * f),
        # an exponent past 64 bits falls back from packed to plain
        (f, wide),
        (f * f, f),
    ]
    packed.clear()
    for a, b in cases:
        got = a * b
        assert got == mul_by_terms(a, b)
        assert_canonical(got)
    assert packed == [False, True]
    assert len((f * wide).terms) == 16 and not (f * Poly.zero(4)).terms
