import copy
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import apply_linear_map, eval_poly, exact_divide_by_rescan, mul_by_terms, random_poly
from logdiff.arrangement import Arrangement
from logdiff.exprparse import MAX_EXPONENT, ParseError, parse_poly, render
from logdiff.polyring import (
    MAX_DEGREE,
    DegreeLimitError,
    LinearForm,
    NotDivisibleError,
    Poly,
    coordinates,
    divides,
    exact_divide,
)
from logdiff.weyl import DiffOp


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
    assert cube.as_dict()[(1, 1, 1)] == factorial(3)


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
    # one check for both kinds, naming both dimensions
    for a, b in ((DiffOp.partial(1, 1), DiffOp.partial(2, 1)), (DiffOp.partial(1, 1), P("y", 2))):
        with pytest.raises(ValueError, match="mixed ambient dimensions 1 and 2"):
            a + b


@pytest.mark.parametrize("build, refused", [
    (lambda: Poly(1, {(1,): 0.5}), "float"),
    (lambda: Poly.constant(1, 0.25) * P("x", 1), "float"),
    (lambda: Arrangement([LinearForm((1, 0)), LinearForm((0.5, 1))]).q, "float"),
    (lambda: Poly(1, {(1,): None}), "NoneType"),
    (lambda: LinearForm(("1", 2)), "str"),
    (lambda: DiffOp(1, {(1,): 3}), "int"),
    (lambda: Poly.constant(1, True), None),
    (lambda: Poly(2, {(1, 0): True, (0, 1): False}), None),
    (lambda: LinearForm((True, 2)), None),
], ids=["poly-float", "constant-float", "form-float", "poly-none", "form-str", "diffop-int",
        "constant-bool", "poly-bool", "form-bool"])
def test_checked_constructors_take_exact_scalars(build, refused):
    if refused:
        with pytest.raises(TypeError, match=f"not {refused}$"):
            build()
        return
    # a bool is stored as its int, so it prints as a number that parses back
    p = build()
    assert p and all(type(c) is int for c in p.terms.values())
    assert parse_poly(str(p), p.nvars) == p


def test_zero_degree_marker():
    assert Poly.zero(2).degree is None
    assert Poly.one(2).degree == 0
    assert P("x*y^2", 2).degree == 3


def test_canonical_form_drops_zero_coefficients():
    p = Poly(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in p.as_dict()
    q = P("x + y", 2) - P("y", 2)
    assert set(q.as_dict()) == {(1, 0)}


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
    assert divides(P("x", 1) ** 2, P("x^3 + x^2", 1))
    assert not divides(P("x+y", 2) ** 1, P("x^2 + y^2", 2))
    assert divides(P("x+y", 2) ** 0, P("x^2 + y^2", 2))


def test_divides_power_refuted_by_evaluation():
    # any multiple of x+y vanishes at (1, -1); x^2+y^2 does not
    a = P("x^2 + y^2", 2)
    assert eval_poly(a, (1, -1)) == 2
    assert not divides(P("x+y", 2), a)


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
    assert f == P("x - 2*y", 2)
    with pytest.raises(ValueError):
        LinearForm((0, 0))


def test_linear_form_is_its_polynomial():
    f = LinearForm((1, -2))
    assert isinstance(f, Poly)
    assert f == parse_poly("x1 - 2*x2", 2) and hash(f) == hash(parse_poly("x1 - 2*x2", 2))
    assert len({f, parse_poly("x1 - 2*x2", 2)}) == 1
    assert repr(f) == "LinearForm(x1 - 2*x2, nvars=2)"
    g = LinearForm((0, Fraction(3, 1), 0))
    assert g.coeffs == (0, 3, 0) and type(g.coeffs[1]) is int
    assert g == P("3*x2", 3) and g.degree == 1 and g.nvars == 3


def test_linear_form_arithmetic_gives_plain_polynomials():
    f = LinearForm((1, -2))
    results = [-f, f + f, f - f, 2 * f, f * 2, f * f, f ** 1, f ** 2, f.diff(1)]
    assert all(type(r) is Poly for r in results)
    assert results == [P(t, 2) for t in ("-x + 2*y", "2*x - 4*y", "0", "2*x - 4*y",
                                         "2*x - 4*y", "(x - 2*y)^2", "x - 2*y", "(x - 2*y)^2",
                                         "1")]


def test_linear_form_copies_and_pickles():
    f = LinearForm((0, 1, -2))
    for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert type(g) is LinearForm and g.coeffs == (0, 1, -2) and g == f


@pytest.mark.parametrize("coeffs", [(), (0, 0), (0, Fraction(0))], ids=["empty", "zero", "zero-fraction"])
def test_linear_form_needs_a_nonzero_coefficient(coeffs):
    with pytest.raises(ValueError, match="^linear form must have a nonzero coefficient$"):
        LinearForm(coeffs)


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
        assert divides(f ** t, a) == expected


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
    terms = p.as_dict()
    for m, c in terms.items():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        assert len(m) == p.nvars and all(type(e) is int and e >= 0 for e in m)
    rebuilt = Poly(p.nvars, terms)
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
    assert (half + half).as_dict() == {(1,): 1, (0,): 3}
    assert exact_divide(Poly(1, {(1,): 3}), Poly(1, {(1,): 2})).as_dict() == {(0,): Fraction(3, 2)}


# -- the product kernels and the degree limit ------------------------------------

@st.composite
def _products(draw):
    """(f, [g, ...]) over 1-5 variables, so that both kernels of f * g run:
    up to 8 terms per factor gives one-term and zero factors and pairs of
    longer ones.  Exponents come from a small range, so that products meet
    at one monomial and cancel, or up to a top of 2, 255 or
    ``MAX_EXPONENT``.  One g may be f with its first term negated: then
    f * g = r^2 - t^2 for f = t + r, and every cross term cancels.  One g
    may carry a monomial whose degree plus f's is exactly ``MAX_DEGREE``,
    so that the product's widest field is full up to its guard bit."""
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
    terms = f.as_dict()
    if len(terms) > 1 and draw(st.booleans()):
        t = next(iter(terms))
        gs.append(f - Poly.monomial(n, t, 2 * terms[t]))
    if draw(st.booleans()):
        wide = [0] * n
        wide[draw(st.integers(0, n - 1))] = MAX_DEGREE - (f.degree or 0)
        gs.append(draw(polys) + Poly.monomial(n, wide, Fraction(1, 2)))
    return f, gs


@settings(max_examples=150)
@given(_products())
def test_products_match_the_term_by_term_route(case):
    f, gs = case
    for g in gs:
        got = f * g
        assert got == g * f == mul_by_terms(f, g)
        assert_canonical(got)
        if g:
            assert exact_divide(got, g) == f


def test_product_kernels_cancel_and_keep_wide_exponents():
    f = parse_poly("x1 + x2 + x3 + x4", 4)
    # (x1 + x2 + x3 + x4)(x1 - x2 + x3 - x4) = (x1 + x3)^2 - (x2 + x4)^2:
    # every product of a term from each half cancels
    assert f * parse_poly("x1 - x2 + x3 - x4", 4) == parse_poly(
        "x1^2 + 2*x1*x3 + x3^2 - x2^2 - 2*x2*x4 - x4^2", 4)
    half = Poly(4, {(1, 0, 0, 0): Fraction(1, 2), (0, 1, 0, 0): Fraction(-1, 2)})
    # exponents up to the limit, in every field, kept exactly
    wide = Poly(4, {(MAX_DEGREE - 2, 0, 0, 1): Fraction(1, 2), (0, 0, 0, 1): 4,
                    (1, 1, 0, 0): -1, (0, 0, MAX_DEGREE - 1, 0): Fraction(2, 3)})
    cases = [
        (f, Poly.zero(4)), (Poly.zero(4), f),
        # one-term factors on either side, with products that become int
        (f * 2, Poly.monomial(4, (0, 1, 0, 0), Fraction(1, 2))),
        (Poly.monomial(4, (3, 0, 0, 0), Fraction(2, 3)), half * 3),
        (half, parse_poly("2*x1 + 2*x2 + x3", 4)), (half * 4, f * f),
        (f, wide), (f * f, f),
    ]
    for a, b in cases:
        got = a * b
        assert got == mul_by_terms(a, b)
        assert_canonical(got)
    assert len((f * wide).terms) == 16 and not (f * Poly.zero(4)).terms
    assert (f * wide).degree == MAX_DEGREE
    assert (f * wide).degrees() == (MAX_DEGREE - 1, 2, MAX_DEGREE, 2)


def test_degree_limit_is_refused_never_wrapped():
    x = Poly.variable(2, 1)
    top = Poly.monomial(2, (MAX_DEGREE - 1, 1))
    assert top.degree == MAX_DEGREE and top.as_dict() == {(MAX_DEGREE - 1, 1): 1}
    # the constructor
    for exps in ((MAX_DEGREE, 1), (2 ** 64, 0), (0, 10 ** 21)):
        with pytest.raises(DegreeLimitError, match=f"exceeds the limit {MAX_DEGREE}"):
            Poly.monomial(2, exps)
    # a product, by the one-term shift and by the pair loop
    for a, b in ((top, x), (x, top), (top + 1, x + 1), (x - 1, 2 * top + x)):
        with pytest.raises(DegreeLimitError):
            a * b
    assert (top - x) * 1 == top - x
    # a power, refused before it loops up to the limit
    with pytest.raises(DegreeLimitError):
        x ** (MAX_DEGREE + 1)
    with pytest.raises(DegreeLimitError):
        Poly.monomial(2, (2 ** 30, 0)) ** 2
    assert Poly.monomial(2, (2 ** 30 - 1, 0)) ** 2 == Poly.monomial(2, (2 ** 31 - 2, 0))
    # a derivative of order above the limit leaves nothing
    assert not top.diff_multi((MAX_DEGREE + 1, 0)) and top.diff_multi((0, 1)) == x ** 0 * top.diff(2)
    # a nested parsed power: three levels give x^(10^9), and the fourth
    # fails at its exponent, position 26, as a ParseError
    assert parse_poly("((x^1000)^1000)^1000", 1) == Poly.monomial(1, (10 ** 9,))
    with pytest.raises(ParseError, match=f"exceeds the limit {MAX_DEGREE}") as info:
        parse_poly("((((((x^1000)^1000)^1000)^1000)^1000)^1000)^1000", 1)
    assert info.value.position == 26


def test_linear_coefficients():
    assert P("3 + 2*x1 - 1/2*x3", 3).linear_coefficients() == [2, 0, Fraction(-1, 2)]
    assert P("5", 2).linear_coefficients() == Poly.zero(2).linear_coefficients() == [0, 0]
    assert P("x1 + x1*x2", 2).linear_coefficients() is None
    assert Poly.monomial(1, (MAX_DEGREE,)).linear_coefficients() is None
    for n in range(1, 6):
        for i, x in enumerate(coordinates(n)):
            assert (3 * x).linear_coefficients() == [3 if j == i else 0 for j in range(n)]


# -- printing order ------------------------------------------------------------

# A polynomial, or an operator with constant coefficients on the same monomials.
_wide_maps = st.integers(1, 4).flatmap(lambda n: st.dictionaries(
    st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, MAX_DEGREE // n))] * n),
    st.integers(-3, 3), max_size=8).flatmap(lambda d: st.sampled_from([
        Poly(n, d), DiffOp(n, {m: Poly.constant(n, c) for m, c in d.items()})])))


@settings(max_examples=100)
@given(_wide_maps)
def test_print_order_is_the_tuple_graded_order(p):
    ordered = sorted(p.as_dict().items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    assert p.sorted_terms() == ordered
    # the rendered text is the terms, one at a time, in that order
    pieces = [render(type(p)(p.nvars, {m: c})) for m, c in ordered]
    text = "".join(
        piece if k == 0 else f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
        for k, piece in enumerate(pieces))
    assert render(p) == (text or "0")
