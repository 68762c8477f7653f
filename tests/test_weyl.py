import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import in_right_ideal, principal_symbol, random_diffop, random_poly
from logdiff import weyl
from logdiff.exprparse import parse_diffop, parse_poly, render
from logdiff.polyring import Poly
from logdiff.weyl import (
    Derivation,
    DiffOp,
    commutator,
    iterated_commutator,
    value_at_one_expansion,
)


def P(text, nvars):
    return parse_poly(text, nvars)


def D(text, nvars):
    return parse_diffop(text, nvars)


# -- the sparse-map protocol shared with Poly ---------------------------------------

_SAMPLES = {
    "Poly": lambda: P("x^2 - 3*y + 1/2", 2),
    "DiffOp": lambda: D("x1^2*d1*d2 - 3*d2 + 1/2", 2),
    "Derivation": lambda: Derivation((P("x^2", 2), P("-3", 2))),
    "DiffOp-order0": lambda: D("x^2 - 3*y + 1/2", 2),
}


@pytest.mark.parametrize("kind", list(_SAMPLES))
def test_sums_equality_hashing_and_repr_are_shared(kind):
    x = _SAMPLES[kind]()
    cls = kind.partition("-")[0]
    half = Fraction(1, 2)
    # a scalar on either side of + and -
    for s in (2, half):
        assert x + s == s + x and (x + s) - x == s and x - (x + s) == -s
        assert s - x == -(x - s) and (s - x) + x == s
    # unary minus, and a zero difference is falsy
    assert -(-x) == x and not -x + x and not x - x and x
    # another value, scalar, polynomial or operator, of either dimension:
    # never equal and never an error, from either side
    for other in (2, half, P("x", 2), D("d1", 2), P("x", 3), D("d1", 3),
                  Derivation((P("x", 1),)), "x", None):
        assert not x == other and x != other
        assert not other == x and other != x
    assert x - x == 0 and 0 == x - x and (x - x) + 3 == 3
    # a polynomial is the operator that multiplies by it, and a derivation
    # the plain operator with its terms
    twin = DiffOp(2, x.terms) if isinstance(x, DiffOp) else DiffOp.from_poly(x)
    assert x == twin and twin == x and hash(x) == hash(twin)
    assert x == x + 0 == 0 + x and hash(x) == hash(x + 0) == hash(-(-x))
    assert len({x, x + 0, -(-x), twin}) == 1
    if isinstance(x, DiffOp) and x.order == 0:
        # an operator of order 0 is the polynomial it multiplies by
        f = x.value_at_one()
        assert x == f and f == x and hash(x) == hash(f) and len({x, f}) == 1
    assert repr(x) == f"{cls}({x}, nvars=2)"


# Pairs of equal values of different kinds: int, Fraction, Poly, DiffOp
# and Derivation.  Equal values must hash equally, or a set or dict key
# holds both.
_EQUAL_PAIRS = {
    "constant Poly, int": lambda: (Poly.constant(2, 3), 3),
    "constant Poly, Fraction": lambda: (P("1/2", 2), Fraction(1, 2)),
    "constant Poly, integral Fraction": lambda: (Poly.constant(1, Fraction(4, 2)), 2),
    "zero Poly, int": lambda: (Poly.zero(3), 0),
    "zero Poly, Fraction": lambda: (Poly.zero(1), Fraction(0)),
    "Poly, DiffOp": lambda: (P("x^2 - 3*y + 1/2", 2), D("x^2 - 3*y + 1/2", 2)),
    "constant DiffOp, int": lambda: (D("d1*x1 - x1*d1", 1), 1),
    "constant DiffOp, Fraction": lambda: (DiffOp.from_poly(P("-1/3", 2)), Fraction(-1, 3)),
    "zero DiffOp, zero Poly": lambda: (DiffOp.zero(2), Poly.zero(2)),
    "zero Derivation, int": lambda: (Derivation((P("0", 2), P("0", 2))), 0),
    "Derivation, DiffOp": lambda: (Derivation((P("x^2", 2), P("-3", 2))),
                                   D("x1^2*d1 - 3*d2", 2)),
}


@pytest.mark.parametrize("pair", list(_EQUAL_PAIRS))
def test_equal_values_hash_equally(pair):
    a, b = _EQUAL_PAIRS[pair]()
    assert a == b and b == a
    assert hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: 1}[b] == 1


# -- products and normal ordering ------------------------------------------------

def test_defining_relation():
    assert DiffOp.partial(1, 1) * P("x", 1) == D("x*d1 + 1", 1)


def test_euler_square_normal_form():
    xd = D("x*d1", 1)
    assert xd * xd == D("x^2*d1^2 + x*d1", 1)


def test_unit_is_neutral():
    rng = random.Random(1)
    for _ in range(10):
        u = random_diffop(rng, 2)
        assert u * DiffOp.one(2) == u
        assert DiffOp.one(2) * u == u


@pytest.mark.parametrize("text", ["1", "d2", "x1*d1 - x2^2*d2 + 3"])
def test_operator_power_matches_parsed_power(text):
    u = D(text, 2)
    for n in range(5):
        assert u ** n == D(f"({text})^{n}", 2)
    assert u ** 1 == u
    for bad in (-1, 2.0, Fraction(2)):
        with pytest.raises(ValueError):
            u ** bad


def test_product_order_bound():
    rng = random.Random(2)
    for _ in range(20):
        u = random_diffop(rng, 2)
        v = random_diffop(rng, 2)
        uv = u * v
        if u.order is not None and v.order is not None and uv:
            assert uv.order <= u.order + v.order


def _times_by_commutation(u, v):
    """u * v by moving one partial at a time across each coefficient with
    d_i * h = h * d_i + dh/dx_i; independent of the Leibniz formula."""
    n = u.nvars
    out = DiffOp.zero(n)
    for beta, f in u.terms.items():
        for gamma, g in v.terms.items():
            cur = {gamma: g}  # d^beta' * g * d^gamma as sum of h * d^delta
            for i, e in enumerate(beta):
                for _ in range(e):
                    nxt = {}
                    for delta, h in cur.items():
                        up = delta[:i] + (delta[i] + 1,) + delta[i + 1:]
                        nxt[up] = nxt.get(up, Poly.zero(n)) + h
                        nxt[delta] = nxt.get(delta, Poly.zero(n)) + h.diff(i + 1)
                    cur = nxt
            out = out + f * DiffOp(n, cur)
    return out


def test_leibniz_product_matches_commutation_relation():
    # one right coefficient meets several left terms, which share its derivatives
    f = P("x^3*y^2 + 2*x*y - 1/2*y^3", 2)
    u = D("d1 + d2 + x*d1*d2 + d1^2*d2 + 3*d2^2", 2)
    assert u * f == _times_by_commutation(u, DiffOp.from_poly(f))
    rng = random.Random(6)
    for _ in range(40):
        u = random_diffop(rng, 2, max_order=3, max_terms=4)
        v = random_diffop(rng, 2, max_order=2, max_degree=3)
        uv = u * v
        assert uv == _times_by_commutation(u, v)
        for beta, coeff in uv.terms.items():
            assert coeff and coeff.nvars == 2 and len(beta) == 2


def op(nvars, terms):
    """A DiffOp from {beta: {monomial: coefficient}}, built without the parser."""
    return DiffOp(nvars, {beta: Poly(nvars, coeff) for beta, coeff in terms.items()})


def _no_leibniz(*args):
    raise AssertionError("a shortcut product ran the Leibniz rule")


def test_polynomial_on_the_left_skips_leibniz(monkeypatch):
    v = op(2, {(1, 0): {(1, 1): 2, (0, 0): -1}, (0, 2): {(2, 0): Fraction(1, 3)},
               (0, 0): {(0, 1): 5}})
    lefts = [op(2, {(0, 0): {(0, 0): 3}}), op(2, {(0, 0): {(0, 0): Fraction(-2, 7)}}),
             op(2, {(0, 0): {(1, 0): 1, (0, 2): Fraction(1, 2), (0, 0): -4}})]
    expected = [_times_by_commutation(u, v) for u in lefts]
    monkeypatch.setattr(weyl, "_leibniz_into", _no_leibniz)
    for u, want in zip(lefts, expected):
        got = u * v
        assert got == want and all(got.terms.values())
        assert u * DiffOp.zero(2) == DiffOp.zero(2)


def test_constants_on_the_right_skip_leibniz(monkeypatch):
    u = op(2, {(1, 0): {(1, 1): 2}, (0, 1): {(2, 0): -1, (0, 0): 1}, (0, 0): {(0, 1): 3}})
    rights = [op(2, {(0, 0): {(0, 0): 7}}), op(2, {(1, 0): {(0, 0): Fraction(-1, 2)}}),
              op(2, {(2, 0): {(0, 0): 1}, (0, 1): {(0, 0): Fraction(3, 4)},
                     (0, 0): {(0, 0): -2}})]
    expected = [_times_by_commutation(u, v) for v in rights]
    d1_plus_d2 = op(2, {(1, 0): {(0, 0): 1}, (0, 1): {(0, 0): 1}})
    d1_minus_d2 = op(2, {(1, 0): {(0, 0): 1}, (0, 1): {(0, 0): -1}})
    # d1*d2 meets d2*d1 at one key and cancels
    squares = op(2, {(2, 0): {(0, 0): 1}, (0, 2): {(0, 0): -1}})
    half = op(2, {(1, 0): {(0, 0): Fraction(1, 2)}, (0, 1): {(0, 0): Fraction(1, 2)}})
    monkeypatch.setattr(weyl, "_leibniz_into", _no_leibniz)
    for v, want in zip(rights, expected):
        assert u * v == want
    product = d1_plus_d2 * d1_minus_d2
    assert product == squares and product.terms == squares.terms
    assert (half * d1_minus_d2).terms == {(2, 0): Poly.constant(2, Fraction(1, 2)),
                                          (0, 2): Poly.constant(2, Fraction(-1, 2))}
    assert DiffOp.zero(2) * d1_plus_d2 == DiffOp.zero(2)
    # both shortcuts apply at once
    assert op(2, {(0, 0): {(1, 0): 2}}) * d1_minus_d2 == op(
        2, {(1, 0): {(1, 0): 2}, (0, 1): {(1, 0): -2}})


def test_products_outside_the_shortcuts_match_commutation():
    # a right side with one non-constant coefficient must not take the
    # constant shortcut, and a left side with d^0 plus other keys must not
    # take the polynomial one
    u = op(2, {(1, 1): {(0, 0): 1}, (2, 0): {(0, 1): 3}, (0, 0): {(1, 0): 1}})
    mixed_right = op(2, {(1, 0): {(0, 0): 2}, (0, 0): {(2, 1): 1}, (0, 1): {(0, 0): -1}})
    assert u * mixed_right == _times_by_commutation(u, mixed_right)
    poly_right = op(2, {(0, 0): {(1, 1): 1, (0, 0): 1}})
    assert u * poly_right == _times_by_commutation(u, poly_right)
    rng = random.Random(62)
    for _ in range(40):
        nvars = rng.choice([1, 2])
        u = random_diffop(rng, nvars, max_order=2, max_degree=2)
        u = u + random_poly(rng, nvars, max_degree=2, nonzero=True)
        v = random_diffop(rng, nvars, max_order=2, max_degree=rng.choice([0, 1, 2]))
        assert u * v == _times_by_commutation(u, v)


@st.composite
def _diffops(draw, nvars, max_order, max_degree):
    monos = st.tuples(*[st.integers(0, max_degree)] * nvars)
    betas = st.tuples(*[st.integers(0, max_order)] * nvars)
    scalars = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeffs = st.dictionaries(monos, scalars, max_size=3).map(lambda t: Poly(nvars, t))
    return DiffOp(nvars, draw(st.dictionaries(betas, coeffs, max_size=3)))


@st.composite
def _operator_pairs(draw):
    # orders and degrees drawn from 0 upward, so that many pairs have a
    # polynomial on the left or constants on the right
    nvars = draw(st.integers(1, 3))
    u = draw(_diffops(nvars, draw(st.integers(0, 2)), 2))
    v = draw(_diffops(nvars, 2, draw(st.integers(0, 2))))
    return u, v


@settings(max_examples=150, deadline=None)
@given(_operator_pairs())
def test_parsed_product_matches_commutation_hypothesis(pair):
    u, v = pair
    text = "(" + render(u) + ") * (" + render(v) + ")"
    assert parse_diffop(text, u.nvars) == _times_by_commutation(u, v)


def test_left_multiplication_by_zero_gives_zero_operator():
    u = D("x*d1 + d2^2", 2)
    for zero in (0, Fraction(0), Poly.zero(2)):
        assert (zero * u).terms == {}
    assert (Fraction(1, 2) * u).terms == D("1/2*x*d1 + 1/2*d2^2", 2).terms


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        DiffOp.partial(1, 1) * DiffOp.partial(2, 1)


# -- commutators ------------------------------------------------------------------

def test_canonical_commutator():
    assert commutator(DiffOp.partial(1, 1), P("x", 1)) == DiffOp.one(1)


def test_commutator_with_polynomial_matches_products():
    # [u, f] skips the Leibniz terms that cancel; u*f - f*u forms them all.
    rng = random.Random(61)
    for _ in range(40):
        nvars = rng.choice([1, 2, 3])
        u = random_diffop(rng, nvars, max_order=3)
        f = random_poly(rng, nvars, max_degree=3)
        if rng.random() < 0.5:
            u = Fraction(rng.randint(-3, 3), rng.randint(1, 4)) * u
            f = f * Fraction(rng.randint(1, 5), 3)
        got = commutator(u, f)
        assert got == u * f - f * u
        assert got.terms == (u * f - f * u).terms
        assert all(got.terms.values())
    u = random_diffop(rng, 2)
    for constant in (0, 3, Fraction(-1, 2), Poly.constant(2, 7)):
        assert commutator(u, constant) == DiffOp.zero(2)
    assert commutator(DiffOp.zero(2), random_poly(rng, 2, nonzero=True)) == DiffOp.zero(2)
    w = random_diffop(rng, 2)
    assert commutator(u, w) == u * w - w * u


def test_commutator_with_a_linear_form_skips_leibniz(monkeypatch):
    # deg f <= 1: only the terms with one derivative of f remain, and a
    # constant part of f commutes
    rng = random.Random(63)
    cases = []
    for _ in range(30):
        nvars = rng.choice([1, 2, 3])
        u = random_diffop(rng, nvars, max_order=3)
        if rng.random() < 0.5:
            u = Fraction(rng.randint(1, 5), rng.randint(1, 4)) * u
        f = Poly(nvars, {tuple(1 if i == j else 0 for i in range(nvars)):
                         Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for j in range(nvars)})
        cases.append((u, f + rng.randint(-2, 2)))
    cases.append((D("x1^2*d1^2*d2 + d2", 2), P("x2", 2)))
    cases.append((DiffOp.zero(2), P("x1 - 3*x2 + 1", 2)))
    expected = [u * f - f * u for u, f in cases]
    monkeypatch.setattr(weyl, "_leibniz_into", _no_leibniz)
    for (u, f), want in zip(cases, expected):
        got = commutator(u, f)
        assert got.terms == want.terms


def test_iterated_commutator_examples():
    x = P("x", 1)
    assert iterated_commutator(D("d1^2", 1), [x, x]) == 2
    assert iterated_commutator(D("x*d1*x*d1", 1), [x, x]) == D("2*x^2", 1)
    u = D("x^2*d1^2", 1)
    assert iterated_commutator(u, []) == u


def test_iterated_commutator_symmetric_in_polynomials():
    rng = random.Random(3)
    for _ in range(15):
        u = random_diffop(rng, 2)
        f = random_poly(rng, 2)
        g = random_poly(rng, 2)
        assert iterated_commutator(u, [f, g]) == iterated_commutator(u, [g, f])


def test_iterated_commutator_left_linear():
    rng = random.Random(4)
    for _ in range(15):
        u = random_diffop(rng, 2)
        v = random_diffop(rng, 2)
        a = random_poly(rng, 2)
        b = random_poly(rng, 2)
        fs = [random_poly(rng, 2), random_poly(rng, 2)]
        lhs = iterated_commutator(a * u + b * v, fs)
        rhs = a * iterated_commutator(u, fs) + b * iterated_commutator(v, fs)
        assert lhs == rhs


def test_brackets_detect_order():
    rng = random.Random(5)
    for _ in range(15):
        u = random_diffop(rng, 2, max_order=2)
        p = u.order
        if p is None:
            continue
        # one more bracket than the order always kills the operator
        fs = [random_poly(rng, 2) for _ in range(p + 1)]
        assert not iterated_commutator(u, fs)
        # bracketing along a top exponent leaves its coefficient, scaled
        beta = max(u.terms, key=lambda b: (sum(b), b))
        if sum(beta) == p:
            vars_seq = [P("x", 2)] * beta[0] + [P("y", 2)] * beta[1]
            got = iterated_commutator(u, vars_seq)
            scale = factorial(beta[0]) * factorial(beta[1])
            assert got == scale * u.terms[beta]


# -- application and values --------------------------------------------------------

def test_apply_euler_eigenvalue():
    assert D("x*d1", 1).apply(P("x^3", 1)) == P("3*x^3", 1)


def test_value_at_one():
    assert D("x*d1 + 5*x", 1).value_at_one() == P("5*x", 1)
    assert D("d1*d2", 2).apply(P("x*y", 2)) == Poly.one(2)


def test_value_at_one_expansion_examples():
    x = P("x", 1)
    assert value_at_one_expansion(DiffOp.partial(1, 1), [x]) == Poly.one(1)
    assert value_at_one_expansion(D("d1^2", 1), [x, x]) == 2
    u = D("x^2*d1 + 3", 1)
    assert value_at_one_expansion(u, []) == u.value_at_one()


def test_expansion_matches_bracket_route():
    rng = random.Random(6)
    for _ in range(20):
        u = random_diffop(rng, 2)
        fs = [random_poly(rng, 2) for _ in range(rng.randint(0, 3))]
        assert value_at_one_expansion(u, fs) == iterated_commutator(u, fs).value_at_one()


def test_apply_agrees_with_product_value():
    rng = random.Random(10)
    for _ in range(20):
        u = random_diffop(rng, 2)
        f = random_poly(rng, 2)
        assert u.apply(f) == (u * f).value_at_one()


# -- order and principal symbol ------------------------------------------------------

def test_order_and_symbol_examples():
    u = D("x^2*d1^2 - x*d1", 1)
    assert u.order == 2
    assert principal_symbol(u) == Poly(2, {(2, 2): 1})
    f = D("x^2 + 1", 1)
    assert f.order == 0
    assert principal_symbol(f) == Poly(2, {(2, 0): 1, (0, 0): 1})
    assert DiffOp.zero(1).order is None
    with pytest.raises(ValueError):
        principal_symbol(DiffOp.zero(1))


def test_symbol_multiplicative_when_orders_add():
    rng = random.Random(7)
    checked = 0
    while checked < 15:
        u = random_diffop(rng, 2)
        v = random_diffop(rng, 2)
        uv = u * v
        if not (u and v and uv):
            continue
        if uv.order == u.order + v.order:
            assert principal_symbol(uv) == principal_symbol(u) * principal_symbol(v)
            checked += 1


def test_symbol_xi_degree_equals_order():
    rng = random.Random(8)
    for _ in range(15):
        u = random_diffop(rng, 2)
        if not u:
            continue
        sym = principal_symbol(u)
        xi_degrees = {sum(m[2:]) for m in sym.terms}
        assert xi_degrees == {u.order}


# -- right ideal membership -----------------------------------------------------------

def test_in_right_ideal_examples():
    x = P("x", 1)
    assert in_right_ideal(D("x^2*d1^2 + x^3", 1), x, 2)
    assert not in_right_ideal(D("x*d1 + 1", 1), x, 1)
    assert in_right_ideal(D("x*d1", 1) * D("x*d1", 1), x, 1)


def test_in_right_ideal_zero_power_and_zero_operator():
    x = P("x", 1)
    assert in_right_ideal(D("d1", 1), x, 0)
    assert in_right_ideal(DiffOp.zero(1), x, 3)


def test_right_multiple_of_coprime_factor_preserves_membership():
    # with alpha, beta products of pairwise non-proportional linear forms,
    # u * beta lies in alpha * Diff exactly when u does
    rng = random.Random(9)
    alpha = P("x*(x+y)", 2)
    beta = P("y*(x-y)", 2)
    for _ in range(15):
        v = random_diffop(rng, 2)
        u = alpha * v
        assert in_right_ideal(u, alpha, 1)
        assert in_right_ideal(u * beta, alpha, 1)
    for _ in range(30):
        u = random_diffop(rng, 2)
        assert in_right_ideal(u * beta, alpha, 1) == in_right_ideal(u, alpha, 1)


# -- derivations ------------------------------------------------------------------------

def test_derivation_round_trip_and_apply():
    d = Derivation((P("x^2", 2), P("-y^2", 2)))
    op = D("x1^2*d1 - x2^2*d2", 2)
    assert type(op) is DiffOp
    assert Derivation.from_diffop(op) == d == op
    assert Derivation.from_diffop(op).coeffs == d.coeffs
    assert d.apply(P("x+y", 2)) == P("x^2 - y^2", 2)


def test_derivation_is_its_operator():
    d = Derivation((P("x^2", 2), Poly.zero(2)))
    assert isinstance(d, DiffOp)
    assert d.nvars == 2 and d.order == 1
    assert d.terms == {(1, 0): P("x^2", 2)}
    assert d.coeffs == (P("x^2", 2), Poly.zero(2))
    text = str(d)
    assert text == render(d) == "x1^2*d1"
    assert repr(d) == "Derivation(x1^2*d1, nvars=2)"
    assert repr(parse_diffop(text, 2)) == "DiffOp(x1^2*d1, nvars=2)"
    assert parse_diffop(text, 2) == d
    assert Derivation.from_diffop(parse_diffop(text, 2)) == d


def test_equal_derivations_hash_equally():
    a = Derivation((P("x", 2), P("y", 2)))
    b = Derivation.from_diffop(D("x1*d1 + x2*d2", 2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(D("x1*d1 + x2*d2", 2))
    assert len({a, b, D("x1*d1 + x2*d2", 2)}) == 1
    assert a != Derivation((P("x", 2), P("-y", 2)))


def test_derivation_arithmetic_gives_plain_operators():
    a = Derivation((P("x", 2), P("y", 2)))
    b = Derivation((P("x^2", 2), P("-y^2", 2)))
    results = [a * b, a + b, a - b, -a, P("x", 2) * a, 2 * a, a ** 0, a ** 1, a ** 2,
               commutator(a, b), commutator(a, P("x", 2))]
    assert all(type(r) is DiffOp for r in results)
    assert a * b == D("x1*d1 + x2*d2", 2) * D("x1^2*d1 - x2^2*d2", 2)
    # [E, b] = (deg b - 1) b for the Euler derivation E and homogeneous b
    assert commutator(a, b) == b


def test_diffop_constructors_build_plain_operators():
    built = [Derivation.zero(2), Derivation.one(2), Derivation.from_poly(P("x", 2)),
             Derivation.partial(2, 1)]
    assert [type(u) for u in built] == [DiffOp] * 4
    assert built == [DiffOp.zero(2), DiffOp.one(2), D("x1", 2), D("d1", 2)]


def test_derivation_rejects_higher_order():
    with pytest.raises(ValueError):
        Derivation.from_diffop(D("d1^2", 1))


def test_derivation_homogeneous_degree():
    assert Derivation((P("x^2", 2), P("-y^2", 2))).homogeneous_degree() == 2
    assert Derivation((P("x + 1", 2), P("y", 2))).homogeneous_degree() is None
    assert Derivation((P("x^2", 2), P("y", 2))).homogeneous_degree() is None
    assert Derivation((Poly.zero(2), Poly.zero(2))).homogeneous_degree() is None
