import gc
import random
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import comb

import pytest

from helpers import random_diffop, random_poly
from logdiff.exprparse import (
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_TERM_PAIRS,
    MAX_TERMS,
    QUOTE_CHARS,
    ParseError,
    _number,
    _quote,
    parse_diffop,
    parse_poly,
    render,
)
from logdiff.polyring import Poly
from logdiff.weyl import DiffOp


# -- parsing --------------------------------------------------------------------

def test_parse_operator_normal_form():
    u = parse_diffop("x^2*d1^2 - x*d1", 1)
    assert u.as_dict() == {(2,): Poly(1, {(2,): 1}), (1,): Poly(1, {(1,): -1})}


def test_parse_respects_factor_order():
    assert parse_diffop("d1*x", 1) == parse_diffop("x*d1 + 1", 1)
    assert parse_diffop("d1*x1", 1) == parse_diffop("x1*d1 + 1", 1)


def test_parse_poly_expansion():
    cube = parse_poly("(x+y)^3", 2)
    assert len(cube.terms) == 4
    assert cube.as_dict()[(2, 1)] == 3


def test_parse_rational_literals_bind_tightly():
    assert parse_poly("1/2*x", 1) == Poly(1, {(1,): Fraction(1, 2)})
    assert parse_poly("3/4", 1) == Poly.constant(1, Fraction(3, 4))
    assert parse_poly("-1/2*x + 1", 1) == Poly(1, {(1,): Fraction(-1, 2), (0,): 1})


def test_parse_unary_minus_precedence():
    assert parse_poly("-x^2", 1) == Poly(1, {(2,): -1})
    assert parse_poly("2 - -3", 1) == Poly.constant(1, 5)


def test_parse_aliases():
    assert parse_poly("x*y*z", 3) == parse_poly("x1*x2*x3", 3)
    assert parse_poly("y", 2) == Poly.variable(2, 2)
    with pytest.raises(ParseError):
        parse_poly("z", 2)
    with pytest.raises(ParseError):
        parse_poly("x", 4)


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_poly("x + ", 1)
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_poly("x @ y", 2)
    assert info.value.position == 2
    # empty and blank text, text that ends after an operator, a stray
    # character after whitespace, a non-ASCII letter, and a missing ')' at
    # the end of the text
    for text, message, at in (
        ("", "unexpected end of input", 0),
        ("   ", "unexpected end of input", 3),
        ("x1*", "unexpected end of input", 3),
        ("x1 +", "unexpected end of input", 4),
        ("x1 $ 2", "unexpected character '$'", 3),
        ("\u00e9", "unexpected character '\u00e9'", 0),
        ("(x1 + x2 ", "expected ')'", 9),
    ):
        with pytest.raises(ParseError) as info:
            parse_diffop(text, 2)
        assert str(info.value) == f"{message} (at position {at})"
        assert info.value.position == at
    # tabs, newlines and trailing whitespace separate tokens like spaces
    assert parse_diffop("x1\t*\n d1  ", 2) == parse_diffop("x1*d1", 2)


def test_names_are_resolved_per_parse():
    # one parse resolves each name once; the next parse, in another
    # dimension or for a polynomial, resolves it again
    for nvars in (2, 3, 2):
        x1 = Poly.variable(nvars, 1)
        d1 = DiffOp.partial(nvars, 1)
        assert parse_diffop("x1*d1 + x*d1*x1", nvars) == x1 * d1 + x1 * d1 * x1
        assert parse_poly("x1*x + y", nvars) == x1 * x1 + Poly.variable(nvars, 2)
    assert parse_diffop("d1", 2) == DiffOp.partial(2, 1)
    with pytest.raises(ParseError) as info:
        parse_poly("d1", 2)
    assert info.value.position == 0
    # a failing name reports its own position, also after valid names
    for text, at in (("x1*x1 + d1*d1", 8), ("x2 + x9 + x9", 5), ("z*y + z", 0)):
        with pytest.raises(ParseError) as info:
            parse_poly(text, 2)
        assert info.value.position == at


def test_quote_keeps_the_head_and_the_tail():
    assert _quote("x1*d1") == "'x1*d1'" and _quote((1, 1)) == "(1, 1)"
    assert _quote(10 ** 39) == "1" + "0" * 39
    # longer than QUOTE_CHARS: that many characters, so a path keeps its file name
    path = "/tmp/" + "a" * 100 + "/in.json"
    assert _quote(path) == repr(path[:19] + "..." + path[-18:])
    assert _quote(10 ** 40) == "1" + "0" * 18 + "..." + "0" * 18
    assert _quote((1,) * 7, 20) == "(1, 1, 1,...1, 1, 1)"


def test_parse_poly_rejects_partials():
    with pytest.raises(ParseError):
        parse_poly("x*d1", 1)


def test_parse_index_out_of_range():
    with pytest.raises(ParseError):
        parse_diffop("d3", 2)
    with pytest.raises(ParseError):
        parse_poly("x0", 2)


def test_parse_negative_or_missing_exponent():
    with pytest.raises(ParseError):
        parse_poly("x^-1", 1)
    with pytest.raises(ParseError):
        parse_poly("x^y", 2)


def test_parse_requires_explicit_multiplication():
    with pytest.raises(ParseError):
        parse_poly("2(x)", 1)
    with pytest.raises(ParseError):
        parse_poly("x y", 2)


def test_parse_slash_outside_literal_rejected():
    with pytest.raises(ParseError):
        parse_poly("x/2", 1)


def test_parse_unknown_name():
    with pytest.raises(ParseError):
        parse_diffop("foo", 2)


def test_parse_deep_nesting_is_a_parse_error():
    for text in ("(" * 2000 + "x" + ")" * 2000, "-" * 5000 + "x"):
        for parse in (parse_diffop, parse_poly):
            with pytest.raises(ParseError, match="nested too deeply"):
                parse(text, 1)
    assert parse_poly("(" * 50 + "x" + ")" * 50, 1) == parse_poly("x", 1)


def test_nesting_limit_is_a_fixed_depth():
    n = MAX_NESTING
    x = parse_diffop("x", 1)
    sign = 1 if n % 2 == 0 else -1
    # n levels of parentheses, minus signs or both parse; n + 1 levels do not
    assert parse_diffop("(" * n + "x" + ")" * n, 1) == x
    assert parse_diffop("-" * n + "x", 1) == sign * x
    assert parse_diffop("-" + "(" * (n - 1) + "x" + ")" * (n - 1), 1) == -x
    for text in ("(" * (n + 1) + "x" + ")" * (n + 1), "-" * (n + 1) + "x",
                 "-" + "(" * n + "x" + ")" * n):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_diffop(text, 1)


def test_exponent_limit():
    assert parse_poly(f"x^{MAX_EXPONENT}", 1).as_dict() == {(MAX_EXPONENT,): 1}
    for text in (f"x^{MAX_EXPONENT + 1}", "d1^100000000", "x^100000000"):
        with pytest.raises(ParseError, match="exceeds the limit") as info:
            parse_diffop(text, 1)
        assert info.value.position == text.index("^") + 1


def test_integers_are_held_to_max_digits():
    # literals, denominators, exponents and name indices alike, at the
    # position of their first digit
    big = "9" * (MAX_DIGITS + 1)
    for text, at in ((f"x + {big}", 4), (f"1/{big}*x", 2), (f"x^{big}", 2), (f"x{big}", 1),
                     (f"d{big}*x", 1), ("9" * 5000, 0)):
        with pytest.raises(ParseError, match=f"integer has more than {MAX_DIGITS} digits") as info:
            parse_diffop(text, 1)
        assert info.value.position == at
    top = 10 ** MAX_DIGITS - 1
    assert parse_poly(f"{top}*x - 1/{top}", 1).as_dict() == {(1,): top, (0,): Fraction(-1, top)}


def _term_count(op: DiffOp) -> int:
    return sum(len(c.terms) for c in op.terms.values())


def test_term_limit_boundary():
    # (x1 + 1)^a * (x2 + 1)^b has (a + 1)(b + 1) terms; the limit is 100^2.
    assert MAX_TERMS == 100 * 100
    at_limit = parse_poly("(x1 + 1)^99 * (x2 + 1)^99", 2)
    assert len(at_limit.terms) == MAX_TERMS
    text = "(x1 + 1)^99 * (x2 + 1)^100"
    with pytest.raises(ParseError, match=f"more than {MAX_TERMS} terms") as info:
        parse_poly(text, 2)
    assert info.value.position == text.index("*")
    # Operators count terms over all coefficients.
    assert _term_count(parse_diffop("(x1 + 1)^99 * (d1 + 1)^99", 1)) == MAX_TERMS
    with pytest.raises(ParseError, match="terms"):
        parse_diffop("(x1 + 1)^99 * (d1 + 1)^100", 1)
    # A sum is bounded too.
    text = "(x1 + 1)^99 * (x2 + 1)^99 + x3"
    with pytest.raises(ParseError, match="terms") as info:
        parse_poly(text, 3)
    assert info.value.position == text.index("+ x3")


def test_term_pair_limit_boundary():
    # each factor (x1 + 1)^9 * (x2 + 1)^9 * (x3 + 1)^9 has 10^3 terms, so
    # their product has exactly MAX_TERM_PAIRS pairs and 19^3 terms
    assert MAX_TERM_PAIRS == 1000 * 1000
    cube = "(x1 + 1)^9 * (x2 + 1)^9 * (x3 + 1)^9"
    at_limit = parse_poly(f"({cube}) * ({cube})", 3)
    assert at_limit == parse_poly("(x1 + 1)^18 * (x2 + 1)^18 * (x3 + 1)^18", 3)
    text = f"({cube}) * ({cube} + x1^10)"
    with pytest.raises(ParseError, match=f"more than {MAX_TERM_PAIRS} term pairs") as info:
        parse_poly(text, 3)
    assert info.value.position == text.index(") * (") + 2


def test_operator_term_pair_limit_boundary():
    # d1^9*d2^9*d3^9 meets each of the 1,000 terms of g once per derivative
    # d^delta g, 10^3 of them: exactly MAX_TERM_PAIRS pairs.  Only the
    # x1^9*x2^9*x3^9 term survives a nonzero delta, so the result is small.
    assert MAX_TERM_PAIRS == 1000 * 1000
    g = "x1^9*x2^9*x3^9 + (x4 + 1)^26*(x5 + 1)^36"
    at_limit = parse_diffop(f"d1^9*d2^9*d3^9 * ({g})", 6)
    assert sum(len(c.terms) for c in at_limit.terms.values()) == 1000 + 999
    text = f"d1^9*d2^9*d3^9 * ({g} + x6)"
    start = time.process_time()
    with pytest.raises(ParseError, match=f"more than {MAX_TERM_PAIRS} term pairs") as info:
        parse_diffop(text, 6)
    assert time.process_time() - start < 0.1
    assert info.value.position == text.index(" * (") + 1
    # a one-term right factor too: x1^1000 has 1,001 derivatives for each
    # of the 1,000 terms of the left factor
    cube = "(x2 + 1)^9 * (x3 + 1)^9 * (x4 + 1)^9"
    text = f"{cube} * d1^1000 * x1^1000"
    start = time.process_time()
    with pytest.raises(ParseError, match=f"more than {MAX_TERM_PAIRS} term pairs") as info:
        parse_diffop(text, 4)
    assert time.process_time() - start < 0.1
    assert info.value.position == text.rindex("*")
    # each left term counts its own derivatives: the C(22, 2) terms
    # d1^a*d2^b of (d1+d2+1)^20 meet the C(22, 2) terms of (x1+x2+1)^20
    # C(24, 4) * C(22, 2) = 2,454,606 times
    with pytest.raises(ParseError, match="term pairs"):
        parse_diffop("(d1+d2+1)^20*(x1+x2+1)^20", 2)


def test_term_pair_limit_stops_a_large_product_before_it_starts():
    # two 3,003-term factors: 9 million pairs, rejected without multiplying
    base = "(x1 + x2 + x3 + x4 + x5 + x6)^10"
    text = f"{base} * {base}"
    with pytest.raises(ParseError, match="term pairs") as info:
        parse_poly(text, 6)
    assert info.value.position == text.index("*")
    # a power step is a product too
    with pytest.raises(ParseError, match="term pairs") as info:
        parse_poly(f"({base})^2", 6)


def test_term_limit_stops_a_power_early():
    # (x1 + ... + x6)^k has C(k + 5, 5) terms, above the limit from k = 14
    # on; each step of the power is checked, so ^1000 stops at step 14.
    base = "(x1 + x2 + x3 + x4 + x5 + x6)"
    assert len(parse_poly(base + "^13", 6).terms) == comb(18, 5)
    for text in (base + "^14", base + "^1000", "(x1 + d1 + x2 + d2 + x3 + d3)^1000"):
        with pytest.raises(ParseError, match="terms") as info:
            parse_diffop(text, 6)
        assert info.value.position == text.index("^") + 1


def test_a_long_sum_is_linear_in_its_text():
    # Each summand is added in place, so no "+" copies the 10,000-term sum;
    # copying it at every "+" took seconds per thousand summands.
    head = "(x1 + 1)^99 * (x2 + 1)^99"
    text = head + " + x1" * 20_000
    assert len(text) == 100_025
    start = time.process_time()
    got = parse_poly(text, 2)
    assert time.process_time() - start < 3
    assert got == parse_poly(head + " + 20000*x1", 2)
    # A term that cancels leaves the running count: 9,999 terms, then 10,000.
    assert len(parse_poly(head + " - 1 + x3", 3).terms) == MAX_TERMS
    text = head + " - 1 + x3 + x1*x3"
    with pytest.raises(ParseError, match=f"more than {MAX_TERMS} terms") as info:
        parse_poly(text, 3)
    assert info.value.position == text.index("+ x1*x3")


def test_sums_canonicalise_their_coefficients():
    half = parse_poly("1/2*x1 + 1/2*x1", 1)
    assert half == parse_poly("x1", 1) and all(type(c) is int for c in half.terms.values())
    assert parse_diffop("x1*d1 + 1 - x1*d1", 1) == parse_diffop("1", 1)
    assert parse_diffop("x1*d1 + 1 - x1*d1", 1).as_dict().keys() == {(0,)}
    zero = parse_diffop("x1*d1 - d1*x1 + 1", 1)
    assert zero == DiffOp.zero(1) and not zero.terms


def test_a_cancelling_sum_keeps_only_its_running_terms():
    # x1 + P_k - P_k for twenty 91-term P_k: each cancelled term leaves the
    # sum, so the peak is that of the same pairs cancelled in parentheses.
    pairs = [f"x1^{k}*(x1+x2+x3)^12" for k in range(1, 21)]
    flat = "x1" + "".join(f" + {p} - {p}" for p in pairs)
    grouped = "x1" + "".join(f" + ({p} - {p})" for p in pairs)
    parse_poly(grouped, 3)
    peaks = []
    for text in (grouped, flat):
        gc.collect()
        tracemalloc.start()
        try:
            assert parse_poly(text, 3) == parse_poly("x1", 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.1 * peaks[0]


# -- rendering ----------------------------------------------------------------------

def test_render_examples():
    u = parse_diffop("x1*d1 + 1", 1)
    assert render(u) == "x1*d1 + 1"
    assert render(Poly.zero(2)) == "0"
    assert render(DiffOp.zero(2)) == "0"


def test_render_sign_and_coefficient_formatting():
    p = parse_poly("-x^2 + 1/2*x - 3", 1)
    assert render(p) == "-x1^2 + 1/2*x1 - 3"
    u = parse_diffop("x2*d1*d2 - d1^2", 2)
    assert render(u) == "-d1^2 + x2*d1*d2"


@pytest.mark.parametrize("value, text", [
    (-DiffOp.partial(1, 1), "-d1"),
    (Poly.constant(1, -1), "-1"),
    (DiffOp.from_poly(Poly.constant(2, -1)), "-1"),
    (DiffOp.partial(1, 1) * Fraction(-1, 2), "-1/2*d1"),
    (DiffOp.from_poly(Poly.variable(1, 1)) * DiffOp.partial(1, 1) - 1, "x1*d1 - 1"),
    (DiffOp(2, {(1, 3): Poly.monomial(2, (2, 1), Fraction(3, 4))}), "3/4*x1^2*x2*d1*d2^3"),
    (DiffOp(2, {(0, 2): Poly.monomial(2, (0, 1), Fraction(-5, 3)),
                (0, 0): Poly.monomial(2, (1, 0), 2)}), "-5/3*x2*d2^2 + 2*x1"),
    (Poly.zero(2), "0"),
    (DiffOp.zero(2), "0"),
])
def test_render_pins_each_term_shape(value, text):
    # sign, coefficient magnitude and the x- then d-powers of every term
    assert render(value) == text
    parse = parse_poly if isinstance(value, Poly) else parse_diffop
    assert parse(text, value.nvars) == value


def test_numbers_render_at_any_size():
    # str() of an int refuses more digits than the interpreter's limit;
    # Decimal converts an int exactly under any limit
    for k in (1, 599, 600, 601, 1199, 1200, 1201, 2401, 5000):
        for n in (10 ** k - 1, 10 ** k, 10 ** k + 1, 7 * 10 ** k + 3):
            assert _number(n) == str(Decimal(n))
            assert _number(-n) == str(Decimal(-n))
    big = Fraction(-(10 ** 700 + 1), 3 * 10 ** 900 + 7)
    assert _number(big) == f"{Decimal(big.numerator)}/{Decimal(big.denominator)}"
    assert render(Poly.constant(1, big) * Poly.variable(1, 1)) == f"-{_number(-big)}*x1"


def test_render_term_order_is_graded_lex():
    p = parse_poly("y + x + x*y + x^2", 2)
    assert render(p) == "x1^2 + x1*x2 + x1 + x2"


def test_round_trip_thousand_random_operators():
    rng = random.Random(71)
    for _ in range(1000):
        nvars = rng.randint(1, 3)
        u = random_diffop(rng, nvars, max_order=2, max_degree=2)
        text = render(u)
        assert parse_diffop(text, nvars) == u
        # rendering is idempotent on its own output
        assert render(parse_diffop(text, nvars)) == text


def test_round_trip_polynomials_with_aliases():
    rng = random.Random(72)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        f = random_poly(rng, nvars, max_degree=3)
        text = render(f)
        assert parse_poly(text, nvars) == f
        aliased = text.replace("x1", "x").replace("x2", "y").replace("x3", "z")
        assert parse_poly(aliased, nvars) == f
