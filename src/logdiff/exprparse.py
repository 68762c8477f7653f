"""Text grammar, parser, and canonical printer for polynomials and operators.

Grammar (whitespace insensitive, ``*`` mandatory, precedence from tight to
loose: ``^``, unary ``-``, ``*``, binary ``+``/``-``)::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | power
    power  := atom ('^' INT)?
    atom   := INT ('/' INT)? | NAME | '(' expr ')'

Integers of more than ``MAX_DIGITS`` digits, exponents above
``MAX_EXPONENT``, nesting (open parentheses plus pending unary minus
signs) deeper than ``MAX_NESTING``, any sum, product or step of a power
with more than ``MAX_TERMS`` terms (counted over all coefficients), any
product or step of a power that multiplies more than ``MAX_TERM_PAIRS``
pairs of terms, and any product or step of a power with a monomial of
total degree, or a derivative order, above ``polyring.MAX_DEGREE`` are
rejected with a ``ParseError``:
powers are computed by repeated multiplication, the parser recurses once
per nesting level, the term check after every step stops an expansion
before it grows large, and the pair check before every multiplication
stops one expensive product before it starts.  A term of
f d^beta meets a term of g d^gamma once per derivative d^delta g that the
Leibniz rule forms, prod_j (min(beta_j, deg_j g) + 1) times; that is once
for a polynomial f d^0 or a constant g, so a polynomial product counts
the plain product of its factors' term counts.

Names are ``x1 .. xl`` for variables and ``d1 .. dl`` for partials, with
``x``, ``y``, ``z`` accepted as aliases of ``x1``, ``x2``, ``x3`` when the
ambient dimension is at most 3.  Rational literals ``a/b`` bind tighter
than ``*``.  In operator context ``*`` is noncommutative and the result is
normal-ordered; ``parse_poly`` rejects partials outright.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import prod

from .polyring import DegreeLimitError, Poly, Scalar, _canon
from .weyl import DiffOp, _size

# Whitespace between tokens is skipped; any other character the grammar
# has no token for matches ``bad``.
_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^()/])|(?P<bad>\S))"
)
_ALIASES = {"x": 1, "y": 2, "z": 3}
_NAME = re.compile(r"([xd])(\d+)")
MAX_EXPONENT = 1000
# Each level costs at most five Python frames, well inside the default
# recursion limit of 1000 even when the caller is already deep.
MAX_NESTING = 100
MAX_TERMS = 10_000
# A product multiplies every term of one factor by every term of the other.
MAX_TERM_PAIRS = 1_000_000
# Nested powers multiply exponents, so ``polyring.MAX_DEGREE`` bounds every
# total degree and operator order too: ``product`` turns the
# ``DegreeLimitError`` of a product past it into a ParseError.
# int() refuses decimal strings over the interpreter's limit, 4,300 digits
# by default and settable down to 640; no setting of it decides at 640.
MAX_DIGITS = 640
# str() of an int has the same limit, so ``_number`` prints pieces of at
# most this many digits.
_PIECE_DIGITS = 600
_PIECE = 10 ** _PIECE_DIGITS


class ParseError(ValueError):
    """Syntax or validation error, with the offending position attached."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Text or a token longer than this is quoted as this many characters: its
# head and its tail around "...", so that the file name at the end of a long
# path survives; the parse error already gives the position.
QUOTE_CHARS = 40


def _quote(token, chars: int = QUOTE_CHARS) -> str:
    """repr(token), cut to ``chars`` characters, head "..." tail, when it is
    longer; a str keeps its quotes."""
    text = token if isinstance(token, str) else repr(token)
    if len(text) > chars:
        tail = (chars - 3) // 2
        text = text[:chars - 3 - tail] + "..." + text[-tail:]
    return repr(text) if isinstance(token, str) else text


def _integer(digits: str, at: int) -> int:
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"integer has more than {MAX_DIGITS} digits", at)
    return int(digits)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    out = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok = m.group(kind)
        at = m.start(kind)
        if kind == "bad":
            raise ParseError(f"unexpected character {_quote(tok)}", at)
        out.append((kind, _integer(tok, at) if kind == "int" else tok, at))
    out.append(("end", None, len(text)))
    return out


def _term_pairs(left: DiffOp, right: DiffOp) -> int:
    """Pairs of terms that left * right multiplies together.

    A term of f d^beta meets each term of g d^gamma once for every
    derivative d^delta g that the Leibniz rule forms, delta_j <= min(beta_j,
    deg_j g): prod_j (min(beta_j, deg_j g) + 1) times.  That is once when
    f d^beta is a polynomial or g a constant, and then the count is the
    plain number of pairs.
    When the plain number alone exceeds MAX_TERM_PAIRS it is returned
    as it is, so counting never walks more than MAX_TERM_PAIRS pairs.
    """
    pairs = _size(left) * _size(right)
    if pairs > MAX_TERM_PAIRS:
        return pairs
    rights = [(len(g.terms), g.degrees()) for g in right.terms.values()]
    return sum(len(f.terms) * size * prod(min(b, d) + 1 for b, d in zip(beta, degrees))
               for beta, f in left.as_dict().items() for size, degrees in rights)


class _Parser:
    """Recursive descent over the token list; builds DiffOp values directly."""

    def __init__(self, text: str, nvars: int, allow_partials: bool):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.nvars = nvars
        self.allow_partials = allow_partials
        # Each distinct name is resolved once per parse; errors are not kept.
        # Resolving every occurrence cut perfbench decompose ops_per_s by
        # 2.8%, lower in 6 of 6 alternating 8 s pairs (2-core Xeon VM).
        self.names: dict[str, DiffOp] = {}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def enter(self, at: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression is nested too deeply", at)

    def bounded(self, size: int, at: int) -> None:
        if size > MAX_TERMS:
            raise ParseError(f"expression has more than {MAX_TERMS} terms", at)

    def product(self, left: DiffOp, right: DiffOp, at: int) -> DiffOp:
        # A term of f d^beta meets each right term at most prod_j (beta_j +
        # 1) times, once for a polynomial f (see _term_pairs).  Every parsed
        # value has at most MAX_TERMS terms, so a reach of at most
        # MAX_TERM_PAIRS // MAX_TERMS (the usual case) needs no exact count.
        reach = _size(right)
        if left.order:
            reach *= prod(d + 1 for d in left.degrees())
        if reach > MAX_TERM_PAIRS // MAX_TERMS and _term_pairs(left, right) > MAX_TERM_PAIRS:
            raise ParseError(f"product has more than {MAX_TERM_PAIRS} term pairs", at)
        try:
            value = left * right
        except DegreeLimitError as exc:
            raise ParseError(str(exc), at) from None
        self.bounded(_size(value), at)
        return value

    def parse(self) -> DiffOp:
        value = self.expr()
        kind, tok, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {_quote(tok)}", at)
        return value

    def expr(self) -> DiffOp:
        value = self.term()
        kind, tok, at = self.peek()
        if kind != "op" or tok not in "+-":
            return value
        # Summands are added in place, one map of terms per d^beta, and a term
        # that cancels leaves, so ``size`` counts the running sum's terms.
        sums = {beta: dict(f.terms) for beta, f in value.terms.items()}
        size = _size(value)
        while kind == "op" and tok in "+-":
            self.advance()
            sign = 1 if tok == "+" else -1
            for beta, f in self.term().terms.items():
                acc = sums.setdefault(beta, {})
                for m, c in f.terms.items():
                    if c := acc.get(m, 0) + c * sign:
                        size += m not in acc
                        acc[m] = c
                    else:
                        size -= 1
                        del acc[m]
            self.bounded(size, at)
            kind, tok, at = self.peek()
        coeffs = {beta: Poly._make(self.nvars, _canon(acc)) for beta, acc in sums.items() if acc}
        return DiffOp._make(self.nvars, coeffs)

    def term(self) -> DiffOp:
        value = self.factor()
        while True:
            kind, tok, at = self.peek()
            if kind == "op" and tok == "*":
                self.advance()
                value = self.product(value, self.factor(), at)
            else:
                return value

    def factor(self) -> DiffOp:
        kind, tok, at = self.peek()
        if kind == "op" and tok == "-":
            self.advance()
            self.enter(at)
            value = -self.factor()
            self.depth -= 1
            return value
        return self.power()

    def power(self) -> DiffOp:
        base = self.atom()
        kind, tok, at = self.peek()
        if kind == "op" and tok == "^":
            self.advance()
            kind, exp, at = self.peek()
            if kind == "op" and exp == "-":
                raise ParseError("negative exponent", at)
            if kind != "int":
                raise ParseError("expected a non-negative integer exponent", at)
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {_quote(exp)} exceeds the limit {MAX_EXPONENT}", at)
            self.advance()
            # The loop of ``polyring._Terms.__pow__``, with the term-pair
            # bound checked before each step and the term bound after it.
            value = base if exp else DiffOp.one(self.nvars)
            for _ in range(exp - 1):
                value = self.product(value, base, at)
            return value
        return base

    def atom(self) -> DiffOp:
        kind, tok, at = self.advance()
        if kind == "int":
            value: Scalar = tok
            nkind, ntok, nat = self.peek()
            if nkind == "op" and ntok == "/":
                self.advance()
                dkind, den, dat = self.peek()
                if dkind != "int":
                    raise ParseError("expected an integer denominator", dat)
                if den == 0:
                    raise ParseError("zero denominator", dat)
                self.advance()
                value = Fraction(tok, den)
            return DiffOp.from_poly(Poly.constant(self.nvars, value))
        if kind == "name":
            value = self.names.get(tok)
            if value is None:
                value = self.names[tok] = self.resolve(tok, at)
            return value
        if kind == "op" and tok == "(":
            self.enter(at)
            value = self.expr()
            kind, tok, at = self.advance()
            if kind != "op" or tok != ")":
                raise ParseError("expected ')'", at)
            self.depth -= 1
            return value
        if kind == "end":
            raise ParseError("unexpected end of input", at)
        raise ParseError(f"unexpected token {_quote(tok)}", at)

    def resolve(self, name: str, at: int) -> DiffOp:
        n = self.nvars
        if name in _ALIASES:
            index = _ALIASES[name]
            if n > 3:
                raise ParseError(f"alias {_quote(name)} is only available for dimension <= 3", at)
            if index > n:
                raise ParseError(f"alias {_quote(name)} exceeds dimension {n}", at)
            kind = "x"
        else:
            m = _NAME.fullmatch(name)
            if m is None:
                raise ParseError(f"unknown name {_quote(name)}", at)
            kind, index = m.group(1), _integer(m.group(2), at + 1)
            if not 1 <= index <= n:
                raise ParseError(f"index {_quote(index)} out of range 1..{n}", at)
        if kind == "x":
            return DiffOp.from_poly(Poly.variable(n, index))
        if not self.allow_partials:
            raise ParseError("partials are not allowed in a polynomial", at)
        return DiffOp.partial(n, index)


def parse_diffop(text: str, nvars: int) -> DiffOp:
    """Parse operator text to a normally ordered DiffOp."""
    return _Parser(text, nvars, allow_partials=True).parse()


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse polynomial text; any d<k> token is rejected."""
    return _Parser(text, nvars, allow_partials=False).parse().value_at_one()


def _decimal(n: int) -> str:
    """str(n) for an int of any size: at most ``_PIECE_DIGITS`` digits at a
    time, halving the number at a power of ten until the pieces are that
    small."""
    if -_PIECE < n < _PIECE:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = _PIECE_DIGITS
    while n >= 10 ** (2 * k):
        k *= 2
    high, low = divmod(n, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


def _number(c: Scalar) -> str:
    """str(c) for an int or a Fraction of any size, under any setting of
    ``sys.set_int_max_str_digits``."""
    if isinstance(c, Fraction):
        text = _decimal(c.numerator)
        return text if c.denominator == 1 else f"{text}/{_decimal(c.denominator)}"
    return _decimal(c)


def render(value: Poly | DiffOp) -> str:
    """Canonical text: graded-lex descending terms, highest order first.

    Each term is its sign, its coefficient's magnitude unless that is 1
    before a power, and its x- then d-powers, joined by "*".  Round trips
    exactly through the matching parse function.
    """
    if isinstance(value, Poly):
        items = [(m, (), c) for m, c in value.sorted_terms()]
    elif isinstance(value, DiffOp):
        items = [(m, beta, c) for beta, f in value.sorted_terms() for m, c in f.sorted_terms()]
    else:
        raise TypeError(f"cannot render {type(value).__name__}")
    if not items:
        return "0"
    parts = []
    for mono, beta, coeff in items:
        pieces = [f"{name}{i}^{e}" if e > 1 else f"{name}{i}"
                  for name, exps in (("x", mono), ("d", beta))
                  for i, e in enumerate(exps, start=1) if e]
        mag = abs(coeff)
        if mag != 1 or not pieces:
            pieces.insert(0, _number(mag))
        parts += (" - " if coeff < 0 else " + ", "*".join(pieces))
    # The first term's sign is a bare "-", or nothing.
    parts[0] = parts[0].strip(" +")
    return "".join(parts)
