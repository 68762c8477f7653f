"""Seeded request generator: operator text and argv only, no ``logdiff``.

Requests come in shuffled blocks.  Every block holds each request class of
the workload once (a class is a fixture and an operator order, or a verify
lemma and its parameters) plus, where the workload has them, one negative
control of a random class, so runs with different seeds differ in their
operators but not in their mix.  Operators are built so that they can never
parse to zero: the words of a word operator are distinct, the d^beta of a
transport operator are distinct, and every coefficient is a nonzero
monomial.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .fixtures import FIXTURES

WORKLOADS = ("decompose", "verify", "tangent-transport")

DECOMPOSE_CLASSES = (
    [(name, order) for name in ("boolean3", "triple2", "B2") for order in (1, 2, 3)]
    + [(name, order) for name in ("A3", "B3") for order in (1, 2)]
)
# (fixture, word length); the two-dimensional builtins go through the CLI.
TANGENCY_CLASSES = (
    [(name, order) for name in ("triple2", "generic3") for order in (1, 2, 3)]
    + [(name, order) for name in ("A3", "B3") for order in (1, 2)]
)
CLI_TANGENCY = ("triple2", "generic3")
TRANSPORT_CLASSES = [(name, order) for name in ("boolean3", "triple2", "B2", "A3")
                     for order in (1, 2, 3)]
# (lemma, l, p, arrangement, trials).  jacobian-power at l = 3 runs on the
# boolean3 basis: with random l = 3 operators one trial takes anywhere from
# 8 ms to 3.3 s, a tail no run of a few hundred requests averages out.
VERIFY_CLASSES = (
    ("sym-power", 3, 3, None, 4),
    ("sym-power", 2, 6, None, 3),
    ("sym-power", 3, 5, None, 2),
    ("jacobian-power", 2, 2, None, 3),
    ("jacobian-power", 2, 3, None, 2),
    ("jacobian-power", 3, 2, "builtin:boolean3", 1),
    ("divisibility", 2, 2, "builtin:triple2", 3),
    ("divisibility", 2, 3, "builtin:triple2", 2),
    ("divisibility", 3, 2, "builtin:boolean3", 3),
)


class Request(NamedTuple):
    """One request.  ``expect`` depends on ``kind``:

    - decompose: sorted (word, coefficient, monomial) triples, or None for a
      non-tangent control that must raise DecompositionError;
    - tangency: (t_max, index of the failing form or None);
    - transport: the operator order p;
    - verify: the trial count.
    """

    kind: str
    fixture: str
    text: str
    args: tuple[str, ...]
    expect: object


def _monomial(rng: random.Random, dim: int, skip: int | None = None) -> tuple[int, ...]:
    exps = [0] * dim
    free = [i for i in range(dim) if i != skip]
    for _ in range(rng.randint(0, 2)):
        exps[rng.choice(free)] += 1
    return tuple(exps)


def _coeff(rng: random.Random) -> int:
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _power(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _term(c: int, mono: tuple[int, ...], tail: list[str]) -> tuple[bool, str]:
    """(is_negative, body) of c * x^mono * tail."""
    pieces = [_power(f"x{i}", e) for i, e in enumerate(mono, 1) if e]
    if abs(c) != 1 or not pieces + tail:
        pieces.insert(0, str(abs(c)))
    return c < 0, "*".join(pieces + tail)


def _join(terms: list[tuple[bool, str]]) -> str:
    out = []
    for n, (neg, body) in enumerate(terms):
        if n == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)


def _form_text(coeffs: tuple[int, ...]) -> str:
    return _join([_term(c, tuple(int(j == i) for j in range(len(coeffs))), [])
                  for i, c in enumerate(coeffs) if c])


def letters(name: str) -> list[str]:
    """Tangent derivations that words are built from, as operator text.

    The basis when the fixture has one; otherwise the Euler derivation and
    Q*d_i, which are tangent to every central arrangement.
    """
    fx = FIXTURES[name]
    if fx.basis:
        return [_join([_term(c, tuple(k if j == i else 0 for j in range(fx.dim)), [f"d{i + 1}"])
                       for i, c in enumerate(cs) if c])
                for k, cs in fx.basis]
    q = "*".join(f"({_form_text(f)})" for f in fx.forms)
    euler = _join([_term(1, tuple(int(j == i) for j in range(fx.dim)), [f"d{i + 1}"])
                   for i in range(fx.dim)])
    return [euler] + [f"{q}*d{i}" for i in range(1, fx.dim + 1)]


def _distinct(rng: random.Random, first, draw) -> list:
    """``first`` and up to two more distinct draws: 1-3 items in all."""
    items = [first]
    want = rng.randint(1, 3)
    for _ in range(8):
        if len(items) == want:
            break
        item = draw()
        if item not in items:
            items.append(item)
    return items


def _words(rng: random.Random, nletters: int, order: int) -> list[tuple[int, ...]]:
    """1-3 distinct weakly increasing words; the first has length ``order``."""
    def word(length):
        return tuple(sorted(rng.randint(1, nletters) for _ in range(length)))

    return _distinct(rng, word(order), lambda: word(rng.randint(1, order)))


def word_operator(rng: random.Random, name: str, order: int):
    """Text of a sum of words, with its (word, coefficient, monomial) triples."""
    lets = letters(name)
    dim = FIXTURES[name].dim
    triples = [(w, _coeff(rng), _monomial(rng, dim)) for w in _words(rng, len(lets), order)]
    terms = [_term(c, m, [f"({lets[i - 1]})" for i in w]) for w, c, m in triples]
    return terms, tuple(sorted(triples))


def _bad_term(rng: random.Random, dim: int) -> tuple[int, tuple[bool, str]]:
    """c * x^m * d_i with x_i not dividing x^m: not tangent to x_i = 0."""
    i = rng.randrange(dim)
    return i + 1, _term(_coeff(rng), _monomial(rng, dim, skip=i), [f"d{i + 1}"])


def _decompose(rng: random.Random, name: str, order: int, control: bool) -> Request:
    terms, triples = word_operator(rng, name, order)
    if control:
        _, bad = _bad_term(rng, FIXTURES[name].dim)
        return Request("decompose", name, _join(terms + [bad]), (), None)
    return Request("decompose", name, _join(terms), (), triples)


def _tangency(rng: random.Random, name: str, order: int, control: bool) -> Request:
    terms, _ = word_operator(rng, name, order)
    bad_form = None
    if control:
        bad_form, bad = _bad_term(rng, FIXTURES[name].dim)
        terms.append(bad)
    text = _join(terms)
    tmax = order + 1
    args = ()
    if name in CLI_TANGENCY:
        args = ("tangent", "--arrangement", f"builtin:{name}", "--op", text, "--tmax", str(tmax))
    return Request("tangency", name, text, args, (tmax, bad_form))


def _transport(rng: random.Random, name: str, order: int) -> Request:
    dim = FIXTURES[name].dim

    def beta(size):
        exps = [0] * dim
        for _ in range(size):
            exps[rng.randrange(dim)] += 1
        return tuple(exps)

    betas = _distinct(rng, beta(order), lambda: beta(rng.randint(0, order)))
    terms = [_term(_coeff(rng), _monomial(rng, dim),
                   [_power(f"d{i}", e) for i, e in enumerate(b, 1) if e])
             for b in betas]
    return Request("transport", name, _join(terms), (), order)


def _verify(rng: random.Random, spec) -> Request:
    lemma, dim, p, arrangement, trials = spec
    args = ["verify", "--lemma", lemma, "--p", str(p), "--trials", str(trials),
            "--seed", str(rng.randrange(10 ** 6))]
    args += ["--arrangement", arrangement] if arrangement else ["--l", str(dim)]
    return Request("verify", arrangement or "", "", tuple(args), trials)


def _control(rng: random.Random, make, classes) -> Request:
    """A negative control: a request of a random class plus a bad term."""
    return make(rng, *rng.choice(classes), True)


def _block(workload: str):
    if workload == "decompose":
        return ([(_decompose, (*c, False)) for c in DECOMPOSE_CLASSES]
                + [(_control, (_decompose, DECOMPOSE_CLASSES))])
    if workload == "verify":
        return [(_verify, (spec,)) for spec in VERIFY_CLASSES]
    if workload == "tangent-transport":
        return ([(_tangency, (*c, False)) for c in TANGENCY_CLASSES]
                + [(_control, (_tangency, TANGENCY_CLASSES))]
                + [(_transport, c) for c in TRANSPORT_CLASSES])
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def block_size(workload: str) -> int:
    return len(_block(workload))


def make_requests(workload: str, seed: int, count: int) -> list[Request]:
    """The first ``count`` requests of the workload's stream for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    block = _block(workload)
    out: list[Request] = []
    while len(out) < count:
        order = list(range(len(block)))
        rng.shuffle(order)
        for k in order:
            make, params = block[k]
            out.append(make(rng, *params))
    return out[:count]
