"""Seeded random polynomials and operators.

``logdiff verify`` draws its trial inputs here and the tests draw theirs
from the same functions, so ``verify --seed N`` reproduces a run exactly
as long as the draw order below stays fixed.
"""

from __future__ import annotations

import random

from .polyring import Monomial, Poly
from .weyl import DiffOp


def random_monomial(rng: random.Random, nvars: int, max_degree: int) -> Monomial:
    exps = [0] * nvars
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def random_poly(rng: random.Random, nvars: int, max_degree: int,
                nonzero: bool = False) -> Poly:
    terms = {}
    for _ in range(rng.randint(0, 3)):
        terms[random_monomial(rng, nvars, max_degree)] = rng.randint(-4, 4)
    p = Poly(nvars, terms)
    if nonzero and not p:
        return Poly.constant(nvars, rng.choice([1, 2, -1, -2, 3]))
    return p


def random_int_matrix(rng: random.Random, dim: int) -> list[list[int]]:
    """A dim x dim matrix of integers in [-5, 5], drawn row by row."""
    return [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(dim)]


def random_order_one_op(rng: random.Random, nvars: int, max_degree: int) -> DiffOp:
    """A random operator f_0 + sum_i f_i d_i."""
    op = DiffOp.from_poly(random_poly(rng, nvars, max_degree))
    for i in range(1, nvars + 1):
        op = op + random_poly(rng, nvars, max_degree) * DiffOp.partial(nvars, i)
    return op


def random_word(rng: random.Random, word_op, nletters: int, nvars: int,
                max_len: int) -> DiffOp:
    """A nonzero polynomial times a product of at most ``max_len`` of the
    ``nletters`` generators of the ``weyl.word_fold`` ``word_op``, taken in
    weakly increasing index order."""
    length = rng.randint(0, max_len)
    letters = tuple(sorted(rng.randint(1, nletters) for _ in range(length)))
    coeff = random_poly(rng, nvars, 2, nonzero=True)
    return coeff * word_op(letters)
