"""Fixture arrangements of the benchmark: plain data and the code that builds them.

The data half (forms, basis derivations, certified values) imports nothing
from ``logdiff`` so the text generator can use it.  ``build`` turns it into
``Arrangement`` and ``SaitoBasis`` objects through the package's public
constructors and asserts the certified Saito values.

Every basis here is "diagonal": each derivation is sum_i c_i x_i^k d_i,
stored as ``(k, (c_1, ..., c_l))``.  In every fixture the coordinate
hyperplanes x_1 .. x_l come first, so form i is x_i; the negative controls
rely on that.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Fixture:
    name: str
    dim: int
    forms: tuple[tuple[int, ...], ...]
    # Diagonal basis derivations (power, coefficients); empty when not free.
    basis: tuple[tuple[int, tuple[int, ...]], ...]
    # Certified Saito scalar and degrees; None when there is no basis.
    scalar: int | None
    degrees: tuple[int, ...] | None
    # Built through logdiff.builtin_arrangement instead of from ``forms``.
    builtin: bool = False


def _unit(dim: int, i: int, c: int = 1) -> tuple[int, ...]:
    return tuple(c if j == i else 0 for j in range(dim))


def _pair(dim: int, i: int, j: int, s: int) -> tuple[int, ...]:
    return tuple(1 if k == i else s if k == j else 0 for k in range(dim))


def type_a(dim: int) -> Fixture:
    """A_l: x_i and x_i - x_j, basis theta_k = sum_i x_i^k d_i."""
    forms = [_unit(dim, i) for i in range(dim)]
    forms += [_pair(dim, i, j, -1) for i in range(dim) for j in range(i + 1, dim)]
    basis = tuple((k, (1,) * dim) for k in range(1, dim + 1))
    return Fixture(f"A{dim}", dim, tuple(forms), basis, -1, tuple(range(1, dim + 1)))


def type_b(dim: int) -> Fixture:
    """B_l: x_i and x_i +- x_j, basis sum_i x_i^(2k-1) d_i."""
    forms = [_unit(dim, i) for i in range(dim)]
    forms += [_pair(dim, i, j, s) for i in range(dim) for j in range(i + 1, dim) for s in (1, -1)]
    basis = tuple((2 * k - 1, (1,) * dim) for k in range(1, dim + 1))
    return Fixture(f"B{dim}", dim, tuple(forms), basis, -1,
                   tuple(2 * k - 1 for k in range(1, dim + 1)))


FIXTURES = {f.name: f for f in (
    Fixture("boolean3", 3, tuple(_unit(3, i) for i in range(3)),
            tuple((1, _unit(3, i)) for i in range(3)), 1, (1, 1, 1), builtin=True),
    Fixture("triple2", 2, ((1, 0), (0, 1), (1, 1)),
            ((1, (1, 1)), (2, (1, -1))), -1, (1, 2), builtin=True),
    Fixture("generic3", 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)),
            (), None, None, builtin=True),
    type_a(3),
    type_b(3),
    type_b(2),
)}


class SetupError(RuntimeError):
    """A fixture did not build or certify to its recorded values."""


def _derivation(ld, dim: int, power: int, coeffs: tuple[int, ...]):
    return ld.Derivation(tuple(
        ld.Poly.monomial(dim, _unit(dim, i, power), c) if c else ld.Poly.zero(dim)
        for i, c in enumerate(coeffs)
    ))


def build(ld) -> dict:
    """Build and certify every fixture with the ``logdiff`` package ``ld``.

    Returns name -> (Arrangement, SaitoBasis or None).
    """
    out = {}
    for fx in FIXTURES.values():
        if fx.builtin:
            arr, _ = ld.builtin_arrangement(fx.name)
            if tuple(f.coeffs for f in arr.forms) != fx.forms:
                raise SetupError(f"{fx.name}: builtin forms differ from the recorded ones")
        else:
            arr = ld.Arrangement([ld.LinearForm(f) for f in fx.forms])
        basis = None
        if fx.basis:
            thetas = [_derivation(ld, fx.dim, k, cs) for k, cs in fx.basis]
            basis = ld.saito_check(arr, thetas)
            if not basis.ok or basis.scalar != fx.scalar or basis.degrees != fx.degrees:
                raise SetupError(f"{fx.name}: certified as {basis}, expected "
                                 f"lambda = {fx.scalar}, degrees = {fx.degrees}")
        out[fx.name] = (arr, basis)
    return out

