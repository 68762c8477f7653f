"""Acceptance suite: every criterion at its stated size, exact arithmetic.

Each test prints one PASS/FAIL line; run with ``pytest -s`` to see them.
"""

import random
import time
from fractions import Fraction
from math import comb

from helpers import (
    random_derivation,
    random_diffop,
    random_poly,
    random_word_operator,
)
from logdiff.arrangement import builtin_arrangement, euler_derivation, saito_check
from logdiff.exprparse import parse_diffop, render
from logdiff.jacobian import OpFamily, higher_jacobian, product_family
from logdiff.linalg import (
    multiplicity_product,
    permanent,
    sym_indices,
    sym_power_det_identity_holds,
)
from logdiff.polyring import Poly, coordinates, divides
from logdiff.sampling import random_int_matrix
from logdiff.tangent import (
    decompose,
    is_tangent,
    is_tangent_q,
    reassemble,
    tangency_table,
    transport,
)
from logdiff.weyl import Derivation, DiffOp, iterated_commutator


def _report(name, failures, elapsed=None, budget=None):
    ok = not failures and (budget is None or elapsed < budget)
    stamp = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert not failures, f"{name}: {failures[:3]}"
    if budget is not None:
        assert elapsed < budget, f"{name}: took {elapsed:.1f}s, budget {budget}s"


def _fixture(name):
    arr, thetas = builtin_arrangement(name)
    basis = saito_check(arr, thetas)
    assert basis.ok
    return arr, basis


def test_sym_power_determinant_identity():
    # all dims 1..3, powers 0..3, 100 random integer matrices each, exact
    start = time.perf_counter()
    rng = random.Random(2024)
    failures = []
    for dim in (1, 2, 3):
        for power in (0, 1, 2, 3):
            for trial in range(100):
                m = random_int_matrix(rng, dim)
                if not sym_power_det_identity_holds(m, power):
                    failures.append((dim, power, trial, m))
    _report("sym-power determinant identity", failures,
            time.perf_counter() - start, 60)


def test_jacobian_power_identity():
    # product families of the fixture bases collapse to the scaled power of Q
    start = time.perf_counter()
    cases = [
        ("boolean1", (1, 2, 3)),
        ("boolean2", (1, 2, 3)),
        ("boolean3", (1, 2)),
        ("triple2", (1, 2, 3)),
    ]
    failures = []
    for name, powers in cases:
        arr, basis = _fixture(name)
        fs = coordinates(arr.dim)
        scaled_q = arr.q * basis.scalar
        for p in powers:
            exponent = comb(p + arr.dim - 1, arr.dim)
            lhs = higher_jacobian(fs, product_family(basis.thetas, p))
            rhs = scaled_q ** exponent * multiplicity_product(arr.dim, p)
            if lhs != rhs:
                failures.append((name, p))
    _report("jacobian power identity", failures, time.perf_counter() - start, 60)


def test_permanent_expansion():
    # bracket value of a derivation word equals the permanent of pair values
    rng = random.Random(2025)
    failures = []
    for trial in range(200):
        nvars = rng.choice([1, 2])
        p = rng.randint(1, 3)
        deltas = [random_derivation(rng, nvars) for _ in range(p)]
        fs = [random_poly(rng, nvars) for _ in range(p)]
        word = DiffOp.one(nvars)
        for d in deltas:
            word = word * d
        lhs = iterated_commutator(word, fs).value_at_one()
        rhs = permanent([[deltas[a].apply(fs[b]) for b in range(p)] for a in range(p)])
        if lhs != rhs:
            failures.append((trial, nvars, p))
    _report("permanent expansion", failures)


def test_jacobian_divisibility():
    # higher Jacobians of tangent word families divide by the Q power
    rng = random.Random(2026)
    fixtures = [_fixture(name) for name in ("boolean2", "triple2", "boolean3")]
    failures = []
    for trial in range(100):
        arr, basis = fixtures[trial % 3]
        p = 1 + trial % 2
        fs = coordinates(arr.dim)
        entries = tuple(
            random_word_operator(rng, basis.thetas, arr.dim,
                                 max_len=p, max_words=1)
            for _ in sym_indices(arr.dim, p)
        )
        jac = higher_jacobian(fs, OpFamily(arr.dim, p, entries))
        if not divides(arr.q ** comb(p + arr.dim - 1, arr.dim), jac):
            failures.append((trial, arr.dim, p))
    _report("jacobian divisibility", failures)


def test_decompose_round_trip():
    # words in a certified basis decompose and reassemble exactly
    start = time.perf_counter()
    rng = random.Random(2027)
    fixtures = [_fixture(name) for name in ("boolean2", "boolean3", "triple2")]
    failures = []
    done = 0
    while done < 200:
        arr, basis = fixtures[done % 3]
        u = random_word_operator(rng, basis.thetas, arr.dim,
                                 max_len=3)
        if not u:
            continue
        done += 1
        dec = decompose(u, arr, basis)
        if reassemble(dec) != u:
            failures.append((done, arr.dim, render(u)))

    # the hand-verified identity on the one-hyperplane line
    arr1, basis1 = _fixture("boolean1")
    u = parse_diffop("x^2*d1^2", 1)
    dec = decompose(u, arr1, basis1)
    xd = parse_diffop("x*d1", 1)
    if reassemble(dec) != u or xd * xd - xd != u:
        failures.append(("hand identity", render(u)))
    if [(w.coeff, w.word) for w in dec.words] != [
        (Poly.one(1), (1, 1)), (Poly.constant(1, -1), (1,)),
    ]:
        failures.append(("hand identity words", [(str(w.coeff), w.word) for w in dec.words]))
    _report("decompose round trip", failures, time.perf_counter() - start, 120)


def test_idealizer_equivalence():
    # per-form and whole-Q truncated tangency agree at every cutoff, and the
    # exact per-form test agrees with the whole-Q test cut at max(ord u, 1)
    rng = random.Random(2028)
    names = ("boolean1", "boolean2", "boolean3", "triple2", "generic3")
    arrs = [builtin_arrangement(n)[0] for n in names]
    failures = []
    for trial in range(200):
        arr = arrs[trial % len(arrs)]
        u = random_diffop(rng, arr.dim, max_order=2)
        for t_max in (1, 2, 3):
            if all(r.ok for r in tangency_table(u, arr, t_max)) != is_tangent_q(u, arr, t_max):
                failures.append((trial, t_max, render(u)))
        if is_tangent(u, arr) != is_tangent_q(u, arr, max(u.order or 0, 1)):
            failures.append((trial, "exact", render(u)))
    _report("idealizer equivalence", failures)


def test_transport_round_trip():
    # Q^C(p+1,2) * u reassembles exactly from words in the scaled partials
    rng = random.Random(2029)
    arr, _ = builtin_arrangement("boolean2")
    failures = []
    done = 0
    while done < 50:
        u = random_diffop(rng, 2, max_order=3)
        if not u:
            continue
        done += 1
        expected = arr.q ** comb(u.order + 1, 2) * u
        if reassemble(transport(u, arr)) != expected:
            failures.append((done, render(u)))
    _report("transport round trip", failures)


def _degree_one_tangent_nullity(arr) -> int:
    """Dimension of the space of degree-1 tangent derivations, exactly.

    A degree-1 derivation has a square coefficient matrix of scalars; the
    tangency conditions say each form maps to a proportional form, which is
    linear in those scalars.  Gaussian elimination over the rationals gives
    the solution-space dimension.
    """
    n = arr.dim
    rows = []
    for form in arr.forms:
        a = [Fraction(c) for c in form.coeffs]
        # g_j = sum_i a_i * u[i][j]; require g proportional to a:
        # a_k * g_j - a_j * g_k = 0 for all j < k
        for j in range(n):
            for k in range(j + 1, n):
                row = [Fraction(0)] * (n * n)
                for i in range(n):
                    row[i * n + j] += a[k] * a[i]
                    row[i * n + k] -= a[j] * a[i]
                rows.append(row)
    cols = n * n
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return cols - rank


def test_negative_controls():
    failures = []

    # a plain partial fails tangency at the first power
    arr1, _ = builtin_arrangement("boolean1")
    if is_tangent(parse_diffop("d1", 1), arr1):
        failures.append("d1 accepted")

    # x*d1^2 passes the first truncation and fails the second
    u = parse_diffop("x*d1^2", 1)
    if [r.ok for r in tangency_table(u, arr1, 2)] != [True, False] or is_tangent(u, arr1):
        failures.append("x*d1^2 truncation")

    # on the generic 4-plane arrangement the degree-1 tangent space is only
    # the Euler line, so every degree-(1,1,2) candidate has two proportional
    # rows and a vanishing determinant: never a nonzero multiple of Q
    arrg, _ = builtin_arrangement("generic3")
    if _degree_one_tangent_nullity(arrg) != 1:
        failures.append("degree-1 tangent space is not a line")
    eu = euler_derivation(3)
    if not is_tangent(eu, arrg):
        failures.append("euler not tangent")

    w = arrg.forms[3]  # x + y + z
    yz = Poly.variable(3, 2) * Poly.variable(3, 3)
    degree_two = [
        Derivation(tuple(w * c for c in eu.coeffs)),                 # w * euler
        Derivation((Poly.zero(3), yz, -yz)),                         # yz*(d2 - d3)
    ]
    for d in degree_two:
        if not is_tangent(d, arrg):
            failures.append(f"degree-2 candidate not tangent: {d}")
    for theta3 in degree_two:
        for scale in (1, 2):
            candidate = (eu, Derivation(tuple(scale * c for c in eu.coeffs)), theta3)
            result = saito_check(arrg, candidate)
            if result.ok:
                failures.append("degree-(1,1,2) candidate accepted")
            elif result.determinant is not None and result.determinant != Poly.zero(3):
                failures.append("determinant did not collapse")

    # a candidate whose middle entry is not even tangent is rejected earlier
    bad = Derivation((Poly.variable(3, 1), Poly.zero(3), Poly.zero(3)))
    result = saito_check(arrg, (eu, bad, degree_two[1]))
    if result.ok or result.index != 2:
        failures.append("non-tangent candidate slipped through")

    _report("negative controls", failures)
