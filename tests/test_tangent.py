import gc
import pickle
import random
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    decompose_by_jacobians,
    is_tangent_q_by_products,
    random_diffop,
    random_poly,
    random_word_operator,
    tangency_table_by_products,
)
from logdiff import sampling, tangent
from logdiff.arrangement import (
    _BUILTINS,
    Arrangement,
    SaitoBasis,
    _load_spec,
    builtin_arrangement,
    euler_derivation,
    rank2_basis,
    saito_check,
)
from logdiff.exprparse import parse_diffop, parse_poly
from logdiff.linalg import determinant, sym_indices
from logdiff.polyring import LinearForm, Poly, coordinates, divides
from logdiff.tangent import (
    Decomposition,
    DecompositionError,
    Word,
    decompose,
    decomposition_to_json,
    is_tangent,
    is_tangent_q,
    reassemble,
    tangency_table,
    transport,
)
from logdiff.weyl import Derivation, DiffOp, commutator, iterated_commutator, word_fold
from logdiff.jacobian import OpFamily, higher_jacobian


def P(text, nvars):
    return parse_poly(text, nvars)


def D(text, nvars):
    return parse_diffop(text, nvars)


def fixture_basis(name):
    arr, thetas = builtin_arrangement(name)
    result = saito_check(arr, thetas)
    assert result.ok
    return arr, result


def four_lines_basis():
    arr = Arrangement([LinearForm((1, 0)), LinearForm((0, 1)),
                       LinearForm((1, 1)), LinearForm((1, -1))])
    basis = saito_check(arr, rank2_basis(arr))
    assert basis.ok
    return arr, basis


def a3_basis():
    # the braid arrangement: forms x_i and x_i - x_j, basis sum_i x_i^k d_i
    arr, thetas = _load_spec({
        "dim": 3,
        "forms": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0], [1, 0, -1], [0, 1, -1]],
        "basis": ["x1*d1 + x2*d2 + x3*d3",
                  "x1^2*d1 + x2^2*d2 + x3^2*d3",
                  "x1^3*d1 + x2^3*d2 + x3^3*d3"],
    })
    basis = saito_check(arr, thetas)
    assert basis.ok and basis.scalar == -1 and basis.degrees == (1, 2, 3)
    return arr, basis


# -- tangency ----------------------------------------------------------------------

def test_plain_partial_fails_immediately():
    arr, _ = builtin_arrangement("boolean1")
    assert not is_tangent(D("d1", 1), arr)


def test_truncation_level_matters():
    arr, _ = builtin_arrangement("boolean1")
    u = D("x*d1^2", 1)
    assert [r.ok for r in tangency_table(u, arr, 2)] == [True, False]
    assert not is_tangent(u, arr)
    assert is_tangent_q(u, arr, 1)
    assert not is_tangent_q(u, arr, 2)


def test_words_of_tangent_generators_stay_tangent():
    rng = random.Random(51)
    for name in ("boolean2", "triple2"):
        arr, thetas = builtin_arrangement(name)
        for _ in range(10):
            u = random_word_operator(rng, thetas, arr.dim)
            assert is_tangent(u, arr)
            assert all(r.ok for r in tangency_table(u, arr, 3))
            for t_max in (1, 2, 3):
                assert is_tangent_q(u, arr, t_max)


def test_euler_and_constants_always_pass():
    from logdiff.arrangement import euler_derivation

    for name in ("boolean2", "triple2", "generic3"):
        arr, _ = builtin_arrangement(name)
        assert is_tangent_q(euler_derivation(arr.dim), arr, 5)
        assert is_tangent_q(DiffOp.one(arr.dim), arr, 3)
        assert is_tangent(DiffOp.zero(arr.dim), arr)
        assert all(r.ok for r in tangency_table(DiffOp.zero(arr.dim), arr, 3))


def test_truncated_tests_agree_on_random_operators():
    rng = random.Random(52)
    for name in ("boolean1", "boolean2", "triple2", "generic3"):
        arr, _ = builtin_arrangement(name)
        for _ in range(15):
            u = random_diffop(rng, arr.dim, max_order=2)
            for t_max in (1, 2):
                assert all(r.ok for r in tangency_table(u, arr, t_max)) == is_tangent_q(u, arr, t_max)
            assert is_tangent(u, arr) == is_tangent_q(u, arr, max(u.order or 0, 1))


def test_tangency_table_witness():
    # x*d1^2 * x^t = x^(t+1)*d1^2 + 2t*x^t*d1 + t(t-1)*x^(t-1): the d1^0
    # coefficient fails from t = 2 on
    arr, _ = builtin_arrangement("boolean1")
    rows = tangency_table(D("x*d1^2", 1), arr, 4)
    assert [(r.form_index, r.t, r.ok) for r in rows] == [
        (1, 1, True), (1, 2, False), (1, 3, False), (1, 4, False)]
    assert [r.witness for r in rows[1:]] == [
        ((0,), P("2*x", 1)), ((0,), P("6*x^2", 1)), ((0,), P("12*x^3", 1))]


def test_tangency_arguments_are_checked():
    arr, _ = builtin_arrangement("boolean2")
    for table in (tangency_table, tangency_table_by_products):
        with pytest.raises(ValueError, match="t_max"):
            table(D("d1", 2), arr, 0)
        with pytest.raises(ValueError, match="dimension"):
            table(D("d1", 1), arr, 1)
    for route in (is_tangent_q, is_tangent_q_by_products):
        with pytest.raises(ValueError, match="t_max"):
            route(D("d1", 2), arr, 0)
        with pytest.raises(ValueError, match="dimension"):
            route(D("d1", 1), arr, 1)
    with pytest.raises(ValueError, match="dimension"):
        is_tangent(D("d1", 1), arr)


def _tangency_cases(rng, arr, thetas):
    """Tangent, non-tangent, rational, zero and order-0 operators."""
    n = arr.dim
    yield DiffOp.zero(n)
    yield DiffOp.from_poly(random_poly(rng, n, nonzero=True))
    for _ in range(4):
        if thetas:
            yield random_word_operator(rng, thetas, n)
        u = random_diffop(rng, n, max_order=3)
        yield u
        yield Fraction(rng.randint(-4, 4) or 1, rng.randint(2, 5)) * u
        # a form power times u, so that cells can pass before one fails
        form = rng.choice(arr.forms)
        yield form ** rng.randint(1, 2) * u


@pytest.mark.parametrize("fixture", [
    lambda: builtin_arrangement("boolean1"),
    lambda: builtin_arrangement("boolean2"),
    lambda: builtin_arrangement("triple2"),
    lambda: builtin_arrangement("generic3"),
    lambda: (a3_basis()[0], a3_basis()[1].thetas),
], ids=["boolean1", "boolean2", "triple2", "generic3", "A3"])
def test_tangency_table_equals_products(fixture):
    rng = random.Random(60)
    arr, thetas = fixture()
    outcomes = set()
    for u in _tangency_cases(rng, arr, thetas):
        p = u.order or 0
        for t_max in range(1, p + 4):
            rows = tangency_table(u, arr, t_max)
            assert rows == tangency_table_by_products(u, arr, t_max), (str(u), t_max)
        outcomes.update(r.ok for r in rows)
    assert outcomes == {True, False}


_small_ops = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.one_of(st.integers(-4, 4), st.fractions(-2, 2, max_denominator=3)),
        max_size=3,
    ).map(lambda d: Poly(2, d)),
    max_size=3,
).map(lambda d: DiffOp(2, d))


# forms with coefficients other than 0 and 1, so that the coefficient of
# each variable in the form matters
_scaled_lines = Arrangement([LinearForm((1, 0)), LinearForm((2, -1)),
                             LinearForm((Fraction(1, 2), 3))])


@settings(max_examples=80, deadline=None)
@given(_small_ops, st.sampled_from([builtin_arrangement("triple2")[0], _scaled_lines]),
       st.integers(1, 5))
def test_tangency_table_equals_products_hypothesis(u, arr, t_max):
    assert tangency_table(u, arr, t_max) == tangency_table_by_products(u, arr, t_max)


def _polys(n):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * n), st.integers(-3, 3), max_size=3,
    ).map(lambda d: Poly(n, d))


@pytest.mark.parametrize("fixture", [
    *[lambda name=name: builtin_arrangement(name)[0]
      for name in ("boolean1", "boolean2", "boolean3", "triple2", "generic3")],
    lambda: four_lines_basis()[0],
    lambda: a3_basis()[0],
], ids=["boolean1", "boolean2", "boolean3", "triple2", "generic3", "four_lines", "A3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_derivation_tangency_is_operator_tangency(fixture, data):
    # f * Euler + sum_i g_i * Q * d_i is tangent; adding a raw derivation
    # usually is not.  Tangency at order one must equal the definition,
    # a | delta(a) for every form a, and the whole-Q route at t = 1.
    arr = fixture()
    n = arr.dim
    f, *gs = data.draw(st.lists(_polys(n), min_size=n + 1, max_size=n + 1))
    raw = data.draw(st.lists(_polys(n), min_size=n, max_size=n))
    add_raw = data.draw(st.booleans())
    delta = Derivation(tuple(
        f * Poly.variable(n, j + 1) + gs[j] * arr.q + (raw[j] if add_raw else Poly.zero(n))
        for j in range(n)
    ))
    literal = all(divides(a, delta.apply(a)) for a in arr.forms)
    assert is_tangent(delta, arr) == literal == is_tangent_q(delta, arr, 1)
    if not add_raw:
        assert literal


def test_tangency_cutoff_is_exact():
    # all cells up to max(ord u, 1) pass exactly when all cells up to ord u + 3
    # do, for the per-form table and for the whole-Q route
    rng = random.Random(61)
    seen = set()
    for name in ("boolean2", "triple2", "generic3"):
        arr, thetas = builtin_arrangement(name)
        for u in _tangency_cases(rng, arr, thetas):
            p = u.order or 0
            cut = max(p, 1)
            exact = all(r.ok for r in tangency_table(u, arr, cut))
            assert exact == all(r.ok for r in tangency_table(u, arr, p + 3)), str(u)
            assert exact == is_tangent(u, arr)
            assert is_tangent_q(u, arr, cut) == is_tangent_q(u, arr, p + 3) == exact, str(u)
            seen.add(exact)
    assert seen == {True, False}


def _tangent_generators(name):
    """The certified basis of a free builtin; for the non-free one, the
    Euler derivation and the Q * d_j, all tangent."""
    arr, thetas = builtin_arrangement(name)
    if thetas is None:
        n = arr.dim
        thetas = (euler_derivation(n), *(
            Derivation(tuple(arr.q if j == i else Poly.zero(n) for j in range(n)))
            for i in range(n)))
    return arr, thetas


# (word length, beta_j, power s of Q, t_max past the order), at most.  The
# products route forms u * Q^t, and D4's Q has degree 12 in four variables:
# at the others' sizes one D4 example took up to 30 s.
_ROUTE_SIZES = {"D4": (1, 1, 1, 0)}


@pytest.mark.parametrize("name", _BUILTINS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tangency_routes_agree(name, data):
    # per-form brackets, whole-Q brackets and whole-Q products agree on a
    # word in tangent generators (tangent), on that word plus c * d^beta
    # (not tangent: the d^(beta - e_j) coefficient of c * d^beta * a is the
    # nonzero constant c * beta_j * alpha_j), and on Q^s times the latter
    arr, thetas = _tangent_generators(name)
    max_len, max_beta, max_s, past = _ROUTE_SIZES.get(name, (3, 2, 2, 2))
    n = arr.dim
    rng = data.draw(st.randoms(use_true_random=False))
    word_op = word_fold(thetas)
    w = sampling.random_word(rng, word_op, len(thetas), n, max_len)
    beta = data.draw(st.tuples(*[st.integers(0, max_beta)] * n).filter(any))
    c = data.draw(st.sampled_from([1, -2, Fraction(3, 2)]))
    control = w + DiffOp(n, {beta: Poly.constant(n, c)})
    scaled = arr.q ** data.draw(st.integers(1, max_s)) * control
    for u, expected in ((w, True), (control, False), (scaled, None)):
        cut = max(u.order or 0, 1)
        verdict = is_tangent(u, arr)
        assert is_tangent_q(u, arr, cut) == is_tangent_q_by_products(u, arr, cut) == verdict
        assert expected is None or verdict == expected, str(u)
        for t_max in range(1, (u.order or 0) + past + 1):
            assert is_tangent_q(u, arr, t_max) == is_tangent_q_by_products(u, arr, t_max), (
                str(u), t_max)


def test_is_tangent_q_work_is_bounded_by_the_order(monkeypatch):
    # the verdict at t_max = 10**6 comes from at most ord u + 1 brackets
    brackets = []

    def counting(u, v):
        brackets.append(u)
        return commutator(u, v)

    monkeypatch.setattr(tangent, "commutator", counting)
    arr, thetas = builtin_arrangement("triple2")
    euler, second = thetas
    u = euler * second * second
    assert u.order == 3
    assert is_tangent_q(u, arr, 10**6)
    assert len(brackets) <= 4
    brackets.clear()
    assert not is_tangent_q(u + D("d1^2", 2), arr, 10**6)
    assert len(brackets) == 1
    brackets.clear()
    # x * d1^2 passes t = 1 and fails at t = 2
    line, _ = builtin_arrangement("boolean1")
    assert not is_tangent_q(D("x*d1^2", 1), line, 10**6)
    assert len(brackets) == 2


# -- transport ----------------------------------------------------------------------

def test_transport_first_order():
    arr, _ = builtin_arrangement("boolean1")
    dec = transport(D("d1", 1), arr)
    assert [(w.coeff, w.word) for w in dec.words] == [(Poly.one(1), (1,))]
    assert reassemble(dec) == D("x*d1", 1)


def test_transport_second_order_words():
    arr, _ = builtin_arrangement("boolean1")
    u = D("d1^2", 1)
    dec = transport(u, arr)
    assert reassemble(dec) == P("x^3", 1) * u
    assert {w.word for w in dec.words} == {(1, 1), (1,)}


def test_transport_of_polynomial_is_the_empty_word():
    arr, _ = builtin_arrangement("boolean2")
    f = P("x^2 - y", 2)
    dec = transport(DiffOp.from_poly(f), arr)
    assert [(w.coeff, w.word) for w in dec.words] == [(f, ())]


def test_transport_zero_rejected():
    arr, _ = builtin_arrangement("boolean1")
    with pytest.raises(ValueError):
        transport(DiffOp.zero(1), arr)


def test_transport_round_trip_random():
    rng = random.Random(53)
    arr, _ = builtin_arrangement("boolean2")
    for _ in range(15):
        u = random_diffop(rng, 2, max_order=3)
        if not u:
            continue
        dec = transport(u, arr)
        expected = arr.q ** comb(u.order + 1, 2) * u
        assert reassemble(dec) == expected
        # every generator is a scaled partial, every word stays within range
        assert len(dec.generators) == 2


def test_frames_are_per_arrangement_and_change_no_result():
    # transport, reassemble and is_tangent_q interleaved over several
    # arrangements, two of them distinct objects with equal forms, give the
    # results of arrangements built fresh for each call
    triple2, _ = builtin_arrangement("triple2")
    a3 = a3_basis()[0]
    twin, other_twin = Arrangement(a3.forms), Arrangement(a3.forms)
    arrangements = [triple2, a3, twin, other_twin]
    rng = random.Random(67)
    calls = []
    while len(calls) < 24:
        arr = rng.choice(arrangements)
        u = random_diffop(rng, arr.dim, max_order=3, max_degree=1)
        if u:
            calls.append((arr, u, rng.randint(1, 4)))
    # the second pass runs against frames that the first one grew
    for arr, u, t_max in calls + calls[::-1]:
        fresh = Arrangement(arr.forms)
        assert is_tangent_q(u, arr, t_max) == is_tangent_q(u, fresh, t_max)
        dec = transport(u, arr)
        assert dec == transport(u, Arrangement(arr.forms))
        assert reassemble(dec) == arr.q ** comb(u.order + 1, 2) * u
    frames = [tangent._frame(arr) for arr in arrangements]
    assert len({id(frame) for frame in frames}) == 4
    for arr, frame in zip(arrangements, frames):
        assert frame.q is arr.q
        assert all(power == arr.q ** k for k, power in enumerate(frame.powers))


def test_frame_shared_by_threads():
    # more threads than cores, switching often, grow fresh frames at once
    # while decompose, on the same arrangements, reads its powers of Q there
    triple2, thetas = builtin_arrangement("triple2")
    forms = triple2.forms
    q = Arrangement(forms).q
    powers = [q ** k for k in range(13)]
    u = D("x1*d1^2 + 3*d2", 2)
    basis = saito_check(Arrangement(forms), thetas)
    w = thetas[0] * thetas[1] * thetas[1] + P("x - y", 2) * thetas[1] * thetas[0]
    words = decompose(w, Arrangement(forms), basis).words
    # what one call alone leaves in each fold, counted term by term
    alone = Arrangement(forms)
    transport(u, alone)
    frame_terms = tangent._frame(alone).word.terms
    kept = tangent._kept_for(basis)
    basis_terms = kept.word.terms, kept.xi.terms
    errors = []

    def work(arr, seed):
        rng = random.Random(seed)
        try:
            for _ in range(8):
                k = rng.randrange(13)
                assert tangent._frame(arr).q_power(k) == powers[k]
                if rng.random() < 0.5:
                    assert reassemble(transport(u, arr)) == powers[3] * u
                else:
                    assert decompose(w, arr, basis).words == words
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(12):
            arr = Arrangement(forms)
            threads = [threading.Thread(target=work, args=(arr, seed)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads) and errors == []
            frame = tangent._frame(arr)
            assert frame.powers == powers[:len(frame.powers)]
            # a prefix formed twice in a race is counted once
            assert frame.word.terms == frame_terms
            assert (kept.word.terms, kept.xi.terms) == basis_terms
    finally:
        sys.setswitchinterval(interval)


def test_decompose_takes_its_powers_of_q_from_the_frame(monkeypatch):
    triple2, thetas = builtin_arrangement("triple2")
    arr = Arrangement(triple2.forms)
    basis = saito_check(arr, thetas)
    # order 3, with a lower level that the subtraction leaves behind
    u = thetas[0] * thetas[1] * thetas[1] + P("x - y", 2) * thetas[1] * thetas[0]
    expected = decompose(u, Arrangement(triple2.forms), basis)
    powers = [arr.q ** k for k in range(4)]
    frame = tangent._frame(arr)
    assert frame.powers == powers[:1]

    def no_power(self, n):
        raise AssertionError("decompose formed a power of a polynomial")

    monkeypatch.setattr(Poly, "__pow__", no_power)
    assert decompose(u, arr, basis) == expected
    assert frame.powers == powers
    kept = list(frame.powers)
    assert decompose(u, arr, basis) == expected
    assert len(frame.powers) == 4 and all(a is b for a, b in zip(frame.powers, kept))
    assert reassemble(expected) == u


def _count_word_folds(monkeypatch) -> list:
    """Record the generators of every word fold ``tangent`` builds from now on."""
    folds = []

    def counted(generators):
        folds.append(generators)
        return word_fold(generators)

    monkeypatch.setattr(tangent, "word_fold", counted)
    return folds


def test_reassemble_of_transport_uses_the_frame_fold(monkeypatch):
    arr = Arrangement(builtin_arrangement("triple2")[0].forms)
    u = D("x1*d1^2 + 3*d2", 2)
    frame = tangent._frame(arr)
    fold, looked_up = frame.word, []
    frame.word = recording = lambda word: looked_up.append(word) or fold(word)
    # the frame's trim keeps the stand-in when transport ends
    recording.trimmed = lambda limit: recording
    dec = transport(u, arr)
    folds = _count_word_folds(monkeypatch)
    looked_up.clear()
    assert reassemble(dec) == arr.q ** 3 * u
    assert looked_up == [w.word for w in dec.words] and folds == []


def test_decompositions_built_by_hand_reassemble(monkeypatch):
    # the word fold that formed a decomposition is no part of its value
    arr, basis = fixture_basis("triple2")
    tangent._frame(arr)
    folds = _count_word_folds(monkeypatch)
    u = D("x2*(x1*d1 + x2*d2)*(x1^2*d1 - x2^2*d2) + 3*(x1*d1 + x2*d2)", 2)
    dec = decompose(u, arr, basis)
    assert folds == [basis.thetas]
    assert reassemble(dec) == u and folds == [basis.thetas]
    # hand-built, replaced and pickled copies fold their own generators once
    for hand in (Decomposition(dec.words, dec.generators),
                 replace(dec, words=dec.words),
                 pickle.loads(pickle.dumps(dec))):
        assert hand == dec and hash(hand) == hash(dec) and repr(hand) == repr(dec)
        folds.clear()
        assert reassemble(hand) == reassemble(hand) == u
        assert folds == [hand.generators]
    # a decomposition over other generators reassembles over those
    moved = transport(u, arr)
    swapped = replace(moved, generators=basis.thetas)
    assert reassemble(swapped) == reassemble(Decomposition(moved.words, basis.thetas))
    # an arrangement pickles without its frame and builds a fresh one
    assert b"_Frame" not in pickle.dumps(arr)
    back = pickle.loads(pickle.dumps(arr))
    assert back.q == arr.q and back.forms == arr.forms
    assert tangent._frame(back) is not tangent._frame(arr)


def test_decompose_prepares_each_basis_once(monkeypatch):
    arr, basis = fixture_basis("triple2")
    twin = saito_check(arr, basis.thetas)
    # one arrangement per call, each with its frame (and frame fold) built
    arrs = [Arrangement(arr.forms) for _ in range(3)]
    for a in (arr, *arrs):
        tangent._frame(a)
    adjugates, products = [], []
    adjugate, product_fold = tangent._adjugate, tangent._form_product_fold
    monkeypatch.setattr(tangent, "_adjugate", lambda m: adjugates.append(m) or adjugate(m))
    monkeypatch.setattr(tangent, "_form_product_fold",
                        lambda m: products.append(m) or product_fold(m))
    folds = _count_word_folds(monkeypatch)
    u = D("x2*(x1*d1 + x2*d2)*(x1^2*d1 - x2^2*d2) + 3*(x1*d1 + x2*d2)", 2)
    expected = decompose(u, arr, basis)
    for a in arrs:
        dec = decompose(u, a, basis)
        assert dec == expected and reassemble(dec) == u
        with pytest.raises(DecompositionError):
            decompose(D("d1", 2), arr, basis)
        with pytest.raises(ValueError, match="certified"):
            decompose(u, builtin_arrangement("boolean2")[0], basis)
    # one adjugate, one xi product fold and one word fold, which reassemble reuses
    assert len(adjugates) == len(products) == 1 and folds == [basis.thetas]
    # an equal basis object is prepared once for itself
    assert decompose(u, arr, twin) == decompose(u, arr, twin) == expected
    assert len(adjugates) == len(products) == 2 and folds == [basis.thetas] * 2


@pytest.mark.parametrize("name", ["boolean3", "triple2", "D4"])
def test_a_warm_basis_decomposes_like_a_fresh_one(name):
    # the kept folds change no result: each operator gives the words, or the
    # failure, of a basis certified afresh from the same derivations
    arr, thetas = builtin_arrangement(name)
    n = arr.dim
    basis = saito_check(arr, thetas)
    word_op = word_fold(basis.thetas)
    rng = random.Random(71)
    ops = []
    for _ in range(8):
        u = sum((sampling.random_word(rng, word_op, n, n, 2) for _ in range(rng.randint(1, 3))),
                DiffOp.zero(n))
        ops.append(u)
        # a non-tangent control: a nonzero constant times a plain partial
        ops.append(u + rng.choice([1, -2, 3]) * DiffOp.partial(n, rng.randint(1, n)))

    def outcome(u, b):
        try:
            return True, decompose(u, arr, b).words
        except DecompositionError as exc:
            return False, (exc.level, exc.index, str(exc))

    failures = 0
    # the second pass runs against folds that every operator has grown
    for u in ops + ops[::-1]:
        expected = outcome(u, saito_check(arr, thetas))
        failures += not expected[0]
        assert outcome(u, basis) == expected
    # every control fails, and no word sum does
    assert failures == len(ops)


def test_kept_folds_stay_bounded_between_calls():
    # x1^150*d1^150 over x1*d1 forms the words (x1*d1)^k, of k terms, for
    # k <= 150: 11,325 terms past the empty word, more than MAX_TERMS
    boolean1, thetas = builtin_arrangement("boolean1")
    arr = Arrangement(boolean1.forms)
    basis = saito_check(arr, thetas)
    u = D("x1^150*d1^150", 1)
    dec = decompose(u, arr, basis)
    kept, frame = tangent._kept_for(basis), tangent._frame(arr)
    # the result keeps the fold that formed its words; the basis starts afresh
    assert tangent._kept_for(dec).terms == 1 + 11_325
    assert kept.word.terms == 1
    # xi_1 = y_1 and Q = x1: one term per power, far below the bound, kept
    assert kept.xi.terms == 151 == len(frame.powers)
    assert sum(len(power.terms) for power in frame.powers) == 151
    assert decompose(u, arr, basis) == dec and reassemble(dec) == u
    assert kept.word.terms == 1 and kept.xi.terms == 151
    # transport forms the same words over Q*d1 = x1*d1, and Q^k up to
    # k = C(151, 2) = 11,325; the frame starts both afresh
    moved = transport(u, arr)
    assert tangent._kept_for(moved).terms == 1 + 11_325
    assert frame.word.terms == 1 and frame.powers == [Poly.one(1)]
    assert transport(u, arr) == moved
    assert reassemble(moved) == arr.q ** 11_325 * u
    assert frame.word.terms == 1 and frame.powers == [Poly.one(1)]


def test_high_order_decompose_peak_stays_small():
    # d1^10000 on boolean1 folds xi_1 over 10,000 letters, keeping every
    # prefix: keys of length dim peak near 11 MiB, where index-tuple keys
    # of every length up to 10,000 peaked at 392 MiB
    arr, thetas = builtin_arrangement("boolean1")
    basis = saito_check(arr, thetas)
    u = D("(d1^100)^100", 1)
    gc.collect()
    tracemalloc.start()
    try:
        with pytest.raises(DecompositionError) as info:
            decompose(u, arr, basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.level == 10_000 and info.value.index == (1,) * 10_000
    assert peak < 32 * 2**20


def test_nothing_kept_for_collected_objects():
    arr = Arrangement(builtin_arrangement("triple2")[0].forms)
    _, basis = fixture_basis("triple2")
    u = D("x2*(x1*d1 + x2*d2)*(x1^2*d1 - x2^2*d2) + 3*(x1*d1 + x2*d2)", 2)
    assert is_tangent_q(u, arr, 2)
    objects = [arr, basis, transport(u, arr), decompose(u, arr, basis)]
    hand = Decomposition(objects[3].words, objects[3].generators)
    reassemble(hand)
    objects.append(hand)
    keys = {id(obj) for obj in objects}
    assert keys <= tangent._kept.keys()
    before = len(tangent._kept)
    refs = [weakref.ref(obj) for obj in objects]
    del arr, basis, hand, objects
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert not keys & tangent._kept.keys()
    assert len(tangent._kept) <= before - len(keys)


# -- decomposition --------------------------------------------------------------------

def test_decompose_worked_example():
    arr, basis = fixture_basis("boolean1")
    u = D("x^2*d1^2", 1)
    dec = decompose(u, arr, basis)
    assert [(w.coeff, w.word) for w in dec.words] == [
        (Poly.one(1), (1, 1)),
        (Poly.constant(1, -1), (1,)),
    ]
    assert reassemble(dec) == u
    # the identity spelled out: (x d)(x d) - (x d)
    xd = D("x*d1", 1)
    assert xd * xd - xd == u


def test_decompose_polynomial_input():
    arr, basis = fixture_basis("boolean2")
    f = P("x^2 + 3*y", 2)
    dec = decompose(DiffOp.from_poly(f), arr, basis)
    assert [(w.coeff, w.word) for w in dec.words] == [(f, ())]


def test_decompose_zero_input():
    arr, basis = fixture_basis("boolean2")
    dec = decompose(DiffOp.zero(2), arr, basis)
    assert dec.words == ()
    assert reassemble(dec) == DiffOp.zero(2)


def test_decompose_checks_the_certificate():
    boolean2, basis = fixture_basis("boolean2")
    triple2, _ = builtin_arrangement("triple2")
    wrong = SaitoBasis(basis.thetas, 2 * basis.scalar, basis.degrees)
    u = D("x*y*d1*d2", 2)
    # every call checks, also once a decompose has kept the basis's det Theta
    for warm in (False, True):
        assert (tangent._kept_for(basis) is not None) == warm
        # the zero operator is checked like any other
        for op in (u, DiffOp.zero(2)):
            # certified for the Boolean pair, offered with the three-line arrangement
            with pytest.raises(ValueError, match="certified"):
                decompose(op, triple2, basis)
            # the right Jacobian but a wrong certified scalar
            with pytest.raises(ValueError, match="certified"):
                decompose(op, boolean2, wrong)
        assert reassemble(decompose(u, boolean2, basis)) == u


def test_decompose_mixed_product():
    arr, basis = fixture_basis("boolean2")
    u = D("x*y*d1*d2", 2)
    dec = decompose(u, arr, basis)
    assert reassemble(dec) == u
    top = {w.word for w in dec.words if len(w.word) == 2}
    assert top == {(1, 2)}


def test_decompose_round_trip_on_random_words():
    rng = random.Random(54)
    fixtures = ["boolean1", "boolean2", "boolean3", "triple2"]
    for name in fixtures:
        arr, basis = fixture_basis(name)
        for _ in range(8):
            u = random_word_operator(rng, basis.thetas, arr.dim)
            if not u:
                continue
            dec = decompose(u, arr, basis)
            assert reassemble(dec) == u
            assert dec.generators == basis.thetas


def test_decompose_round_trip_four_lines():
    # two-variable arrangement with four forms and the generic rank-2 basis
    rng = random.Random(55)
    arr, basis = four_lines_basis()
    for _ in range(8):
        u = random_word_operator(rng, basis.thetas, 2, max_len=2)
        if not u:
            continue
        dec = decompose(u, arr, basis)
        assert reassemble(dec) == u


def _decompose_outcome(route, u, arr, basis):
    try:
        return route(u, arr, basis)
    except DecompositionError as exc:
        return ("error", exc.level, exc.index)


@pytest.mark.parametrize("fixture, max_order, trials", [
    (lambda: fixture_basis("boolean3"), 3, 12),
    (lambda: fixture_basis("triple2"), 3, 12),
    (four_lines_basis, 2, 12),
    (a3_basis, 2, 6),
    # the Jacobian route takes about 30 s per order-2 operator on D4
    (lambda: fixture_basis("D4"), 1, 12),
], ids=["boolean3", "triple2", "four_lines", "A3", "D4"])
def test_decompose_agrees_with_jacobian_route(fixture, max_order, trials):
    # symbol substitution against Cramer's rule on higher Jacobians: same
    # words, and on failure the same level and index
    rng = random.Random(59)
    arr, basis = fixture()
    outcomes = []
    for _ in range(trials):
        for u in (random_word_operator(rng, basis.thetas, arr.dim, max_len=max_order),
                  random_diffop(rng, arr.dim, max_order=max_order)):
            expected = _decompose_outcome(decompose_by_jacobians, u, arr, basis)
            got = _decompose_outcome(decompose, u, arr, basis)
            assert got == expected, str(u)
            outcomes.append(isinstance(got, Decomposition))
    assert any(outcomes) and not all(outcomes)


def _line(coeffs):
    # one representative per line through the origin: gcd 1, first nonzero > 0
    g = gcd(*coeffs)
    a, b = (c // g for c in coeffs)
    return (a, b) if a > 0 or (a == 0 and b > 0) else (-a, -b)


@st.composite
def _rank2_arrangements(draw):
    """3-5 pairwise non-proportional integer forms in two variables, which
    are always free, certified with their ``rank2_basis``: a basis that is
    not diagonal, over a Q of up to six terms."""
    forms = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any),
                          min_size=3, max_size=5, unique_by=_line))
    arr = Arrangement([LinearForm(f) for f in forms])
    basis = saito_check(arr, rank2_basis(arr))
    assert basis.ok
    return arr, basis


@settings(max_examples=40, deadline=None)
@given(_rank2_arrangements(), st.randoms(use_true_random=False), st.integers(1, 3),
       st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any))
def test_random_rank2_arrangements(case, rng, max_len, beta):
    # the differential checks on arrangements nobody picked: decompose
    # against the Jacobian route (the same words, or the same level and
    # index on failure), both round trips through reassemble, and per-form
    # against whole-Q tangency at the cutoff; the controls add c * d^beta
    # to a word sum (never tangent) or are random operators
    arr, basis = case
    word_op = word_fold(basis.thetas)
    words = sampling.random_word(rng, word_op, 2, 2, max_len)
    words = words + sampling.random_word(rng, word_op, 2, 2, max_len)
    control = words + DiffOp(2, {beta: Poly.constant(2, rng.choice([1, -2, 3]))})
    for u, tangent_u in ((words, True), (control, False),
                         (random_diffop(rng, 2, max_order=2), None)):
        expected = _decompose_outcome(decompose_by_jacobians, u, arr, basis)
        got = _decompose_outcome(decompose, u, arr, basis)
        assert got == expected, str(u)
        if isinstance(got, Decomposition):
            assert reassemble(got) == u
        verdict = is_tangent(u, arr)
        assert verdict == is_tangent_q(u, arr, max(u.order or 0, 1))
        assert tangent_u is None or verdict == tangent_u == isinstance(got, Decomposition)
        if u:
            assert reassemble(transport(u, arr)) == arr.q ** comb(u.order + 1, 2) * u


def test_decompose_a3_order_four():
    # the Jacobian route needs C(6, 2) = 15 determinants of size 15 here
    arr, basis = a3_basis()
    u = DiffOp.from_poly(Poly.variable(3, 1)) * basis.thetas[0] ** 4
    dec = decompose(u, arr, basis)
    assert reassemble(dec) == u


def test_decompose_division_failure_diagnosis():
    arr, basis = fixture_basis("boolean1")
    with pytest.raises(DecompositionError) as info:
        decompose(D("d1", 1), arr, basis)
    assert info.value.level == 1
    assert info.value.index == (1,)


def test_decompose_failure_names_level_and_index():
    # tangent up to t = 1 only; the level-2 division is what rejects it
    arr, basis = fixture_basis("boolean1")
    with pytest.raises(DecompositionError) as info:
        decompose(D("x*d1^2", 1), arr, basis)
    assert (info.value.level, info.value.index) == (2, (1, 1))


def _level_one_failures(u, arr, basis):
    """The indices (i,) whose level-1 coefficient is not a polynomial.

    With a the d_j coefficients of u, the coefficients c solve
    Theta^T c = a, so by Cramer's rule c_i is det(Theta with row i
    replaced by a) / (lambda * Q).
    """
    n = arr.dim
    terms = u.as_dict()
    a = [terms.get(tuple(int(k == j) for k in range(n)), Poly.zero(n)) for j in range(n)]
    theta = [list(th.coeffs) for th in basis.thetas]
    lam_q = arr.q * basis.scalar
    return [(i + 1,) for i in range(n)
            if not divides(lam_q, determinant([a if r == i else row
                                               for r, row in enumerate(theta)]))]


def _assert_first_failure(u, arr, basis, level, failing):
    # decompose names the first failing index in sym_indices order, and the
    # Jacobian route names the same level and index
    first = min(failing, key=sym_indices(arr.dim, level).index)
    with pytest.raises(DecompositionError) as info:
        decompose(u, arr, basis)
    assert (info.value.level, info.value.index) == (level, first)
    assert _decompose_outcome(decompose_by_jacobians, u, arr, basis) == ("error", level, first)


def test_decompose_names_the_first_failing_index_in_sym_indices_order():
    arr, basis = fixture_basis("boolean2")
    # the basis x1*d1, x2*d2 is diagonal, so each top term decides its own
    # index: x1^2*d1^2 passes at (1, 1), d1*d2 fails at (1, 2), d2^2 at (2, 2)
    assert reassemble(decompose(D("x1^2*d1^2", 2), arr, basis)) == D("x1^2*d1^2", 2)
    for text, index in (("d1*d2", (1, 2)), ("d2^2", (2, 2))):
        _assert_first_failure(D(text, 2), arr, basis, 2, [index])
    _assert_first_failure(D("d2^2 + d1*d2 + x1^2*d1^2", 2), arr, basis, 2, [(2, 2), (1, 2)])
    # D4's basis is not diagonal: modulo each of its 12 forms the level-1
    # coefficients of an operator that is not tangent have their poles
    # along one vector with no zero entry, so this one fails at every index
    arr, basis = fixture_basis("D4")
    u = D("x2*d1 + d3", 4)
    failing = _level_one_failures(u, arr, basis)
    assert failing == sym_indices(4, 1)
    _assert_first_failure(u, arr, basis, 1, failing[::-1])


def test_decompose_levels_strictly_drop():
    rng = random.Random(56)
    arr, basis = fixture_basis("boolean2")
    for _ in range(5):
        u = random_word_operator(rng, basis.thetas, 2)
        if not u:
            continue
        dec = decompose(u, arr, basis)
        lengths = [len(w.word) for w in dec.words]
        assert lengths == sorted(lengths, reverse=True)
        for w in dec.words:
            assert all(1 <= i <= 2 for i in w.word)


def test_reassemble_edge_cases():
    arr, basis = fixture_basis("boolean1")
    empty = Decomposition((), basis.thetas)
    assert reassemble(empty) == DiffOp.zero(1)
    single = Decomposition((Word(Poly.one(1), (1,)),), basis.thetas)
    assert reassemble(single) == D("x*d1", 1)


def test_decomposition_json_ordering():
    arr, basis = fixture_basis("boolean1")
    dec = decompose(D("x^2*d1^2", 1), arr, basis)
    payload = decomposition_to_json(dec)
    assert payload == [
        {"coeff": "1", "word": [1, 1]},
        {"coeff": "-1", "word": [1]},
    ]


def test_word_validation():
    with pytest.raises(ValueError):
        Word(Poly.zero(1), ())
    with pytest.raises(ValueError):
        Word(Poly.one(1), (2, 1))


# -- divisibility of Jacobians of tangent families ------------------------------------

def test_jacobian_divisible_by_q_power():
    rng = random.Random(57)
    for name in ("boolean2", "triple2"):
        arr, basis = fixture_basis(name)
        fs = coordinates(arr.dim)
        for power in (1, 2):
            exponent = comb(power + arr.dim - 1, arr.dim)
            for _ in range(5):
                entries = tuple(
                    random_word_operator(rng, basis.thetas, arr.dim,
                                         max_len=power, max_words=1)
                    for _ in sym_indices(arr.dim, power)
                )
                fam = OpFamily(arr.dim, power, entries)
                jac = higher_jacobian(fs, fam)
                assert divides(arr.q ** exponent, jac)


def test_bracket_values_inherit_form_powers():
    # tangent operators bracketed with a form repeated q times give values
    # divisible by that form to the q-th power
    rng = random.Random(58)
    arr, basis = fixture_basis("triple2")
    for _ in range(10):
        u = random_word_operator(rng, basis.thetas, 2)
        form = rng.choice(arr.forms)
        q = rng.randint(1, 2)
        others = [random_poly(rng, 2) for _ in range(rng.randint(0, 1))]
        fs = [form] * q + others
        value = iterated_commutator(u, fs).value_at_one()
        assert divides(form ** q, value)
