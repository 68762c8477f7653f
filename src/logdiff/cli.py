"""Command-line interface.

Subcommands: ``check-free`` (Saito certification), ``decompose`` (write a
tangent operator as words in a basis), ``tangent`` (tangency table, by
default up to the exact cutoff max(ord u, 1)), and ``verify`` (seeded
randomized checks of the core identities).

Exit codes: 0 success, 1 mathematical negative, 2 usage or parse error
(a monomial past ``polyring.MAX_DEGREE`` included, wherever it arises),
3 internal error (a result failed its own invariant check, which is a bug).
Arrangements come from JSON files ``{"dim": l, "forms": [[coeff, ...],
...], "basis": ["op text", ...]}`` or from the named fixtures
``builtin:boolean1``, ``builtin:boolean2``, ``builtin:boolean3``,
``builtin:triple2``, ``builtin:generic3``, ``builtin:D4``, which are specs
in the same format; ``arrangement._load_spec`` builds both.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import cache
from math import comb
from typing import Callable, Sequence

from .arrangement import (Arrangement, SaitoBasis, SaitoFailure, _load_basis, _load_spec,
                          builtin_arrangement, saito_check)
from .exprparse import MAX_DIGITS, ParseError, _number, _quote, parse_diffop, render
from .jacobian import OpFamily, higher_jacobian, jacobian_power_identity
from .linalg import sym_indices, sym_power_det_identity_holds
from .polyring import DegreeLimitError, Poly, coordinates, divides
from .sampling import random_int_matrix, random_order_one_op, random_word
from .tangent import (
    DecompositionError,
    decompose,
    decomposition_to_json,
    reassemble,
    tangency_table,
)
from .weyl import Derivation, DiffOp, word_fold


class CliError(Exception):
    """Input could not be loaded or validated; maps to exit code 2."""


def _int_arg(text: str) -> int:
    """The ``type`` of every integer option: a bad value is quoted short."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quote(text)}") from None


def _json_int(text: str) -> int:
    # json.load would call int() on an integer of any length.
    if len(text.lstrip("-")) > MAX_DIGITS:
        raise ValueError(f"an integer has more than {MAX_DIGITS} digits")
    return int(text)


def _load_json(path: str, load):
    """``load`` applied to the JSON in ``path``; any error exits 2, naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_int=_json_int)
    except OSError as exc:
        # str(exc) repeats the file name in full.
        raise CliError(f"cannot read {_quote(path)}: {exc.strerror}") from None
    except ValueError as exc:
        raise CliError(f"{_quote(path)} is not valid JSON: {exc}") from None
    except RecursionError:
        raise CliError(f"{_quote(path)} is nested too deeply") from None
    try:
        return load(data)
    except ValueError as exc:
        raise CliError(f"{_quote(path)}: {exc}") from None


def _load_arrangement(source: str) -> tuple[Arrangement, tuple[Derivation, ...] | None]:
    if not source.startswith("builtin:"):
        return _load_json(source, _load_spec)
    try:
        return builtin_arrangement(source[len("builtin:"):])
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _resolve_basis(args, dim: int, thetas) -> tuple[Derivation, ...]:
    """The ``--basis`` file, else the arrangement's own ``thetas``.

    The file is a list of operator strings, or an object whose "basis" is
    one.  A basis from either source must hold exactly ``dim``
    derivations; with none, it is a usage error.
    """
    if args.basis:
        thetas = _load_json(args.basis, lambda data: _load_basis(
            data.get("basis") if isinstance(data, dict) else data, dim))
    if thetas is None:
        raise CliError("no candidate basis: pass --basis or use a builtin with one")
    if len(thetas) != dim:
        raise CliError(f"need exactly {dim} derivations, got {len(thetas)}")
    return thetas


def _parse_op(text: str, dim: int) -> DiffOp:
    try:
        return parse_diffop(text, dim)
    except ParseError as exc:
        raise CliError(f"operator {_quote(text)}: {exc}") from None


def _certify(args) -> tuple[Arrangement, SaitoBasis | SaitoFailure]:
    """Load ``--arrangement`` and its basis and run the Saito check."""
    arr, thetas = _load_arrangement(args.arrangement)
    thetas = _resolve_basis(args, arr.dim, thetas)
    try:
        return arr, saito_check(arr, thetas)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def cmd_check_free(args) -> int:
    _, result = _certify(args)
    if result.ok:
        print(f"free, lambda = {_number(result.scalar)}, degrees = {list(result.degrees)}")
        return 0
    where = f" (derivation {result.index})" if result.index is not None else ""
    print(f"not free under this candidate: {result.reason}{where}")
    if result.determinant is not None:
        print(f"determinant = {render(result.determinant)}")
    return 1


# Each failing cell t prints a witness a^(t-K) * R of about t^2 terms, so
# the output grows like t_max^3: x1*d1 on builtin:generic3 prints 1.7 MB at
# t_max = 64 and 102 MB at 200.
MAX_TMAX = 64

# Every verify trial builds an l x l matrix and N x N matrices, N = C(p+l-1,
# p), the number of degree-p monomials in l variables: sym-power at --l 5
# --p 8 (N = 495) runs for more than a minute, and at --p 3000 (N = 3001)
# it ran out of 1.5 GB of memory.  p is bounded too, as N = 1 at l = 1: sym-power
# --l 1 --p 200000 took 2.2 s, divisibility on boolean1 --p 1600 7.4 s.
MAX_VERIFY_SIZE = 64

# At a given size the trial count bounds the run time: 10,000 trials, 100
# times the default, took 0.1 s for sym-power at --l 1 --p 0 and 0.4 s at
# --l 2 --p 2 (2-core VM); 10^12 trials would run for months.
MAX_TRIALS = 10_000


def cmd_tangent(args) -> int:
    arr, _ = _load_arrangement(args.arrangement)
    op = _parse_op(args.op, arr.dim)
    if args.tmax is None:
        # Exact by the cutoff theorem, see ``tangent.is_tangent``.
        t_max = max(op.order or 0, 1)
        where = f"the exact cutoff max(order, 1) = {t_max}"
    else:
        t_max = args.tmax
        where = f"--tmax {_quote(t_max)}"
    if t_max < 1:
        raise CliError("--tmax must be at least 1")
    if t_max > MAX_TMAX:
        raise CliError(f"{where} exceeds the limit {MAX_TMAX}")
    rows = tangency_table(op, arr, t_max)
    all_ok = True
    for i, form in enumerate(arr.forms, start=1):
        cells = [r for r in rows if r.form_index == i]
        line = ", ".join(f"t={r.t} {'pass' if r.ok else 'FAIL'}" for r in cells)
        print(f"form {i} ({render(form)}): {line}")
        for r in cells:
            if not r.ok:
                all_ok = False
                beta, coeff = r.witness
                print(
                    f"  witness at t={r.t}: coefficient {render(coeff)} of "
                    f"{render(DiffOp(arr.dim, {beta: Poly.one(arr.dim)}))} not "
                    f"divisible by ({render(form)})^{r.t}"
                )
    if args.tmax is None:
        print("overall: tangent" if all_ok else "overall: not tangent")
    elif all_ok:
        print(f"overall: tangent up to t_max = {t_max}")
    else:
        print(f"overall: not tangent (t_max = {t_max})")
    return 0 if all_ok else 1


def cmd_decompose(args) -> int:
    arr, result = _certify(args)
    if not result.ok:
        raise CliError(f"candidate basis fails the Saito check: {result.reason}")
    op = _parse_op(args.op, arr.dim)
    try:
        dec = decompose(op, arr, result)
    except DecompositionError as exc:
        if args.json:
            print(json.dumps({"level": exc.level, "index": list(exc.index)}))
        else:
            print(f"not decomposable: {exc}")
        return 1
    if reassemble(dec) != op:
        raise AssertionError("reassembly does not match the input")
    payload = decomposition_to_json(dec)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        if not payload:
            print("0")
        for item in payload:
            print(f"word {item['word']}: coeff {item['coeff']}")
    return 0


def _check_verify_size(dim: int, p: int) -> None:
    # dim and p first: they bound the cost of comb.
    if max(dim, p) > MAX_VERIFY_SIZE or comb(p + dim - 1, p) > MAX_VERIFY_SIZE:
        raise CliError(f"l = {_quote(dim)}, p = {_quote(p)}: max(l, p, C(p+l-1, p)) exceeds "
                       f"the limit {MAX_VERIFY_SIZE}")


def _verify_arrangement(args) -> tuple[Arrangement, tuple[Derivation, ...] | None]:
    """Load ``--arrangement``; an explicit ``--l`` must be its dimension."""
    arr, thetas = _load_arrangement(args.arrangement)
    if args.l not in (None, arr.dim):
        raise CliError(f"--l {_quote(args.l)} does not match the dimension {arr.dim} of "
                       f"{args.arrangement}")
    return arr, thetas


# Each lemma checks and loads its own inputs, then returns the details of its
# summary line and ``trial(rng, n)``: one draw from ``rng`` and one check,
# giving None or the label of a failure.  The predicates are looked up at
# call time, so tests can replace them.
_Trial = Callable[[random.Random, int], "str | None"]


def _sym_power(args) -> tuple[str, _Trial]:
    if args.arrangement or args.basis:
        raise CliError("--lemma sym-power takes neither --arrangement nor --basis")
    dim = args.l or 2
    _check_verify_size(dim, args.p)

    def trial(rng, n):
        m = random_int_matrix(rng, dim)
        return None if sym_power_det_identity_holds(m, args.p) else f"matrix {m}"
    return f"l={dim} p={args.p}", trial


def _jacobian_power(args) -> tuple[str, _Trial]:
    if args.p < 1:
        raise CliError("--p must be at least 1 for jacobian-power")
    dim = args.l or 2
    fixture = None
    if args.arrangement:
        arr, fixture = _verify_arrangement(args)
        dim = arr.dim
    _check_verify_size(dim, args.p)
    if args.basis or fixture is not None:
        fixture = _resolve_basis(args, dim, fixture)
    fs = coordinates(dim)

    def trial(rng, n):
        if n == 0 and fixture is not None:
            ops, label = fixture, "fixture basis"
        else:
            ops = [random_order_one_op(rng, dim, 2) for _ in range(dim)]
            label = "; ".join(map(render, ops))
        return None if jacobian_power_identity(fs, ops, args.p) else f"ops {label}"
    return f"l={dim} p={args.p}", trial


def _divisibility(args) -> tuple[str, _Trial]:
    if not args.arrangement:
        raise CliError("--lemma divisibility needs --arrangement (with a basis)")
    arr, thetas = _verify_arrangement(args)
    _check_verify_size(arr.dim, args.p)
    thetas = _resolve_basis(args, arr.dim, thetas)
    fs = coordinates(arr.dim)
    q_power = arr.q ** comb(args.p + arr.dim - 1, arr.dim)
    word_op = word_fold(thetas)

    def trial(rng, n):
        entries = tuple(random_word(rng, word_op, len(thetas), arr.dim, args.p)
                        for _ in sym_indices(arr.dim, args.p))
        jac = higher_jacobian(fs, OpFamily(arr.dim, args.p, entries))
        return None if divides(q_power, jac) else f"entries {[render(e) for e in entries]}"
    return f"arrangement={args.arrangement} p={args.p}", trial


# ``--lemma``'s choices, in the order its usage lists them.
_LEMMAS = {"sym-power": _sym_power, "jacobian-power": _jacobian_power,
           "divisibility": _divisibility}


def cmd_verify(args) -> int:
    # --l is None unless given, for _verify_arrangement; the default is 2.
    if args.l is not None and args.l < 1:
        raise CliError("--l must be at least 1")
    if args.p < 0:
        raise CliError("--p must be non-negative")
    if args.trials < 1:
        raise CliError("--trials must be at least 1")
    if args.trials > MAX_TRIALS:
        raise CliError(f"--trials {_quote(args.trials)} exceeds the limit {MAX_TRIALS}")
    details, trial = _LEMMAS[args.lemma](args)
    rng = random.Random(args.seed)
    failures = [f"trial {n}: {label}" for n in range(args.trials)
                if (label := trial(rng, n)) is not None]
    print(f"{args.lemma}: {details} trials={args.trials} seed={args.seed} "
          f"passed={args.trials - len(failures)} failed={len(failures)}")
    for line in failures:
        print(f"  reproduce: {line}")
    return 1 if failures else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="logdiff",
        description="Exact computations with differential operators tangent "
                    "to central hyperplane arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-free", help="run the Saito criterion on a candidate basis")
    p.add_argument("--arrangement", required=True, help="JSON file or builtin:<name>")
    p.add_argument("--basis", help="JSON file with a list of operator strings")
    p.set_defaults(func=cmd_check_free)

    p = sub.add_parser("decompose", help="write a tangent operator as words in a basis")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--basis")
    p.add_argument("--op", required=True, help="operator text, e.g. 'x1^2*d1^2'")
    p.add_argument("--json", action="store_true",
                   help="emit the word list, or the failing level and index, as JSON")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("tangent", help="tangency table for an operator")
    p.add_argument("--arrangement", required=True)
    p.add_argument("--op", required=True)
    p.add_argument("--tmax", type=_int_arg,
                   help=f"last power t to check, at most {MAX_TMAX}; "
                        "default max(order, 1), which decides tangency exactly")
    p.set_defaults(func=cmd_tangent)

    p = sub.add_parser("verify", help="seeded randomized checks of the core identities")
    p.add_argument("--lemma", required=True, choices=list(_LEMMAS))
    p.add_argument("--l", type=_int_arg,
                   help="ambient dimension (default 2); with --arrangement, its dimension")
    p.add_argument("--p", type=_int_arg, default=2, help="power / level")
    p.add_argument("--trials", type=_int_arg, default=100)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--arrangement", help="fixture for jacobian-power / divisibility")
    p.add_argument("--basis")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # The token after --op is the operator text, also when it starts with
    # "-" as a printed negative operator does; argparse would read such a
    # token as an option, so each pair is passed to it as --op=<text>.
    # argparse drops a "--" value, in --<name>=-- too, and stores [] for
    # it; passed apart as --<name> --, it is a missing value, exit 2.
    joined = []
    tokens = iter(sys.argv[1:] if argv is None else argv)
    for tok in tokens:
        if tok.startswith("--") and tok.endswith("=--"):
            tok, value = tok[:-3], "--"
        else:
            value = next(tokens, None) if tok == "--op" else None
        if value is None:
            joined.append(tok)
        elif value == "--":
            joined += (tok, value)
        else:
            joined.append(f"--op={value}")
    try:
        args = build_parser().parse_args(joined)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CliError, DegreeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
