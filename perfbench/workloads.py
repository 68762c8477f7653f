"""Send one request to ``logdiff`` and check its answer exactly.

``call`` is the timed part: it touches the package only through public
functions and ``logdiff.cli.main``.  ``check`` runs after the clock stops
and raises ``WrongAnswer`` on any miss, including a negative control that
passes.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from math import comb

from .gen import Request


class WrongAnswer(Exception):
    """The package returned an answer that the exact check rejects."""


@dataclass
class Env:
    """The imported package, its CLI module and the certified fixtures."""

    ld: object
    cli: object
    fixtures: dict


def _run_cli(env: Env, args) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = env.cli.main(list(args))
    return rc, out.getvalue()


def call(env: Env, req: Request):
    """Run the request; its answer is whatever the checker needs to see."""
    ld = env.ld
    if req.kind == "verify":
        return _run_cli(env, req.args)
    arr, basis = env.fixtures[req.fixture]
    u = ld.parse_diffop(req.text, arr.dim)
    if req.kind == "decompose":
        dec = ld.decompose(u, arr, basis)
        return u, dec, ld.reassemble(dec)
    if req.kind == "tangency":
        tmax, _ = req.expect
        table = _run_cli(env, req.args) if req.args else ld.tangency_table(u, arr, tmax)
        return u, table, ld.is_tangent_q(u, arr, 2)
    if req.kind == "transport":
        return u, ld.reassemble(ld.transport(u, arr))
    raise ValueError(f"unknown request kind {req.kind!r}")


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise WrongAnswer(what)


def check(env: Env, req: Request, answer) -> None:
    """Raise WrongAnswer unless ``answer`` (a result or exception) is right."""
    ld = env.ld
    if req.kind == "decompose" and req.expect is None:
        _expect(isinstance(answer, ld.DecompositionError),
                f"non-tangent control gave {answer!r}, not DecompositionError")
        return
    if isinstance(answer, Exception):
        raise WrongAnswer(f"raised {answer!r}")
    if req.kind == "verify":
        rc, out = answer
        lemma = req.args[req.args.index("--lemma") + 1]
        seed = req.args[req.args.index("--seed") + 1]
        tail = f"trials={req.expect} seed={seed} passed={req.expect} failed=0"
        _expect(rc == 0 and out.startswith(f"{lemma}: ") and out.rstrip("\n").endswith(tail)
                and out.count("\n") == 1, f"exit {rc}, output {out!r}")
        return
    arr, _ = env.fixtures[req.fixture]
    if req.kind == "decompose":
        u, dec, back = answer
        _expect(back == u, "reassembled operator differs from the input")
        got = {w.word: w.coeff for w in dec.words}
        want = {w: ld.Poly.monomial(arr.dim, m, c) for w, c, m in req.expect}
        _expect(got == want, f"words {sorted(got)} differ from {sorted(want)}")
    elif req.kind == "tangency":
        _check_tangency(req, answer, arr.size)
    elif req.kind == "transport":
        u, back = answer
        _expect(u.order == req.expect, f"parsed order {u.order}, generated {req.expect}")
        _expect(back == arr.q ** comb(req.expect + 1, 2) * u,
                "reassembled transport differs from Q^C(p+1,2) * u")
    else:
        raise ValueError(f"unknown request kind {req.kind!r}")


def _check_tangency(req: Request, answer, nforms: int) -> None:
    _, table, tangent_q = answer
    tmax, bad = req.expect
    _expect(tangent_q == (bad is None), f"is_tangent_q gave {tangent_q}")
    if req.args:
        rc, out = table
        lines = out.splitlines()
        if bad is None:
            _expect(rc == 0 and lines[-1] == f"overall: tangent up to t_max = {tmax}",
                    f"exit {rc}, output {out!r}")
            return
        row = next((n for n, line in enumerate(lines) if line.startswith(f"form {bad} (")), None)
        _expect(rc == 1 and row is not None and "t=1 FAIL" in lines[row]
                and lines[row + 1].startswith("  witness at t=1:")
                and lines[-1] == f"overall: not tangent (t_max = {tmax})",
                f"exit {rc}, output {out!r}")
        return
    _expect(len(table) == nforms * tmax, f"table has {len(table)} rows")
    if bad is None:
        _expect(all(r.ok for r in table), "a tangent operator failed a table cell")
        return
    cell = next(r for r in table if r.form_index == bad and r.t == 1)
    _expect(not cell.ok and cell.witness is not None,
            f"control passed form {bad} at t = 1")
