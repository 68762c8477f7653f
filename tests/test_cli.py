import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import logdiff.cli
import logdiff.tangent
from logdiff.arrangement import _BUILTINS, builtin_arrangement, euler_derivation
from logdiff.cli import MAX_VERIFY_SIZE, main
from logdiff.exprparse import MAX_DIGITS, render
from logdiff.sampling import random_order_one_op, random_poly, random_word
from logdiff.tangent import is_tangent
from logdiff.weyl import Derivation, word_fold


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- check-free --------------------------------------------------------------

def test_check_free_boolean(capsys):
    code, out, _ = run(capsys, "check-free", "--arrangement", "builtin:boolean2")
    assert code == 0
    assert "free, lambda = 1, degrees = [1, 1]" in out


def test_check_free_three_lines(capsys):
    code, out, _ = run(capsys, "check-free", "--arrangement", "builtin:triple2")
    assert code == 0
    assert "lambda = -1" in out


def test_check_free_d4(capsys):
    # the first builtin whose basis is not diagonal
    assert run(capsys, "check-free", "--arrangement", "builtin:D4") == (
        0, "free, lambda = -1, degrees = [1, 3, 5, 3]\n", "")


def test_check_free_generic3_candidate_rejected(tmp_path, capsys):
    basis = tmp_path / "basis.json"
    # degrees (1, 1, 2): two tangent degree-1 candidates are forced to be
    # proportional, so the determinant collapses
    basis.write_text(json.dumps([
        "x1*d1 + x2*d2 + x3*d3",
        "2*x1*d1 + 2*x2*d2 + 2*x3*d3",
        "x2*x3*d2 - x2*x3*d3",
    ]))
    code, out, _ = run(
        capsys, "check-free",
        "--arrangement", "builtin:generic3", "--basis", str(basis),
    )
    assert code == 1
    assert "not free under this candidate" in out
    assert "determinant = 0" in out


def test_check_free_requires_basis(capsys):
    code, _, err = run(capsys, "check-free", "--arrangement", "builtin:generic3")
    assert code == 2
    assert "no candidate basis" in err


def test_check_free_file_arrangement(tmp_path, capsys):
    spec = tmp_path / "arr.json"
    spec.write_text(json.dumps({
        "dim": 2,
        "forms": [["1", "0"], ["0", "1"], ["1", "1"]],
        "basis": ["x1*d1 + x2*d2", "x1^2*d1 - x2^2*d2"],
    }))
    code, out, _ = run(capsys, "check-free", "--arrangement", str(spec))
    assert code == 0
    assert "lambda = -1" in out


def test_bad_arrangement_file(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"dim": 2, "forms": [["1", "0"], ["2", "0"]]}))
    code, _, err = run(capsys, "check-free", "--arrangement", str(spec))
    assert code == 2
    assert "proportional" in err


@pytest.mark.parametrize("spec, message", [
    ({"dim": 0, "forms": [["1"]]}, "'dim' must be a positive integer"),
    ({"dim": "2", "forms": [["1", "0"]]}, "'dim' must be a positive integer"),
    ({"dim": 2, "forms": 5}, "'forms' must be a list of coefficient lists"),
    ({"dim": 2, "forms": [["1", "0"], "01"]}, "'forms' must be a list of coefficient lists"),
    ({"dim": 1, "forms": [["1"]], "basis": "x1*d1"}, "'basis' must be a list of operator strings"),
], ids=["dim-zero", "dim-string", "forms-int", "forms-row-string", "basis-string"])
def test_malformed_arrangement_file(tmp_path, capsys, spec, message):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(spec))
    code, _, err = run(capsys, "check-free", "--arrangement", str(path))
    assert code == 2
    assert err.startswith("error: ") and message in err


# The interpreter's own limit on int() of a decimal string, where it has
# one: as it is, off, and at the lowest value it takes.  No refusal below
# may depend on it.
_DIGIT_LIMITS = [None] + ([0, 640] if hasattr(sys, "set_int_max_str_digits") else [])


@pytest.fixture(params=_DIGIT_LIMITS, ids=lambda limit: f"int-limit-{limit}")
def int_digit_limit(request):
    if request.param is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(request.param)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("command", ["tangent", "decompose"])
def test_oversized_integer_in_op_is_a_parse_error(capsys, int_digit_limit, command):
    code, out, err = run(capsys, command, "--arrangement", "builtin:boolean1",
                         "--op", "9" * 5000 + "*x1*d1")
    assert (code, out) == (2, "")
    assert err == (f"error: operator '{'9' * 40}...': integer has more than "
                   f"{MAX_DIGITS} digits (at position 0)\n")
    code, out, _ = run(capsys, command, "--arrangement", "builtin:boolean1",
                       "--op", "9" * MAX_DIGITS + "*x1*d1")
    assert code == 0 and out


def test_oversized_integer_in_arrangement_file(tmp_path, capsys, int_digit_limit):
    path = tmp_path / "arr.json"
    path.write_text('{"dim": 1, "forms": [[' + "9" * 5000 + "]]}")
    code, out, err = run(capsys, "check-free", "--arrangement", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path} is not valid JSON: an integer has more than {MAX_DIGITS} digits\n"


@pytest.mark.parametrize("op, message, at", [
    ("a" * 20_000, "unknown name 'aaaa", 0),
    ("x1 " + "b" * 20_000, "unexpected trailing input 'bbbb", 3),
    ("x1 " + "9" * 600, "unexpected trailing input 9999", 3),
    ("x1^" + "9" * 600, "exponent 9999", 3),
    ("x" + "1" * 600, "index 1111", 0),
    ("x1*" + "d" * 20_000, "unknown name 'dddd", 3),
    ("z", "alias 'z' exceeds dimension 1", 0),
])
def test_parse_errors_quote_long_tokens_short(capsys, op, message, at):
    code, out, err = run(capsys, "tangent", "--arrangement", "builtin:boolean1", "--op", op)
    assert (code, out) == (2, "")
    assert len(err.encode()) < 200 and err.count("\n") == 1
    assert message in err and err.endswith(f" (at position {at})\n")


def test_integers_of_any_size_print(tmp_path, capsys, int_digit_limit):
    # a 4,900-digit coefficient, past the default limit of 4,300 digits;
    # Decimal converts an int exactly under any limit
    digits = str(Decimal(9999999 ** 700))
    assert run(capsys, "decompose", "--arrangement", "builtin:boolean1",
               "--op", "9999999^700*x1*d1") == (0, f"word [1]: coeff {digits}\n", "")
    assert run(capsys, "tangent", "--arrangement", "builtin:boolean1",
               "--op", "9999999^700*d1") == (1, (
                   "form 1 (x1): t=1 FAIL\n"
                   f"  witness at t=1: coefficient {digits} of 1 not divisible by (x1)^1\n"
                   "overall: not tangent\n"), "")
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(["(1/9999999)^700*x1*d1"]))
    assert run(capsys, "check-free", "--arrangement", "builtin:boolean1",
               "--basis", str(basis)) == (0, f"free, lambda = 1/{digits}, degrees = [1]\n", "")


@pytest.mark.parametrize("coeff", ["1e100000000", "1.5", " 1", "1_000", "0x10", "inf",
                                   "9" * (MAX_DIGITS + 1), "1/" + "9" * (MAX_DIGITS + 1)])
def test_string_coefficients_follow_the_operator_grammar(tmp_path, capsys, coeff):
    # INT ('/' INT)? with an optional sign, so that no spelling builds a huge
    # rational; JSON numbers and the signed and fractional spellings still load
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"dim": 2, "forms": [[1.5, "-1/2"], ["+3", 0], [coeff, "1"]]}))
    code, out, err = run(capsys, "check-free", "--arrangement", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: coefficient '") and "is not an integer or a fraction" in err
    path.write_text(json.dumps({"dim": 2, "forms": [[1.5, "-1/2"], ["+3", 0]],
                                "basis": ["x1*d1 + x2*d2", "x1*d2"]}))
    code, out, _ = run(capsys, "check-free", "--arrangement", str(path))
    assert code == 1 and out.startswith("not free under this candidate")


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "check-free", "--arrangement", "builtin:nope")
    assert code == 2
    assert "unknown builtin" in err
    assert err == ("error: unknown builtin arrangement 'nope'; choose from "
                   "('boolean1', 'boolean2', 'boolean3', 'triple2', 'generic3', 'D4')\n")


@pytest.mark.parametrize("name", _BUILTINS)
def test_builtin_spec_as_a_file(tmp_path, capsys, name):
    # every builtin is a spec in the arrangement-file format, read by the
    # same loader, so its file gives the builtin's verdict word for word
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_BUILTINS[name]))
    from_file = run(capsys, "check-free", "--arrangement", str(path))
    assert from_file == run(capsys, "check-free", "--arrangement", f"builtin:{name}")
    assert from_file[0] == (2 if name == "generic3" else 0)


# -- decompose ----------------------------------------------------------------

def test_decompose_worked_example(capsys):
    code, out, _ = run(
        capsys, "decompose",
        "--arrangement", "builtin:boolean1", "--op", "x1^2*d1^2",
    )
    assert code == 0
    assert "word [1, 1]: coeff 1" in out
    assert "word [1]: coeff -1" in out


def test_decompose_json_golden(capsys):
    code, out, _ = run(
        capsys, "decompose",
        "--arrangement", "builtin:boolean1", "--op", "x^2*d1^2", "--json",
    )
    assert code == 0
    assert json.loads(out) == [
        {"coeff": "1", "word": [1, 1]},
        {"coeff": "-1", "word": [1]},
    ]


def test_decompose_json_failure_golden(capsys):
    code, out, err = run(
        capsys, "decompose",
        "--arrangement", "builtin:boolean1", "--op", "x*d1^2", "--json",
    )
    assert (code, err) == (1, "")
    assert out == '{"level": 2, "index": [1, 1]}\n'
    assert json.loads(out) == {"level": 2, "index": [1, 1]}


def test_decompose_polynomial(capsys):
    code, out, _ = run(
        capsys, "decompose",
        "--arrangement", "builtin:boolean1", "--op", "x",
    )
    assert code == 0
    assert "word []: coeff x1" in out


def test_decompose_non_tangent(capsys):
    code, out, _ = run(
        capsys, "decompose",
        "--arrangement", "builtin:boolean1", "--op", "d1",
    )
    assert code == 1
    assert out.startswith("not decomposable: level 1, index (1,):")


def test_decompose_parse_error(capsys):
    code, _, err = run(
        capsys, "decompose",
        "--arrangement", "builtin:boolean1", "--op", "x^",
    )
    assert code == 2
    assert "position" in err


def test_decompose_wrong_basis_size(tmp_path, capsys):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(["x1*d1 + x2*d2"]))
    code, _, err = run(
        capsys, "decompose", "--arrangement", "builtin:triple2",
        "--basis", str(basis), "--op", "x1*d1",
    )
    assert code == 2
    assert "error: need exactly 2 derivations" in err


def test_decompose_has_no_tmax_flag(capsys):
    code, _, err = run(
        capsys, "decompose", "--arrangement", "builtin:boolean1",
        "--op", "x*d1", "--tmax", "2",
    )
    assert code == 2
    assert "unrecognized arguments: --tmax 2" in err


# -- tangent -------------------------------------------------------------------

def test_tangent_table_failure(capsys):
    code, out, _ = run(
        capsys, "tangent",
        "--arrangement", "builtin:boolean1", "--op", "x*d1^2", "--tmax", "2",
    )
    assert code == 1
    assert "t=1 pass" in out
    assert "t=2 FAIL" in out
    assert "witness" in out
    assert "not tangent" in out


def test_tangent_table_pass(capsys):
    code, out, _ = run(
        capsys, "tangent",
        "--arrangement", "builtin:triple2", "--op", "x1*d1 + x2*d2", "--tmax", "5",
    )
    assert code == 0
    assert "tangent up to t_max = 5" in out


def test_tangent_default_cutoff_pass_golden(capsys):
    # (x1*d1)^2 = x1^2*d1^2 + x1*d1 has order 2, so the table runs t = 1, 2
    code, out, err = run(
        capsys, "tangent", "--arrangement", "builtin:boolean1", "--op", "x1*d1*x1*d1",
    )
    assert (code, err) == (0, "")
    assert out == "form 1 (x1): t=1 pass, t=2 pass\noverall: tangent\n"


def test_tangent_default_cutoff_failure_golden(capsys):
    code, out, err = run(
        capsys, "tangent", "--arrangement", "builtin:triple2",
        "--op", "x1^2*d1^2 + x2^2*d2^2",
    )
    assert (code, err) == (1, "")
    assert out == (
        "form 1 (x1): t=1 pass, t=2 pass\n"
        "form 2 (x2): t=1 pass, t=2 pass\n"
        "form 3 (x1 + x2): t=1 FAIL, t=2 FAIL\n"
        "  witness at t=1: coefficient 2*x2^2 of d2 not divisible by (x1 + x2)^1\n"
        "  witness at t=2: coefficient 2*x1^2 + 2*x2^2 of 1 not divisible by (x1 + x2)^2\n"
        "overall: not tangent\n"
    )


def test_tangent_default_cutoff_verdict_is_is_tangent(capsys):
    rng = random.Random(73)
    verdicts = set()
    for name in ("boolean2", "triple2", "generic3"):
        arr, thetas = builtin_arrangement(name)
        gens = thetas or [euler_derivation(arr.dim)]
        word_op = word_fold(gens)
        ops = [random_word(rng, word_op, len(gens), arr.dim, 3) for _ in range(6)]
        ops += [random_order_one_op(rng, arr.dim, 2) for _ in range(6)]
        for u in ops:
            code, out, _ = run(capsys, "tangent", "--arrangement", f"builtin:{name}",
                               "--op", render(u))
            verdict = is_tangent(u, arr)
            assert code == (0 if verdict else 1)
            assert out.endswith("overall: tangent\n" if verdict else "overall: not tangent\n")
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_tangent_tmax_limit(capsys):
    code, out, _ = run(
        capsys, "tangent", "--arrangement", "builtin:boolean1", "--op", "x*d1", "--tmax", "64",
    )
    assert code == 0 and out.endswith("overall: tangent up to t_max = 64\n")
    code, out, err = run(
        capsys, "tangent", "--arrangement", "builtin:boolean1", "--op", "x*d1", "--tmax", "65",
    )
    assert (code, out) == (2, "")
    assert err == "error: --tmax 65 exceeds the limit 64\n"


def test_tangent_default_cutoff_limit(capsys):
    code, out, _ = run(
        capsys, "tangent", "--arrangement", "builtin:boolean1", "--op", "x^64*d1^64",
    )
    assert code == 0 and out.endswith(", t=64 pass\noverall: tangent\n")
    code, out, err = run(
        capsys, "tangent", "--arrangement", "builtin:boolean1", "--op", "x^65*d1^65",
    )
    assert (code, out) == (2, "")
    assert err == "error: the exact cutoff max(order, 1) = 65 exceeds the limit 64\n"


def test_tangent_deeply_nested_operator(capsys):
    code, _, err = run(
        capsys, "tangent", "--arrangement", "builtin:boolean1",
        "--op", "(" * 2000 + "x" + ")" * 2000, "--tmax", "1",
    )
    assert code == 2
    assert err.startswith("error: ") and "nested too deeply" in err
    # the operator text is quoted as a short prefix, not all 4,001 characters
    assert max(len(line) for line in err.splitlines()) < 200


def test_decompose_internal_error_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(logdiff.cli, "reassemble", lambda dec: logdiff.cli.DiffOp.zero(1))
    code, out, err = run(
        capsys, "decompose", "--arrangement", "builtin:boolean1", "--op", "x1^2*d1^2",
    )
    assert code == 3
    assert out == ""
    assert err == "internal error: reassembly does not match the input\n"


def test_decompose_order_drop_is_an_invariant(capsys, monkeypatch):
    # a wrong quotient leaves the top order in place: a bug, not a negative
    divide = logdiff.tangent.exact_divide
    monkeypatch.setattr(logdiff.tangent, "exact_divide", lambda a, b: divide(a, b) * 2)
    code, out, err = run(
        capsys, "decompose", "--arrangement", "builtin:boolean1", "--op", "x1^2*d1^2",
    )
    assert code == 3
    assert out == ""
    assert err == "internal error: decompose must drop the order\n"


def test_decompose_order_drop_is_an_invariant_under_python_o():
    # the same fault under -O, which strips assert statements
    script = (
        "import sys\n"
        "import logdiff.tangent as t\n"
        "divide = t.exact_divide\n"
        "t.exact_divide = lambda a, b: divide(a, b) * 2\n"
        "from logdiff.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(logdiff.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script,
         "decompose", "--arrangement", "builtin:boolean1", "--op", "x1^2*d1^2"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "internal error: decompose must drop the order\n"


def test_tangent_term_limit_is_a_parse_error(capsys):
    code, _, err = run(
        capsys, "tangent", "--arrangement", "builtin:boolean3",
        "--op", "(x1+x2+x3+d1)^1000", "--tmax", "1",
    )
    assert code == 2
    assert err.startswith("error: ") and "more than 10000 terms" in err


def test_tangent_huge_exponent_is_a_parse_error(capsys):
    code, _, err = run(
        capsys, "tangent", "--arrangement", "builtin:boolean1",
        "--op", "x^100000000", "--tmax", "1",
    )
    assert code == 2
    assert err.startswith("error: ") and "exceeds the limit" in err


def test_long_basis_entry_is_quoted_short(tmp_path, capsys):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(["(" * 2000 + "x1*d1" + ")" * 2000, "x2*d2"]))
    code, _, err = run(
        capsys, "check-free", "--arrangement", "builtin:boolean2", "--basis", str(basis),
    )
    assert code == 2
    assert "basis entry 1" in err and "nested too deeply" in err
    assert max(len(line) for line in err.splitlines()) < 200


def test_tangent_constant(capsys):
    code, out, _ = run(
        capsys, "tangent",
        "--arrangement", "builtin:boolean2", "--op", "1", "--tmax", "3",
    )
    assert code == 0


# -- verify ----------------------------------------------------------------------

def test_verify_sym_power(capsys):
    code, out, _ = run(
        capsys, "verify", "--lemma", "sym-power",
        "--l", "2", "--p", "2", "--trials", "25", "--seed", "0",
    )
    assert code == 0
    assert "passed=25 failed=0" in out


def test_verify_jacobian_power_with_fixture(capsys):
    code, out, _ = run(
        capsys, "verify", "--lemma", "jacobian-power",
        "--l", "2", "--p", "2", "--trials", "10", "--seed", "1",
        "--arrangement", "builtin:boolean2",
    )
    assert code == 0
    assert "passed=10 failed=0" in out


def test_verify_divisibility(capsys):
    code, out, _ = run(
        capsys, "verify", "--lemma", "divisibility",
        "--p", "2", "--trials", "10", "--seed", "2",
        "--arrangement", "builtin:triple2",
    )
    assert code == 0
    assert "passed=10 failed=0" in out


def test_verify_jacobian_power_reads_the_basis_file(tmp_path, capsys, monkeypatch):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(["x1*d1 + x2*d2", "x2*d1 - x1*d2"]))
    seen = []
    monkeypatch.setattr(logdiff.cli, "jacobian_power_identity",
                        lambda fs, ops, power: seen.append(ops) or True)
    code, out, _ = run(
        capsys, "verify", "--lemma", "jacobian-power",
        "--p", "2", "--trials", "2", "--basis", str(basis),
    )
    assert code == 0
    assert "l=2 p=2 trials=2" in out
    # trial 0 takes the file's derivations, later trials draw random ones
    assert [render(th) for th in seen[0]] == ["x1*d1 + x2*d2", "x2*d1 - x1*d2"]
    assert len(seen) == 2 and not isinstance(seen[1][0], Derivation)


@pytest.mark.parametrize("basis_text, message", [
    (None, "cannot read"),
    ("[", "not valid JSON"),
    ('["d1^2", "d2"]', "basis entry 1"),
    ('["x1*d1"]', "need exactly 2 derivations, got 1"),
])
def test_verify_jacobian_power_rejects_a_bad_basis_file(tmp_path, capsys, basis_text, message):
    basis = tmp_path / "basis.json"
    if basis_text is not None:
        basis.write_text(basis_text)
    for dims in (["--l", "2"], ["--arrangement", "builtin:boolean2"]):
        code, out, err = run(
            capsys, "verify", "--lemma", "jacobian-power", *dims,
            "--trials", "1", "--basis", str(basis),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err


@pytest.mark.parametrize("command", [
    ["check-free"],
    ["decompose", "--op", "x1*d1"],
    ["verify", "--lemma", "jacobian-power", "--trials", "1"],
    ["verify", "--lemma", "divisibility", "--trials", "1"],
])
@pytest.mark.parametrize("texts", [
    ["x1*d1 + x2*d2"],
    ["x1*d1 + x2*d2", "x1^2*d1 - x2^2*d2", "x1*x2*d1"],
])
def test_every_basis_consumer_rejects_a_basis_of_the_wrong_length(tmp_path, capsys,
                                                                   command, texts):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(texts))
    spec = tmp_path / "arr.json"
    spec.write_text(json.dumps({"dim": 2, "forms": [[1, 0], [0, 1], [1, 1]], "basis": texts}))
    # from --basis, and from the arrangement file's own basis
    for source in (["--arrangement", "builtin:triple2", "--basis", str(basis)],
                   ["--arrangement", str(spec)]):
        code, out, err = run(capsys, *command, *source)
        assert code == 2
        assert out == ""
        assert err == f"error: need exactly 2 derivations, got {len(texts)}\n"


@pytest.mark.parametrize("option, value", [
    ("--arrangement", "builtin:nosuch"),
    ("--arrangement", "builtin:boolean2"),
    ("--basis", "/nonexistent.json"),
])
def test_verify_sym_power_rejects_options_it_does_not_read(capsys, option, value):
    code, out, err = run(
        capsys, "verify", "--lemma", "sym-power", "--trials", "1", option, value,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("lemma", ["sym-power", "jacobian-power"])
def test_verify_rejects_dimension_zero(capsys, lemma):
    code, _, err = run(capsys, "verify", "--lemma", lemma, "--l", "0", "--trials", "1")
    assert code == 2
    assert "error: --l must be at least 1" in err


@pytest.mark.parametrize("lemma", ["jacobian-power", "divisibility"])
@pytest.mark.parametrize("dim", ["2", "5"])
def test_verify_l_must_match_the_arrangement(capsys, lemma, dim):
    code, out, err = run(
        capsys, "verify", "--lemma", lemma, "--arrangement", "builtin:boolean3",
        "--l", dim, "--trials", "1",
    )
    assert (code, out) == (2, "")
    assert err == f"error: --l {dim} does not match the dimension 3 of builtin:boolean3\n"
    code, out, _ = run(
        capsys, "verify", "--lemma", lemma, "--arrangement", "builtin:boolean3",
        "--l", "3", "--trials", "1",
    )
    assert code == 0 and "passed=1 failed=0" in out


@pytest.mark.parametrize("argv", [
    ["--lemma", "sym-power", "--l", "65", "--p", "0"],
    ["--lemma", "sym-power", "--l", "5", "--p", "8"],
    ["--lemma", "sym-power", "--p", "3000"],
    ["--lemma", "jacobian-power", "--l", "65", "--p", "1"],
    ["--lemma", "jacobian-power", "--l", "2", "--p", "64"],
    ["--lemma", "divisibility", "--arrangement", "builtin:boolean3", "--p", "10"],
    # at l = 1, N = 1 for every p, so p itself is bounded
    ["--lemma", "sym-power", "--l", "1", "--p", "65"],
    ["--lemma", "jacobian-power", "--l", "1", "--p", "65"],
    ["--lemma", "divisibility", "--arrangement", "builtin:boolean1", "--p", "65"],
])
def test_verify_rejects_sizes_beyond_the_limit(capsys, monkeypatch, argv):
    # max(l, p, N) > 64 with N = C(p+l-1, p) is refused before any trial
    for kernel in ("sym_power_det_identity_holds", "jacobian_power_identity", "higher_jacobian"):
        monkeypatch.setattr(logdiff.cli, kernel, None)
    code, out, err = run(capsys, "verify", *argv, "--trials", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and f"exceeds the limit {MAX_VERIFY_SIZE}" in err


def test_verify_accepts_the_size_limit(capsys):
    assert MAX_VERIFY_SIZE == 64
    code, out, _ = run(
        capsys, "verify", "--lemma", "sym-power", "--l", "64", "--p", "0", "--trials", "1",
    )
    assert code == 0
    assert "l=64 p=0 trials=1 seed=0 passed=1 failed=0" in out
    code, out, _ = run(
        capsys, "verify", "--lemma", "sym-power", "--l", "1", "--p", "64", "--trials", "1",
    )
    assert code == 0
    assert "l=1 p=64 trials=1 seed=0 passed=1 failed=0" in out


def test_verify_divisibility_needs_arrangement(capsys):
    code, _, err = run(
        capsys, "verify", "--lemma", "divisibility", "--trials", "5",
    )
    assert code == 2


def test_verify_deterministic_given_seed(capsys):
    _, out1, _ = run(
        capsys, "verify", "--lemma", "sym-power",
        "--l", "3", "--p", "2", "--trials", "10", "--seed", "9",
    )
    _, out2, _ = run(
        capsys, "verify", "--lemma", "sym-power",
        "--l", "3", "--p", "2", "--trials", "10", "--seed", "9",
    )
    assert out1 == out2


def test_verify_draws_are_pinned():
    # Recorded from the generators as ``logdiff verify`` has always drawn
    # them, so that ``verify --seed N`` keeps reproducing earlier runs.
    rng = random.Random(20261018)
    got = []
    for _ in range(3):
        got.append(render(random_poly(rng, 2, 2)))
        got.append(render(random_poly(rng, 3, 2, nonzero=True)))
        got.append(render(random_order_one_op(rng, 2, 2)))
    _, thetas = builtin_arrangement("triple2")
    word_op = word_fold(thetas)
    for _ in range(3):
        got.append(render(random_word(rng, word_op, len(thetas), 2, 2)))
    assert got == [
        "1",
        "4*x1^2 - 4*x2^2 - 2*x3^2",
        "-2*x1^2*d1 - x1^2*d2",
        "-2",
        "3",
        "-3*x1^2*d1 + 4*x1*x2*d1 + 3*x2*d2 + 4*d2",
        "0",
        "4",
        "-3*x1^2*d1 + x1*x2*d1 - x1*x2*d2 - 4",
        "-x1^3*x2^2*d1^2 + 3*x1^4*d1^2 - x1^2*x2^3*d1*d2 + x1*x2^4*d1*d2"
        " + 3*x1^3*x2*d1*d2 - 3*x1^2*x2^2*d1*d2 + x2^5*d2^2 - 3*x1*x2^3*d2^2"
        " - 2*x1^2*x2^2*d1 + 6*x1^3*d1 + 2*x2^4*d2 - 6*x1*x2^2*d2",
        "-1",
        "3*x1^3*x2^2*d1^2 + 2*x1^3*d1^2 + 3*x1^2*x2^3*d1*d2 - 3*x1*x2^4*d1*d2"
        " + 2*x1^2*x2*d1*d2 - 2*x1*x2^2*d1*d2 - 3*x2^5*d2^2 - 2*x2^3*d2^2"
        " + 6*x1^2*x2^2*d1 + 4*x1^2*d1 - 6*x2^4*d2 - 4*x2^2*d2",
    ]
    assert rng.randrange(10 ** 9) == 405785738
    # the fallback constant of a nonzero draw
    assert [random_poly(rng, 1, 0, nonzero=True).constant_term() for _ in range(20)] == [
        1, 2, -2, 3, -1, 3, -1, -1, 1, -1, 1, 1, -3, 4, 4, -4, -2, 1, -3, 4,
    ]
    assert rng.randrange(10 ** 9) == 106487582


def test_verify_failure_report_is_pinned(tmp_path, capsys):
    basis = tmp_path / "basis.json"
    basis.write_text(json.dumps(["d1", "d2"]))
    code, out, _ = run(
        capsys, "verify", "--lemma", "divisibility", "--arrangement", "builtin:triple2",
        "--basis", str(basis), "--p", "1", "--trials", "4", "--seed", "3",
    )
    assert code == 1
    assert out == (
        "divisibility: arrangement=builtin:triple2 p=1 trials=4 seed=3 passed=3 failed=1\n"
        "  reproduce: trial 2: entries ['4*x1*x2*d2 + 2*x2^2*d2', '-2*x1*x2*d1 - x2^2*d1']\n"
    )


def test_usage_error_exit_code(capsys):
    assert main(["decompose"]) == 2
    capsys.readouterr()


# -- fuzzing ----------------------------------------------------------------------

_op_text = st.lists(
    st.sampled_from(["x1", "x2", "d1", "d2", "x", "y", "z", "d3", "1", "2", "3", "1/2",
                     "+", "-", "*", "^", "(", ")", " ", "/", "0", "&"]),
    max_size=14,
).map("".join)
_coeff = st.one_of(st.integers(-3, 3), st.text("0123-./e", max_size=3), st.none())
_consistent_arrangement = st.integers(1, 3).flatmap(lambda n: st.fixed_dictionaries({
    "dim": st.just(n),
    "forms": st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                      min_size=1, max_size=4),
}, optional={"basis": st.lists(_op_text, min_size=n, max_size=n)}))
_arrangement_json = st.one_of(
    _consistent_arrangement,
    st.fixed_dictionaries({
        "dim": st.one_of(st.integers(-1, 3), st.text(max_size=2), st.none()),
        "forms": st.one_of(
            st.lists(st.lists(_coeff, max_size=3), max_size=4),
            st.integers(), st.text(max_size=3),
        ),
    }, optional={"basis": st.one_of(st.lists(_op_text, max_size=3), _op_text, st.integers())}),
    st.lists(st.integers(), max_size=2),
    st.text(max_size=5),
)


def _assert_clean_exit(code, err):
    # 3 means an internal invariant failed: never on any input.
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_op_text, st.sampled_from(["builtin:boolean1", "builtin:boolean2", "builtin:triple2"]))
def test_fuzz_operator_text(capsys, text, arrangement):
    for argv in (["tangent", "--arrangement", arrangement, "--op", text, "--tmax", "2"],
                 ["decompose", "--arrangement", arrangement, "--op", text]):
        code, _, err = run(capsys, *argv)
        _assert_clean_exit(code, err)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_arrangement_json, _op_text)
def test_fuzz_arrangement_json(tmp_path, capsys, data, text):
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(data))
    for argv in (["check-free", "--arrangement", str(path)],
                 ["tangent", "--arrangement", str(path), "--op", text, "--tmax", "1"],
                 ["decompose", "--arrangement", str(path), "--op", text]):
        code, _, err = run(capsys, *argv)
        _assert_clean_exit(code, err)
