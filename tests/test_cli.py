import json

import pytest

from logdiff.cli import main


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


def test_unknown_builtin(capsys):
    code, _, err = run(capsys, "check-free", "--arrangement", "builtin:nope")
    assert code == 2
    assert "unknown builtin" in err


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


def test_tangent_deeply_nested_operator(capsys):
    code, _, err = run(
        capsys, "tangent", "--arrangement", "builtin:boolean1",
        "--op", "(" * 2000 + "x" + ")" * 2000, "--tmax", "1",
    )
    assert code == 2
    assert err.startswith("error: ") and "nested too deeply" in err
    # the operator text is quoted as a short prefix, not all 4,001 characters
    assert max(len(line) for line in err.splitlines()) < 200


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


@pytest.mark.parametrize("lemma", ["sym-power", "jacobian-power"])
def test_verify_rejects_dimension_zero(capsys, lemma):
    code, _, err = run(capsys, "verify", "--lemma", lemma, "--l", "0", "--trials", "1")
    assert code == 2
    assert "error: --l must be at least 1" in err


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


def test_usage_error_exit_code(capsys):
    assert main(["decompose"]) == 2
    capsys.readouterr()
