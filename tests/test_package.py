import ast
import re
import shlex
import sys
from pathlib import Path

import pytest

import logdiff
from logdiff.cli import main

PACKAGE = Path(logdiff.__file__).parent


def test_all_names_resolve_once():
    assert len(logdiff.__all__) == len(set(logdiff.__all__))
    missing = [name for name in logdiff.__all__ if not hasattr(logdiff, name)]
    assert missing == []


def test_public_names_are_pinned():
    # Removing a name is a public API change.  principal_symbol, which no
    # package code called, now lives in tests/helpers.py; divides_power(f,
    # t, a) was divides(f ** t, a) with argument checks.
    assert logdiff.__all__ == [
        "Arrangement", "Decomposition", "DecompositionError", "Derivation", "DiffOp",
        "LinearForm", "NotDivisibleError", "OpFamily", "ParseError", "Poly",
        "SaitoBasis", "SaitoFailure", "Word", "builtin_arrangement", "commutator",
        "coordinates", "decompose", "decomposition_to_json", "determinant",
        "euler_derivation", "exact_divide", "higher_jacobian",
        "is_tangent", "is_tangent_q", "iterated_commutator", "jacobian_power_identity",
        "multiplicity_product", "parse_diffop", "parse_poly", "permanent",
        "product_family", "rank2_basis", "reassemble", "render", "saito_check",
        "sym_indices", "sym_power_det_identity_holds", "sym_power_matrix",
        "tangency_table", "transport", "value_at_one_expansion",
    ]
    assert not hasattr(logdiff, "principal_symbol")
    assert not hasattr(logdiff.weyl, "principal_symbol")
    assert not hasattr(logdiff, "divides_power")
    assert not hasattr(logdiff.polyring, "divides_power")


def test_imports_only_the_standard_library():
    # README: no dependency outside the standard library
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top == "logdiff", f"{path.name}: {name}"


README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_library_example_runs(capsys):
    blocks = README.split("```python\n")[1:]
    assert len(blocks) == 1
    source = blocks[0].split("```", 1)[0]
    exec(compile(source, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(1, 1) 1\n(1,) -1\n"


def _readme_commands():
    """One ``pytest.param(argv, output lines, exit code)`` for each
    ``logdiff`` line of the README's ``sh`` blocks.  Documented output
    follows a command as a ``# -> `` line and then ``#    `` lines; the
    last may end in ``(exit N)``, and the exit code is 0 without one."""
    commands = []
    for block in README.split("```sh\n")[1:]:
        for line in block.split("```", 1)[0].splitlines():
            if line.startswith("logdiff "):
                commands.append([line, [], 0])
            elif line.startswith(("# -> ", "#    ")):
                text = line[5:]
                exit_code = re.search(r"\s+\(exit (\d)\)$", text)
                if exit_code:
                    text = text[:exit_code.start()]
                    commands[-1][2] = int(exit_code.group(1))
                commands[-1][1].append(text)
    return [pytest.param(shlex.split(line)[1:], lines, code, id=line)
            for line, lines, code in commands]


def test_readme_command_examples_are_all_found():
    assert len(_readme_commands()) == README.count("\nlogdiff ") == 9


@pytest.mark.parametrize("argv, lines, exit_code", _readme_commands())
def test_readme_commands_print_what_they_document(capsys, argv, lines, exit_code):
    assert main(argv) == exit_code
    out = capsys.readouterr().out.splitlines()
    for text in lines:
        if text.endswith("..."):
            # "..." stands for the rest of the line
            assert any(line.startswith(text[:-3]) for line in out), text
        else:
            assert text in out
