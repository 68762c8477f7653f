import ast
import sys
from pathlib import Path

import logdiff

PACKAGE = Path(logdiff.__file__).parent


def test_all_names_resolve_once():
    assert len(logdiff.__all__) == len(set(logdiff.__all__))
    missing = [name for name in logdiff.__all__ if not hasattr(logdiff, name)]
    assert missing == []


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


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    source = blocks[0].split("```", 1)[0]
    exec(compile(source, "README.md", "exec"), {})
    assert capsys.readouterr().out == "(1, 1) 1\n(1,) -1\n"
