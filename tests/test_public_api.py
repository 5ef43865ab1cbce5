"""The package's public surface: its exports and the README's library example."""

import ast
from pathlib import Path

import lensbordism

README = Path(__file__).resolve().parents[1] / "README.md"


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from lensbordism import *", namespace)
    assert all(name in namespace for name in lensbordism.__all__)


def test_all_has_no_duplicates():
    assert len(lensbordism.__all__) == len(set(lensbordism.__all__))


def _library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_example_gives_its_commented_values():
    """Each expression statement of the example ends in a comment holding the
    repr of its value; every other statement just runs."""
    source = _library_example()
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            comment = lines[node.lineno - 1].partition("#")[2].strip()
            assert repr(value) == comment, lines[node.lineno - 1]
            checked += 1
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked == 4
