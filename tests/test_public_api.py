"""The package's public surface: its exports and the README's library example."""

import ast
from pathlib import Path

import pytest

import lensbordism
from lensbordism import PontrjaginPair, PrimeModulus

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


def _pairs(p):
    return PontrjaginPair(1, 3, p), PontrjaginPair(1, 6, p)


# Every public function that takes a prime p, called at p, and the least p it
# accepts; each call succeeds at p = 7.
PRIME_TAKERS = {
    "LensSpace": (lambda p: lensbordism.LensSpace(p, (1, 1, 2)), 3),
    "is_quadratic_residue": (lambda p: lensbordism.is_quadratic_residue(2, p), 3),
    "sum_three_unit_squares": (lambda p: lensbordism.sum_three_unit_squares(2, p), 5),
    "find_generator_pair": (lensbordism.find_generator_pair, 5),
    "canonical_form": (lambda p: lensbordism.canonical_form(PontrjaginPair(2, 3, p)), 2),
    "independent": (lambda p: lensbordism.independent(*_pairs(p)), 5),
    "independent_bruteforce": (lambda p: lensbordism.independent_bruteforce(*_pairs(p)), 5),
    "bordism_order_cyclic": (lambda p: lensbordism.bordism_order_cyclic(p, 2), 3),
    "lens_class_order": (lambda p: lensbordism.lens_class_order(p, 2), 3),
    "group_structure_cyclic": (lambda p: lensbordism.group_structure_cyclic(p, 1), 3),
    "extension_order_check": (lambda p: lensbordism.extension_order_check(p, 2), 5),
    "non_splitness_witness": (lambda p: lensbordism.non_splitness_witness(p, 2), 5),
    "bordism_order_metacyclic_d3": (lambda p: lensbordism.bordism_order_metacyclic_d3(p, 1), 5),
    "d_pk3_params": (lambda p: lensbordism.d_pk3_params(p, 2), 5),
}


@pytest.mark.parametrize("name", sorted(PRIME_TAKERS))
def test_one_rule_for_every_prime_argument(name, is_prime_calls):
    call, least = PRIME_TAKERS[name]
    with pytest.raises(ValueError, match="^9 is not prime$"):
        call(9)
    below = {3: 2, 5: 3}.get(least)  # the largest prime below least
    if below:
        with pytest.raises(ValueError, match=f"^p must be at least {least}, got {below}$"):
            call(below)
    is_prime_calls.clear()
    expected = call(7)
    assert is_prime_calls == [7]
    # a checked prime is taken as it is, with no primality test
    is_prime_calls.clear()
    assert call(PrimeModulus._trusted(7)) == expected
    assert is_prime_calls == []
