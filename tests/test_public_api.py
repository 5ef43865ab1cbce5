"""The package's public surface: its exports and the README's library example."""

import ast
import pickle
import re
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


# Each public record: a value, its repr, a field to assign and the primes
# that unpickling it tests (a ``PrimeModulus`` is tested again when it is
# unpickled, once however often the record holds it).
RECORDS = {
    "LensSpace": (
        lambda: lensbordism.LensSpace(7, (1, 1, 1)),
        "LensSpace(p=7, weights=(1, 1, 1))",
        "p",
        [7],
    ),
    "PontrjaginPair": (
        lambda: PontrjaginPair(1, 3, 7),
        "PontrjaginPair(beta0=1, beta1=3, modulus=7)",
        "beta1",
        [],
    ),
    "TraceStep": (
        lambda: lensbordism.TraceStep("i", 3, 6, 4, False),
        "TraceStep(stage='i', q=3, r=6, tested=4, independent_ok=False, realized=False)",
        "realized",
        [],
    ),
    "GeneratorPairResult": (
        lambda: lensbordism.find_generator_pair(7),
        "GeneratorPairResult(p=7, first=LensSpace(p=7, weights=(1, 1, 1)), "
        "second=LensSpace(p=7, weights=(1, 2, 2)), q=3, r=2, stage='ii', certificate=5)",
        "proof_trace",
        [7],
    ),
    "MetacyclicParams": (
        lambda: lensbordism.MetacyclicParams(7, 3, 2),
        "MetacyclicParams(m=7, n=3, r=2)",
        "r",
        [],
    ),
    "SylowDescriptor": (
        lambda: lensbordism.sylow_structure(lensbordism.MetacyclicParams(7, 3, 2)),
        "SylowDescriptor(entries=((3, 3, 'cyclic'), (7, 7, 'cyclic')))",
        "entries",
        [],
    ),
    "AbelianGroup": (
        lambda: lensbordism.AbelianGroup((5, 5)),
        "AbelianGroup(factors=(5, 5))",
        "factors",
        [],
    ),
    "CoefficientTable": (
        lambda: lensbordism.SPIN_COEFFICIENTS,
        "CoefficientTable(groups=(AbelianGroup(factors=(0,)), AbelianGroup(factors=(2,)), "
        "AbelianGroup(factors=(2,)), AbelianGroup(factors=()), AbelianGroup(factors=(0,)), "
        "AbelianGroup(factors=())))",
        "groups",
        [],
    ),
    "E2Diagonal": (
        lambda: lensbordism.e2_diagonal(25),
        "E2Diagonal(n=25, terms=((0, 5, 1), (1, 4, 25), (2, 3, 1), (3, 2, 1), (4, 1, 1), "
        "(5, 0, 25)))",
        "n",
        [],
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_keep_repr_equality_hash_and_immutability(name, is_prime_calls):
    make, expected_repr, field, primes = RECORDS[name]
    record = make()
    assert type(record) is getattr(lensbordism, name)
    assert repr(record) == expected_repr
    assert make() == record and hash(make()) == hash(record)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(record, protocol)
        is_prime_calls.clear()
        copy = pickle.loads(data)
        assert is_prime_calls == primes
        assert type(copy) is type(record) and copy == record and hash(copy) == hash(record)
        assert repr(copy) == expected_repr
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


# The records that check their fields: a valid and an invalid set of fields.
CHECKED = [
    ("LensSpace", (7, (1, 1, 1)), (7, (0, 1, 1))),
    ("PontrjaginPair", (1, 3, 7), (1, 3, 0)),
    ("MetacyclicParams", (7, 3, 2), (2, 2, 2)),
]


@pytest.mark.parametrize("name, valid, invalid", CHECKED)
def test_no_way_around_the_checks(name, valid, invalid):
    """``_make``, ``_replace`` and unpickling at any protocol raise what the
    constructor raises on the same fields."""
    cls = getattr(lensbordism, name)
    with pytest.raises(Exception) as rejected:
        cls(*invalid)
    error, message = type(rejected.value), f"^{re.escape(str(rejected.value))}$"
    with pytest.raises(error, match=message):
        cls._make(invalid)
    with pytest.raises(error, match=message):
        cls(*valid)._replace(**dict(zip(cls._fields, invalid)))
    forged = tuple.__new__(cls, invalid)  # as a pickle from elsewhere could hold
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(error, match=message):
            pickle.loads(pickle.dumps(forged, protocol))
