"""Mod-p invariants of 5-dimensional lens spaces and related bookkeeping.

The package has four layers: exact modular arithmetic (``numtheory``), the
lens-space invariant pairs with the generator-pair search (``lens``), order
formulas for the bordism groups of cyclic and metacyclic groups (``orders``),
and validation/enumeration of odd-order metacyclic presentations
(``groups``).  The ``cli`` module exposes everything as batch subcommands
with deterministic reports.
"""

__version__ = "0.1.0"

from .errors import (
    DegeneratePair,
    EvenOrder,
    LensBordismError,
    ModulusMismatch,
    NoSuchGroup,
    NotAUnit,
    RangeError,
    SearchExhausted,
    Unspecified,
    ZeroInput,
)
from .groups import (
    MetacyclicParams,
    SylowDescriptor,
    d_pk3_params,
    enumerate_periodic_odd,
    group_order,
    sylow_structure,
    theorem1_applies,
    validate_metacyclic,
)
from .lens import (
    GeneratorPairResult,
    LensSpace,
    PontrjaginPair,
    TraceStep,
    canonical_form,
    find_generator_pair,
    independent,
    independent_bruteforce,
    is_null_bordant,
    pontrjagin_pair,
    q_sum,
    reparametrize,
)
from .numtheory import (
    PrimeModulus,
    is_prime,
    is_quadratic_residue,
    primes_in_range,
    sum_three_unit_squares,
)
from .orders import (
    SPIN_COEFFICIENTS,
    AbelianGroup,
    CoefficientTable,
    E2Diagonal,
    bordism_order_cyclic,
    bordism_order_metacyclic_d3,
    e2_diagonal,
    extension_order_check,
    group_structure_cyclic,
    lens_class_order,
    non_splitness_witness,
    transfer_inclusion_scalar,
)

__all__ = [
    "__version__",
    # errors
    "LensBordismError", "NotAUnit", "ZeroInput", "RangeError",
    "ModulusMismatch", "DegeneratePair", "SearchExhausted", "Unspecified",
    "NoSuchGroup", "EvenOrder",
    # numtheory
    "PrimeModulus", "is_prime", "is_quadratic_residue", "primes_in_range",
    "sum_three_unit_squares",
    # lens
    "LensSpace", "PontrjaginPair", "TraceStep", "GeneratorPairResult",
    "q_sum", "pontrjagin_pair", "reparametrize", "canonical_form",
    "is_null_bordant", "independent", "independent_bruteforce",
    "find_generator_pair",
    # orders
    "AbelianGroup", "CoefficientTable", "E2Diagonal", "SPIN_COEFFICIENTS",
    "e2_diagonal", "bordism_order_cyclic", "lens_class_order",
    "group_structure_cyclic", "extension_order_check",
    "non_splitness_witness", "transfer_inclusion_scalar",
    "bordism_order_metacyclic_d3",
    # groups
    "MetacyclicParams", "SylowDescriptor", "validate_metacyclic",
    "group_order", "theorem1_applies", "sylow_structure", "d_pk3_params",
    "enumerate_periodic_odd",
]
