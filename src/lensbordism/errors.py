"""Domain exceptions shared across the package.

These classes mark violations of the library's mathematical contracts
(non-invertible residues, mismatched moduli, values the encoded theory does
not determine, ...).  Plain ``ValueError`` is reserved for precondition
violations such as passing a composite where a prime is required.
"""


class LensBordismError(Exception):
    """Base class for all domain errors raised by this package."""


class NotAUnit(LensBordismError):
    """An operation requiring an invertible residue received a non-unit."""


class ZeroInput(LensBordismError):
    """Zero was passed where only nonzero residues are meaningful."""


class RangeError(LensBordismError):
    """An inverted range was requested, or a value beyond the bound up to
    which a computation is exact."""


class ModulusMismatch(LensBordismError):
    """Two invariant pairs of different moduli were compared."""


class DegeneratePair(LensBordismError):
    """An invariant pair with vanishing first component where a pair coming
    from an actual lens space (first component a unit) is required."""


class SearchExhausted(LensBordismError):
    """The generator-pair search ran out of candidates.

    Firing would exhibit a prime without an independent pair of lens
    classes, which the theory rules out; the exception therefore carries the
    complete search trace so the event can be reported in full.
    """

    def __init__(self, p: int, trace):
        super().__init__(f"no independent generator pair found for p={p}")
        self.p = p
        self.trace = tuple(trace)


class EvenModulus(LensBordismError):
    """An even modulus where the collapsed-page formulas require odd order."""


class Unspecified(LensBordismError):
    """The requested value is not pinned down by the encoded theory.

    Raised instead of guessing: callers asking e.g. for the isomorphism type
    of a group of which only the order is known get this error, never a
    fabricated answer.
    """


class NoSuchGroup(LensBordismError):
    """Parameters that do not correspond to any group of the requested family."""


class EvenOrder(LensBordismError):
    """A group of even order where only the odd-order theory is encoded."""


class NoPrimitiveCubeRoot(LensBordismError):
    """No nontrivial cube root of unity exists for the given modulus."""
