"""Exception types shared across the package.

Every precondition failure raises a subclass of :class:`EarlabError`, so
callers (the CLI in particular) can distinguish bad inputs from genuine
verification failures. :class:`SelfCheckFailed` is the one subclass that
blames the program, not the input.
"""

__all__ = [
    "EarlabError",
    "CycleDetected",
    "DanglingCover",
    "NotGraded",
    "NotComparable",
    "EmptySelection",
    "SizeLimit",
    "Inconsistent",
    "SelfCheckFailed",
    "NotSimple",
    "ExchangeAxiomFailed",
    "NotPure",
    "NotShelling",
    "NotCertified",
    "NotBall",
    "LabelingInvalid",
    "MobiusMismatch",
    "NotMChain",
    "NonzeroMobiusViolated",
    "NotGeometric",
    "TopRankSelected",
    "LengthMismatch",
    "RangeError",
    "BadParams",
]


class EarlabError(Exception):
    """Base class for all package-specific errors."""


class CycleDetected(EarlabError):
    """The cover relation contains a directed cycle."""


class DanglingCover(EarlabError):
    """A cover pair mentions an element that was never declared."""


class NotGraded(EarlabError):
    """A rank function compatible with the covers does not exist."""


class NotComparable(EarlabError):
    """The two elements are not related in the poset."""


class EmptySelection(EarlabError):
    """A rank selection produced no elements (or S was empty)."""


class SizeLimit(EarlabError):
    """Input exceeds a documented desk-scale cap."""


class Inconsistent(EarlabError):
    """Structurally inconsistent input (e.g. joins fail to exist)."""


class SelfCheckFailed(EarlabError):
    """An internal self-check failed on input that passed every
    precondition: a fault in the program, not in the input."""


class NotSimple(EarlabError):
    """The matroid has a loop or a parallel pair."""


class ExchangeAxiomFailed(EarlabError):
    """The claimed basis family violates the basis exchange axiom."""


class NotPure(EarlabError):
    """The complex has facets of different dimensions."""


class NotShelling(EarlabError):
    """A facet order fails the shelling condition.

    Carries an offending pair when known: ``i`` and ``j`` are 0-based
    indices into the complex's ``facets``, with facet ``i`` placed before
    facet ``j`` in the rejected order.
    """

    def __init__(self, msg, i=None, j=None):
        super().__init__(msg)
        self.i = i
        self.j = j


class NotCertified(EarlabError):
    """The complex could not be certified as a sphere or a ball."""


class NotBall(EarlabError):
    """An operation that requires a certified ball got something else."""


class LabelingInvalid(EarlabError):
    """An edge labeling fails the required chain conditions."""


class MobiusMismatch(EarlabError):
    """Decreasing-chain count disagrees with the Mobius function."""


class NotMChain(EarlabError):
    """The candidate chain fails the modular/distributivity test."""


class NonzeroMobiusViolated(EarlabError):
    """Some interval has vanishing Mobius function where nonzero is required."""


class NotGeometric(EarlabError):
    """The lattice is not atomic and semimodular."""


class TopRankSelected(EarlabError):
    """Face-poset rank selection must exclude the facet rank."""


class LengthMismatch(EarlabError):
    """Two words that must have equal length do not."""


class RangeError(EarlabError):
    """An index set refers to ranks outside the valid range."""


class BadParams(EarlabError):
    """Malformed parameters (wrong types, out-of-range sets, ...)."""
