"""Exception hierarchy for forestnets.

Every error raised on purpose by this package derives from ForestnetsError,
so callers can catch one type at API boundaries.  Validation problems and
numerical failures are kept distinct because the command line tool maps them
to different exit codes.
"""


class ForestnetsError(Exception):
    """Base class for all forestnets errors."""


class ValidationError(ForestnetsError):
    """Bad input: violated precondition, malformed value, wrong shape."""


class NumericalError(ForestnetsError):
    """A numerical computation failed or left its guaranteed envelope."""


class NonPositiveWeight(ValidationError):
    """An edge weight is zero, negative, NaN or infinite."""


class DuplicateEdge(ValidationError):
    """The same ordered (src, dst) pair appears twice in an edge list."""


class NotIrreducible(ValidationError):
    """The directed graph is not strongly connected."""


class UnknownEdge(ValidationError):
    """An operation referenced an edge that is not in the network."""


class InvalidParams(ValidationError):
    """Parameter combination outside the supported domain."""


class NotSelfAvoiding(ValidationError):
    """A path argument repeats a vertex."""


class InvalidStart(ValidationError):
    """A walk or path starts at a vertex where it cannot start."""


class EmptyBlock(ValidationError):
    """A partition contains an empty block or misses vertices."""


class ShapeMismatch(ValidationError):
    """Array argument has the wrong length or shape."""


class UnnormalizedMeasure(ValidationError):
    """A probability vector does not sum to one within tolerance."""


class MalformedInput(ValidationError):
    """A file cannot be parsed under its documented format."""


class SingularSystem(NumericalError):
    """A linear system that should be invertible is numerically singular."""


class NonPMF(NumericalError):
    """A computed probability mass function has entries outside [0, 1]."""


class ZeroCoefficient(NumericalError):
    """A characteristic-polynomial coefficient needed as denominator is zero."""


class ZeroProbability(NumericalError):
    """Conditioning event has zero (or numerically zero) probability."""


class DegenerateBasis(NumericalError):
    """The wavelet family is numerically linearly dependent."""

