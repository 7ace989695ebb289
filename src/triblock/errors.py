"""Domain errors raised across the package.

Every error the library can raise deliberately derives from
:class:`TriblockError`, so callers (and the CLI) can distinguish domain
failures from genuine bugs. The class name doubles as the stable error
code reported by the command line tool.
"""


class TriblockError(Exception):
    """Base class for all deliberate domain errors."""


class IndexOutOfRange(TriblockError):
    """An index component lies outside ``[1, dim]``."""


class DuplicateIndex(TriblockError):
    """The same index tuple was supplied more than once."""


class BadArity(TriblockError):
    """An index tuple does not have exactly ``order`` components."""


class EmptyIndexSet(TriblockError):
    """An index subset that must be nonempty is empty."""


class DimensionMismatch(TriblockError):
    """Dimensions of two objects that must agree do not."""


class OrderTooSmall(TriblockError):
    """The tensor order is below the minimum the operation supports."""


class PartitionTooCoarse(TriblockError):
    """A triangular block structure needs at least two parts."""


class DimensionTooLarge(TriblockError):
    """The dimension exceeds the guard for an exhaustive operation."""


class NotBlocked(TriblockError):
    """The tensor does not carry the block structure the caller claimed."""


class ThirdTypeUnsupported(TriblockError):
    """Third-type triangular structure admits no block formula here."""


class BlockDetUnavailable(TriblockError):
    """A diagonal block cannot be reduced far enough to take its determinant."""


class BlockSpectrumUnavailable(TriblockError):
    """A diagonal block cannot be reduced to dimension-1 pieces."""


class NotDiagonal(TriblockError):
    """The tensor is not diagonal."""


class NegativeEntry(TriblockError):
    """A nonnegative tensor was required but a negative entry exists."""


class NoConvergence(TriblockError):
    """Iteration stopped before the bounds closed: at ``max_iter``, or where
    an underflowing iterate no longer gave a bracket.

    Carries the best lower/upper bounds seen so callers can still act on
    the partial answer.
    """

    def __init__(self, message: str, lower: float | None = None,
                 upper: float | None = None, iterations: int | None = None):
        super().__init__(message)
        self.lower = lower
        self.upper = upper
        self.iterations = iterations


class DeterminantOutOfRange(TriblockError):
    """A nonzero determinant is too large or too small for a double.

    Carries its ``sign`` (1 or -1) and ``log_abs``, the natural log of its
    absolute value, which do fit.
    """

    def __init__(self, message: str, sign: int | None = None, log_abs: float | None = None):
        super().__init__(message)
        self.sign = sign
        self.log_abs = log_abs


class RadiusOutOfRange(TriblockError):
    """A spectral radius is too large for a double."""


class OracleOutOfRange(TriblockError):
    """The singularity probe's values could pass the double range."""


class ProductOutOfRange(TriblockError):
    """An entry of a general product is too large for a double."""


class SingularMatrix(TriblockError):
    """Matrix inversion hit a zero (or below-threshold) pivot."""


class NoLeftInverse(TriblockError):
    """The tensor has no left inverse of any order."""


class NotRightForm(TriblockError):
    """The tensor is not a unit tensor times a matrix."""


class NotRightInvertible(TriblockError):
    """No right inverse can be produced for this tensor."""


class NotZTensor(TriblockError):
    """Off-diagonal entries must all be nonpositive."""


class NotReducingSet(TriblockError):
    """The supplied index set does not actually reduce the tensor."""


class NormalFormUnavailable(TriblockError):
    """No block triangular decomposition of the requested kind exists."""


class InvalidHypergraph(TriblockError):
    """Edge list violates the uniform hypergraph constraints."""


class FormatError(TriblockError):
    """A JSON document does not match the expected wire format, or a result cannot be written
    in it."""
