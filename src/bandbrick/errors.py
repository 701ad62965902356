"""Domain errors shared by all modules.

Every error raised for invalid mathematical input derives from DomainError,
so callers (and the CLI) can distinguish domain failures from usage bugs.
"""


class DomainError(ValueError):
    """Base class for all domain-level errors."""


class EmptyWord(DomainError):
    """An operation that needs a non-empty word received an empty one."""


class NonPrimitive(DomainError):
    """The word is a proper power of a shorter word."""


class NonPrimitiveNecklace(DomainError):
    """A necklace in a multiset is not primitive."""


class MultipleCycles(DomainError):
    """The inverse standard permutation is not a single cycle."""


class BadDimension(DomainError):
    """A vector has an unsupported length."""


class InvalidGVector(DomainError):
    """The vector fails the partial-sum / total-sum g-vector conditions."""


class LetterOutOfRange(DomainError):
    """A letter falls outside the alphabet an operation expects."""


class InvalidWalk(DomainError):
    """The step sequence is not a valid band walk."""


class ZeroLambda(DomainError):
    """A band module needs a non-zero scalar parameter."""


class DimensionMismatch(DomainError):
    """Two objects live over different vertex sets or vector lengths."""


class NotABrick(DomainError):
    """A g-vector that must belong to a band brick does not."""


class InternalInconsistency(DomainError):
    """Two computations that must agree disagreed; indicates a bug."""


class InvalidComponent(DomainError):
    """A multislalom component does not convert to a band walk."""


class SearchTooLarge(DomainError):
    """An enumeration would exceed its named size bound."""


class GVectorTooLarge(DomainError):
    """A g-vector has more Dyck steps than a diagram build may hold."""


class QuiverTooLarge(DomainError):
    """A quiver has more vertices than a per-vertex table may hold."""


class WalkTooLarge(DomainError):
    """A word's band walk would have more steps than a build may hold."""


class DrawingTooLarge(DomainError):
    """A drawing's width or height is not a finite number."""


class DrawingTooSmall(DomainError):
    """A drawing's unit is too small for two decimals to tell columns apart."""


class ListingTooLarge(DomainError):
    """A dense listing would print more matrix entries than its bound."""


class AllZero(DomainError):
    """An exponent vector is all zero or has a negative entry."""
