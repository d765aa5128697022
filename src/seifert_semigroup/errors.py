"""Domain-specific error types shared across modules."""


class TrivialSemigroupError(ValueError):
    """The semigroup is all of the nonnegative integers (b0 >= d)."""


class VerificationError(AssertionError):
    """Two independent routes to the same quantity disagree.

    Raised by explicit checks, so unlike a bare ``assert`` it survives
    ``python -O``.  It subclasses AssertionError, so handlers written for
    failed assertions still catch it.
    """
