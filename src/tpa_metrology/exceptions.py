"""Error and warning types shared across the package."""


class TruncationError(ValueError):
    """Raised when the requested tail tolerance cannot be met within the Fock cutoff."""


class GridError(ValueError):
    """Raised when a detected distribution is not resolved: a quadrature grid too
    narrow to hold it, or a non-finite Fisher information or sensitivity."""


class IllConditionedBinWarning(UserWarning):
    """A probability bin is below the floor while its derivative is not.

    The Fisher-information term for such a bin is capped by replacing the
    probability with the floor value; the result may underestimate the FI.
    """


class CutoffGrowthWarning(UserWarning):
    """Adaptive cutoff selection grew far beyond the initial estimate."""
