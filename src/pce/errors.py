"""Exception hierarchy shared across the toolkit."""


class PceError(Exception):
    """Base class for all toolkit errors."""


class NonFinite(PceError):
    """Input contains NaN or Inf entries."""


class ZeroMatrix(PceError):
    """Every entry of the input is numerically zero."""


class DimensionMismatch(PceError):
    """Operand shapes or label counts disagree, or a label array is empty."""


class NotConverged(PceError):
    """An iterative or LAPACK eigensolve failed to converge."""


class EmptySpectrum(PceError):
    """A singular-value array is empty or not 1-d, or its sigma_1 is <= 0."""


class NotSorted(PceError):
    """A singular-value array rises anywhere (no tolerance), or holds NaN,
    Inf or a negative value."""


class DegenerateDimension(PceError):
    """The estimated dimension is zero; lambda is too small for the spectrum."""

    def __init__(self, message, min_lambda=None):
        super().__init__(message)
        self.min_lambda = min_lambda


class BadDim(PceError):
    """A requested dimension is < 1, or exceeds what its method supports: the
    rank of an SVD, the pencil's usable eigenvalues, NPE's PCA directions or
    the PCA rank."""


class DegenerateNeighborhood(PceError):
    """A local Gram system is singular even after regularization."""


class InfeasibleSpec(PceError):
    """A synthetic-data specification cannot be realized."""


class TooFewSamples(PceError):
    """A class has too few samples for the requested split."""


class ParseError(PceError):
    """A text file failed to parse; carries line (1-based) when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ShapeError(PceError):
    """File body disagrees with its declared shape (e.g. a ragged row)."""
