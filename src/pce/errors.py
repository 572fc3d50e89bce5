"""Exception hierarchy shared across the toolkit."""


class PceError(Exception):
    """Base class for all toolkit errors."""


class NonFinite(PceError):
    """Input contains NaN or Inf entries."""


class ZeroMatrix(PceError):
    """Every entry of the input is numerically zero, or a spectrum is all zero."""


class DimensionMismatch(PceError):
    """Operand shapes or label counts disagree (a dataset's labels and columns
    too), a label array is empty, or a spectrum is empty or not 1-d."""


class NotConverged(PceError):
    """An iterative or LAPACK eigensolve failed to converge."""


class NotSorted(PceError):
    """A singular-value array rises anywhere (no tolerance), or holds a
    negative value."""


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


class TooFewSamples(PceError):
    """A class has too few samples for the requested split."""


class ParseError(PceError):
    """A text file failed to parse, or its body disagrees with its declared
    shape (e.g. a ragged row); carries line (1-based) when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
