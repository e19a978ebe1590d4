"""Exception types raised by the symentropy package."""


class SymentropyError(ValueError):
    """Base class for all symentropy errors."""


# --- mixture / density errors -------------------------------------------

class EmptyMixtureError(SymentropyError):
    """A mixture needs at least one component."""


class DimensionMismatchError(SymentropyError):
    """Component means/covariances do not share a common dimension."""


class NotPositiveDefiniteError(SymentropyError):
    """A covariance matrix is not positive definite; names the component."""


class InvalidComponentError(SymentropyError):
    """A component weight is not positive, or a parameter is not finite."""


class RankDeficientError(SymentropyError):
    """A projection matrix does not have full row rank."""


class NegativeTimeError(SymentropyError):
    """Gaussian smoothing time must be nonnegative."""


class DimensionTooLargeError(SymentropyError):
    """A dimension above a supported limit: 12 for symmetrization, 64 for
    the Gaussianity probe, and ``mixtures.MAX_DIM`` (512) for any law."""


class NotSymmetricBaseError(SymentropyError):
    """The base law of the rotated i.i.d. construction must be symmetric."""


class NotUnivariateError(SymentropyError):
    """The base law of the rotated i.i.d. construction must be 1-D."""


# --- linear-algebra errors ----------------------------------------------

class LinearlyDependentError(SymentropyError):
    """Gram-Schmidt input vectors are (numerically) linearly dependent."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"vector {index} lies in the span of its predecessors")


class DimensionTooSmallError(SymentropyError):
    """The sign-vertex basis family needs n >= 3."""


class UnsupportedShapeError(SymentropyError):
    """No balanced projection of the requested shape is available."""


# --- estimator errors ----------------------------------------------------

class NonFiniteLogDensityError(SymentropyError):
    """A sample produced a non-finite log-density."""


class NonFiniteScoreError(SymentropyError):
    """A sample produced a non-finite score."""


class TooFewSamplesError(SymentropyError):
    """The nearest-neighbor estimator needs at least 2k+2 samples."""


class NotUnitVectorError(SymentropyError):
    """Projection directions must be unit vectors."""


class IndexOutOfRangeError(SymentropyError):
    """Coordinate index outside the law's dimension."""


# --- harness errors -------------------------------------------------------

class NotSymmetricError(SymentropyError):
    """The law under test failed the symmetry check."""


class NotBalancedError(SymentropyError):
    """The projection matrix failed the balance check."""


class UnsupportedDimensionError(SymentropyError):
    """Direction scans support n in {2, 3} only."""
