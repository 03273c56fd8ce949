"""Exception types raised by the qlocc library."""


class QloccError(Exception):
    """Base class for all qlocc errors."""


class ZeroVector(QloccError):
    """Amplitude vector has (numerically) zero norm and cannot be normalized."""


class NonFiniteNorm(QloccError):
    """Amplitude vector has a NaN or infinite norm and cannot be normalized."""


class FullSpace(QloccError):
    """The input already spans the whole two-qubit space; no orthocomplement."""


class BadDimension(QloccError):
    """A subspace of unexpected dimension was passed."""


class InvalidSet(QloccError):
    """The states fail pairwise orthogonality (or cardinality) validation."""


class IndexOutOfRange(QloccError):
    """State index outside the ensemble."""


class BadCardinality(QloccError):
    """Operation defined only for a specific ensemble cardinality."""


class BadParam(QloccError):
    """A generator parameter lies outside its open interval."""


class BadBounds(QloccError):
    """Sweep grid bounds are outside (0, 1) or have too few steps."""


class ResolutionTooCoarse(QloccError):
    """The grid oracle failed its calibration on a certified-positive case."""


class BadTolerance(QloccError, ValueError):
    """A tolerance is a bool, not a number, not finite, or not positive."""


class BadGrid(QloccError, ValueError):
    """A grid resolution is not an integer, or has too few angle points."""
