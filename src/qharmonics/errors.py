"""Exception types shared across the library."""


class QHarmonicsError(Exception):
    """Base class for all library-specific errors."""


class InvariantViolationError(QHarmonicsError, ArithmeticError):
    """A computed value broke a bound that the mathematics guarantees."""


# -- axis / quaternion validation ------------------------------------------

class NotUnitError(QHarmonicsError, ValueError):
    """Axis vector is not of unit modulus (beyond the normalization slack)."""


class NotPureError(QHarmonicsError, ValueError):
    """Quaternion offered as a transform axis has a nonzero scalar part."""


class NotOrthogonalError(QHarmonicsError, ValueError):
    """The two transform axes are not orthogonal."""


# -- grids, sampling and containers ----------------------------------------

class NonFiniteError(QHarmonicsError, ValueError):
    """A sampled value, grid parameter or transform parameter is NaN or infinite."""


class InvalidParameterError(QHarmonicsError, ValueError):
    """Argument outside its domain: a non-positive grid spacing or sample
    count, a canonical matrix whose determinant is not 1, net cuts that
    do not increase, damping parameters that are not positive and
    strictly decreasing, or an unknown fixture name."""


class ShapeMismatchError(QHarmonicsError, ValueError):
    """Two signals do not share a grid."""


class QsigFormatError(QHarmonicsError, ValueError):
    """Malformed QSIG/QSP container."""


class BadMagicError(QsigFormatError):
    pass


class BadVersionError(QsigFormatError):
    pass


class TruncatedPayloadError(QsigFormatError):
    pass


class BadPpmError(QHarmonicsError, ValueError):
    """Malformed or unsupported PPM image."""


# -- variation machinery ----------------------------------------------------

class IndexOutOfRangeError(QHarmonicsError, IndexError):
    """Cell index outside the net."""


# -- transforms -------------------------------------------------------------

class InvalidWindowError(QHarmonicsError, ValueError):
    """Frequency window with non-positive extent or too few samples."""


class ProvenanceMismatchError(QHarmonicsError, ValueError):
    """Spectrum provenance does not match the transform kind supplied."""


class NonRealInputError(QHarmonicsError, ValueError):
    """Operation defined for real-valued fields received quaternion data."""


class SideMismatchError(QHarmonicsError, ValueError):
    """Sided operation applied to a spectrum of the wrong side."""


class DegenerateBError(QHarmonicsError, ValueError):
    """Operation undefined for a degenerate (b = 0) canonical matrix."""


class DegenerateAngleError(QHarmonicsError, ValueError):
    """Fractional-transform angle with sin(angle) = 0."""


# -- smoothing / convergence machinery --------------------------------------

class NonPositiveWindowError(QHarmonicsError, ValueError):
    """Partial-sum window extents must be positive."""


class NonConvergentError(QHarmonicsError, ValueError):
    """Extrapolated directional limits failed to settle."""


class NoIntegrableSectionError(QHarmonicsError, ValueError):
    """No grid section with finite truncated 1D mass was found."""
