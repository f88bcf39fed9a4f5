"""Exception types shared across the library, and the one argument rule."""

import numbers

import numpy as np


class QHarmonicsError(Exception):
    """Base class for all library-specific errors."""


class InvariantViolationError(QHarmonicsError, ArithmeticError):
    """A computed value broke a bound that the mathematics guarantees."""


# -- arguments, grids, sampling and containers ------------------------------

class NonFiniteError(QHarmonicsError, ValueError):
    """A sampled value, grid parameter or transform parameter is NaN or infinite."""


class InvalidParameterError(QHarmonicsError, ValueError):
    """Argument outside its domain: a non-positive grid spacing or sample
    count, a window extent that is not positive, an axis that is not a
    pure unit quaternion or an axis pair that is not orthogonal, a
    canonical matrix whose determinant is not 1, net cuts that do not
    increase, damping parameters that are not positive and strictly
    decreasing, or an unknown fixture name."""


class ShapeMismatchError(QHarmonicsError, ValueError):
    """Two signals do not share a grid."""


class QsigFormatError(QHarmonicsError, ValueError):
    """Malformed QSIG/QSP container: a bad magic or version byte, a field
    or payload cut short, trailing bytes, or a value the constructors refuse."""


class BadPpmError(QHarmonicsError, ValueError):
    """Malformed or unsupported PPM image."""


# -- variation machinery ----------------------------------------------------

class IndexOutOfRangeError(QHarmonicsError, IndexError):
    """Cell index outside the net."""


# -- transforms -------------------------------------------------------------

class ProvenanceMismatchError(QHarmonicsError, ValueError):
    """A spectrum or kind of another family, or a kind with no inverse."""


class NonRealInputError(QHarmonicsError, ValueError):
    """Operation defined for real-valued fields received quaternion data."""


class SideMismatchError(QHarmonicsError, ValueError):
    """Sided operation applied to a spectrum of the wrong side."""


class DegenerateBError(QHarmonicsError, ValueError):
    """Operation undefined for a degenerate (b = 0) canonical matrix,
    including a fractional-transform angle with sin(angle) = 0, since the
    rotation's b is sin(angle)."""


# -- smoothing / convergence machinery --------------------------------------

class NonConvergentError(QHarmonicsError, ValueError):
    """Extrapolated directional limits failed to settle."""


class NoIntegrableSectionError(QHarmonicsError, ValueError):
    """No grid section with finite truncated 1D mass was found."""


def _require_real(value, name, shape=(), allow_inf=False):
    """The one argument rule of every boundary: `value` as a float64 array.

    `value` is a real number, an array-like of reals of `shape` (any shape
    with None), or, when `name` lists comma-separated names, one real per
    name.  Anything else (a string, None, a complex part) raises
    InvalidParameterError; NaN, and an infinity unless `allow_inf`, raise
    NonFiniteError.  Each message names the argument (the entry, for a
    list of names)."""
    names = name.split(", ")
    shape = (len(names),) if len(names) > 1 else shape
    try:
        arr = np.asarray(value)
        if arr.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in arr.flat):
            arr = arr.astype(float)  # a Fraction, or an int past int64
    except (ValueError, OverflowError):  # a ragged nesting; an int past the float range
        arr = np.asarray(None)
    # a float cast would drop a complex part and parse a string
    if arr.dtype.kind not in "biuf" or shape is not None and arr.shape != shape:
        want = "a real number" if shape == () else f"reals of shape {shape}" if shape else "reals"
        shown = repr(value) if arr.size <= 8 else f"an array of dtype {arr.dtype}"
        raise InvalidParameterError(f"{name} must be {want}, got {shown}")
    arr = arr.astype(float, copy=False)
    # one pass and no mask when the sum is finite; else the entries decide, as
    # finite entries may overflow the sum and an allowed infinity makes it inf
    with np.errstate(over="ignore", invalid="ignore"):
        bad = not np.isfinite(arr.sum()) and (np.isnan(arr) if allow_inf else ~np.isfinite(arr))
    if np.any(bad):
        at = tuple(int(i) for i in np.argwhere(bad)[0])
        name, where = (names[at[0]], "") if len(names) > 1 else (name, f" at index {at}" * bool(at))
        raise NonFiniteError(f"{name} must {'not be NaN' if allow_inf else 'be finite'}, "
                             f"got non-finite {float(arr[at])!r}{where}")
    return arr


def _require_type(value, cls, name, optional=False):
    """InvalidParameterError, naming `name`, unless `value` is a `cls` (or None if `optional`)."""
    if not (isinstance(value, cls) or optional and value is None):
        raise InvalidParameterError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _require_counts(counts, names, least=1):
    """Raise InvalidParameterError, naming `names`, unless each of `counts`
    is an integer (a bool is not) of at least `least`."""
    if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= least
               for n in counts):
        raise InvalidParameterError(
            f"{names} must be integers of at least {least}, got {tuple(counts)!r}")
