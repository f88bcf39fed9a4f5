"""The library's error classes, pinned, and the one argument rule,
`errors._require_real`, on the inputs numpy cannot turn into a float array
by itself."""

from fractions import Fraction

import numpy as np
import pytest

from qharmonics import errors
from qharmonics.errors import InvalidParameterError, NonFiniteError, _require_real

#: the error classes, one per rule, pinned: a class joins or leaves ``errors`` only on purpose
ERROR_CLASSES = [
    "BadPpmError", "DegenerateBError", "IndexOutOfRangeError", "InvalidParameterError",
    "InvariantViolationError", "NoIntegrableSectionError", "NonConvergentError",
    "NonFiniteError", "NonRealInputError", "ProvenanceMismatchError", "QHarmonicsError",
    "QsigFormatError", "ShapeMismatchError", "SideMismatchError",
]


def test_the_error_class_set_is_pinned():
    classes = [v for v in vars(errors).values()
               if isinstance(v, type) and issubclass(v, errors.QHarmonicsError)]
    assert sorted(c.__name__ for c in classes) == ERROR_CLASSES


@pytest.mark.parametrize("value, want", [
    (Fraction(1, 3), 1 / 3),
    (2 ** 70, 2.0 ** 70),
    ([Fraction(1, 2), 2 ** 64], [0.5, 2.0 ** 64]),
], ids=["fraction", "int-past-int64", "mixed-list"])
def test_reals_numpy_holds_as_objects_are_taken_as_floats(value, want):
    got = _require_real(value, "x", shape=None)
    assert got.dtype == np.float64 and got.tolist() == want


@pytest.mark.parametrize("value", [[[1.0, 2.0], [3.0]], 10 ** 400, [1.0, 10 ** 400]],
                         ids=["ragged", "int-past-float-range", "list-with-huge-int"])
def test_ragged_nestings_and_ints_past_the_float_range_are_refused(value):
    with pytest.raises(InvalidParameterError, match="^x must be "):
        _require_real(value, "x", shape=None)


def test_the_refusal_names_the_argument():
    with pytest.raises(InvalidParameterError, match=r"^point must be reals of shape \(2,\)"):
        _require_real([[1.0], [2.0, 3.0]], "point", shape=(2,))


def test_finite_entries_whose_sum_overflows_pass_and_infinities_pass_when_allowed():
    """The finite check sums the array once; a sum that is not finite hands
    the decision to the entries, so finite entries past half the float range
    pass, an infinity passes under allow_inf, and NaN never does."""
    big = np.full((3, 2), np.finfo(float).max)
    big[1, 0] = -big[1, 0]
    assert np.array_equal(_require_real(big, "x", shape=None), big)
    both = np.array([1.0, np.inf, -np.inf, 2.0])
    assert np.array_equal(_require_real(both, "x", shape=None, allow_inf=True), both)
    with pytest.raises(NonFiniteError, match=r"^x must be finite, got non-finite inf at index"):
        _require_real(both, "x", shape=None)
    with pytest.raises(NonFiniteError, match=r"^x must not be NaN, got non-finite nan at index"):
        _require_real([1.0, np.inf, np.nan], "x", shape=None, allow_inf=True)
