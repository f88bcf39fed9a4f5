"""The one argument rule, `errors._require_real`, on the inputs numpy cannot
turn into a float array by itself."""

from fractions import Fraction

import numpy as np
import pytest

from qharmonics.errors import InvalidParameterError, _require_real


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


def test_the_refusal_names_the_argument_and_takes_the_callers_error():
    class Custom(InvalidParameterError):
        pass

    with pytest.raises(Custom, match="^point must be reals of shape"):
        _require_real([[1.0], [2.0, 3.0]], "point", Custom, shape=(2,))
