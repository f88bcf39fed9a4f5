"""Built-in analytic test signals.

Each fixture is a callable ``fn(S, T)`` over broadcastable coordinate
arrays, returning either a real field or a quaternion ``(..., 4)``
array, suitable for :func:`qharmonics.grids.sample` and for the
pointwise machinery that needs off-grid evaluations.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError

__all__ = ["gaussian", "scaled_gaussian", "qgaussian", "indicator",
           "FIXTURES", "get_fixture", "sinc_rect"]

#: fixed quaternion coefficient of the quaternion-valued Gaussian
QGAUSS_COEFF = np.array([0.8, -0.3, 0.5, 0.1])


def gaussian(S, T):
    """Unit-amplitude Gaussian e^{-(s^2+t^2)} (real)."""
    return np.exp(-(np.asarray(S) ** 2 + np.asarray(T) ** 2))


def scaled_gaussian(alpha=0.5, amplitude=1.0 / (4.0 * np.pi ** 2)):
    """Gaussian ``amplitude * e^{-alpha (s^2+t^2)}`` as a fixture callable.

    The defaults give the signal whose two-sided transform is the heat
    kernel (1/(4 pi alpha)) e^{-(u^2+v^2)/(4 alpha)}.
    """
    def fn(S, T):
        return amplitude * np.exp(-alpha * (np.asarray(S) ** 2 + np.asarray(T) ** 2))
    return fn


def qgaussian(S, T):
    """Quaternion constant times the unit Gaussian (all four parts active)."""
    g = gaussian(S, T)
    out = np.empty(g.shape + (4,))
    for k in range(4):
        np.multiply(g, QGAUSS_COEFF[k], out=out[..., k])
    return out


def indicator(S, T):
    """Indicator of the square [-1, 1]^2."""
    S = np.asarray(S)
    T = np.asarray(T)
    return ((np.abs(S) <= 1.0) & (np.abs(T) <= 1.0)) * np.ones(np.broadcast(S, T).shape)


FIXTURES = {
    "gaussian": gaussian,
    "qgaussian": qgaussian,
    "indicator": indicator,
    "heatgauss": scaled_gaussian(),
}


def get_fixture(name):
    try:
        return FIXTURES[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown fixture {name!r}; choose from {sorted(FIXTURES)}") from None


def sinc_rect(name, point, decay_radius=8.0):
    """Truncation rectangle for the sinc-convolution path at a point.

    The indicator has exact support, so the rectangle is tight; smooth
    fixtures get a decay radius where their tails are negligible.
    """
    x0, y0 = point
    if name == "indicator":
        return (x0 - 1.0, x0 + 1.0, y0 - 1.0, y0 + 1.0)
    return (x0 - decay_radius, x0 + decay_radius,
            y0 - decay_radius, y0 + decay_radius)
