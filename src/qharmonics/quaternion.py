"""Quaternion arithmetic over numpy arrays.

Quaternions are stored as float64 arrays whose last axis has length 4,
ordered ``[w, x, y, z]`` for ``w + x i + y j + z k``.  All operations
broadcast over leading axes, so a single quaternion is a shape ``(4,)``
array and a sampled quaternion field is ``(ns, nt, 4)``.  Everything here
is pure and allocation-only; values are never mutated in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotOrthogonalError, NotPureError, NotUnitError, _require_real

__all__ = [
    "quat",
    "qmul",
    "qconj",
    "qabs",
    "qinv",
    "qexp_pure",
    "mul_matrix",
    "pure_unit",
    "AxisPair",
    "CANONICAL_AXES",
    "axis_components",
]

#: slack within which an axis vector is silently renormalized to unit length
UNIT_SLACK = 1e-9
#: tolerance for purity / orthogonality of axis pairs
AXIS_TOL = 1e-12


def quat(w=0.0, x=0.0, y=0.0, z=0.0):
    """Build a quaternion array from broadcastable components."""
    return np.stack(np.broadcast_arrays(
        np.asarray(w, dtype=float), np.asarray(x, dtype=float),
        np.asarray(y, dtype=float), np.asarray(z, dtype=float)), axis=-1)


def qmul(p, q):
    """Hamilton product of two quaternion arrays (broadcasting).

    Non-commutative; ``qmul(p, q)`` is ``p * q`` with the left factor
    first.  Satisfies ``|p q| = |p| |q|``.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack([
        pw * qw - px * qx - py * qy - pz * qz,
        pw * qx + px * qw + py * qz - pz * qy,
        pw * qy - px * qz + py * qw + pz * qx,
        pw * qz + px * qy - py * qx + pz * qw,
    ], axis=-1)


def qconj(q):
    """Quaternion conjugate: negate the i, j, k parts."""
    q = np.asarray(q, dtype=float)
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def qabs(q):
    """Modulus |q| = sqrt(w^2 + x^2 + y^2 + z^2), shape (...)."""
    w, x, y, z = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    # the order of np.sum(q * q, axis=-1), bit for bit, without a (..., 4) square
    return np.sqrt(((w * w + x * x) + y * y) + z * z)


def qinv(q):
    """Multiplicative inverse conj(q) / |q|^2 (the only division used here)."""
    q = np.asarray(q, dtype=float)
    n2 = np.sum(q * q, axis=-1, keepdims=True)
    return qconj(q) / n2


def qexp_pure(mu, theta):
    """Exponential ``e^{mu * theta} = cos(theta) + mu sin(theta)``.

    Parameters
    ----------
    mu : (3,) array
        Pure unit axis (validated via :func:`pure_unit` by callers).
    theta : scalar or array
        Angle(s); output shape is ``theta.shape + (4,)``.
    """
    mu = np.asarray(mu, dtype=float)
    theta = np.asarray(theta, dtype=float)
    c = np.cos(theta)
    s = np.sin(theta)
    return np.stack([c, s * mu[0], s * mu[1], s * mu[2]], axis=-1)


def mul_matrix(q, left=True):
    """4x4 real matrix M of ``p -> q p`` (left) or ``p -> p q`` (right).

    Applied to a field as ``p @ M.T``; fixed-factor products become one
    small real matrix product instead of a component-wise Hamilton product.
    """
    w, x, y, z = np.asarray(q, dtype=float)
    if left:
        return np.array([[w, -x, -y, -z], [x, w, -z, y], [y, z, w, -x], [z, -y, x, w]])
    return np.array([[w, -x, -y, -z], [x, w, z, -y], [y, -z, w, x], [z, y, -x, w]])


# bench/spans.py wraps this name, which nothing calls; it goes when the bench
# reads a stage trace (ROADMAP 1b)
def mul_pure(mu, q, left=True):
    q = np.asarray(q, dtype=float)
    M = mul_matrix(np.concatenate([[0.0], mu]), left)
    return (q.reshape(-1, 4) @ M.T).reshape(q.shape)


def pure_unit(v):
    """Validate (and gently normalize) a pure unit quaternion axis.

    Accepts a 3-vector ``(x, y, z)`` or a 4-component quaternion whose
    scalar part must vanish.  Vectors whose norm is within ``1e-9`` of 1
    are renormalized exactly; anything further off raises.

    Raises
    ------
    InvalidParameterError, NonFiniteError
        A component that is not a real number, or not finite.
    NotPureError
        4-component input with |scalar part| > 1e-12.
    NotUnitError
        Norm differs from 1 by more than the normalization slack.
    """
    v = _require_real(v, "axis", shape=None)
    if v.shape == (4,):
        if abs(v[0]) > AXIS_TOL:
            raise NotPureError(f"scalar part {v[0]!r} is nonzero")
        v = v[1:]
    if v.shape != (3,):
        raise NotPureError(f"expected 3 or 4 components, got shape {v.shape}")
    n = float(np.sqrt(v @ v))
    if abs(n - 1.0) > UNIT_SLACK:
        raise NotUnitError(f"axis norm {n!r} is not 1 within {UNIT_SLACK}")
    return v / n


@dataclass(frozen=True)
class AxisPair:
    """Two orthogonal pure unit axes generalizing the canonical (i, j).

    Construction validates both axes via :func:`pure_unit` and their
    orthogonality to 1e-12.  ``mu3`` is the product ``mu1 * mu2``, the
    third pure unit completing the induced orthonormal basis
    ``{1, mu1, mu2, mu1*mu2}`` of the quaternions.
    """

    mu1: np.ndarray
    mu2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mu1", pure_unit(self.mu1))
        object.__setattr__(self, "mu2", pure_unit(self.mu2))
        dot = float(self.mu1 @ self.mu2)
        if abs(dot) > AXIS_TOL:
            raise NotOrthogonalError(f"axis dot product {dot!r} is nonzero")

    @property
    def mu3(self):
        # mu1*mu2 = (-mu1.mu2, mu1 x mu2) and the scalar part vanishes here
        return np.cross(self.mu1, self.mu2)

    def __eq__(self, other):
        if not isinstance(other, AxisPair):
            return NotImplemented
        return np.array_equal(self.mu1, other.mu1) and np.array_equal(self.mu2, other.mu2)


#: the canonical (i, j) axis pair of the classical transforms
CANONICAL_AXES = AxisPair(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))


def axis_components(q, axes: AxisPair):
    """Coordinates of ``q`` in the orthonormal basis {1, mu1, mu2, mu1*mu2}.

    Returns four real arrays ``(a0, a1, a2, a3)`` with
    ``q = a0 + a1 mu1 + a2 mu2 + a3 mu1 mu2``.
    """
    q = np.asarray(q, dtype=float)
    v = q[..., 1:]
    return q[..., 0], v @ axes.mu1, v @ axes.mu2, v @ axes.mu3

