"""Contraction engine for axis-exponential kernels.

Every transform stage is ``out_k = sum_j e^{mu c y_k x_j} f_j`` along one
grid axis (:func:`exp_contract`), possibly between elementwise chirps
``e^{mu phi(x)}`` (:func:`chirp_multiply`).  With ``e^{mu theta} =
cos(theta) + mu sin(theta)`` and ``mu`` acting as a fixed 4x4 real map
``M`` (left or right multiplication), a stage is ``C + S M^T`` with
``C = cos(theta) @ f`` and ``S = sin(theta) @ f``: real GEMMs that keep
the exact placement of each factor.  Midpoint grids are mirrored about
0, so cos is even and sin odd in x: f is folded into ``f_j +- f_{n-1-j}``
and two half-size GEMMs give the first half of the output rows, the
mirrored rows being ``C - S M^T`` (a quarter of the dense flops).  Other
nodes take one GEMM with ``[cos; sin]`` stacked.
"""

from __future__ import annotations

import numpy as np

from .quaternion import mul_matrix, mul_pure

__all__ = ["exp_contract", "chirp_multiply", "const_multiply"]

#: tolerance, in ulps of max|x|, within which x[::-1] == -x counts as mirrored
MIRROR_ULPS = 4


def _mirrored(x):
    scale = np.max(np.abs(x), initial=0.0)
    return bool(np.all(np.abs(x + x[::-1]) <= MIRROR_ULPS * np.finfo(float).eps * scale))


def exp_contract(y, x, c, mu, field, left, axis):
    """Contract one grid axis: out_k = sum_j e^{mu c y_k x_j} f_j.

    Parameters
    ----------
    y, x : 1D arrays
        Output and input coordinates; ``x`` has the length of axis `axis`.
    c : float
        Scale of the kernel angle, signs included.
    mu : (3,) array
        Pure unit axis of the exponential.
    field : (..., 4) array
        Quaternion field.
    left : bool
        Kernel multiplies from the left (True) or the right (False).
    axis : int
        Which grid axis of `field` to contract (0 or 1 for 2D fields).

    Returns
    -------
    array with the contracted axis replaced by ``len(y)``, same position.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    F = np.moveaxis(np.asarray(field, dtype=float), axis, 0)
    n_in, n_out, rest = x.size, y.size, F.shape[1:]
    out = np.empty((n_out,) + rest)
    if _mirrored(x) and _mirrored(y):
        h, m = n_in // 2, n_out // 2
        theta = np.outer(c * y[:m], x[:h])
        flip = F[n_in - h:][::-1]
        even = np.add(F[:h], flip, out=np.empty((h,) + rest))
        odd = np.subtract(F[:h], flip, out=np.empty((h,) + rest))
        width = F[0].size  # explicit: h is 0 for a single node
        C = (np.cos(theta) @ even.reshape(h, width)).reshape((m,) + rest)
        S = mul_pure(mu, (np.sin(theta) @ odd.reshape(h, width)).reshape((m,) + rest), left)
        if n_in % 2:
            C += F[h]
        np.add(C, S, out=out[:m])
        np.subtract(C[::-1], S[::-1], out=out[n_out - m:])
        if n_out % 2:
            out[m] = even.sum(axis=0) + (F[h] if n_in % 2 else 0.0)
    else:
        theta = np.outer(c * y, x)
        CS = np.concatenate([np.cos(theta), np.sin(theta)]) @ F.reshape(n_in, -1)
        CS = CS.reshape((2, n_out) + rest)
        np.add(CS[0], mul_pure(mu, CS[1], left), out=out)
    return np.moveaxis(out, 0, axis)


def chirp_multiply(angles, mu, field, left, axis, scale=1.0):
    """Multiply elementwise along one grid axis by scale * e^{mu*angles}.

    `angles` is 1D with the length of grid axis `axis`.  Each line of the
    field is mapped by the 4x4 real matrix ``scale (cos(phi) I + sin(phi) M)``,
    M being left or right multiplication by ``mu``: one batched product.
    """
    F = np.moveaxis(np.asarray(field, dtype=float), axis, 0)
    phi = np.asarray(angles, dtype=float).reshape((-1,) + (1,) * (F.ndim - 1))
    M = mul_matrix(np.concatenate([[0.0], mu]), left)
    maps = scale * (np.cos(phi) * np.eye(4) + np.sin(phi) * M)
    return np.moveaxis(F @ np.swapaxes(maps, -1, -2), 0, axis)


def const_multiply(q_const, field, left):
    """Multiply the whole field by one quaternion constant (a 4x4 map)."""
    field = np.asarray(field, dtype=float)
    return (field.reshape(-1, 4) @ mul_matrix(q_const, left).T).reshape(field.shape)
