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

Axis 1 of a C-order ``(ns, nt, 4)`` field is folded in row layout: the
``(b, 4, nt)`` view of a block of b sample rows stays in cache, the GEMMs
multiply its ``(b*4, h)`` folds from the right, and the unfold writes
straight into a C-order output, so the stage neither copies its input
into the moved layout nor returns a strided view for the caller to copy
again.  A field whose axis 1 is outermost in memory (what an axis-1
chirp returns) is folded along that axis, where it is already contiguous.
"""

from __future__ import annotations

import numpy as np

from .quaternion import mul_matrix, mul_pure

__all__ = ["exp_contract", "chirp_multiply", "const_multiply"]

#: tolerance, in ulps of max|x|, within which x[::-1] == -x counts as mirrored
MIRROR_ULPS = 4
#: sample rows per block of the axis-1 row layout.  OpenBLAS packs about
#: 2 KB of its work buffer per GEMM output row (4 per sample row); one
#: unblocked 1024^2 axis-1 stage touched 7 MB more of it than axis 0 does.
ROW_BLOCK = 128


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
    field = np.asarray(field, dtype=float)
    mirrored = _mirrored(x) and _mirrored(y)
    if mirrored and axis == 1 and field.ndim == 3 and field.flags.c_contiguous:
        return _contract_rows(y, x, c, mu, field, left)
    F = np.moveaxis(field, axis, 0)
    n_in, n_out, rest = x.size, y.size, F.shape[1:]
    out = np.empty((n_out,) + rest)
    if mirrored:
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


def _contract_rows(y, x, c, mu, field, left):
    """Mirrored contraction along axis 1 of a C-order (ns, nt, 4) field, in
    row layout (module docstring), ROW_BLOCK sample rows at a time."""
    ns, n_in, n_out = field.shape[0], x.size, y.size
    h, m = n_in // 2, n_out // 2
    theta = np.outer(c * y[:m], x[:h])
    cos_t, sin_t = np.cos(theta).T, np.sin(theta).T
    M = mul_matrix(np.concatenate([[0.0], mu]), left)
    out = np.empty((ns, n_out, 4))
    for lo in range(0, ns, ROW_BLOCK):
        G = np.swapaxes(field[lo:lo + ROW_BLOCK], 1, 2)
        rows = np.swapaxes(out[lo:lo + ROW_BLOCK], 1, 2)
        b = G.shape[0]
        flip = G[..., n_in - h:][..., ::-1]
        even = np.add(G[..., :h], flip, out=np.empty((b, 4, h)))
        odd = np.subtract(G[..., :h], flip, out=np.empty((b, 4, h)))
        C = (even.reshape(b * 4, h) @ cos_t).reshape(b, 4, m)
        S = M @ (odd.reshape(b * 4, h) @ sin_t).reshape(b, 4, m)
        if n_in % 2:
            C += G[..., h:h + 1]
        np.add(C, S, out=rows[..., :m])
        np.subtract(C[..., ::-1], S[..., ::-1], out=rows[..., n_out - m:])
        if n_out % 2:
            rows[..., m] = even.sum(axis=-1) + (G[..., h] if n_in % 2 else 0.0)
    return out


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
