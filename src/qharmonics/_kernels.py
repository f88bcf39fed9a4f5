"""Contraction engine for axis-exponential kernels.

Every transform stage is one call of :func:`exp_contract`,

    out_k = scale e^{mu post_k} sum_j e^{mu c y_k x_j} e^{mu pre_j} f_j

along one grid axis (all on the right of f for a right-multiplied
kernel; the factors of one axis commute).  With ``e^{mu theta} =
cos(theta) + mu sin(theta)`` and ``mu`` acting as a fixed 4x4 real map
``M`` (left or right multiplication), the sum is ``C + S M^T`` with
``C = cos(theta) @ f`` and ``S = sin(theta) @ f``: real GEMMs that keep
the exact placement of each factor, ``scale`` baked into their tables.
A chirp is the 4x4 map ``cos(phi) I + sin(phi) M`` of one node.  Midpoint
grids are mirrored about 0, so cos is even and sin odd in x: f is folded
into ``f_j +- f_{n-1-j}`` and two half-size GEMMs give the first half of
the output rows, the mirrored rows being ``C - S M^T`` (a quarter of the
flops of other nodes, which take full-size GEMMs).

A stage streams through bounded blocks that reuse their buffers: column
blocks of the ``(n_in, nt*4)`` view on axis 0, ``ROW_BLOCK`` sample rows
on axis 1.  Each block runs the input chirp, the fold, the GEMMs, the mu
map, the unfold and the output chirp, and writes straight into the
C-order output.  The chirps act on the actual nodes, before the fold and
after the unfold: mirrored nodes agree only to an ulp and chirp phases
reach hundreds of radians, so a chirp shared by mirrored rows loses
accuracy.

A block reads each input node before it writes the output node in the
same place, so a stage that keeps the length of its axis can overwrite
its input (``overwrite=True``).  A transform therefore allocates one
field, in its first stage, and every later stage contracts in place in it.
"""

from __future__ import annotations

import numpy as np

from .quaternion import mul_matrix

__all__ = ["exp_contract", "chirp_multiply", "const_multiply"]

#: tolerance, in ulps of max|x|, within which x[::-1] == -x counts as mirrored
MIRROR_ULPS = 4
#: sample rows per block of an axis-1 stage.  OpenBLAS packs about 2 KB of
#: work buffer per GEMM output row of the row layout (4 per sample row).
ROW_BLOCK = 128
#: real columns of the (n_in, nt*4) view per block of an axis-0 stage
COL_BLOCK = 1024


def _mirrored(x):
    scale = np.max(np.abs(x), initial=0.0)
    return bool(np.all(np.abs(x + x[::-1]) <= MIRROR_ULPS * np.finfo(float).eps * scale))


def _chirp_maps(angles, MT):
    """(n, 4, 4) maps ``row -> row @ maps[j]`` of e^{mu angles_j} (MT = M^T)."""
    phi = np.asarray(angles, dtype=float)[:, None, None]
    return np.cos(phi) * np.eye(4) + np.sin(phi) * MT


def exp_contract(y, x, c, mu, field, left, axis, pre=None, post=None, scale=1.0,
                 overwrite=False):
    """Contract one grid axis of a quaternion field into a C-order array,
    out_k = scale e^{mu post_k} sum_j e^{mu c y_k x_j} e^{mu pre_j} f_j,
    the contracted axis taking the length of ``y``.

    Parameters
    ----------
    y, x : 1D arrays
        Output and input coordinates; ``x`` has the length of axis `axis`.
    c : float
        Scale of the kernel angle, signs included.
    mu : (3,) array
        Pure unit axis of the exponential.
    field : (n0, n1, 4) array
        Quaternion field, in any memory order.
    left : bool
        Kernel and chirps multiply from the left (True) or the right (False).
    axis : int
        Which grid axis of `field` to contract (0 or 1).
    pre, post : 1D arrays, optional
        Chirp angles at the input nodes ``x`` and at the output nodes ``y``.
    scale : float
        Real factor of the whole stage (a quadrature weight).
    overwrite : bool
        The caller owns `field`, and its contents may be destroyed (as
        ``overwrite_x`` in ``scipy.fft``).  The output is then written into
        `field` when it is a C-contiguous writeable float64 array and
        ``len(y) == field.shape[axis]``; otherwise a new array is allocated.
        Transforms pass it on every stage after the first, so each one
        allocates a single field.
    """
    y, x, field = (np.asarray(a, dtype=float) for a in (y, x, field))
    MT = mul_matrix(np.concatenate([[0.0], mu]), left).T
    maps = [None if phi is None else _chirp_maps(phi, MT) for phi in (pre, post)]
    folded = _mirrored(x) and _mirrored(y)
    theta = np.outer(c * y[:y.size // 2], x[:x.size // 2]) if folded else np.outer(c * y, x)
    tabs = (scale * np.cos(theta), scale * np.sin(theta))
    if overwrite and field.flags.carray and y.size == field.shape[axis]:
        out = field
    else:
        out = np.empty(field.shape[:axis] + (y.size,) + field.shape[axis + 1:])
    # here _nodes takes 1.5-1.6x as long on C-order fields (strided node I/O)
    rows = axis == 1 and folded and pre is None and post is None
    bufs = {}
    step = max(COL_BLOCK // 4, 1) if axis == 0 else ROW_BLOCK
    for lo in range(0, field.shape[1 - axis], step):
        F, dst = ((a[:, lo:lo + step] if axis == 0 else a[lo:lo + step].swapaxes(0, 1))
                  for a in (field, out))
        (_rows if rows else _nodes)(F, dst, tabs, folded, scale, *maps, MT, bufs)
    return out


def _buffer(bufs, name, *shape):
    """A C-order view of the reusable buffer `name`."""
    size = int(np.prod(shape))
    if name not in bufs or bufs[name].size < size:
        bufs[name] = np.empty(size)
    return bufs[name][:size].reshape(shape)


def _nodes(F, dst, tabs, folded, scale, pre, post, MT, bufs):
    """One block of a stage, node axis first: (n_in, k, 4) input `F`, (n_out,
    k, 4) output `dst`.  The GEMMs multiply from the left; a chirp is one
    (k, 4) x (4, 4) product per node, applied to the nodes themselves as
    they are read into the fold and written out of the unfold."""
    (n_in, k, _), n_out = F.shape, dst.shape[0]
    h, m = (n_in // 2, n_out // 2) if folded else (n_in, n_out)
    even = _buffer(bufs, "even", h, k, 4)
    odd = _buffer(bufs, "odd", h, k, 4) if folded else even
    # a copy: `dst` may be `F` itself, and dst[m] is F[h] when n_out == n_in
    mid = F[h].copy() if folded and n_in % 2 else 0.0
    if not folded:
        even = odd = F if pre is None else np.matmul(F, pre, out=even)
    elif pre is None:
        np.add(F[:h], F[n_in - h:][::-1], out=even)
        np.subtract(F[:h], F[n_in - h:][::-1], out=odd)
    else:  # chirp the actual nodes, then fold in place
        np.matmul(F[:h], pre[:h], out=even)
        np.matmul(F[n_in - h:][::-1], pre[n_in - h:][::-1], out=odd)
        even += odd
        odd *= -2.0
        odd += even
        if n_in % 2:
            mid = F[h] @ pre[h]
    C = np.matmul(tabs[0], even.reshape(h, k * 4), out=_buffer(bufs, "C", m, k * 4))
    S0 = np.matmul(tabs[1], odd.reshape(h, k * 4), out=_buffer(bufs, "S", m, k * 4))
    S = np.matmul(S0.reshape(-1, 4), MT, out=_buffer(bufs, "odd", m * k, 4))
    C, S, S0 = C.reshape(m, k, 4), S.reshape(m, k, 4), S0.reshape(m, k, 4)
    if folded and n_out % 2:
        centre = scale * (even.sum(axis=0) + mid)
        dst[m] = centre if post is None else centre @ post[m]
    if folded and n_in % 2:
        C += scale * mid
    if post is None:
        if folded:
            np.subtract(C[::-1], S[::-1], out=dst[n_out - m:])
        np.add(C, S, out=dst[:m])
    else:
        if folded:
            np.matmul(np.subtract(C[::-1], S[::-1], out=S0), post[n_out - m:], out=dst[n_out - m:])
        np.matmul(np.add(C, S, out=C), post[:m], out=dst[:m])


def _rows(F, dst, tabs, folded, scale, pre, post, MT, bufs):
    """A folded axis-1 block without chirps, in row layout: the (k, 4, n)
    view of its k sample rows stays in cache, and the GEMMs multiply its
    (k*4, n/2) folds from the right."""
    G, V = F.transpose(1, 2, 0), dst.transpose(1, 2, 0)
    k, n_in, n_out = G.shape[0], G.shape[2], V.shape[2]
    h, m = n_in // 2, n_out // 2
    flip = G[..., n_in - h:][..., ::-1]
    even = np.add(G[..., :h], flip, out=_buffer(bufs, "even", k, 4, h))
    odd = np.subtract(G[..., :h], flip, out=_buffer(bufs, "odd", k, 4, h))
    C = np.matmul(even.reshape(k * 4, h), tabs[0].T, out=_buffer(bufs, "C", k * 4, m))
    S = np.matmul(odd.reshape(k * 4, h), tabs[1].T, out=_buffer(bufs, "S", k * 4, m))
    S = np.matmul(MT.T, S.reshape(k, 4, m), out=_buffer(bufs, "odd", k, 4, m))
    C = C.reshape(k, 4, m)
    if n_in % 2:
        C += scale * G[..., h:h + 1]
    np.add(C, S, out=V[..., :m])
    np.subtract(C[..., ::-1], S[..., ::-1], out=V[..., n_out - m:])
    if n_out % 2:
        V[..., m] = scale * (even.sum(axis=-1) + (G[..., h] if n_in % 2 else 0.0))


def chirp_multiply(angles, mu, field, left, axis, scale=1.0):
    """Multiply elementwise along one grid axis by scale * e^{mu*angles}.

    `angles` is 1D with the length of grid axis `axis`.  Each line of the
    field is mapped by the 4x4 real matrix ``scale (cos(phi) I + sin(phi) M)``,
    M being left or right multiplication by ``mu``: one batched product into
    a C-order (n0, n1, 4) array.
    """
    field = np.asarray(field, dtype=float)
    maps = scale * _chirp_maps(angles, mul_matrix(np.concatenate([[0.0], mu]), left).T)
    out = np.empty(field.shape)
    np.matmul(np.moveaxis(field, axis, 0), maps, out=np.moveaxis(out, axis, 0))
    return out


def const_multiply(q_const, field, left):
    """Multiply the whole field by one quaternion constant (a 4x4 map)."""
    field = np.asarray(field, dtype=float)
    return (field.reshape(-1, 4) @ mul_matrix(q_const, left).T).reshape(field.shape)
