"""Contraction engine for axis-exponential kernels.

Every transform stage is one call of :func:`exp_contract`,

    out_k = scale sum_j e^{mu (c y_k x_j + pre(x_j) + post(y_k))} f_j

along one grid axis (on the right of f for a right-multiplied kernel).
With ``e^{mu theta} = cos(theta) + mu sin(theta)`` and ``mu`` acting as a
fixed 4x4 real map ``M`` (left or right multiplication), the sum is ``C +
S M^T`` with ``C = cos(theta) @ f`` and ``S = sin(theta) @ f``: real GEMMs
that keep the exact placement of each factor, ``scale`` in their tables.

x and y are grid axes (centre, spacing, m), nodes centre + m spacing / 2 at
the integers m = 2k - n + 1: every angle is in_j + out_k + K m_k m_j, K = c
dy dx / 4, in_j holding pre and y's centre's terms, out_k post and x's.  A
chirp is (q2, q1, q0) of q2 z^2 + q1 z + q0; each angle hi + lo is formed in
double-double from the given doubles and the exact index products (Dekker,
Numer. Math. 18, 1971) and applied once, as the phasor e^{i hi} (1 + i lo).
The m are mirrored about 0, so f is folded into ``f_j +- f_{n-1-j}`` and
two half-size GEMMs give the first half of the output rows, the mirrored
rows being ``C - S M^T`` (a quarter of the flops of the unfolded product).

A stage streams through bounded blocks that reuse their buffers: column
blocks of the ``(n_in, nt*4)`` view on axis 0, ``ROW_BLOCK`` sample rows
on axis 1, narrowed in proportion on a stage that shrinks its axis and
else to at most a quarter of the field's lines (on small fields a block
would otherwise hold buffers of twice the field).  Each block runs the
input chirp, the fold, the GEMMs, the mu map, the unfold and the output
chirp, and writes straight into the C-order output.  The chirps act on the
nodes before the fold and after the unfold: they need not be even in m.

Narrow kernels have low rank: cos(c y x) on y in [-Y, 0], |x| <= X, is
interpolated by a barycentric matrix L from about w + 10 w^(1/3) Chebyshev
points t in y, w = |c| X Y / 2, for any n (Ruiz-Antolin and Townsend, SIAM
J. Sci. Comput. 40, 2018).  L's closed-form weights are those of the exact
points, not of t as rounded, so a low-rank stage is about 3.5e-15 off the
long-double sum (512 nodes, window 8) where the fold is 9.6e-16 off.
:func:`low_rank` gives L and the points as an axis (m = t, -t and 0 on an
odd axis), onto which a stage is an ordinary folded stage of 2p (+1)
outputs.  L commutes with every later stage, and :func:`interpolate`
applies it with the output chirp to an axis or two at once: the first stage
shrinks its axis, the next runs on the compressed field.

On the natural window a stage is exactly a length-n DFT about the centres of
its grids: as many outputs as inputs and c dx dy n = +-2 pi.  On any n each
block of such a stage runs as FFTs (Ell and Sangwine, IEEE Trans. Image
Process. 16, 2007): an orthogonal 4x4 map P splits each node f = a + b nu, a
and b in span{1, mu} with nu a pure unit normal to mu, and on each of a and
b e^{mu theta} is the complex e^{i theta}, so a block is P, input phasors,
one complex FFT along the nodes, output phasors and P^T.  The phasors hold
the half-sample shifts (index products reduced mod 4n), in_j, out_k and
``scale``.  A phasor on both components is the chirp map cos I + sin M^T,
so each side is one 4x4 map per node, and every block, on either axis, is
the node-first view of DFT_BLOCK = 48 grid lines: a per-node map into its
buffer, the FFT along the nodes there (``out=``, numpy >= 2.0; ``numpy.fft``
loads with the first such stage) and a per-node map into the output.  At n
= 1024 a block's buffer and its output are 1.5 MiB each, about a core's L2
cache (2 MiB), where 64 lines spill it.

Every stage checks the blocks it writes, and transforms do not rescan their
output.  Right after its last write to a block, while the block is in
cache, a stage reduces it once (a dot product on a contiguous block, a sum
on a strided one); only when that is not finite does it test the block
elementwise, and it raises NonFiniteError naming the stage (``contract``,
``interpolate`` or ``chirp``) and the axis.  An FFT block reduces its
contiguous buffer instead, just before the output map: that map is the
stage's scale times an orthogonal map per node, so a finite energy
(scale^2 times the buffer's sum of squares) bounds every output value near
the square root of the largest double, and only a block whose energy is
not finite is tested elementwise.  Stages run with numpy's overflow and
invalid warnings off, so that their checks report an overflow, also where
warnings are errors.

A block reads all of its input before it writes its output, so a stage can
write into the front of its input's memory (``out=field``), also when it
shrinks its axis.  A transform hands every stage and the interpolation one
buffer of its output's size: it allocates one field, and a transform
handed its input (a forward its signal, an inverse its spectrum) none.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import NonFiniteError
from .quaternion import mul_matrix

__all__ = ["exp_contract", "low_rank", "interpolate", "chirp_multiply", "const_multiply"]

#: sample rows per block of an axis-1 stage.  OpenBLAS packs about 2 KB of
#: work buffer per GEMM output row of the row layout (4 per sample row).
ROW_BLOCK = 128
#: real columns of the (n_in, nt*4) view per block of an axis-0 stage
COL_BLOCK = 1024
#: a block spans at most 1 / BLOCK_SHARE of the grid lines across its axis
BLOCK_SHARE = 4
#: input nodes per chunk of a fold (CHUNK / 4 rows of a kernel table, or lines of a chirp)
CHUNK = 64
#: low-rank path: p = w + RANK_SLOPE cbrt(w) + RANK_PAD points per half axis,
#: checked at the CHECK_COLUMNS highest frequencies; runs while
#: p (1/h + 1/m) <= BREAK_EVEN, h and m the input and output half lengths
RANK_SLOPE, RANK_PAD, CHECK_COLUMNS, CHECK_ULPS = 10.0, 6.0, 8, 16
BREAK_EVEN = 1.2
#: FFT path: stages of any length with c dx dy n within DFT_ULPS of +-2 pi,
#: and DFT_BLOCK grid lines per block on either axis (48: of 32 to 64 lines,
#: 40 to 56 ran 1024^2 and 512^2 natural forwards fastest)
DFT_ULPS, DFT_BLOCK = 8, 48


def _two_sum(a, b):
    """(s, e), s + e = a + b exactly (Knuth's two-sum)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _dd(v):
    """v, a double or a double-double, as (hi, lo)."""
    return v if isinstance(v, tuple) else (v, 0.0)


def _add(x, y):
    """x + y of double-doubles (or doubles), the hi parts summed exactly."""
    (xh, xl), (yh, yl) = _dd(x), _dd(y)
    s, e = _two_sum(xh, yh)
    return _two_sum(s, e + (xl + yl))


def _mul_add(x, b, y=0.0):
    """x b + y of double-doubles x, y and doubles b, to about 2^-104: Dekker's
    exact product hi b, no FMA (each factor split in halves by 2^27 + 1)."""
    xh, xl = _dd(x)
    ta, tb = 134217729.0 * xh, 134217729.0 * b
    a1, b1 = ta - (ta - xh), tb - (tb - b)
    a2, b2, p = xh - a1, b - b1, xh * b
    return _add((p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2 + xl * b), y)


def _ratio(a, b):
    """a / b of doubles as a double-double (an exact chirp coefficient)."""
    q = a / b
    return q, -_mul_add(q, b, -a)[0] / b  # the remainder q b - a, exactly


def _chirp(z, chirp, slope=0.0):
    """The angles chirp(v) + slope (v - z0) at the nodes v = z0 + m d / 2 of
    the axis z = (z0, d, m), as double-doubles (hi, lo) by Horner in m."""
    (z0, d, m), h = z, z[1] / 2
    q2, q1, q0 = chirp or (0.0, 0.0, 0.0)
    a1 = _mul_add(_add(_mul_add(q2, 2.0 * z0, q1), slope), h)
    a0 = _mul_add(_mul_add(q2, z0, q1), z0, q0)
    return _mul_add(_mul_add(_mul_add(_mul_add(q2, h), h), m, a1), m, a0)


def _point_chirp(p, c, pre=None, post=None):
    """The chirp in x of c p x + pre(x) + post(p), a stage onto the node p."""
    q2, q1, q0 = pre or (0.0, 0.0, 0.0)
    return q2, _mul_add(c, p, q1), q0 if post is None else _add(_chirp((p, 0, 0), post), q0)


def _phasor(a):
    """e^{i a} of angles a = hi + lo as e^{i hi} (1 + i lo): libm reduces hi,
    and the lo^2 / 2 left out is below 1e-24 for angles up to 1e4 rad."""
    return np.exp(1j * a[0]) * (1.0 + 1j * a[1])


def _maps(mu, left, a):
    """(n, 4, 4) maps ``row -> row @ maps[j]`` of e^{mu a_j}, or None."""
    if a is None:
        return None
    z = _phasor(a)[..., None, None]
    return z.real * np.eye(4) + z.imag * mul_matrix(np.concatenate([[0.0], mu]), left).T


@np.errstate(over="ignore", invalid="ignore")  # the block checks report an overflow
def exp_contract(y, x, c, mu, field, left, axis, pre=None, post=None, scale=1.0, out=None):
    """Contract grid axis `axis` (0 or 1) of a quaternion field (n0, n1, 4),
    in any memory order, into a C-order array, out_k = scale sum_j e^{mu (c
    y_k x_j + pre(x_j) + post(y_k))} f_j, on the output and input axes y and
    x (``GridSpec.axes``, or the points of :func:`low_rank`); c, a double or
    a double-double, carries the kernel's signs, and the kernel and chirps
    multiply from the left or not.  `out` is a buffer the caller owns, its
    contents (`field`'s too) expendable as ``overwrite_x`` in ``scipy.fft``:
    the output fills its memory from the front when it is a C-contiguous
    writeable float64 array that holds it (and, sharing memory with `field`,
    y has no more nodes than the axis), else a new array.  A block of the
    output that is not finite raises NonFiniteError, naming the stage."""
    field = np.asarray(field, dtype=float)
    (y0, dy, my), (x0, dx, mx) = y, x
    a_in = None if pre is None and not y0 else _chirp(x, _point_chirp(y0, c, pre))
    a_out = None if post is None and not x0 else _chirp(y, post, _mul_add(c, x0))
    K = _mul_add(_mul_add(c, dy / 2), dx / 2)
    MT = mul_matrix(np.concatenate([[0.0], mu]), left).T
    tabs = _dft_tables(my.size, mx.size, 4 * mx.size * K[0], mu, left, a_in, a_out, scale)
    kernel, maps, step = _dft, (None, None), DFT_BLOCK
    if tabs is None:
        maps = _maps(mu, left, a_in), _maps(mu, left, a_out)
        # a stage that shrinks its axis narrows its blocks, and with them its buffers;
        # any other spans at most 1 / BLOCK_SHARE of the field's lines
        lines = COL_BLOCK // 4 if axis == 0 else ROW_BLOCK
        step = (max(lines * my.size // mx.size, 1) if my.size < mx.size
                else _lines(lines, field.shape[1 - axis]))
        tabs, half = np.empty((2, my.size // 2, mx.size // 2)), my[:my.size // 2, None]
        for lo in range(0, len(half), CHUNK // 4):  # the GEMMs' tables; built whole, 1.7x slower
            z = _phasor(_mul_add(_mul_add(K, half[lo:lo + CHUNK // 4]), mx[:mx.size // 2]))
            np.multiply((z.real, z.imag), scale, out=tabs[:, lo:lo + CHUNK // 4])
        # here _nodes takes 1.5-1.6x as long on C-order fields (strided node I/O)
        kernel = _rows if axis == 1 and maps[0] is None and maps[1] is None else _nodes
    shape = field.shape[:axis] + (my.size,) + field.shape[axis + 1:]
    out = _reuse(None if my.size > field.shape[axis] and np.may_share_memory(out, field) else out,
                 shape)
    bufs = {}
    for lo in range(0, field.shape[1 - axis], step):
        F, dst = ((a[:, lo:lo + step] if axis == 0 else a[lo:lo + step].swapaxes(0, 1))
                  for a in (field, out))
        if not kernel(F, dst, tabs, scale, *maps, MT, bufs):  # True: _dft proved it finite
            _check(out[:, lo:lo + step] if axis == 0 else out[lo:lo + step], "contract", axis)
    return out


def _dft_tables(n_out, n, turn, mu, left, a_in, a_out, scale):
    """(inverse, input maps, output maps) of an exact length-n DFT stage
    (n_out = n, c dx dy n = `turn` = +-2 pi), or None.  Its angle K m_k m_j
    is +-pi (2k - n + 1)(2j - n + 1) / 2n: the DFT's +-2 pi k j / n and terms
    in j and in k alone, integers times pi / 2n reduced mod 4n, in the
    phasors with in_j and out_k.  P has the columns 1, mu, nu and mu nu (nu
    mu for a right-multiplied kernel, the split being f = a + nu b), and the
    (n, 4, 4) maps are P then the input phasor, the output phasor then P^T."""
    if n < 2 or n_out != n or not (abs(abs(turn) - 2 * np.pi)
                                   <= DFT_ULPS * np.finfo(float).eps * 2 * np.pi):
        return None
    sign = np.sign(turn)
    k = np.arange(n, dtype=np.int64)
    p_in, p_out = (np.exp(1j * sign * np.pi / (2 * n) * ((m + 2 * n) % (4 * n) - 2 * n))
                   for m in (-2 * (n - 1) * k, (n - 1) ** 2 - 2 * (n - 1) * k))
    for phasors, a in ((p_in, a_in), (p_out, a_out)):
        phasors *= 1.0 if a is None else _phasor(a)
    p_out *= scale
    nu = np.cross(mu, np.eye(3)[np.argmin(np.abs(mu))])
    nu /= np.sqrt(nu @ nu)
    P = np.zeros((4, 4))
    P[0, 0], P[1:, 1], P[1:, 2] = 1.0, mu, nu
    P[1:, 3] = np.cross(mu, nu) if left else np.cross(nu, mu)
    # row @ (Re p I + Im p J) multiplies each complex pair of the split by p,
    # and P J P^T = M^T, so P @ that map is the chirp map of p followed by P
    J = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    maps_in, maps_out = (p.real[:, None, None] * np.eye(4) + p.imag[:, None, None] * J
                         for p in (p_in, p_out))
    return sign > 0, P @ maps_in, maps_out @ P.T


def low_rank(y, x, c):
    """(points, L) of a stage onto axis y whose kernel e^{mu c y x} has low
    rank in y, or None: points is y with p Chebyshev points on the first half
    of its m, mirrored (with 0 on an odd axis), and L (len(m) // 2, p) takes
    them to that half (:func:`interpolate`).  w takes max |x| (x0 included)."""
    (y0, dy, my), (x0, dx, mx) = y, x
    h, m, cy = mx.size // 2, my.size // 2, _dd(c)[0] * dy / 2
    if h == 0 or m == 0:
        return None
    # the rule first, from the ends of the axes: full-rank stages allocate nothing
    w = abs(cy) * (abs(x0) + dx / 2 * mx[-1]) * (my[m - 1] - my[0]) / 2
    p = int(np.ceil(w + RANK_SLOPE * np.cbrt(w) + RANK_PAD))
    if p * (h + m) > BREAK_EVEN * h * m:
        return None
    theta = np.pi * (np.arange(p) + 0.5) / p
    t = (my[0] + my[m - 1]) / 2 - (my[m - 1] - my[0]) / 2 * np.cos(theta)
    d = my[:m, None] - t
    d[d == 0] = np.finfo(float).tiny  # an output node on a point: that row of L is e_i
    L = (-1.0) ** np.arange(p) * np.sin(theta) / d
    L /= L.sum(axis=1, keepdims=True)
    xs = np.sort(np.abs(x0 + dx / 2 * mx))[-CHECK_COLUMNS:]  # the error grows with |c x|
    err = max(np.max(np.abs(L @ f(cy * np.outer(t, xs)) - f(cy * np.outer(my[:m], xs))))
              for f in (np.cos, np.sin))
    if not err <= CHECK_ULPS * np.finfo(float).eps * (1.0 + abs(cy) * xs[-1] * abs(my[0])):
        return None
    return (y0, dy, np.concatenate([t, [0.0] * (my.size % 2), -t[::-1]])), L


def _check(block, stage, axis=None):
    """Raise NonFiniteError naming `stage` unless every value of `block`, an
    output block just written and still in cache, is finite: one reduction
    (a dot product on a contiguous block), and the elementwise test only
    when that is not finite, as finite values may overflow it."""
    total = (np.dot(block.ravel(), block.ravel()) if block.flags.c_contiguous
             else np.add.reduce(block, axis=None))
    if not np.isfinite(total) and not np.isfinite(block).all():
        where = "" if axis is None else f" on axis {axis}"
        raise NonFiniteError(f"{stage}{where} gave non-finite values (an overflow, or a "
                             "non-finite input)")


def _lines(limit, across):
    """Grid lines per block of a field `across` lines wide: `limit`, and no
    more than 1 / BLOCK_SHARE of the lines, so that on small fields the block
    buffers stay a share of the field."""
    return max(min(limit, -(-across // BLOCK_SHARE)), 1)


def _buffer(bufs, name, *shape):
    """A C-order view of the reusable buffer `name`."""
    size = math.prod(shape)
    if name not in bufs or bufs[name].size < size:
        bufs[name] = np.empty(size)
    return bufs[name][:size].reshape(shape)


def _reuse(buf, shape):
    """The front of `buf`'s memory as a C-order array of `shape` if `buf` is a
    C-contiguous writeable float64 array that holds it, else a new array."""
    size = math.prod(shape)
    if buf is None or not buf.flags.carray or buf.dtype != np.float64 or buf.size < size:
        return np.empty(shape)
    return buf.reshape(-1)[:size].reshape(shape)


def _fold(F, even, odd, pre):
    """even_j = g_j + g_{n-1-j}, odd_j = g_j - g_{n-1-j} (j < n // 2) of the
    nodes g = f chirped by `pre`, CHUNK nodes at a time."""
    n, h = len(F), len(F) // 2
    for lo in range(0, h, CHUNK):
        hi = min(lo + CHUNK, h)
        a, b, ev, od = F[lo:hi], F[n - hi:n - lo][::-1], even[lo:hi], odd[lo:hi]
        if pre is None:
            np.subtract(a, b, out=od)
            np.add(a, b, out=ev)
        else:
            np.matmul(a, pre[lo:hi], out=ev)
            np.matmul(b, pre[n - hi:n - lo][::-1], out=od)
            np.add(ev, od, out=ev)
            np.multiply(od, -2.0, out=od)
            np.add(od, ev, out=od)


def _dft(F, dst, tabs, scale, pre, post, MT, bufs):
    """One block of an exact-DFT stage on either axis, node axis first: (n, k,
    4) input `F` and output `dst`, which may be `F`.  A per-node map (P and
    the input phasors) writes two complex components a node to the buffer,
    the FFT runs along the nodes there, and a per-node map (the output
    phasors, scale included, then P^T) writes `dst`.  Returns whether the
    block's energy is finite, which proves `dst` finite (module docstring)."""
    inverse, maps_in, maps_out = tabs
    z = np.matmul(F, maps_in, out=_buffer(bufs, "z", *F.shape)).view(complex)
    if inverse:
        np.fft.ifft(z, axis=0, norm="forward", out=z)
    else:
        np.fft.fft(z, axis=0, out=z)
    zf = z.view(float).reshape(-1)
    energy = float(np.dot(zf, zf)) * scale * scale
    np.matmul(z.view(float), maps_out, out=dst)
    return math.isfinite(energy)


def _nodes(F, dst, tabs, scale, pre, post, MT, bufs):
    """One block of a stage, node axis first: (n_in, k, 4) input `F`, (n_out,
    k, 4) output `dst`, which may be `F`.  The GEMMs multiply from the left; a
    chirp is one (k, 4) x (4, 4) product per node, applied to the nodes as
    they are read into the fold and written out of the unfold.  Unchirped
    blocks on axis 0 write the cos GEMM straight into `dst`."""
    (n_in, k, _), n_out = F.shape, dst.shape[0]
    h, m = n_in // 2, n_out // 2
    even, odd = _buffer(bufs, "even", h, k, 4), _buffer(bufs, "odd", h, k, 4)
    mid = (F[h].copy() if pre is None else F[h] @ pre[h]) if n_in % 2 else 0.0
    _fold(F, even, odd, pre)
    direct = post is None and dst.strides[1] == 4 * dst.itemsize  # axis 0
    C = np.matmul(tabs[0], even.reshape(h, k * 4),
                  out=dst[:m].reshape(m, k * 4) if direct else _buffer(bufs, "C", m, k * 4))
    S0 = np.matmul(tabs[1], odd.reshape(h, k * 4), out=_buffer(bufs, "S", m, k * 4))
    S = np.matmul(S0.reshape(-1, 4), MT, out=_buffer(bufs, "odd", m * k, 4))
    C, S, S0 = C.reshape(m, k, 4), S.reshape(m, k, 4), S0.reshape(m, k, 4)
    if n_out % 2:
        centre = scale * (even.sum(axis=0) + mid)
        dst[m] = centre if post is None else centre @ post[m]
    if n_in % 2:
        C += scale * mid
    if post is None:
        np.subtract(C[::-1], S[::-1], out=dst[n_out - m:])
        np.add(C, S, out=dst[:m])
    else:
        np.matmul(np.subtract(C[::-1], S[::-1], out=S0), post[n_out - m:], out=dst[n_out - m:])
        np.matmul(np.add(C, S, out=C), post[:m], out=dst[:m])


def _rows(F, dst, tabs, scale, pre, post, MT, bufs):
    """An axis-1 block without chirps, in row layout: the (k, 4, n)
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
    if n_out % 2:  # read before V, which may share G's memory, is written
        centre = scale * (even.sum(axis=-1) + (G[..., h] if n_in % 2 else 0.0))
    if n_in % 2:
        C += scale * G[..., h:h + 1]
    np.add(C, S, out=V[..., :m])
    np.subtract(C[..., ::-1], S[..., ::-1], out=V[..., n_out - m:])
    if n_out % 2:
        V[..., m] = centre


@np.errstate(over="ignore", invalid="ignore")  # the block checks report an overflow
def interpolate(field, plans, out=None):
    """Take the axes that low-rank stages left on their points to the output
    axes y: ``plans[axis]`` is None or ``(L, y, post, mu, left)``, the output
    chirp acting after L.  Column blocks of COL_BLOCK / 16 grid columns (at
    most a quarter of the output's) run axis 1 and its chirp on the
    compressed rows, then one axis-0 GEMM into the C-order output.  With the
    blocks' buffers freed, :func:`chirp_multiply` then applies the axis-0
    chirp in place to whole rows (1.7x faster than to a block's short rows).
    The output fills `out` as in :func:`exp_contract`, and `field` may sit
    there: it is read through copies, transposed for axis 1, else one column
    block at a time."""
    (a0, a1), (p0, p1) = field.shape[:2], (plan[0].shape[1] if plan else 0 for plan in plans)
    n0, n1 = (a if plan is None else 2 * len(plan[0]) + a % 2 for a, plan in zip((a0, a1), plans))
    out = _reuse(out, (n0, n1, 4))
    L0, L1 = (plan and (plan[0], np.ascontiguousarray(plan[0][::-1])) for plan in plans)
    rows, chirp0 = None, plans[0] is not None and plans[0][2] is not None
    if plans[1] is not None:
        maps = _maps(*plans[1][3:], None if plans[1][2] is None else _chirp(*plans[1][1:3]))
        rows = np.empty((a1, a0, 4))
        for (d1, s1), (d0, s0) in itertools.product(_halves(a1, p1), _halves(a0, p0)):
            rows[d1, d0] = field[s0, s1].swapaxes(0, 1)
    step, bufs = _lines(COL_BLOCK // 16, n1), {}
    for lo in range(0, n1, step):
        k = min(step, n1 - lo)
        dst = out[:, lo:lo + k]
        if rows is None:
            W = _buffer(bufs, "W", a0, k, 4)
            for d0, s0 in _halves(a0, p0):
                W[d0] = field[s0, lo:lo + k]
        else:
            Wt = _buffer(bufs, "Wt", k, a0, 4)
            _interpolate(*L1, rows.reshape(a1, -1), Wt.reshape(k, -1), lo)
            if maps is not None:
                Wt = np.matmul(Wt, maps[lo:lo + k], out=_buffer(bufs, "chirped", k, a0, 4))
            W = dst if L0 is None else _buffer(bufs, "W", a0, k, 4)
            W.swapaxes(0, 1)[...] = Wt
        if L0 is not None:
            _interpolate(*L0, W.reshape(a0, -1), dst.reshape(n0, -1))
        if not chirp0:  # else the axis-0 chirp writes the block last
            _check(dst, "interpolate")
    if not chirp0:
        return out
    rows = bufs = W = Wt = None  # the chirp's overlap copies take their place
    _, y, post, mu, left = plans[0]
    return chirp_multiply(y, post, mu, out, left, 0, out=out)


def _halves(q, p):
    """(destination, source) slice pairs that copy an axis of q points, p on
    each half, into the order :func:`_interpolate` reads: the last p
    reversed.  p = 0 (an axis that is not interpolated) copies as it is."""
    if p == 0:
        return [(slice(None), slice(None))]
    return [(slice(0, q - p), slice(0, q - p)), (slice(q - p, q), slice(q - 1, q - p - 1, -1))]


def _interpolate(L, Lr, src, dst, lo=0):
    """Rows lo:lo + len(dst) of an axis from its points, the rows of `src`: L
    takes the first p (t) to the first half, the centre of an odd axis is
    copied, and Lr = L[::-1] takes the last p (-t, which `src` holds reversed)
    to the second half.  Each half thus sums from the far end inward, and the
    largest terms of rows near the centre, where a centred signal peaks, come
    last (summed the other way, the second half rounds 2x worse there)."""
    (m, p), q, hi = L.shape, len(src), lo + len(dst)
    n = 2 * m + q - 2 * p
    if lo < m:
        np.matmul(L[lo:min(hi, m)], src[:p], out=dst[:min(hi, m) - lo])
    if hi > n - m:
        start = max(lo, n - m)
        np.matmul(Lr[start - (n - m):hi - (n - m)], src[q - p:], out=dst[start - lo:])
    if n % 2 and lo <= m < hi:
        dst[m - lo] = src[p]


@np.errstate(over="ignore", invalid="ignore")  # the block checks report an overflow
def chirp_multiply(x, chirp, mu, field, left, axis, scale=1.0, out=None):
    """Multiply elementwise along grid axis `axis`, its axis `x`, by scale
    e^{mu chirp(x)}: the 4x4 map ``scale (cos(phi) I + sin(phi) M)`` of each
    line, M being left or right multiplication by ``mu``, in batched
    products of CHUNK / 4 lines into a C-order (n0, n1, 4) array, the front
    of `out` when it holds it (see :func:`exp_contract`).  In place, numpy
    copies the input of one product, so a chunk and not the field."""
    field = np.asarray(field, dtype=float)
    maps = scale * _maps(mu, left, _chirp(x, chirp))
    out = _reuse(out, field.shape)
    src, dst = np.moveaxis(field, axis, 0), np.moveaxis(out, axis, 0)
    for lo in range(0, len(src), CHUNK // 4):
        np.matmul(src[lo:lo + CHUNK // 4], maps[lo:lo + CHUNK // 4], out=dst[lo:lo + CHUNK // 4])
        _check(dst[lo:lo + CHUNK // 4], "chirp", axis)
    return out


def const_multiply(q_const, field, left):
    """Multiply the whole field by one quaternion constant (a 4x4 map)."""
    field = np.asarray(field, dtype=float)
    return (field.reshape(-1, 4) @ mul_matrix(q_const, left).T).reshape(field.shape)
