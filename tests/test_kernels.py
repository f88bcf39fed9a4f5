"""The contraction primitive against dense evaluations of the same sum.

Every grid axis takes the folded path, or the FFT where a stage is an exact
DFT; a shifted axis runs about its centre, the centre's terms joining the
angles at the nodes.  The dense references take each node from its index,
centre + m spacing / 2, and each kernel entry's whole angle as an exact sum
(or in long double).
"""


import itertools
import re

import numpy as np
import pytest

from oracles import qft_bruteforce, qlct_bruteforce
from qharmonics import _kernels
from qharmonics.fixtures import qgaussian
from qharmonics._kernels import chirp_multiply, const_multiply, exp_contract, interpolate
from qharmonics.errors import NonFiniteError
from qharmonics.grids import GridSpec, QSignal2D, QSpectrum2D
from qharmonics import qft as qft_module
from qharmonics.qft import FreqWindow, QftKind, Side, _stages, qft_forward, qft_inverse
from qharmonics.qlct import LctKind, LctParams, qlct_forward, qlct_inverse
from qharmonics.quaternion import AxisPair, mul_matrix, qexp_pure, qmul

MU = np.array([0.0, 0.6, 0.8])


def _two_sum(a, b):
    """a + b as an unevaluated sum s + e, exact (Knuth's two-sum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a, b):
    """a * b as an unevaluated sum p + e, exact (Dekker's product)."""
    def split(v):
        t = 134217729.0 * v  # 2^27 + 1
        hi = t - (t - v)
        return hi, v - hi
    p = a * b
    (a1, a2), (b1, b2) = split(a), split(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _pair(v):
    return v if isinstance(v, tuple) else (v, 0.0)


def _mul(a, b):
    """a b of exact sums (hi, lo) or doubles, to about 2^-100 relative."""
    (a0, a1), (b0, b1) = _pair(a), _pair(b)
    p, e = _two_prod(a0, b0)
    return _two_sum(p, e + (a0 * b1 + a1 * b0))


def _add(*terms):
    s, e = _pair(terms[0])
    for t0, t1 in map(_pair, terms[1:]):
        s, e2 = _two_sum(s, t0)
        e = e + e2 + t1
    return _two_sum(s, e)


def exact_nodes(axis):
    """The nodes centre + m spacing / 2 of a grid axis as exact sums (hi, lo)."""
    centre, spacing, m = axis
    return _add(centre, _two_prod(m, spacing / 2))


def exact_chirp(chirp, z):
    """q2 z^2 + q1 z + q0 at the exact sums z (None: 0)."""
    q2, q1, q0 = chirp or (0.0, 0.0, 0.0)
    return _add(_mul(_mul(q2, z), z), _mul(q1, z), q0)


def grid_axis(centre, extent, n):
    """The axis of n midpoint nodes of [centre - extent, centre + extent]."""
    return GridSpec(centre - extent, 0.0, 2.0 * extent / n, 1.0, n, 1).axes[0]


def nodes(axis):
    """The double nodes of an axis, as ``GridSpec.s`` gives them."""
    return axis[0] + axis[2] * (axis[1] / 2)


def brute_contract(y, x, c, mu, field, left, axis, pre=None, post=None, scale=1.0):
    """scale sum_j e^{mu (c y_k x_j + pre(x_j) + post(y_k))} f_j by explicit
    Hamilton products, on axes y and x with chirps (q2, q1, q0).  Each
    node and the whole angle, the kernel product included, are carried as
    exact sums s + e from the indices, so that angles of thousands of
    radians keep their low bits."""
    ys, xs = exact_nodes(y), exact_nodes(x)
    cy = _mul(c, ys)
    row, col = (lambda a: tuple(v[None] for v in a)), (lambda a: tuple(v[:, None] for v in a))
    s, e = _add(_mul(col(cy), row(xs)), row(exact_chirp(pre, xs)), col(exact_chirp(post, ys)))
    cos, sin = np.cos(s) - np.sin(s) * e, np.sin(s) + np.cos(s) * e
    K = scale * np.stack([cos] + [sin * m for m in mu], axis=-1)  # (n_out, n_in, 4)
    F = np.moveaxis(field, axis, 0)
    K = K.reshape(K.shape[:2] + (1,) * (F.ndim - 2) + (4,))
    terms = qmul(K, F[None]) if left else qmul(F[None], K)
    return np.moveaxis(terms.sum(axis=1), 0, axis)


MIRRORED_CASES = [(8, 8), (7, 7), (8, 5), (5, 12), (1, 3), (9, 2), (6, 1)]
STAGES = [pytest.param(n_in, n_out, chirped, overwrite,
                       id=f"{n_in}-{n_out}" + "-chirped" * chirped + "-overwrite" * overwrite)
          for overwrite in (False, True) for chirped in (False, True)
          for n_in, n_out in MIRRORED_CASES if n_in == n_out or not overwrite]
#: (input, output) centres of the shifted grids: offset input, output and both
SHIFTS = [(1.7, 0.0), (0.0, -2.2), (1.7, -2.2)]
#: chirps of hundreds of radians on the tests' axes, linear terms included
PRE, POST = (40.0, 7.3, 300.0), (-30.0, -5.1, -250.0)


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 3 sample rows and of 3 grid columns (12 real columns), on
    the FFT path 3 grid lines, so a width of 7 straddles two blocks and ends
    in a partial one."""
    monkeypatch.setattr(_kernels, "ROW_BLOCK", 3)
    monkeypatch.setattr(_kernels, "COL_BLOCK", 12)
    monkeypatch.setattr(_kernels, "DFT_BLOCK", 3)


@pytest.mark.parametrize("n_in,n_out,chirped,overwrite", STAGES)
@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("axis", [0, 1])
def test_mirrored_and_dense_paths_agree(n_in, n_out, chirped, overwrite, left, axis, small_blocks):
    """The folded stage against the dense brute Hamilton sum, through
    straddling and partial blocks: on grids centred on 0, and on the same
    grids shifted off 0 (input, output or both), whose centres' terms join
    the angles at the nodes.  Chirped stages (quadratic pre and post of
    hundreds of radians, and scale) are also checked against chirp ->
    contraction -> chirp.  With `overwrite`, each stage runs again in place
    in a copy of its input, and on a Fortran-order copy that it must leave
    untouched."""
    rng = np.random.default_rng(n_in * 31 + n_out)
    shape = [7, 7, 4]
    shape[axis] = n_in
    field = rng.normal(size=shape)
    for x0, y0 in [(0.0, 0.0)] + SHIFTS:
        x, y = grid_axis(x0, 2.5, n_in), grid_axis(y0, 3.0, n_out)
        assert np.array_equal(x[2], -x[2][::-1]) and (x[0] == 0.0) == (x0 == 0.0)
        chirps = dict(pre=PRE, post=POST, scale=0.37) if chirped else {}
        got = exp_contract(y, x, -1.3, MU, field, left, axis, **chirps)
        assert got.flags.c_contiguous
        if overwrite:
            mine, fortran = field.copy(), np.asfortranarray(field)
            again = exp_contract(y, x, -1.3, MU, mine, left, axis, out=mine, **chirps)
            assert np.shares_memory(again, mine) and np.array_equal(again, got)
            again = exp_contract(y, x, -1.3, MU, fortran, left, axis, out=fortran, **chirps)
            assert not np.shares_memory(again, fortran) and np.array_equal(fortran, field)

        ref = brute_contract(y, x, -1.3, MU, field, left, axis, **chirps)
        others = [ref]
        if chirped:
            sandwich = chirp_multiply(x, PRE, MU, field, left, axis)
            sandwich = exp_contract(y, x, -1.3, MU, sandwich, left, axis)
            others.append(chirp_multiply(y, POST, MU, sandwich, left, axis, scale=0.37))
        assert got.shape == ref.shape
        for other in others:
            assert np.max(np.abs(got - other)) <= 1e-14 * np.max(np.abs(ref))


def long_double_nodes(axis):
    """The nodes centre + m spacing / 2 of an axis in long double."""
    ld = np.longdouble
    return ld(axis[0]) + np.asarray(axis[2], ld) * ld(axis[1]) / 2


def long_double_contract(y, x, c, mu, field, left, scale):
    """An axis-0 stage in long double: the unfolded kernel on the node
    arrays y and x (``long_double_nodes``, or double nodes)."""
    theta = np.longdouble(c) * np.asarray(y, np.longdouble)[:, None] * np.asarray(x, np.longdouble)
    return long_double_sum(theta, mu, field, left, scale)


def long_double_sum(theta, mu, field, left, scale):
    """scale sum_j e^{mu theta_kj} f_j (axis 0) in long double."""
    F = field.astype(np.longdouble).reshape(theta.shape[1], -1)
    MT = mul_matrix(np.concatenate([[0.0], mu]), left).T.astype(np.longdouble)
    C, S = ((f(theta) @ F).reshape(len(theta), -1, 4) for f in (np.cos, np.sin))
    return np.longdouble(scale) * (C + S @ MT)


def natural_stage(n, direction, extent=10.0, b=1.0, half=None):
    """(y, x, c, scale) of a QFT (b = 1) or QLCT stage on the axes of a
    centred n-point grid and its natural window scaled by |b|, where the
    stage is a length-n DFT, or else the square window of half-width
    `half`."""
    grid = GridSpec.centered(extent, n)
    window = (FreqWindow.natural(grid).scaled(abs(b), abs(b)) if half is None
              else FreqWindow.square(half, n)).to_grid()
    if direction == "forward":
        return window.axes[0], grid.axes[0], -1.0 / b, grid.ds
    return grid.axes[0], window.axes[0], 1.0 / b, window.ds / (2.0 * np.pi)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double is double here")
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_image_grid_stage_against_long_double(direction):
    """The axis-0 QFT stage of a 512^2 image grid on [0, 512] and its natural
    window: an FFT about the grid's centre 256, the centre's terms in the
    angles at the nodes.  Against a long-double evaluation on the nodes
    defined by their indices it stays within twice the error of the dense
    double-precision product on the double nodes, which rounds each node and
    each kernel angle c y x once."""
    grid = GridSpec(0.0, 0.0, 1.0, 1.0, 512, 512)
    window = FreqWindow.natural(grid).to_grid()
    y, x, c, scale = ((window.axes[0], grid.axes[0], -1.0, grid.ds) if direction == "forward"
                      else (grid.axes[0], window.axes[0], 1.0, window.ds / (2.0 * np.pi)))
    assert (x[0], y[0]) != (0.0, 0.0)
    field = np.random.default_rng(0).normal(size=(512, 16, 4))
    ref = long_double_contract(long_double_nodes(y), long_double_nodes(x), c, MU, field, True,
                               scale)
    theta = c * np.outer(nodes(y), nodes(x))
    MT = mul_matrix(np.concatenate([[0.0], MU]), True).T
    F = field.reshape(512, -1)
    dense = ((scale * np.cos(theta) @ F).reshape(field.shape)
             + (scale * np.sin(theta) @ F).reshape(field.shape) @ MT)
    got = exp_contract(y, x, c, MU, field, True, 0, scale=scale)
    err, dense_err = (float(np.max(np.abs(a - ref)) / np.max(np.abs(ref))) for a in (got, dense))
    assert err <= 2.0 * dense_err


LONG_DOUBLE = pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                                 reason="long double is double here")


@LONG_DOUBLE
@pytest.mark.parametrize("n", [64, 65, 257, 333, 360, 509, 512, 1021, 1024])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_dft_stage_against_exact_long_double_dft(n, direction, dft_calls):
    """On the natural window a stage is exactly a length-n DFT, its kernel
    angles +-pi (2k - n + 1)(2j - n + 1) / 2n: against that DFT in long
    double, the index products reduced mod 4n in integers, the FFT stage is
    within 16 eps, on axis 0 (node-major blocks, the phasors in per-node
    maps) and on axis 1 (row layout) alike, with left and right kernels,
    and the two axes agree to 4 eps on a field and its transpose.  The
    lengths include primes (257, 509, 1021) and 333 = 9 * 37, lengths with
    a prime factor above 13.  The QLCT stage (b = -0.8) carries chirps x^2/b
    and y^2/2b of 60 to 2e4 rad, taken in long double on the nodes defined
    by their indices; at n = 360 (not a power of two) the field is 136 = 2 *
    48 + 40 lines wide, two full DFT_BLOCKs of 48 lines and a partial
    one."""
    field = np.random.default_rng(n).normal(size=(n, 136 if n == 360 else 3, 4))
    k = np.arange(n)
    m = np.outer(2 * k - n + 1, 2 * k - n + 1) % (4 * n)
    pi = 4 * np.arctan(np.longdouble(1))
    eps = np.finfo(float).eps
    for b in (1.0, -0.8):
        y, x, c, scale = natural_stage(n, direction, b=b)
        chirps = dict(scale=scale)
        theta = np.sign(c) * pi * m / (2 * n)
        if b != 1.0:
            chirps.update(pre=(_kernels._ratio(1.0, b), 0.0, 0.0),
                          post=(_kernels._ratio(1.0, 2.0 * b), 0.0, 0.0))
            ys, xs, lb = long_double_nodes(y), long_double_nodes(x), np.longdouble(b)
            theta = theta + xs * xs / lb + (ys * ys / (2 * lb))[:, None]
        for left in (True, False):
            dft_calls.clear()
            got = exp_contract(y, x, c, MU, field, left, 0, **chirps)
            across = exp_contract(y, x, c, MU, np.ascontiguousarray(field.swapaxes(0, 1)), left,
                                  1, **chirps).swapaxes(0, 1)
            assert len(dft_calls) == 2 * -(-field.shape[1] // _kernels.DFT_BLOCK)
            ref = long_double_sum(theta, MU, field, left, scale)
            for stage in (got, across):
                assert np.max(np.abs(stage - ref)) / np.max(np.abs(ref)) <= 16 * eps
            assert np.max(np.abs(got - across)) <= 4 * eps * np.max(np.abs(got))


@LONG_DOUBLE
@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_dft_stage_on_float_nodes_against_long_double(n, direction, dft_calls):
    """The FFT stage against the long-double kernel sum on the float nodes of
    the centred natural window, which are the DFT nodes only to an ulp each:
    within n eps (the fold, which rounds each kernel angle on those nodes,
    is about as far)."""
    y, x, c, scale = natural_stage(n, direction)
    field = np.random.default_rng(0).normal(size=(n, 16, 4))
    got = exp_contract(y, x, c, MU, field, True, 0, scale=scale)
    assert dft_calls
    ref = long_double_contract(nodes(y), nodes(x), c, MU, field, True, scale)
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) <= n * np.finfo(float).eps


def both_axes(y, x, c, field, left, scale, **chirps):
    """The stage of `field` along axis 0, and along axis 1 of its transpose
    (transposed back)."""
    across = np.ascontiguousarray(field.swapaxes(0, 1))
    return (exp_contract(y, x, c, MU, field, left, 0, scale=scale, **chirps),
            exp_contract(y, x, c, MU, across, left, 1, scale=scale, **chirps).swapaxes(0, 1))


#: (n, extent, window half-width, and the bound); natural windows take the
#: FFT and are gated in test_dft_stage_against_exact_long_double_dft
FOLD_GATES = [(1021, 10.0, 8.0, 3e-15), (999, 7.3, 5.1, 3e-15)]


@LONG_DOUBLE
@pytest.mark.parametrize("n,extent,half,bound", FOLD_GATES)
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_fold_stages_on_exact_nodes_against_long_double(n, extent, half, bound, direction):
    """A folded stage at a prime n (1021, on window 8) and at an odd
    non-dyadic grid (999 on extent 7.3, window 5.1), on both axes with left
    and right kernels, against the long-double kernel sum on the nodes
    defined by their indices: each angle is K m_k m_j, K = c dy dx / 4
    taken in double-double, and each mirrored output row is the row of its
    own node."""
    y, x, c, scale = natural_stage(n, direction, extent, half=half)
    field = np.random.default_rng(n).normal(size=(n, 8, 4))
    for left in (True, False):
        ref = long_double_contract(long_double_nodes(y), long_double_nodes(x), c, MU, field,
                                   left, scale)
        for got in both_axes(y, x, c, field, left, scale):
            assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) <= bound


def test_chirp_angles_are_exact_to_the_given_doubles():
    """Every angle hi + lo of ``_kernels._chirp`` (Horner in m on
    double-double products) and of the kernel table (K m_k) m_j equals the
    rational value of the given doubles to 2^-100 of the angle: shifted
    non-dyadic axes, a double-double coefficient (``_ratio``), a slope, and
    angles up to 1e4 rad."""
    from fractions import Fraction as Q
    axis = grid_axis(1.3, 7.3, 999)
    chirp, slope = (_kernels._ratio(-140.0, 2 * 0.7), 0.3, -np.pi / 4), 2.1  # to 7.4e3 rad
    hi, lo = _kernels._chirp(axis, chirp, slope)
    q2, (z0, d, m) = Q(chirp[0][0]) + Q(chirp[0][1]), axis
    for j in range(0, 999, 37):
        z = Q(z0) + Q(m[j]) * Q(d) / 2
        want = q2 * z * z + Q(chirp[1]) * z + Q(chirp[2]) + Q(slope) * (z - Q(z0))
        assert abs(Q(hi[j]) + Q(lo[j]) - want) <= abs(want) * Q(2) ** -100
    K = _kernels._mul_add(_kernels._mul_add(_kernels._ratio(-1.0, 0.7), 0.37 / 2), d / 2)
    hi, lo = _kernels._mul_add(_kernels._mul_add(K, m[::111, None]), m[::37])
    for (k, mk), (j, mj) in itertools.product(enumerate(m[::111]), enumerate(m[::37])):
        want = Q(-1) / Q(0.7) * Q(0.37) / 2 * Q(d) / 2 * Q(mk) * Q(mj)
        assert abs(Q(hi[k, j]) + Q(lo[k, j]) - want) <= abs(want) * Q(2) ** -100 + Q(2) ** -200


@LONG_DOUBLE
@pytest.mark.parametrize("n,b", [(512, 0.5), (1021, 1.0), (1024, 1.0)])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_default_window_qlct_stages_against_long_double(n, b, direction, dft_calls):
    """A QLCT stage of A = (0.7, b, c, -0.4) on its default window (the
    natural window of a centred n-point grid on extent 10, scaled by |b|):
    an FFT whose chirps a x^2/2b and d xi^2/2b - sign(b) pi/4 reach 5e3 rad.
    Against the long-double sum whose kernel angles are the index-reduced
    DFT's and whose chirps come from the nodes' indices and the double a, b
    and d, it is within 4 eps (3.24 eps measured) on both axes, with left
    and right kernels; with each chirp rounded in double on the double
    nodes it was 3.2e-14 to 1.2e-12 off."""
    A = LctParams(0.7, b, (0.7 * -0.4 - 1.0) / b, -0.4)
    grid = GridSpec.centered(10.0, n)
    window = FreqWindow.natural(grid).scaled(b, b).to_grid()
    mat, x, y = (A, grid, window) if direction == "forward" else (A.inverse, window, grid)
    c, pre, post, scale = LctKind(Side.TWO_SIDED, mat, mat).plan()[0][2:]
    ld = np.longdouble
    pi, (a, bb, _, d) = 4 * np.arctan(ld(1)), (ld(v) for v in mat.astuple())
    xs, ys, k = long_double_nodes(x.axes[0]), long_double_nodes(y.axes[0]), np.arange(n)
    theta = (-np.sign(bb) * pi * (np.outer(2 * k - n + 1, 2 * k - n + 1) % (4 * n)) / (2 * n)
             + a * xs * xs / (2 * bb) + (d * ys * ys / (2 * bb) - np.sign(bb) * pi / 4)[:, None])
    field = np.random.default_rng(n).normal(size=(n, 3, 4))
    for left in (True, False):
        ref = long_double_sum(theta, MU, field, left, ld(x.ds) / np.sqrt(2 * pi * abs(bb)))
        for got in both_axes(y.axes[0], x.axes[0], c, field, left, x.ds / scale, pre=pre,
                             post=post):
            assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) <= 4 * np.finfo(float).eps
    assert len(dft_calls) == 4


@LONG_DOUBLE
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_low_rank_stage_against_long_double(direction):
    """A 512-point stage on extent 10 and window 8 at c = -2, against the
    long-double kernel sum on the nodes defined by their indices: low-rank,
    its kernel c t_i dy dx / 4 a double-double at each Chebyshev point,
    within 4e-15 (3.5e-15 measured; 4.8e-15 with the points rounded to
    double); folded, within 1.2e-15 (9.6e-16 measured).  The gap between
    the two is the interpolation's rounding, not the phases'."""
    grid, window = (g.axes[0] for g in (GridSpec.centered(10.0, 512),
                                        FreqWindow(8.0, 8.0, 512, 512).to_grid()))
    y, x = (window, grid) if direction == "forward" else (grid, window)
    field = np.random.default_rng(7).normal(size=(512, 8, 4))
    for left in (True, False):
        ref = long_double_contract(long_double_nodes(y), long_double_nodes(x), -2.0, MU, field,
                                   left, x[1])
        for got, bound in ((low_rank_stage(y, x, -2.0, field, left, 0, scale=x[1]), 4e-15),
                           (exp_contract(y, x, -2.0, MU, field, left, 0, scale=x[1]), 1.2e-15)):
            assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) <= bound


def test_natural_window_round_trip_on_a_prime_grid():
    """qgaussian on a 1021^2 grid (prime: every stage takes the FFT)
    through the QFT on its natural window and back, on tilted axes: within
    4e-15 on every side."""
    grid = GridSpec.centered(10.0, 1021)
    sig = QSignal2D(grid, qgaussian(*grid.mesh()))
    for side in Side:
        kind = QftKind(side, AxisPair(MU, np.array([1.0, 0.0, 0.0])))
        back = qft_inverse(qft_forward(sig, kind), grid)
        assert np.max(np.abs(back.data - sig.data)) <= 4e-15


@pytest.mark.parametrize("shape", [(512, 512), (360, 336), (231, 195), (333, 257)])
@pytest.mark.parametrize("side", list(Side))
def test_image_grids_take_the_fft_path(shape, side, dft_calls):
    """An image on [0, w] x [0, h] runs every stage of the forward and of the
    inverse as FFTs, its centre a chirp on the FFT path, on 13-smooth counts
    and on 333 x 257 (factors 37 and 257) alike: the round trip within 1e-14
    and Plancherel within 1e-13."""
    grid = GridSpec(0.0, 0.0, 1.0, 1.0, *shape)
    sig = QSignal2D(grid, np.random.default_rng(shape[1]).uniform(size=shape + (4,)))
    blocks = sum(-(-lines // _kernels.DFT_BLOCK) for lines in shape)
    spec = qft_forward(sig, QftKind(side))
    assert len(dft_calls) == blocks
    back = qft_inverse(spec, grid)
    assert len(dft_calls) == 2 * blocks
    assert np.max(np.abs(back.data - sig.data)) <= 1e-14
    ratio = (np.sum(spec.data ** 2) * spec.grid.cell_area
             / (4 * np.pi ** 2 * np.sum(sig.data ** 2) * grid.cell_area))
    assert abs(ratio - 1.0) <= 1e-13


@LONG_DOUBLE
@pytest.mark.parametrize("n", [360, 336])
def test_image_grid_fft_stage_against_long_double(n, dft_calls):
    """The forward stage of an image axis of n nodes k + 1/2 onto its natural
    window, an FFT with the centre n/2's terms in the angles at the output
    nodes: within 6e-14 of the long-double kernel sum on the nodes defined
    by their indices, on both axes with left and right kernels."""
    grid = GridSpec(0.0, 0.0, 1.0, 1.0, n, 2)
    y, x = FreqWindow.natural(grid).to_grid().axes[0], grid.axes[0]
    field = np.random.default_rng(n).normal(size=(n, 8, 4))
    for left in (True, False):
        ref = long_double_contract(long_double_nodes(y), long_double_nodes(x), -1.0, MU, field,
                                   left, 1.0)
        for got in both_axes(y, x, -1.0, field, left, 1.0):
            assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) <= 6e-14
    assert len(dft_calls) == 4


@pytest.mark.parametrize("n", [12, 15, 17, 26, 27, 37])
@pytest.mark.parametrize("chirped", [False, True], ids=["plain", "chirped"])
@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("axis", [0, 1])
def test_dft_stages_match_brute_force(n, chirped, left, axis, small_blocks, dft_calls):
    """QFT and QLCT (b = -0.8) stages on natural windows take the FFT path,
    forward and inverse: through straddling and partial blocks, odd and
    prime lengths, quadratic chirps of hundreds of radians, and in place
    with the same bytes; a Fortran-order input handed over is left
    untouched."""
    rng = np.random.default_rng(n * 4 + 2 * axis + left)
    shape = [7, 7, 4]
    shape[axis] = n
    field = rng.normal(size=shape)
    for b in (1.0, -0.8):
        for direction in ("forward", "inverse"):
            y, x, c, scale = natural_stage(n, direction, extent=2.5, b=b)
            chirps = dict(pre=PRE, post=POST, scale=0.37) if chirped else dict(scale=scale)
            dft_calls.clear()
            got = exp_contract(y, x, c, MU, field, left, axis, **chirps)
            assert len(dft_calls) == 3 and got.flags.c_contiguous
            want = brute_contract(y, x, c, MU, field, left, axis, **chirps)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            mine, fortran = field.copy(), np.asfortranarray(field)
            again = exp_contract(y, x, c, MU, mine, left, axis, out=mine, **chirps)
            assert np.shares_memory(again, mine) and np.array_equal(again, got)
            again = exp_contract(y, x, c, MU, fortran, left, axis, out=fortran, **chirps)
            assert not np.shares_memory(again, fortran) and np.array_equal(fortran, field)
            assert np.max(np.abs(again - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("side", list(Side))
def test_natural_windows_take_the_fft_path(side, dft_calls):
    """qft_forward and qlct_forward on their default windows run each stage
    as an FFT (one block per stage at 48^2), and so do their inverses."""
    grid = GridSpec.centered(6.0, 48)
    sig = QSignal2D(grid, np.random.default_rng(9).normal(size=(48, 48, 4)))
    spec = qft_forward(sig, QftKind(side))
    assert len(dft_calls) == 2
    back = qft_inverse(spec, grid)
    assert len(dft_calls) == 4 and np.max(np.abs(back.data - sig.data)) < 1e-12
    kind = LctKind(side, LctParams(2.0, 0.5, 2.0, 1.0), LctParams(1.0, -1.0, 0.0, 1.0))
    spec = qlct_forward(sig, kind)
    assert len(dft_calls) == 6
    back = qlct_inverse(spec, grid)
    assert len(dft_calls) == 8 and np.max(np.abs(back.data - sig.data)) < 1e-12


def test_other_stages_keep_the_fold(dft_calls):
    """No FFT where a stage is not an exact DFT: the windows of the CLI
    benchmarks (half-width 8 on extent 10 at 512^2 and 1024^2, and 8, 10
    and 12 on extent 8, for |b| in [0.5, 1]), counts that change, and a
    window 64 ulps wider than the natural one.  (Image grids take the FFT:
    see test_image_grids_take_the_fft_path.)"""
    stages = []
    for n, extent, half in ((512, 10.0, 8.0), (1024, 10.0, 8.0), (64, 8.0, 8.0),
                            (256, 8.0, 12.0), (128, 8.0, 10.0)):
        grid, window = (g.axes[0] for g in (GridSpec.centered(extent, n),
                                            FreqWindow.square(half, n).to_grid()))
        stages += [(y, x, c) for c in (1.0, -1.0, 1.5, -2.0, 2.0)
                   for y, x in ((window, grid), (grid, window))]
    (y0, dy, m), x, c, _ = natural_stage(64, "forward")
    stages.append(((y0 + dy / 2, dy, m[1:] - 1.0), x, c))
    stages.append(((y0, dy * (1.0 + 64 * np.finfo(float).eps), m), x, c))
    for y, x, c in stages:
        field = np.zeros((len(x[2]), 1, 4))
        exp_contract(y, x, c, MU, field, True, 0)
    assert not dft_calls


#: (n_in, n_out): even, odd, growing and shrinking axes
LOW_RANK_SIZES = [(160, 160), (161, 161), (160, 161), (161, 162), (161, 120), (160, 97)]


def low_rank_stage(y, x, c, field, left, axis, pre=None, post=None, scale=1.0, overwrite=False):
    """One stage the way a transform runs a low-rank axis: contract onto the
    Chebyshev points, then interpolate and chirp."""
    t, L = _kernels.low_rank(y, x, c)
    plans = [None, None]
    plans[axis] = (L, y, post, MU, left)
    out = field if overwrite else None
    z = exp_contract(t, x, c, MU, field, left, axis, pre=pre, scale=scale, out=out)
    return _kernels.interpolate(z, plans, out)


@pytest.mark.parametrize("n_in,n_out", LOW_RANK_SIZES)
@pytest.mark.parametrize("chirped", [False, True], ids=["plain", "chirped"])
@pytest.mark.parametrize("c", [1.0, -1.0, 2.0, -2.0])
@pytest.mark.parametrize("axis", [0, 1])
def test_low_rank_stages_match_brute_force(n_in, n_out, chirped, c, axis, small_blocks, monkeypatch):
    """Narrow kernels (|c| X Y / 2 <= 1.8 here) have low rank: the stage onto
    the Chebyshev points, then the interpolation and output chirp, through
    straddling and partial blocks (3 output columns per block of the
    interpolation), odd lengths, quadratic chirps of hundreds of radians,
    in place, and on shifted grids."""
    monkeypatch.setattr(_kernels, "COL_BLOCK", 48)
    rng = np.random.default_rng(n_in * 7 + n_out + int(10 * c) + 40 * chirped + axis)
    x = GridSpec.centered(1.0, n_in).axes[0]
    y = GridSpec.centered(0.9, n_out).axes[0]
    shape = [7, 7, 4]
    shape[axis] = n_in
    field = rng.normal(size=shape)
    chirps = dict(pre=PRE, post=POST, scale=0.37) if chirped else {}
    left = c > 0
    got = low_rank_stage(y, x, c, field, left, axis, **chirps)
    assert got.flags.c_contiguous and got.shape[axis] == n_out
    want = brute_contract(y, x, c, MU, field, left, axis, **chirps)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # in the buffer of a copy, with the same bytes; a Fortran-order input is left alone
    mine, fortran = field.copy(), np.asfortranarray(field)
    again = low_rank_stage(y, x, c, mine, left, axis, overwrite=True, **chirps)
    assert np.shares_memory(again, mine) == (n_out <= n_in) and np.array_equal(again, got)
    again = low_rank_stage(y, x, c, fortran, left, axis, overwrite=True, **chirps)
    assert not np.shares_memory(again, fortran) and np.array_equal(fortran, field)
    assert np.array_equal(again, got)

    # on grids shifted off 0 the points fold about their centres, the centres'
    # terms joining the angles at the nodes and at the points
    xs, ys = (0.4, *x[1:]), (-0.3, *y[1:])
    shifted = low_rank_stage(ys, xs, c, field, left, axis, **chirps)
    ref = brute_contract(ys, xs, c, MU, field, left, axis, **chirps)
    assert np.max(np.abs(shifted - ref)) <= 1e-14 * np.max(np.abs(ref))

    # too few Chebyshev points fail the check: the stage folds onto y
    monkeypatch.setattr(_kernels, "RANK_PAD", -8.0)
    assert _kernels.low_rank(y, x, c) is None
    fallback = exp_contract(y, x, c, MU, field, left, axis, **chirps)
    assert np.max(np.abs(fallback - want)) <= 1e-14 * np.max(np.abs(want))


#: a 160 x 161 grid on extent 3 and a 161 x 160 window of half-width 4: every
#: QFT stage and every QLCT stage with |b| >= 0.5 is low-rank (p = 41 at most)
NARROW = GridSpec(-3.0, -3.0, 6.0 / 160, 6.0 / 161, 160, 161), FreqWindow(4.0, 4.0, 161, 160)
#: QLCT matrices with every sign pattern of (b1, b2)
SIGN_PATTERNS = [(b1, b2) for b1 in (0.5, -0.5) for b2 in (0.8, -0.8)]


def narrow_kinds(side, b1, b2):
    return (QftKind(side, AxisPair(MU, np.array([1.0, 0.0, 0.0]))),
            LctKind(side, LctParams(0.7, b1, (0.7 * -0.4 - 1.0) / b1, -0.4),
                    LctParams(1.0, b2, 0.0, 1.0), AxisPair(MU, np.array([1.0, 0.0, 0.0]))))


@pytest.mark.parametrize("b1,b2", SIGN_PATTERNS)
@pytest.mark.parametrize("side", list(Side))
def test_low_rank_transforms_match_the_oracles(side, b1, b2):
    """QFT and QLCT spectra on a narrow window, every stage low-rank, against
    the brute-force quadratures of tests/oracles.py at every 8th frequency
    of both axes (both halves, odd centre rows and the ends included)."""
    grid, window = NARROW
    sig = QSignal2D(grid, np.random.default_rng(len(side.value) + 4 * (b1 > 0) + 2 * (b2 > 0))
                    .normal(size=(grid.ns, grid.nt, 4)))
    qkind, lkind = narrow_kinds(side, b1, b2)
    rows, cols = np.r_[0:161:8, 80, 160], np.r_[0:160:8, 159]
    spectra = [(qlct_forward(sig, lkind, window), lambda u, v: qlct_bruteforce(
        sig, side, lkind.A1, lkind.A2, lkind.axes, u, v))]
    if b1 == 0.5 and b2 == 0.8:  # the QFT has no matrices
        spectra.append((qft_forward(sig, qkind, window),
                        lambda u, v: qft_bruteforce(sig, side, qkind.axes, u, v)))
    for spec, oracle in spectra:
        got = spec.data[rows][:, cols]
        want = oracle(spec.grid.s[rows], spec.grid.t[cols])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("side", list(Side))
def test_low_rank_axes_interpolate_after_their_last_stage(side, monkeypatch):
    """Every QFT, forward and inverse, and the two-sided QLCT contract both
    axes onto their points and interpolate both at the end; a sided QLCT
    interpolates its first stage right after it (its output chirp does not
    commute with the second stage's kernel on the same side) and defers its
    last."""
    calls = []
    contract, interpolate = qft_module.exp_contract, qft_module.interpolate
    monkeypatch.setattr(qft_module, "exp_contract",
                        lambda *a, **k: calls.append(a[6]) or contract(*a, **k))
    monkeypatch.setattr(qft_module, "interpolate", lambda field, plans, out: calls.append(
        tuple(i for i, plan in enumerate(plans) if plan)) or interpolate(field, plans, out))
    grid, window = NARROW
    sig = QSignal2D(grid, np.random.default_rng(2).normal(size=(grid.ns, grid.nt, 4)))
    qkind, lkind = narrow_kinds(side, 0.5, -0.8)
    first, last = (axis for axis, _ in side.stages)
    spec = qft_forward(sig, qkind, window)
    qft_inverse(spec, grid, overwrite=True)
    assert calls == [first, last, (0, 1), last, first, (0, 1)]
    calls.clear()
    spec = qlct_forward(sig, lkind, window)
    qlct_inverse(spec, grid)
    if side is Side.TWO_SIDED:
        assert calls == [first, last, (0, 1), last, first, (0, 1)]
    else:
        assert calls == [first, (first,), last, (last,), last, (last,), first, (first,)]


def along(axis, grid):
    """The grid with `grid`'s first axis on `axis`, 3 nodes on the other."""
    start, step, count = [-1.0, -1.0], [2.0 / 3, 2.0 / 3], [3, 3]
    start[axis], step[axis], count[axis] = grid.s_min, grid.ds, grid.ns
    return GridSpec(start[0], start[1], step[0], step[1], count[0], count[1])


@pytest.mark.parametrize("axis", [0, 1])
def test_path_of_the_bench_windows(axis, monkeypatch):
    """On extent 10 with a window of half-width 8, every 512^2 and 1024^2
    stage with |c| = 1/|b| <= 2 (b in [0.5, 1]) is low-rank, forward (y the
    window) and inverse (y the grid), and a transform stage on either axis
    contracts it onto its points; natural windows are full rank."""
    lengths = []
    contract = qft_module.exp_contract
    monkeypatch.setattr(qft_module, "exp_contract",
                        lambda y, *a, **k: lengths.append(len(y[2])) or contract(y, *a, **k))
    for n in (512, 1024):
        grid = GridSpec.centered(10.0, n)
        natural = FreqWindow.natural(grid).to_grid()
        assert _kernels.low_rank(natural.axes[0], grid.axes[0], -1.0) is None
        window = FreqWindow(8.0, 8.0, n, n).to_grid()
        for c in (1.0, -1.0, 1.5, -1.5, 2.0, -2.0):
            for y, x in ((window, grid), (grid, window)):
                assert _kernels.low_rank(y.axes[0], x.axes[0], c) is not None
                src, dst = along(axis, x), along(axis, y)
                lengths.clear()
                out = _stages(np.zeros((src.ns, src.nt, 4)), ((axis, True, c, None, None, 1.0),),
                              QftKind().axes, src, dst)
                assert lengths[0] < n and out.shape == (dst.ns, dst.nt, 4)


@pytest.mark.parametrize("chirped", [False, True])
@pytest.mark.parametrize("axis", [0, 1])
def test_stage_reads_any_memory_order(axis, chirped, small_blocks):
    rng = np.random.default_rng(23)
    x, y = GridSpec.centered(2.0, 9).axes[0], GridSpec.centered(4.0, 6).axes[0]
    field = rng.normal(size=(9, 8, 4) if axis == 0 else (8, 9, 4))
    views = [np.asfortranarray(field), field[::-1, ::-1][::-1, ::-1],
             np.ascontiguousarray(field.transpose(1, 0, 2)).transpose(1, 0, 2)]
    chirps = dict(pre=(0.5, 0.0, 0.0), post=(0.0, 1.0, 200.0), scale=0.3) if chirped else {}
    want = brute_contract(y, x, 0.8, MU, field, False, axis, **chirps)
    for view in views:
        got = exp_contract(y, x, 0.8, MU, view, False, axis, **chirps)
        assert got.flags.c_contiguous
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# "consume" is the inverse handed its spectrum (overwrite=True) and "hand-over"
# the forward transform handed its signal: each allocates no field, only what
# a stage holds.  Bounds: the measured peaks (low-rank stages at 512^2 and
# 1024^2, folded ones at 256^2) and a margin of about 5%.
BOUNDS = {"forward": (1.7, 1.25, 1.9), "inverse": (1.7, 1.25, 1.9),
          "consume": (0.7, 0.25, 0.9), "hand-over": (0.7, 0.25, 0.9)}
MEMORY_CASES = [pytest.param(family, side, direction, 512, 8.0, BOUNDS[direction][0],
                             id=f"{family}-{side.value}-{direction}")
                for family in ("qft", "qlct") for side in Side for direction in BOUNDS]
# narrow windows at 1024^2 (b = 0.5 on both QLCT axes): every stage is low-rank
NARROW_CASES = [pytest.param(family, Side.TWO_SIDED, direction, 1024, 8.0, BOUNDS[direction][1],
                             id=f"{family}-two-{direction}-1024")
                for family in ("qft", "qlct") for direction in BOUNDS]
# a wide window at 256^2: every stage is folded, its blocks a quarter of the field
FOLDED_CASES = [pytest.param(family, Side.TWO_SIDED, direction, 256, 40.0, BOUNDS[direction][2],
                             id=f"{family}-two-{direction}-256")
                for family in ("qft", "qlct") for direction in BOUNDS]
# natural windows at 1024^2 (the QLCT's scaled by |b| = 0.5), every stage an FFT:
# 1.062-1.066 fields measured, where a second field-sized buffer would show
NATURAL_CASES = [pytest.param(family, side, "forward", 1024, None, 1.10,
                              id=f"{family}-{side.value}-natural-1024")
                 for family in ("qft", "qlct_default") for side in Side]


@pytest.mark.parametrize("family,side,direction,n,width,bound",
                         MEMORY_CASES + NARROW_CASES + FOLDED_CASES + NATURAL_CASES + [
                             pytest.param("qlct_default", Side.TWO_SIDED, "forward", 512, None,
                                          1.4, id="qlct_default_window"),
                             pytest.param("qlct_b0", Side.TWO_SIDED, "hand-over", 512, None,
                                          0.3, id="qlct_b0-two-hand-over")])
def test_transforms_allocate_one_field(traced_peak, family, side, direction, n, width, bound):
    """Peak traced allocation of one n^2 transform, in units of the field
    (n*n*4 doubles); its input is allocated beforehand.  A transform
    allocates one field, in its first stage, plus what a stage holds: the
    block buffers of the folded path (about 0.8 field at 256^2), only p-row
    tables and intermediates on the low-rank path.  A transform handed its
    input writes into it and holds only what a stage holds, also when its
    first stage is the in-place chirp of a b = 0 axis."""
    grid = GridSpec.centered(10.0, n)
    sig = QSignal2D(grid, np.random.default_rng(3).normal(size=(n, n, 4)))
    window = FreqWindow.natural(grid) if width is None else FreqWindow(width, width, n, n)
    qkind = QftKind(side)
    A1, A2 = ((LctParams(0.7, 0.8, (0.7 * -0.4 - 1.0) / 0.8, -0.4), LctParams(1.0, 1.0, 0.0, 1.0))
              if n == 512 else (LctParams(0.6, 0.5, (0.6 * -0.4 - 1.0) / 0.5, -0.4),
                                LctParams(1.0, 0.5, 0.0, 1.0)))
    lkind = LctKind(side, A1, A2)
    handover = direction == "hand-over"
    forward = {"qft": lambda: qft_forward(sig, qkind, window, overwrite=handover),
               "qlct": lambda: qlct_forward(sig, lkind, window, overwrite=handover),
               "qlct_default": lambda: qlct_forward(sig, lkind),
               "qlct_b0": lambda: qlct_forward(sig, LctKind(side, LctParams(2.0, 0.0, 0.3, 0.5), A2),
                                               window, overwrite=handover)}[family]
    call, given = forward, sig
    if direction in ("inverse", "consume"):
        given = forward()
        inverse = qft_inverse if family == "qft" else qlct_inverse
        call = lambda: inverse(given, grid, overwrite=direction == "consume")  # noqa: E731
    result, peak = traced_peak(call)
    assert result.data.shape == (n, n, 4)
    assert peak / (n * n * 4 * 8) < bound
    assert np.shares_memory(result.data, given.data) == (direction in ("consume", "hand-over"))


HUGE = 1e306
#: the error of a stage's own check, which names the stage
STAGE_CHECK = r"^(contract|chirp) on axis \d gave non-finite values"
#: route: (n, (extent, window) of the forward, of the inverse), None the natural
#: window.  Odd n put a node on 0, where the first stage's sum of 1e306 values
#: overflows (by 2 extent, or 2 window / 2 pi, the inverse's weights); 511
#: nodes on extent 10 or 0.01 are narrow enough for low-rank stages.
OVERFLOW_ROUTES = {"fft": (65, (1000.0, None), (1e-3, None)),
                   "fold": (65, (1000.0, 8.0), (1.0, 1e4)),
                   "low-rank": (511, (10.0, 8.0), (0.01, 1e3)),
                   "partial-fft": (101, (1000.0, None), (1e-3, None)),
                   "partial-fold": (101, (1000.0, 8.0), (1.0, 1e4))}


@pytest.mark.parametrize("route", list(OVERFLOW_ROUTES))
@pytest.mark.parametrize("direction", ["forward", "inverse"])
@pytest.mark.parametrize("side", list(Side))
def test_overflow_is_refused_by_the_stage_that_writes_it(route, direction, side, dft_calls):
    """A field of 1e306 values whose transform overflows raises
    NonFiniteError from the check of the stage that wrote the non-finite
    block, with overflow warnings off, and returns nothing: on the FFT,
    fold and low-rank routes, forward and inverse, every side.  On the
    "partial" routes the 1e306 values fill only the last lines across the
    first stage's axis, which on n = 101 are its partial last block (96-100
    of FFT blocks of 48 lines, 78-100 of fold blocks of 26): the message
    names that stage."""
    n, *setups = OVERFLOW_ROUTES[route]
    extent, width = setups[direction == "inverse"]
    grid = GridSpec.centered(extent, n)
    window = FreqWindow.natural(grid) if width is None else FreqWindow(width, width, n, n)
    kind = QftKind(side)
    first = (side.stages if direction == "forward" else side.stages[::-1])[0][0]
    data = np.full((n, n, 4), HUGE)
    if route.startswith("partial"):
        data[...] = 1.0
        data[(slice(None), slice(96, None)) if first == 0 else slice(96, None)] = HUGE
    fgrid = window.to_grid()
    if direction == "forward":
        x, y = grid.axes[0], fgrid.axes[0]
        call = lambda: qft_forward(QSignal2D(grid, data), kind, window)  # noqa: E731
    else:
        x, y = fgrid.axes[0], grid.axes[0]
        spec = QSpectrum2D(fgrid, data, kind, window)
        call = lambda: qft_inverse(spec, grid)  # noqa: E731
    assert (_kernels.low_rank(y, x, -1.0) is not None) == (route == "low-rank")
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteError) as err:
        call()
    assert re.match(STAGE_CHECK, str(err.value))
    assert bool(dft_calls) == (width is None)
    if route.startswith("partial"):
        assert str(err.value).startswith(f"contract on axis {first} ")


@pytest.mark.parametrize("side", list(Side))
def test_overflow_in_a_b0_chirp_is_refused(side):
    """A b = 0 QLCT axis with d = 1e5 scales a field of 1e306 by sqrt(d)
    past the largest double: its pointwise chirp, the first stage, refuses
    it (NonFiniteError naming the chirp), with overflow warnings off."""
    grid = GridSpec.centered(1000.0, 101)
    sig = QSignal2D(grid, np.full((101, 101, 4), HUGE))
    b0, plain = LctParams(1e-5, 0.0, 0.0, 1e5), LctParams(1.0, 1.0, 0.0, 1.0)
    first = side.stages[0][0]
    kind = LctKind(side, *((b0, plain) if first == 0 else (plain, b0)))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NonFiniteError, match=f"^chirp on axis {first} gave non-finite values"):
        qlct_forward(sig, kind)


@pytest.mark.parametrize("chirped", [False, True])
def test_interpolation_checks_the_blocks_it_writes(chirped):
    """`interpolate` checks each column block it writes, or, with an axis-0
    output chirp, each run of rows that chirp writes last: a non-finite
    value in the last column of its input raises NonFiniteError naming it."""
    L = np.random.default_rng(2).normal(size=(4, 2))
    field = np.ones((4, 9, 4))
    field[1, -1, 2] = np.nan
    y, post = GridSpec.centered(2.0, 8).axes[0], (0.3, 1.0, 0.5) if chirped else None
    with pytest.raises(NonFiniteError, match="^interpolate gave non-finite values"):
        interpolate(field, [(L, y, post, MU, True), None])
    field[1, -1, 2] = 1.0
    assert np.all(np.isfinite(interpolate(field, [(L, y, post, MU, True), None])))


def test_mirror_detection():
    """A grid's axes are (centre, spacing, m) with m = 2k - n + 1 mirrored
    exactly, and their nodes are the grid's, byte for byte: centred grids
    and their windows have the centre 0; a grid off 0, even by one ulp of
    its start, has its centre, and its stages run about it."""
    for n in (2, 7, 256, 1024):
        grid = GridSpec.centered(10.0, n, 3.0, n + 1)
        for g in (grid, FreqWindow.natural(grid).to_grid()):
            for axis, want in zip(g.axes, (g.s, g.t)):
                assert axis[0] == 0.0 and np.array_equal(axis[2], -axis[2][::-1])
                assert np.array_equal(axis[2], np.arange(1 - len(want), len(want), 2))
                assert nodes(axis).tobytes() == want.tobytes()
    image = GridSpec(0.0, 0.0, 1.0, 1.0, 8, 8)
    off = GridSpec.centered(10.0, 7)
    off = GridSpec(np.nextafter(off.s_min, 0.0), 0.0, off.ds, 1.0, 7, 1)  # one ulp
    for g, centre in ((image, 4.0), (off, off.s_min + 3.5 * off.ds)):
        assert g.axes[0][0] == centre != 0.0 and nodes(g.axes[0]).tobytes() == g.s.tobytes()


@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("axis", [0, 1])
def test_chirp_and_const_are_4x4_maps(left, axis):
    rng = np.random.default_rng(5)
    field = rng.normal(size=(5, 6, 4))
    x = GridSpec(-0.7, -0.7, 0.3, 0.3, 5, 6).axes[axis]
    chirp = tuple(rng.normal(size=3))
    angles = chirp[0] * nodes(x) ** 2 + chirp[1] * nodes(x) + chirp[2]
    got = chirp_multiply(x, chirp, MU, field, left, axis, scale=0.7)
    shape = [1, 1, 1]
    shape[axis] = -1
    chirp = 0.7 * qexp_pure(MU, angles.reshape(shape[:2]))
    want = qmul(chirp, field) if left else qmul(field, chirp)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    q = rng.normal(size=4)
    want = qmul(q, field) if left else qmul(field, q)
    np.testing.assert_allclose(const_multiply(q, field, left), want, rtol=0, atol=1e-14)
    p = rng.normal(size=4)
    np.testing.assert_allclose(mul_matrix(q, left) @ p, qmul(q, p) if left else qmul(p, q),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("side", list(Side))
def test_arbitrary_nodes_match_bruteforce(side):
    """The QFT stages of a shifted odd grid at uniform frequency nodes of
    random start and spacing, neither grid centred on 0."""
    rng = np.random.default_rng(11)
    sig = QSignal2D(GridSpec(0.3, -1.1, 0.25, 0.2, 7, 9), rng.normal(size=(7, 9, 4)))
    u = GridSpec(rng.uniform(-4.0, 0.0), 0.0, rng.uniform(0.5, 1.5), 1.0, 6, 1).axes[0]
    v = GridSpec(rng.uniform(-4.0, 0.0), 0.0, rng.uniform(0.5, 1.5), 1.0, 5, 1).axes[0]
    axes = AxisPair(np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0]))
    coords = ((u, sig.grid.axes[0]), (v, sig.grid.axes[1]))
    got = sig.data
    for axis, left in side.stages:
        y, x = coords[axis]
        got = exp_contract(y, x, -1.0, (axes.mu1, axes.mu2)[axis], got, left, axis, scale=x[1])
    want = qft_bruteforce(sig, side, axes, nodes(u), nodes(v))
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("side", [Side.RIGHT_SIDED, Side.LEFT_SIDED])
def test_sided_qlct_odd_grid_matches_bruteforce(side):
    rng = np.random.default_rng(17)
    sig = QSignal2D(GridSpec.centered(2.0, 9), rng.normal(size=(9, 9, 4)))
    A1, A2 = LctParams(2.0, 0.5, 2.0, 1.0), LctParams(1.0, 1.0, 0.0, 1.0)
    kind = LctKind(side, A1, A2)
    got = qlct_forward(sig, kind, FreqWindow(3.0, 2.5, 7, 11))
    want = qlct_bruteforce(sig, side, A1, A2, kind.axes, got.grid.s, got.grid.t)
    assert np.max(np.abs(got.data - want)) < 1e-12


def test_low_rank_declines_an_axis_shorter_than_two():
    """A one-node input or output axis has no half to interpolate: full rank."""
    many, one = GridSpec.centered(3.0, 64).axes[0], (0.5, 1.0, np.zeros(1))
    for y, x in ((many, one), (one, many), (one, one)):
        assert _kernels.low_rank(y, x, -1.0) is None
