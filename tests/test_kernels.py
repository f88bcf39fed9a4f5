"""The contraction primitive against dense evaluations of the same sum.

Every uniform grid takes the folded path: grids centred on 0 fold as they
are, and a shifted grid folds about its centre, the shift becoming a
chirp.  The dense references evaluate each kernel entry on the given
nodes.
"""


import numpy as np
import pytest

from oracles import qft_bruteforce, qlct_bruteforce
from qharmonics import _kernels
from qharmonics._kernels import _mirrored, chirp_multiply, const_multiply, exp_contract
from qharmonics.grids import GridSpec, QSignal2D
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


def brute_contract(y, x, c, mu, field, left, axis, pre=0.0, post=0.0, scale=1.0):
    """scale sum_j e^{mu (c y_k x_j + pre_j + post_k)} f_j by explicit Hamilton
    products.  The combined phase, the kernel product included, is carried as
    an exact sum s + e, so that phases of thousands of radians keep their low
    bits."""
    cy, e0 = _two_prod(c, np.asarray(y, dtype=float))
    p, e3 = _two_prod(cy[:, None], np.asarray(x, dtype=float)[None])
    s, e1 = _two_sum(np.asarray(pre)[None], np.asarray(post)[..., None])
    s, e2 = _two_sum(s, p)
    e = e1 + e2 + e3 + np.outer(e0, x)
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


def midpoints(centre, extent, n):
    """n midpoint nodes of [centre - extent, centre + extent]."""
    return GridSpec(centre - extent, 0.0, 2.0 * extent / n, 1.0, n, 1).s


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
    grids shifted off 0 (input, output or both), whose centres become
    chirps.  Chirped stages (pre, post and scale, phases of hundreds of
    radians) are also checked against chirp -> contraction -> chirp.  With
    `overwrite`, each stage runs again in place in a copy of its input, and
    on a Fortran-order copy that it must leave untouched."""
    rng = np.random.default_rng(n_in * 31 + n_out)
    shape = [7, 7, 4]
    shape[axis] = n_in
    field = rng.normal(size=shape)
    noise = rng.normal(size=n_in), rng.normal(size=n_out)
    for x0, y0 in [(0.0, 0.0)] + SHIFTS:
        x, y = midpoints(x0, 2.5, n_in), midpoints(y0, 3.0, n_out)
        assert _mirrored(x) == (x0 == 0.0) and _mirrored(y) == (y0 == 0.0)
        chirps = {}
        if chirped:
            chirps = dict(pre=300.0 + 40.0 * (x - x0) ** 2 + noise[0],
                          post=-250.0 - 30.0 * (y - y0) ** 2 + noise[1], scale=0.37)
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
            sandwich = chirp_multiply(chirps["pre"], MU, field, left, axis)
            sandwich = exp_contract(y, x, -1.3, MU, sandwich, left, axis)
            others.append(chirp_multiply(chirps["post"], MU, sandwich, left, axis, scale=0.37))
        assert got.shape == ref.shape
        for other in others:
            assert np.max(np.abs(got - other)) <= 1e-14 * np.max(np.abs(ref))


def long_double_contract(y, x, c, mu, field, left, scale):
    """An axis-0 stage in long double: the unfolded kernel on the given nodes."""
    theta = np.longdouble(c) * np.asarray(y, np.longdouble)[:, None] * np.asarray(x, np.longdouble)
    return long_double_sum(theta, mu, field, left, scale)


def long_double_sum(theta, mu, field, left, scale):
    """scale sum_j e^{mu theta_kj} f_j (axis 0) in long double."""
    F = field.astype(np.longdouble).reshape(theta.shape[1], -1)
    MT = mul_matrix(np.concatenate([[0.0], mu]), left).T.astype(np.longdouble)
    C, S = ((f(theta) @ F).reshape(len(theta), -1, 4) for f in (np.cos, np.sin))
    return np.longdouble(scale) * (C + S @ MT)


def natural_stage(n, direction, extent=10.0, b=1.0):
    """(y, x, c, scale) of a QFT (b = 1) or QLCT stage on a centred n-point grid
    and its natural window scaled by |b|, where the stage is a length-n DFT."""
    grid = GridSpec.centered(extent, n)
    window = FreqWindow.natural(grid).scaled(abs(b), abs(b)).to_grid()
    if direction == "forward":
        return window.s, grid.s, -1.0 / b, grid.ds
    return grid.s, window.s, 1.0 / b, window.ds / (2.0 * np.pi)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="long double is double here")
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_image_grid_stage_against_long_double(direction):
    """The axis-0 QFT stage of a 512^2 image grid on [0, 512] and its natural
    window: the grid folds about its centre 256, the shift a chirp.  Against
    a long-double evaluation it stays within twice the error of the dense
    double-precision product on the same nodes, which rounds each kernel
    angle c y x once."""
    grid = GridSpec(0.0, 0.0, 1.0, 1.0, 512, 512)
    window = FreqWindow.natural(grid).to_grid()
    y, x, c, scale = ((window.s, grid.s, -1.0, grid.ds) if direction == "forward"
                      else (grid.s, window.s, 1.0, window.ds / (2.0 * np.pi)))
    assert not (_mirrored(x) and _mirrored(y))
    field = np.random.default_rng(0).normal(size=(512, 16, 4))
    ref = long_double_contract(y, x, c, MU, field, True, scale)
    theta = c * np.outer(y, x)
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
@pytest.mark.parametrize("n", [64, 65, 360, 512, 1024])
@pytest.mark.parametrize("direction", ["forward", "inverse"])
def test_dft_stage_against_exact_long_double_dft(n, direction, dft_calls):
    """On the natural window a stage is exactly a length-n DFT, its kernel
    angles +-pi (2k - n + 1)(2j - n + 1) / 2n: against that DFT in long
    double, the index products reduced mod 4n in integers, the FFT stage is
    within 16 eps, on axis 0 (node-major blocks, the phasors in per-node
    maps) and on axis 1 (row layout) alike, and the two agree to 4 eps on a
    field and its transpose.  The QLCT stage (b = -0.8) carries chirps of
    60 to 2e4 rad; at n = 360 (13-smooth, not a power of two) the field is
    136 lines wide, two full DFT_BLOCKs and a partial one."""
    field = np.random.default_rng(n).normal(size=(n, 136 if n == 360 else 3, 4))
    k = np.arange(n)
    m = np.outer(2 * k - n + 1, 2 * k - n + 1) % (4 * n)
    pi = 4 * np.arctan(np.longdouble(1))
    eps = np.finfo(float).eps
    for b in (1.0, -0.8):
        y, x, c, scale = natural_stage(n, direction, b=b)
        chirps = dict(scale=scale)
        if b != 1.0:
            chirps.update(pre=x * x / b, post=y * y / (2.0 * b))
        dft_calls.clear()
        got = exp_contract(y, x, c, MU, field, True, 0, **chirps)
        across = exp_contract(y, x, c, MU, np.ascontiguousarray(field.swapaxes(0, 1)), True, 1,
                              **chirps).swapaxes(0, 1)
        assert len(dft_calls) == 2 * -(-field.shape[1] // _kernels.DFT_BLOCK)
        theta = np.sign(c) * pi * m / (2 * n)
        if b != 1.0:
            theta = (theta + np.asarray(chirps["pre"], np.longdouble)
                     + np.asarray(chirps["post"], np.longdouble)[:, None])
        ref = long_double_sum(theta, MU, field, True, scale)
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
    ref = long_double_contract(y, x, c, MU, field, True, scale)
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) <= n * np.finfo(float).eps


@pytest.mark.parametrize("n", [12, 15, 26, 27])
@pytest.mark.parametrize("chirped", [False, True], ids=["plain", "chirped"])
@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("axis", [0, 1])
def test_dft_stages_match_brute_force(n, chirped, left, axis, small_blocks, dft_calls):
    """QFT and QLCT (b = -0.8) stages on natural windows take the FFT path,
    forward and inverse: through straddling and partial blocks, odd lengths,
    chirps with phases of hundreds of radians, and in place with the same
    bytes; a Fortran-order input handed over is left untouched."""
    rng = np.random.default_rng(n * 4 + 2 * axis + left)
    shape = [7, 7, 4]
    shape[axis] = n
    field = rng.normal(size=shape)
    for b in (1.0, -0.8):
        for direction in ("forward", "inverse"):
            y, x, c, scale = natural_stage(n, direction, extent=2.5, b=b)
            chirps = dict(scale=scale)
            if chirped:
                chirps = dict(pre=300.0 + 40.0 * x * x + rng.normal(size=n),
                              post=-250.0 - 30.0 * y * y + rng.normal(size=n), scale=0.37)
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
    back = qft_inverse(spec, spec.kind, grid)
    assert len(dft_calls) == 4 and np.max(np.abs(back.data - sig.data)) < 1e-12
    kind = LctKind(side, LctParams(2.0, 0.5, 2.0, 1.0), LctParams(1.0, -1.0, 0.0, 1.0))
    spec = qlct_forward(sig, kind)
    assert len(dft_calls) == 6
    back = qlct_inverse(spec, kind, grid)
    assert len(dft_calls) == 8 and np.max(np.abs(back.data - sig.data)) < 1e-12


def test_other_stages_keep_the_fold(dft_calls):
    """No FFT where a stage is not an exact smooth-length DFT: the windows of
    the CLI benchmarks (half-width 8 on extent 10 at 512^2 and 1024^2, and 8,
    10 and 12 on extent 8, for |b| in [0.5, 1]), image grids (not mirrored),
    lengths with a prime factor above 13, counts that change, and a window
    64 ulps wider than the natural one."""
    stages = []
    for n, extent, half in ((512, 10.0, 8.0), (1024, 10.0, 8.0), (64, 8.0, 8.0),
                            (256, 8.0, 12.0), (128, 8.0, 10.0)):
        grid, window = GridSpec.centered(extent, n).s, FreqWindow.square(half, n).to_grid().s
        stages += [(y, x, c) for c in (1.0, -1.0, 1.5, -2.0, 2.0)
                   for y, x in ((window, grid), (grid, window))]
    image = GridSpec(0.0, 0.0, 1.0, 1.0, 64, 64)
    stages.append((FreqWindow.natural(image).to_grid().s, image.s, -1.0))
    for n in (257, 509):
        y, x, c, _ = natural_stage(n, "forward")
        stages.append((y, x, c))
    y, x, c, _ = natural_stage(64, "forward")
    stages.append((y[:-1] + 0.5 * (y[1] - y[0]), x, c))
    stages.append((y * (1.0 + 64 * np.finfo(float).eps), x, c))
    for y, x, c in stages:
        field = np.zeros((len(x), 1, 4))
        exp_contract(y, x, c, MU, field, True, 0)
    assert not dft_calls


#: (n_in, n_out): even, odd, growing and shrinking axes
LOW_RANK_SIZES = [(160, 160), (161, 161), (160, 161), (161, 162), (161, 120), (160, 97)]


def low_rank_stage(y, x, c, field, left, axis, pre=None, post=None, scale=1.0, overwrite=False):
    """One stage the way a transform runs a low-rank axis: contract onto the
    Chebyshev points, then interpolate and chirp."""
    t, L = _kernels.low_rank(y, x, c)
    plans = [None, None]
    plans[axis] = (L, post, MU, left)
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
    interpolation), odd lengths, chirps with phases of hundreds of radians,
    in place, and on shifted grids."""
    monkeypatch.setattr(_kernels, "COL_BLOCK", 48)
    rng = np.random.default_rng(n_in * 7 + n_out + int(10 * c) + 40 * chirped + axis)
    x = GridSpec.centered(1.0, n_in).s
    y = GridSpec.centered(0.9, n_out).s
    shape = [7, 7, 4]
    shape[axis] = n_in
    field = rng.normal(size=shape)
    chirps = {}
    if chirped:
        chirps = dict(pre=300.0 + 40.0 * x * x + rng.normal(size=n_in),
                      post=-250.0 - 30.0 * y * y + rng.normal(size=n_out), scale=0.37)
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

    # on grids shifted off 0 the points fold about their centres, the shifts chirps
    xs, ys = x + 0.4, y - 0.3
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
    qft_inverse(spec, qkind, grid, overwrite=True)
    assert calls == [first, last, (0, 1), last, first, (0, 1)]
    calls.clear()
    spec = qlct_forward(sig, lkind, window)
    qlct_inverse(spec, lkind, grid)
    if side is Side.TWO_SIDED:
        assert calls == [first, last, (0, 1), last, first, (0, 1)]
    else:
        assert calls == [first, (first,), last, (last,), last, (last,), first, (first,)]


def along(axis, nodes):
    """The grid with the uniform midpoints `nodes` on `axis`, 3 on the other."""
    start, step, count = [-1.0, -1.0], [2.0 / 3, 2.0 / 3], [3, 3]
    step[axis] = nodes[1] - nodes[0]
    start[axis], count[axis] = nodes[0] - step[axis] / 2, len(nodes)
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
                        lambda y, *a, **k: lengths.append(len(y)) or contract(y, *a, **k))
    for n in (512, 1024):
        grid = GridSpec.centered(10.0, n)
        natural = FreqWindow.natural(grid).to_grid().s
        assert _kernels.low_rank(natural, grid.s, -1.0) is None
        window = FreqWindow(8.0, 8.0, n, n).to_grid().s
        for c in (1.0, -1.0, 1.5, -1.5, 2.0, -2.0):
            for y, x in ((window, grid.s), (grid.s, window)):
                assert _kernels.low_rank(y, x, c) is not None
                src, dst = along(axis, x), along(axis, y)
                lengths.clear()
                out = _stages(np.zeros((src.ns, src.nt, 4)), [(axis, True)], QftKind().axes,
                              src, dst, lambda ax, x, y, dx: (c, None, None, dx))
                assert lengths[0] < n and out.shape == (dst.ns, dst.nt, 4)


@pytest.mark.parametrize("chirped", [False, True])
@pytest.mark.parametrize("axis", [0, 1])
def test_stage_reads_any_memory_order(axis, chirped, small_blocks):
    rng = np.random.default_rng(23)
    x, y = GridSpec.centered(2.0, 9).s, GridSpec.centered(4.0, 6).s
    field = rng.normal(size=(9, 8, 4) if axis == 0 else (8, 9, 4))
    views = [np.asfortranarray(field), field[::-1, ::-1][::-1, ::-1],
             np.ascontiguousarray(field.transpose(1, 0, 2)).transpose(1, 0, 2)]
    chirps = dict(pre=0.5 * x * x, post=y + 200.0, scale=0.3) if chirped else {}
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


@pytest.mark.parametrize("family,side,direction,n,width,bound",
                         MEMORY_CASES + NARROW_CASES + FOLDED_CASES + [
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
        call = lambda: inverse(given, given.kind, grid, overwrite=direction == "consume")  # noqa: E731
    result, peak = traced_peak(call)
    assert result.data.shape == (n, n, 4)
    assert peak / (n * n * 4 * 8) < bound
    assert np.shares_memory(result.data, given.data) == (direction in ("consume", "hand-over"))


def test_mirror_detection():
    for n in (2, 7, 256, 1024):
        assert _mirrored(GridSpec.centered(10.0, n).s)
        assert _mirrored(FreqWindow.natural(GridSpec.centered(10.0, n)).to_grid().s)
    assert not _mirrored(GridSpec(0.0, 0.0, 1.0, 1.0, 8, 8).s)
    assert not _mirrored(GridSpec.centered(10.0, 8).s + 1e-9)


@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("axis", [0, 1])
def test_chirp_and_const_are_4x4_maps(left, axis):
    rng = np.random.default_rng(5)
    field = rng.normal(size=(5, 6, 4))
    angles = rng.normal(size=field.shape[axis])
    got = chirp_multiply(angles, MU, field, left, axis, scale=0.7)
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
    u = rng.uniform(-4.0, 0.0) + rng.uniform(0.5, 1.5) * np.arange(6)
    v = rng.uniform(-4.0, 0.0) + rng.uniform(0.5, 1.5) * np.arange(5)
    axes = AxisPair(np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0]))
    coords = ((u, sig.grid.s, sig.grid.ds), (v, sig.grid.t, sig.grid.dt))
    got = sig.data
    for axis, left in side.stages:
        y, x, dx = coords[axis]
        got = exp_contract(y, x, -1.0, (axes.mu1, axes.mu2)[axis], got, left, axis, scale=dx)
    want = qft_bruteforce(sig, side, axes, u, v)
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
