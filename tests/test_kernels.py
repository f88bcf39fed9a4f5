"""The contraction primitive: mirrored (folded) and dense paths.

Midpoint grids take the folded path; the same nodes in a rolled order
are not mirrored and take the dense path, so comparing the two checks
the fold against an independent evaluation of the same sum.
"""

import tracemalloc

import numpy as np
import pytest

from oracles import qft_bruteforce, qlct_bruteforce
from qharmonics import _kernels
from qharmonics._kernels import _mirrored, chirp_multiply, const_multiply, exp_contract
from qharmonics.grids import GridSpec, QSignal2D
from qharmonics.qft import FreqWindow, QftKind, Side, qft_forward, qft_forward_at, qft_inverse
from qharmonics.qlct import (
    LctKind,
    LctParams,
    qlct_forward,
    qlct_inverse_sided,
    qlct_inverse_two_sided,
    qlct_via_qft,
)
from qharmonics.quaternion import AxisPair, mul_matrix, qexp_pure, qmul

MU = np.array([0.0, 0.6, 0.8])


def _two_sum(a, b):
    """a + b as an unevaluated sum s + e, exact (Knuth's two-sum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def brute_contract(y, x, c, mu, field, left, axis, pre=0.0, post=0.0, scale=1.0):
    """scale sum_j e^{mu (c y_k x_j + pre_j + post_k)} f_j by explicit Hamilton
    products.  The combined phase is carried as an exact sum s + e, so that
    phases of hundreds of radians keep their low bits."""
    s, e1 = _two_sum(np.asarray(pre)[None], np.asarray(post)[..., None])
    s, e2 = _two_sum(s, c * np.outer(y, x))
    e = e1 + e2
    cos, sin = np.cos(s) - np.sin(s) * e, np.sin(s) + np.cos(s) * e
    K = scale * np.stack([cos] + [sin * m for m in mu], axis=-1)  # (n_out, n_in, 4)
    F = np.moveaxis(field, axis, 0)
    K = K.reshape(K.shape[:2] + (1,) * (F.ndim - 2) + (4,))
    terms = qmul(K, F[None]) if left else qmul(F[None], K)
    return np.moveaxis(terms.sum(axis=1), 0, axis)


MIRRORED_CASES = [(8, 8), (7, 7), (8, 5), (5, 12), (1, 3), (9, 2)]
STAGES = [pytest.param(n_in, n_out, chirped, overwrite,
                       id=f"{n_in}-{n_out}" + "-chirped" * chirped + "-overwrite" * overwrite)
          for overwrite in (False, True) for chirped in (False, True)
          for n_in, n_out in MIRRORED_CASES if n_in == n_out or not overwrite]


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 3 sample rows and of 3 grid columns (12 real columns), so a
    width of 7 straddles two blocks and ends in a partial one."""
    monkeypatch.setattr(_kernels, "ROW_BLOCK", 3)
    monkeypatch.setattr(_kernels, "COL_BLOCK", 12)


@pytest.mark.parametrize("n_in,n_out,chirped,overwrite", STAGES)
@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("axis", [0, 1])
def test_mirrored_and_dense_paths_agree(n_in, n_out, chirped, overwrite, left, axis, small_blocks):
    """The folded stage against the dense path and the brute Hamilton sum,
    through straddling and partial blocks.  Chirped stages (pre, post and
    scale, phases of hundreds of radians) are also checked against
    chirp -> contraction -> chirp.  With `overwrite`, both paths run again
    in place in a copy of their input, and on a Fortran-order copy that
    they must leave untouched."""
    rng = np.random.default_rng(n_in * 31 + n_out)
    x = GridSpec.centered(2.5, n_in).s
    y = GridSpec.centered(3.0, n_out).s
    assert _mirrored(x) and _mirrored(y)
    shape = [7, 7, 4]
    shape[axis] = n_in
    field = rng.normal(size=shape)
    chirps = {}
    if chirped:
        chirps = dict(pre=300.0 + 40.0 * x * x + rng.normal(size=n_in),
                      post=-250.0 - 30.0 * y * y + rng.normal(size=n_out), scale=0.37)
    folded = exp_contract(y, x, -1.3, MU, field, left, axis, **chirps)
    assert folded.flags.c_contiguous

    # rolled nodes are no longer mirrored and take the dense path
    px, py = np.roll(np.arange(n_in), 1), np.roll(np.arange(n_out), 1)
    assert not (_mirrored(x[px]) and _mirrored(y[py]))
    rolled = dict(chirps, pre=chirps["pre"][px], post=chirps["post"][py]) if chirped else {}
    rolled_field = np.take(field, px, axis=axis)
    dense = exp_contract(y[py], x[px], -1.3, MU, rolled_field, left, axis, **rolled)
    if overwrite:
        for (ys, xs), src, kw, want in (((y, x), field, chirps, folded),
                                        ((y[py], x[px]), rolled_field, rolled, dense)):
            mine, fortran = src.copy(), np.asfortranarray(src)
            got = exp_contract(ys, xs, -1.3, MU, mine, left, axis, overwrite=True, **kw)
            assert np.shares_memory(got, mine) and np.array_equal(got, want)
            got = exp_contract(ys, xs, -1.3, MU, fortran, left, axis, overwrite=True, **kw)
            assert not np.shares_memory(got, fortran) and np.array_equal(fortran, src)
    dense = np.take(dense, np.argsort(py), axis=axis)

    ref = brute_contract(y, x, -1.3, MU, field, left, axis, **chirps)
    others = [dense, ref]
    if chirped:
        sandwich = chirp_multiply(chirps["pre"], MU, field, left, axis)
        sandwich = exp_contract(y, x, -1.3, MU, sandwich, left, axis)
        others.append(chirp_multiply(chirps["post"], MU, sandwich, left, axis, scale=0.37))
    scale = np.max(np.abs(ref))
    assert folded.shape == ref.shape
    for other in others:
        assert np.max(np.abs(folded - other)) <= 1e-14 * scale


LOW_RANK_SIZES = [(160, 160), (161, 161), (160, 161), (161, 162)]


@pytest.mark.parametrize("n_in,n_out", LOW_RANK_SIZES)
@pytest.mark.parametrize("chirped", [False, True], ids=["plain", "chirped"])
@pytest.mark.parametrize("c", [1.0, -1.0, 2.0, -2.0])
@pytest.mark.parametrize("axis", [0, 1])
def test_low_rank_stages_match_brute_force(n_in, n_out, chirped, c, axis, small_blocks, monkeypatch):
    """Narrow kernels (|c| X Y / 2 <= 1.8 here) take the low-rank path, which
    folds into the output block: through straddling and partial blocks, odd
    lengths, chirps with phases of hundreds of radians, and in place."""
    calls = []
    lowrank = _kernels._lowrank
    monkeypatch.setattr(_kernels, "_lowrank", lambda *a: calls.append(1) or lowrank(*a))
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
    got = exp_contract(y, x, c, MU, field, left, axis, **chirps)
    assert calls and got.flags.c_contiguous
    want = brute_contract(y, x, c, MU, field, left, axis, **chirps)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    if n_in == n_out:
        mine, fortran = field.copy(), np.asfortranarray(field)
        again = exp_contract(y, x, c, MU, mine, left, axis, overwrite=True, **chirps)
        assert np.shares_memory(again, mine) and np.array_equal(again, got)
        again = exp_contract(y, x, c, MU, fortran, left, axis, overwrite=True, **chirps)
        assert not np.shares_memory(again, fortran) and np.array_equal(fortran, field)
        assert np.array_equal(again, got)

    # too few Chebyshev points fail the check: the stage falls back to the fold
    calls.clear()
    monkeypatch.setattr(_kernels, "RANK_PAD", -8.0)
    fallback = exp_contract(y, x, c, MU, field, left, axis, **chirps)
    assert not calls
    assert np.max(np.abs(fallback - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("axis", [0, 1])
def test_path_of_the_bench_windows(axis):
    """On extent 10 with a window of half-width 8, every 1024^2 stage with
    |c| = 1/|b| <= 2 (b in [0.5, 1]) is low-rank, forward (y the window) and
    inverse (y the grid); natural windows are full rank and keep the fold."""
    for n in (512, 1024):
        grid = GridSpec.centered(10.0, n)
        natural = FreqWindow.natural(grid).to_grid().s
        assert _kernels._lowrank_tables(natural, grid.s, -1.0, 1.0, _kernels.BREAK_EVEN[axis]) is None
    grid = GridSpec.centered(10.0, 1024)
    window = FreqWindow(8.0, 8.0, 1024, 1024).to_grid().s
    for c in (1.0, -1.0, 1.5, 2.0, -2.0):
        for y, x in ((window, grid.s), (grid.s, window)):
            assert _kernels._lowrank_tables(y, x, c, 1.0, _kernels.BREAK_EVEN[axis]) is not None


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


MEMORY_CASES = [pytest.param(family, side, direction, 512, 2.5, id=f"{family}-{side.value}-{direction}")
                for family in ("qft", "qlct") for side in Side for direction in ("forward", "inverse")]
# narrow windows at 1024^2 (b = 0.5 on both QLCT axes): every stage is low-rank
NARROW_CASES = [pytest.param(family, Side.TWO_SIDED, direction, 1024, 1.25,
                             id=f"{family}-two-{direction}-1024")
                for family in ("qft", "qlct") for direction in ("forward", "inverse")]


@pytest.mark.parametrize("family,side,direction,n,bound", MEMORY_CASES + NARROW_CASES + [
    pytest.param("qlct_via_qft", Side.TWO_SIDED, "forward", 512, 3.5, id="qlct_via_qft")])
def test_transforms_allocate_one_field(family, side, direction, n, bound):
    """Peak traced allocation of one n^2 transform, in units of the field
    (n*n*4 doubles); its input is allocated beforehand.  A transform
    allocates one field, in its first stage, plus what a stage holds: the
    block buffers of the folded path, only p-row tables and intermediates on
    the low-rank path.  ``qlct_via_qft`` also holds its chirped input
    through the QFT."""
    grid = GridSpec.centered(10.0, n)
    sig = QSignal2D(grid, np.random.default_rng(3).normal(size=(n, n, 4)))
    window = FreqWindow(8.0, 8.0, n, n)
    qkind = QftKind(side)
    A1, A2 = ((LctParams(0.7, 0.8, (0.7 * -0.4 - 1.0) / 0.8, -0.4), LctParams(1.0, 1.0, 0.0, 1.0))
              if n == 512 else (LctParams(0.6, 0.5, (0.6 * -0.4 - 1.0) / 0.5, -0.4),
                                LctParams(1.0, 0.5, 0.0, 1.0)))
    lkind = LctKind(side, A1, A2)
    forward = {"qft": lambda: qft_forward(sig, qkind, window),
               "qlct": lambda: qlct_forward(sig, lkind, window),
               "qlct_via_qft": lambda: qlct_via_qft(sig, lkind, fast=True)}[family]
    call = forward
    if direction == "inverse":
        spec = forward()
        inverse = (qft_inverse if family == "qft" else
                   qlct_inverse_two_sided if side is Side.TWO_SIDED else qlct_inverse_sided)
        call = lambda: inverse(spec, spec.kind, grid)  # noqa: E731
    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.data.shape == (n, n, 4)
    assert peak / (n * n * 4 * 8) < bound


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
    rng = np.random.default_rng(11)
    sig = QSignal2D(GridSpec(0.3, -1.1, 0.25, 0.2, 7, 9), rng.normal(size=(7, 9, 4)))
    u = rng.uniform(-4.0, 4.0, size=6)
    v = rng.uniform(-4.0, 4.0, size=5)
    axes = AxisPair(np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0]))
    got = qft_forward_at(sig, QftKind(side, axes), u, v)
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
