"""The contraction primitive: mirrored (folded) and dense paths.

Midpoint grids take the folded path; the same nodes in a rolled order
are not mirrored and take the dense path, so comparing the two checks
the fold against an independent evaluation of the same sum.
"""

import numpy as np
import pytest

from oracles import qft_bruteforce, qlct_bruteforce
from qharmonics._kernels import _mirrored, chirp_multiply, const_multiply, exp_contract
from qharmonics.grids import GridSpec, QSignal2D
from qharmonics.qft import FreqWindow, QftKind, Side, qft_forward_at
from qharmonics.qlct import LctKind, LctParams, qlct_forward
from qharmonics.quaternion import AxisPair, mul_matrix, qexp_pure, qmul

MU = np.array([0.0, 0.6, 0.8])


def brute_contract(y, x, c, mu, field, left, axis):
    """sum_j e^{mu c y_k x_j} f_j by explicit Hamilton products."""
    F = np.moveaxis(field, axis, 0)
    K = qexp_pure(mu, c * np.outer(y, x))  # (n_out, n_in, 4)
    K = K.reshape(K.shape[:2] + (1,) * (F.ndim - 2) + (4,))
    terms = qmul(K, F[None]) if left else qmul(F[None], K)
    return np.moveaxis(terms.sum(axis=1), 0, axis)


@pytest.mark.parametrize("n_in,n_out", [(8, 8), (7, 7), (8, 5), (5, 12), (1, 3), (9, 2)])
@pytest.mark.parametrize("left", [True, False])
@pytest.mark.parametrize("axis", [0, 1])
def test_mirrored_and_dense_paths_agree(n_in, n_out, left, axis):
    rng = np.random.default_rng(n_in * 31 + n_out)
    x = GridSpec.centered(2.5, n_in).s
    y = GridSpec.centered(3.0, n_out).s
    assert _mirrored(x) and _mirrored(y)
    shape = [6, 6, 4]
    shape[axis] = n_in
    field = rng.normal(size=shape)
    folded = exp_contract(y, x, -1.3, MU, field, left, axis)

    # rolled nodes are no longer mirrored and take the dense path
    px, py = np.roll(np.arange(n_in), 1), np.roll(np.arange(n_out), 1)
    assert not (_mirrored(x[px]) and _mirrored(y[py]))
    dense = exp_contract(y[py], x[px], -1.3, MU, np.take(field, px, axis=axis), left, axis)
    dense = np.take(dense, np.argsort(py), axis=axis)

    ref = brute_contract(y, x, -1.3, MU, field, left, axis)
    scale = np.max(np.abs(ref))
    assert folded.shape == ref.shape
    assert np.max(np.abs(folded - dense)) <= 1e-14 * scale
    assert np.max(np.abs(folded - ref)) <= 1e-14 * scale


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
