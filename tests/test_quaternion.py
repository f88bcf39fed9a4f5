import numpy as np
import pytest

from oracles import random_axes
from qharmonics.errors import InvalidParameterError
from qharmonics.quaternion import (
    CANONICAL_AXES,
    AxisPair,
    axis_components,
    pure_unit,
    qabs,
    qconj,
    qexp_pure,
    qinv,
    qmul,
    quat,
)

ONE = quat(1, 0, 0, 0)
I = quat(0, 1, 0, 0)
J = quat(0, 0, 1, 0)
K = quat(0, 0, 0, 1)


def rand_quats(n, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 4))


def test_hamilton_table():
    units = {"i": I, "j": J, "k": K}
    want = {
        ("i", "i"): -ONE, ("j", "j"): -ONE, ("k", "k"): -ONE,
        ("i", "j"): K, ("j", "i"): -K,
        ("j", "k"): I, ("k", "j"): -I,
        ("k", "i"): J, ("i", "k"): -J,
    }
    for (a, b), expect in want.items():
        np.testing.assert_array_equal(qmul(units[a], units[b]), expect)


def test_qmul_examples():
    np.testing.assert_array_equal(qmul(I, J), K)
    q = quat(0.3, -1.2, 2.0, 0.7)
    np.testing.assert_array_equal(qmul(ONE, q), q)
    np.testing.assert_array_equal(qmul(quat(1, 1, 0, 0), quat(1, 0, 1, 0)),
                                  quat(1, 1, 1, 1))


def test_qmul_associative_noncommutative():
    p, q, r = rand_quats(3, seed=1)
    np.testing.assert_allclose(qmul(qmul(p, q), r), qmul(p, qmul(q, r)),
                               rtol=0, atol=1e-12)
    assert np.max(np.abs(qmul(p, q) - qmul(q, p))) > 1e-3


def test_conj_and_abs_examples():
    np.testing.assert_array_equal(qconj(I), -I)
    assert qabs(quat(1, 1, 1, 1)) == 2.0
    # conj(ij) = conj(j) conj(i) = -k
    np.testing.assert_array_equal(qconj(qmul(I, J)), -K)
    np.testing.assert_array_equal(qconj(qmul(I, J)), qmul(qconj(J), qconj(I)))


def _awkward_values(rng, size):
    """Random values spanning 1e-+26, with subnormals, huge values whose
    squares overflow, +-inf and NaN mixed in."""
    vals = rng.normal(size=size) * 10.0 ** rng.uniform(-26, 26, size=size)
    special = [5e-324, -2.5e-310, 1e-160, 1.5e154, -1e200, np.inf, -np.inf, np.nan, 0.0, -0.0]
    picks = rng.random(size) < 0.2
    vals[picks] = rng.choice(special, size=int(picks.sum()))
    return vals


@pytest.mark.parametrize("shape", [(4,), (257, 4), (33, 17, 4)])
def test_qabs_is_the_summed_square_bit_for_bit(shape):
    """The component sum matches sqrt(np.sum(q * q, axis=-1)), NaNs included,
    on contiguous arrays and on strided and transposed views."""
    rng = np.random.default_rng(len(shape))
    q = _awkward_values(rng, shape)
    wide = _awkward_values(rng, shape[:-1] + (8,))
    views = [q, wide[..., ::2], q[::-1]]
    if len(shape) == 3:
        views.append(np.asfortranarray(q))
        views.append(np.ascontiguousarray(q.transpose(1, 0, 2)).transpose(1, 0, 2))
    for view in views:
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = qabs(view), np.sqrt(np.sum(view * view, axis=-1))
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_conj_antihomomorphism_random():
    p, q = rand_quats(2, seed=2)
    np.testing.assert_allclose(qconj(qmul(p, q)), qmul(qconj(q), qconj(p)),
                               rtol=0, atol=1e-13)


def test_modulus_multiplicative_and_qqbar():
    qs = rand_quats(200, seed=3)
    ps = rand_quats(200, seed=4)
    np.testing.assert_allclose(qabs(qmul(ps, qs)), qabs(ps) * qabs(qs), rtol=1e-14)
    prod = qmul(qs, qconj(qs))
    np.testing.assert_allclose(prod[:, 0], qabs(qs) ** 2, rtol=1e-14)
    assert np.max(np.abs(prod[:, 1:])) < 1e-14 * np.max(qabs(qs) ** 2)
    assert qconj(qconj(qs)).tolist() == qs.tolist()


def test_qinv():
    q = quat(0.5, -1.0, 2.0, 0.25)
    np.testing.assert_allclose(qmul(q, qinv(q)), ONE, rtol=0, atol=1e-15)
    np.testing.assert_allclose(qmul(qinv(q), q), ONE, rtol=0, atol=1e-15)


def test_qexp_pure_examples():
    mu_i = pure_unit([1.0, 0.0, 0.0])
    np.testing.assert_allclose(qexp_pure(mu_i, np.pi / 2), I, rtol=0, atol=1e-16)
    np.testing.assert_array_equal(qexp_pure(pure_unit([0, 1, 0]), 0.0), ONE)
    eighth = qexp_pure(mu_i, np.pi / 4)
    np.testing.assert_allclose(qmul(eighth, eighth), I, rtol=0, atol=1e-15)


def test_qexp_pure_properties():
    rng = np.random.default_rng(5)
    mu = pure_unit(np.array([2.0, -1.0, 2.0]) / 3.0)
    a = rng.normal(size=50)
    b = rng.normal(size=50)
    np.testing.assert_allclose(qabs(qexp_pure(mu, a)), 1.0, rtol=1e-15)
    np.testing.assert_allclose(qmul(qexp_pure(mu, a), qexp_pure(mu, b)),
                               qexp_pure(mu, a + b), rtol=0, atol=1e-14)
    # mu^2 = -1
    np.testing.assert_allclose(qmul(quat(0, *mu), quat(0, *mu)), -ONE,
                               rtol=0, atol=1e-15)


def test_pure_unit_validation():
    with pytest.raises(InvalidParameterError, match="^axis norm .* is not 1 within"):
        pure_unit([1.0, 1.0, 0.0])
    with pytest.raises(InvalidParameterError, match="^scalar part 0.5 is nonzero$"):
        pure_unit([0.5, 1.0, 0.0, 0.0])
    # norm within the 1e-9 slack gets renormalized exactly
    v = pure_unit(np.array([1.0 + 3e-10, 0.0, 0.0]))
    assert np.linalg.norm(v) == 1.0


def test_axis_pair_validation():
    AxisPair(np.array([1.0, 0, 0]), np.array([0.0, 1, 0]))
    r = 1 / np.sqrt(2)
    AxisPair(np.array([r, r, 0.0]), np.array([r, -r, 0.0]))
    with pytest.raises(InvalidParameterError, match="^axis dot product 1.0 is nonzero"):
        AxisPair(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))
    with pytest.raises(InvalidParameterError, match="^axis norm 2.0 is not 1 within"):
        AxisPair(np.array([2.0, 0, 0]), np.array([0.0, 1, 0]))
    pair = AxisPair(np.array([1.0, 0, 0]), np.array([0.0, 1, 0]))
    np.testing.assert_array_equal(pair.mu3, [0.0, 0.0, 1.0])


def embed(re, im, mu):
    """re + im mu as a quaternion array, for a pure unit 3-vector mu."""
    return re[..., None] * ONE + im[..., None] * quat(0, *mu)


def test_symplectic_split_examples():
    # on the canonical axes the split is a relabeling: q = (w + x i) + (y + z i) j
    # and q = (w + y j) + i (x + z j) both read their parts off (a0, a1, a2, a3)
    parts = axis_components(quat(1, 2, 3, 4), CANONICAL_AXES)
    assert tuple(float(a) for a in parts) == (1.0, 2.0, 3.0, 4.0)
    parts = axis_components(quat(5, 0, 0, 0), CANONICAL_AXES)
    assert tuple(float(a) for a in parts) == (5.0, 0.0, 0.0, 0.0)
    # tilted axes: q = 1 + 2 mu1 + 3 mu2 + 4 mu1 mu2 with mu1 mu2 = (0, 0.8, -0.6)
    tilted = AxisPair(np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0]))
    parts = axis_components(quat(1, 3, 4.4, -0.8), tilted)
    np.testing.assert_allclose(parts, (1.0, 2.0, 3.0, 4.0), rtol=0, atol=1e-15)


def test_symplectic_split_reconstruction_identities():
    qs = rand_quats(100, seed=6)
    a0, a1, a2, a3 = axis_components(qs, CANONICAL_AXES)
    assert np.stack([a0, a1, a2, a3], axis=-1).tolist() == qs.tolist()  # bit-exact
    # q = (a0 + a1 i) + (a2 + a3 i) j and q = (a0 + a2 j) + i (a1 + a3 j), rebuilt with qmul
    i, j = CANONICAL_AXES.mu1, CANONICAL_AXES.mu2
    np.testing.assert_allclose(embed(a0, a1, i) + qmul(embed(a2, a3, i), J), qs, rtol=0, atol=0)
    np.testing.assert_allclose(embed(a0, a2, j) + qmul(I, embed(a1, a3, j)), qs, rtol=0, atol=0)
    # the same two splits over random axis pairs, parts in span{1, mu1} and span{1, mu2}
    rng = np.random.default_rng(7)
    for _ in range(5):
        axes = random_axes(rng)
        mu1, mu2 = axes.mu1, axes.mu2
        a0, a1, a2, a3 = axis_components(qs, axes)
        right = embed(a0, a1, mu1) + qmul(embed(a2, a3, mu1), quat(0, *mu2))
        left = embed(a0, a2, mu2) + qmul(quat(0, *mu1), embed(a1, a3, mu2))
        np.testing.assert_allclose(right, qs, rtol=0, atol=1e-14)
        np.testing.assert_allclose(left, qs, rtol=0, atol=1e-14)


def test_pure_unit_takes_a_pure_quaternion_and_refuses_other_shapes():
    np.testing.assert_array_equal(pure_unit([0.0, 0.0, 1.0, 0.0]), [0.0, 1.0, 0.0])
    for v in ([1.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0], [[1.0, 0.0, 0.0]]):
        with pytest.raises(InvalidParameterError, match="^expected 3 or 4 components"):
            pure_unit(v)


def test_axis_pairs_compare_unequal_to_other_objects():
    assert (CANONICAL_AXES == object()) is False
    assert CANONICAL_AXES != (CANONICAL_AXES.mu1, CANONICAL_AXES.mu2)
    assert CANONICAL_AXES == AxisPair([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
