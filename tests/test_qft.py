import numpy as np
import pytest

from oracles import property_grids, qft_bruteforce, qft_fft_reference, random_axes
from qharmonics.errors import (
    InvalidParameterError,
    NonRealInputError,
    ProvenanceMismatchError,
    SideMismatchError,
)
from qharmonics.fixtures import gaussian, qgaussian
from qharmonics.grids import GridSpec, QSignal2D, QSpectrum2D, linf_diff, sample
from qharmonics.qft import (
    FreqWindow,
    QftKind,
    Side,
    _invert,
    derivative_multiplier,
    ft2d,
    ft_from_qft,
    qft_forward,
    qft_from_ft,
    qft_inverse,
)
from qharmonics.quaternion import AxisPair, qabs, qmul, quat

TILTED = AxisPair(np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0]))


def rand_signal(n=8, seed=0, extent=2.0, real=False):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, n, 4))
    if real:
        data[..., 1:] = 0.0
    return QSignal2D(GridSpec.centered(extent, n), data)


def test_freq_window_validation():
    with pytest.raises(InvalidParameterError, match="^window extents must be positive$"):
        FreqWindow(-1.0, 1.0, 8, 8)
    with pytest.raises(InvalidParameterError, match="^nu, nv must be integers of at least 2"):
        FreqWindow(1.0, 1.0, 1, 8)
    for nu, nv in [(4.5, 4), (4, 4.0), (np.nan, 4), (4, np.inf), (np.float64(4), 4)]:
        with pytest.raises(InvalidParameterError, match="^nu, nv must be integers of at least 2"):
            FreqWindow(1.0, 1.0, nu, nv)
    assert FreqWindow(1.0, 1.0, np.int64(5), np.int32(4)).to_grid().s.size == 5
    w = FreqWindow.square(2.0, 4)
    np.testing.assert_allclose(w.to_grid().s, [-1.5, -0.5, 0.5, 1.5])


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("axes", [None, TILTED])
def test_forward_matches_bruteforce_oracle(side, axes):
    """On a centred grid, and on a shifted odd grid that folds about its
    centre with the shift as a chirp."""
    kind = QftKind(side) if axes is None else QftKind(side, axes)
    shifted = GridSpec(0.3, -1.1, 0.25, 0.2, 7, 9)
    cases = [(rand_signal(8, seed=3), FreqWindow.square(3.0, 8)),
             (QSignal2D(shifted, np.random.default_rng(11).normal(size=(7, 9, 4))),
              FreqWindow(4.0, 3.5, 6, 5))]
    for sig, w in cases:
        got = qft_forward(sig, kind, w)
        want = qft_bruteforce(sig, side, kind.axes, got.grid.s, got.grid.t)
        assert np.max(np.abs(got.data - want)) < 1e-12


def test_gaussian_closed_form():
    # transform of (1/4pi^2) e^{-alpha r^2} is (1/4pi alpha) e^{-r^2/(4 alpha)}
    alpha = 0.5
    sig = sample(lambda S, T: np.exp(-alpha * (S ** 2 + T ** 2)) / (4 * np.pi ** 2),
                 GridSpec.centered(12.0, 128))
    spec = qft_forward(sig, QftKind(), FreqWindow.square(3.0, 32))
    U, V = spec.grid.mesh()
    ref = np.exp(-(U ** 2 + V ** 2) / (4 * alpha)) / (4 * np.pi * alpha)
    assert np.max(np.abs(spec.data[..., 0] - ref) / ref) < 1e-6
    assert np.max(np.abs(spec.data[..., 1:])) < 1e-15


def test_real_input_all_sides_agree():
    sig = rand_signal(8, seed=4, real=True)
    w = FreqWindow.square(3.0, 8)
    outs = [qft_forward(sig, QftKind(side), w).data for side in Side]
    # two- and right-sided share a contraction order: bit-identical
    np.testing.assert_array_equal(outs[0], outs[1])
    # the left-sided stage order differs, so only ulp-level agreement
    np.testing.assert_allclose(outs[0], outs[2], rtol=0, atol=1e-14)


def test_linearity_and_left_constant_factoring():
    w = FreqWindow.square(3.0, 8)
    f = rand_signal(8, seed=5)
    g = rand_signal(8, seed=6)
    a, b = -1.7, 0.4
    for side in Side:
        kind = QftKind(side)
        lhs = qft_forward(QSignal2D(f.grid, a * f.data + b * g.data), kind, w).data
        rhs = a * qft_forward(f, kind, w).data + b * qft_forward(g, kind, w).data
        assert np.max(np.abs(lhs - rhs)) < 1e-12
    # right-sided transforms factor left quaternion constants
    q = quat(0.3, -0.8, 0.2, 0.5)
    lhs = qft_forward(QSignal2D(f.grid, qmul(q, f.data)), QftKind(Side.RIGHT_SIDED), w).data
    rhs = qmul(q, qft_forward(f, QftKind(Side.RIGHT_SIDED), w).data)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_ft_relations_random_fields():
    w = FreqWindow.square(4.0, 16)
    for seed in range(5):
        sig = rand_signal(16, seed=seed, real=True)
        H = ft2d(sig, w)
        assembled = qft_from_ft(H)
        direct = qft_forward(sig, QftKind(), w).data
        assert np.max(np.abs(assembled - direct)) < 1e-10
        back = ft_from_qft(assembled)
        assert np.max(np.abs(back - H)) < 1e-12


def test_ft2d_rejects_quaternion_input():
    with pytest.raises(NonRealInputError):
        ft2d(rand_signal(8, seed=7), FreqWindow.square(2.0, 8))


def test_even_in_v_field_collapses_relation():
    # H_T = H(u,v) when the field is even in t: the two halves merge
    sig = sample(lambda S, T: np.exp(-(S ** 2 + T ** 2)) * (1 + 0.3 * S),
                 GridSpec.centered(4.0, 16))
    w = FreqWindow.square(3.0, 16)
    H = ft2d(sig, w)
    HT = qft_from_ft(H)
    np.testing.assert_allclose(HT[..., 0], H.real, atol=1e-12)
    np.testing.assert_allclose(HT[..., 1], H.imag, atol=1e-12)
    assert np.max(np.abs(HT[..., 2:])) < 1e-12


@pytest.mark.parametrize("side", list(Side))
def test_fast_path_matches_quadrature(side):
    sig = sample(qgaussian, GridSpec.centered(8.0, 32))
    fast = qft_forward(sig, QftKind(side))
    assert np.max(np.abs(fast.data - qft_fft_reference(sig, side))) < 1e-9


@pytest.mark.parametrize("side", list(Side))
def test_fast_path_matches_fft_reference_at_512(side):
    sig = rand_signal(512, seed=11, extent=10.0)
    fast = qft_forward(sig, QftKind(side))
    want = qft_fft_reference(sig, side)
    assert np.max(np.abs(fast.data - want)) < 1e-12 * np.max(np.abs(want))


def test_fast_path_any_size_and_axes():
    rng = np.random.default_rng(8)
    cases = [(rand_signal(12, seed=8), QftKind()),
             (QSignal2D(GridSpec.centered(2.0, 30, 1.5, 17), rng.normal(size=(30, 17, 4))),
              QftKind(Side.LEFT_SIDED)),
             (rand_signal(8, seed=8), QftKind(Side.TWO_SIDED, TILTED))]
    for sig, kind in cases:
        fast = qft_forward(sig, kind)
        assert fast.window == FreqWindow.natural(sig.grid)
        want = qft_bruteforce(sig, kind.side, kind.axes, fast.grid.s, fast.grid.t)
        assert np.max(np.abs(fast.data - want)) < 1e-12


def test_fast_path_impulse_flat_spectrum():
    data = np.zeros((16, 16, 4))
    data[5, 9, 0] = 1.0
    sig = QSignal2D(GridSpec.centered(2.0, 16), data)
    spec = qft_forward(sig)
    mags = qabs(spec.data)
    np.testing.assert_allclose(mags, mags[0, 0], rtol=1e-12)


def test_inverse_round_trips():
    grid = GridSpec.centered(10.0, 128)
    w = FreqWindow.square(8.0, 128)
    sig = sample(gaussian, grid)
    for side in Side:
        kind = QftKind(side)
        back = qft_inverse(qft_forward(sig, kind, w), grid)
        assert linf_diff(sig, back) < 1e-4
    qsig = sample(qgaussian, grid)
    kind = QftKind(Side.RIGHT_SIDED)
    back = qft_inverse(qft_forward(qsig, kind, w), grid)
    assert linf_diff(qsig, back) < 1e-4


def test_inverse_zero_and_provenance():
    w = FreqWindow.square(3.0, 8)
    grid = GridSpec.centered(2.0, 8)
    spec = qft_forward(rand_signal(), QftKind(), w)
    zero = qft_inverse(spec.scaled(0.0), grid)
    assert np.all(zero.data == 0.0)


def test_generalized_axes_modulus_symmetry():
    sig = rand_signal(16, seed=9, real=True)
    w = FreqWindow.square(3.0, 16)
    base = qabs(qft_forward(sig, QftKind(), w).data)
    r = 1 / np.sqrt(2)
    pairs = [TILTED, AxisPair(np.array([r, r, 0.0]), np.array([r, -r, 0.0]))]
    for axes in pairs:
        mags = qabs(qft_forward(sig, QftKind(Side.TWO_SIDED, axes), w).data)
        assert np.max(np.abs(mags - base)) < 1e-10


def test_derivative_multiplier_two_sided():
    grid = GridSpec.centered(8.0, 128)
    w = FreqWindow.square(6.0, 64)
    f = sample(gaussian, grid)
    spec = qft_forward(f, QftKind(), w)
    assert derivative_multiplier(spec, 0, 0).data.tolist() == spec.data.tolist()

    dfds = sample(lambda S, T: -2 * S * gaussian(S, T), grid)
    want = qft_forward(dfds, QftKind(), w).data
    got = derivative_multiplier(spec, 1, 0).data
    assert np.max(np.abs(got - want)) / np.max(qabs(want)) < 1e-5

    d2fdsdt = sample(lambda S, T: 4 * S * T * gaussian(S, T), grid)
    want = qft_forward(d2fdsdt, QftKind(), w).data
    got = derivative_multiplier(spec, 1, 1).data
    assert np.max(np.abs(got - want)) / np.max(qabs(want)) < 1e-5


def test_derivative_multiplier_sided():
    grid = GridSpec.centered(8.0, 128)
    w = FreqWindow.square(6.0, 64)
    f = sample(qgaussian, grid)
    dfdt = sample(lambda S, T: -2 * T[..., None] * qgaussian(S, T), grid)
    right = QftKind(Side.RIGHT_SIDED)
    got = derivative_multiplier(qft_forward(f, right, w), 0, 1).data
    want = qft_forward(dfdt, right, w).data
    assert np.max(np.abs(got - want)) / np.max(qabs(want)) < 1e-5

    dfds = sample(lambda S, T: -2 * S[..., None] * qgaussian(S, T), grid)
    left = QftKind(Side.LEFT_SIDED)
    got = derivative_multiplier(qft_forward(f, left, w), 1, 0).data
    want = qft_forward(dfds, left, w).data
    assert np.max(np.abs(got - want)) / np.max(qabs(want)) < 1e-5


def test_derivative_multiplier_higher_orders_are_repeated_products():
    # (mu1 u)^m F (mu2 v)^n with each power built as m (resp. n) qmul factors
    rng = np.random.default_rng(17)
    w = FreqWindow(3.0, 2.0, 6, 5)
    u, v = w.to_grid().s, w.to_grid().t
    for side, orders in ((Side.TWO_SIDED, [(2, 3), (4, 1), (0, 5), (3, 0)]),
                         (Side.LEFT_SIDED, [(2, 0), (3, 0), (6, 0)]),
                         (Side.RIGHT_SIDED, [(0, 2), (0, 3), (0, 7)])):
        kind = QftKind(side, random_axes(rng))
        spec = qft_forward(rand_signal(seed=3), kind, w)
        mu_u = u[:, None, None] * quat(0, *kind.axes.mu1)
        mu_v = v[None, :, None] * quat(0, *kind.axes.mu2)
        for m, n in orders:
            want = spec.data
            for _ in range(m):
                want = qmul(mu_u, want)
            for _ in range(n):
                want = qmul(want, mu_v)
            got = derivative_multiplier(spec, m, n).data
            assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
    for m, n in ((-1, 0), (1.5, 0), (0.5, 0), (0, 1.0)):  # orders are nonnegative integers
        with pytest.raises(InvalidParameterError):
            derivative_multiplier(spec, m, n)
    assert derivative_multiplier(spec, 0, np.int64(2)).data.tobytes() == \
        derivative_multiplier(spec, 0, 2).data.tobytes()


def test_derivative_multiplier_side_mismatch():
    sig = rand_signal()
    w = FreqWindow.square(2.0, 8)
    right = qft_forward(sig, QftKind(Side.RIGHT_SIDED), w)
    left = qft_forward(sig, QftKind(Side.LEFT_SIDED), w)
    with pytest.raises(SideMismatchError):
        derivative_multiplier(right, 1, 0)
    with pytest.raises(SideMismatchError):
        derivative_multiplier(left, 0, 1)


def test_fast_path_beats_extrapolated_defining_quadrature():
    import time

    from oracles import qft_bruteforce

    sig = sample(qgaussian, GridSpec.centered(10.0, 512))
    qft_forward(sig)  # warm-up
    t0 = time.perf_counter()
    qft_forward(sig)
    t_fast = time.perf_counter() - t0

    small = sample(qgaussian, GridSpec.centered(10.0, 16))
    w16 = FreqWindow.square(3.0, 16)
    t0 = time.perf_counter()
    qft_bruteforce(small, Side.TWO_SIDED, QftKind().axes, w16.to_grid().s, w16.to_grid().t)
    # the defining double-loop quadrature scales as n^4; running it at
    # 512^2 is infeasible, which is the point of the fast path
    t_ref = (time.perf_counter() - t0) * (512 / 16) ** 4
    print(f"\nfast 512^2: {t_fast * 1e3:.1f} ms; extrapolated defining "
          f"quadrature: {t_ref:.0f} s")
    assert t_ref > 20.0 * t_fast


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("ns, nt", [(15, 22), (9, 9), (2, 13), (16, 7)])
def test_plancherel_ratio_is_one_on_the_natural_window(side, ns, nt):
    # ||F||^2 du dv / (4 pi^2 ||f||^2 ds dt) = 1: on its natural window the
    # quadrature is a unitary DFT, whatever the axes, spacings and origin
    rng = np.random.default_rng(ns * 100 + nt)
    for centred in (True, False):
        origin = (-0.5 * ns * 0.3, -0.5 * nt * 0.7) if centred else rng.uniform(-2, 2, size=2)
        sig = QSignal2D(GridSpec(*origin, 0.3, 0.7, ns, nt), rng.normal(size=(ns, nt, 4)))
        spec = qft_forward(sig, QftKind(side, random_axes(rng)), FreqWindow.natural(sig.grid))
        ratio = (np.sum(spec.data ** 2) * spec.grid.cell_area
                 / (4 * np.pi ** 2 * np.sum(sig.data ** 2) * sig.grid.cell_area))
        assert abs(ratio - 1.0) < 1e-12


@pytest.mark.parametrize("side", list(Side))
def test_forward_and_inverse_are_real_linear(side):
    rng = np.random.default_rng(41)
    window = FreqWindow(3.0, 5.0, 12, 9)
    for grid in property_grids(rng, 15, 22):
        kind = QftKind(side, random_axes(rng))
        a, b = rng.normal(size=2)
        f, g = rng.normal(size=(2, 15, 22, 4))
        fwd = lambda d: qft_forward(QSignal2D(grid, d), kind, window).data
        assert np.max(np.abs(fwd(a * f + b * g) - (a * fwd(f) + b * fwd(g)))) < 1e-12
        F, G = rng.normal(size=(2, 12, 9, 4))
        inv = lambda d: qft_inverse(QSpectrum2D(window.to_grid(), d, kind, window), grid).data
        assert np.max(np.abs(inv(a * F + b * G) - (a * inv(F) + b * inv(G)))) < 1e-12


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("ns, nt", [(9, 9), (15, 22)])
def test_inverse_after_forward_recovers_the_input_on_the_natural_window(side, ns, nt):
    rng = np.random.default_rng(ns * 100 + nt + 7)
    for grid in property_grids(rng, ns, nt):
        sig = QSignal2D(grid, rng.normal(size=(ns, nt, 4)))
        kind = QftKind(side, random_axes(rng))
        back = qft_inverse(qft_forward(sig, kind, FreqWindow.natural(grid)), grid)
        assert linf_diff(sig, back) < 1e-12


@pytest.mark.parametrize("side", list(Side))
def test_plan_is_the_forward_and_inverse_stage_terms(side):
    """``QftKind.plan`` lists the forward's stage records with e^{-mu x y} and
    the weight dx, and the inverse's in reverse order with e^{+mu y x} and
    dx / 2pi (the records' scale divides the spacing)."""
    kind = QftKind(side)
    assert kind.plan() == tuple((axis, left, -1.0, None, None, 1.0) for axis, left in side.stages)
    assert kind.plan(inverse=True) == tuple((axis, left, 1.0, None, None, 2.0 * np.pi)
                                            for axis, left in side.stages[::-1])


def test_a_spectrum_kind_without_a_plan_has_no_inverse():
    grid = GridSpec.centered(2.0, 8)
    spec = QSpectrum2D(grid, np.ones((8, 8, 4)), object())
    with pytest.raises(ProvenanceMismatchError, match="no inverse"):
        _invert(spec, grid)
