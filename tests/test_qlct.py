import time

import numpy as np
import pytest

from oracles import property_grids, qlct_bruteforce, random_axes
from qharmonics import _kernels
from qharmonics import qft as qft_module
from qharmonics import qlct as qlct_module
from qharmonics._kernels import chirp_multiply
from qharmonics.errors import (
    DegenerateAngleError,
    DegenerateBError,
    ProvenanceMismatchError,
    SideMismatchError,
)
from qharmonics.fixtures import gaussian, qgaussian
from qharmonics.grids import GridSpec, QSignal2D, QSpectrum2D, linf_diff, sample
from qharmonics.qft import FreqWindow, QftKind, Side, _stages, derivative_multiplier, qft_forward, qft_inverse
from qharmonics.qlct import (
    LctKind,
    LctParams,
    _lct_terms,
    lct_kernel,
    qfrft,
    qlct_forward,
    qlct_inverse,
    sided_decompose_transform,
)
from qharmonics.quaternion import qabs, qexp_pure, qmul, quat

SHEAR = LctParams(1.0, 1.0, 0.0, 1.0)
FOURIER = LctParams.fourier()
GENERIC = LctParams(2.0, 0.5, 2.0, 1.0)
I_AXIS = np.array([1.0, 0.0, 0.0])
J_AXIS = np.array([0.0, 1.0, 0.0])


def rand_signal(n=8, seed=0, extent=2.0):
    rng = np.random.default_rng(seed)
    return QSignal2D(GridSpec.centered(extent, n), rng.normal(size=(n, n, 4)))


def test_params_validation_keeps_signed_b():
    with pytest.raises(ValueError):
        LctParams(1.0, 1.0, 1.0, 1.0)  # det 0
    p = LctParams(0.0, -1.0, 1.0, 0.0)
    assert p.astuple() == (0.0, -1.0, 1.0, 0.0)
    assert LctParams.rotation(-0.5).b == np.sin(-0.5)
    inv = GENERIC.inverse
    assert inv.astuple() == (1.0, -0.5, -2.0, 2.0)
    assert abs(inv.a * inv.d - inv.b * inv.c - 1.0) == 0.0


def test_kernel_fourier_matrix_and_modulus():
    # rotation by pi/2: K(x, xi) = e^{-i pi/4}/sqrt(2 pi) e^{-i x xi}
    x, xi = 0.7, -1.3
    got = lct_kernel(FOURIER, I_AXIS, x, xi)
    want = qmul(qexp_pure(I_AXIS, -np.pi / 4) / np.sqrt(2 * np.pi),
                qexp_pure(I_AXIS, -x * xi))
    np.testing.assert_allclose(got, want, atol=1e-16)

    at0 = lct_kernel(GENERIC, J_AXIS, 0.0, 0.0)
    np.testing.assert_allclose(
        at0, qexp_pure(J_AXIS, -np.pi / 4) / np.sqrt(2 * np.pi * GENERIC.b), atol=1e-16)

    xs = np.linspace(-5, 5, 41)[:, None]
    xis = np.linspace(-4, 4, 31)[None, :]
    mags = qabs(lct_kernel(GENERIC, I_AXIS, xs, xis))
    np.testing.assert_allclose(mags, 1 / np.sqrt(2 * np.pi * GENERIC.b), atol=1e-14)

    with pytest.raises(DegenerateBError):
        lct_kernel(LctParams.identity_chirp(), I_AXIS, 0.0, 0.0)


@pytest.mark.parametrize("side", list(Side))
def test_forward_matches_bruteforce_oracle(side):
    """On a square window and on a scaled natural window, whose nodes the
    spectrum records exactly."""
    sig = rand_signal(8, seed=13)
    kind = LctKind(side, GENERIC, SHEAR)
    for w in (FreqWindow.square(3.0, 8), FreqWindow.natural(sig.grid).scaled(0.7, 1.3)):
        got = qlct_forward(sig, kind, w)
        assert got.grid == w.to_grid()
        want = qlct_bruteforce(sig, side, GENERIC, SHEAR, kind.axes, got.grid.s, got.grid.t)
        assert np.max(np.abs(got.data - want)) < 1e-12


def test_fractional_closed_form_vs_oracle():
    # rotation matrices at a generic angle against the brute-force oracle
    sig = sample(gaussian, GridSpec.centered(6.0, 32))
    A1 = LctParams.rotation(0.8)
    A2 = LctParams.rotation(1.9)
    kind = LctKind(Side.TWO_SIDED, A1, A2)
    w = FreqWindow.square(4.0, 16)
    got = qlct_forward(sig, kind, w)
    want = qlct_bruteforce(sig, Side.TWO_SIDED, A1, A2, kind.axes,
                           got.grid.s, got.grid.t)
    assert np.max(np.abs(got.data - want)) < 1e-8


def test_special_matrix_reduces_to_qft():
    sig = rand_signal(16, seed=14)
    w = FreqWindow.square(5.0, 16)
    kind = LctKind(Side.TWO_SIDED, FOURIER, FOURIER)
    lct = qlct_forward(sig, kind, w)
    ft = qft_forward(sig, QftKind(), w)
    c1 = qexp_pure(I_AXIS, -np.pi / 4) / np.sqrt(2 * np.pi)
    c2 = qexp_pure(J_AXIS, -np.pi / 4) / np.sqrt(2 * np.pi)
    want = qmul(c1, qmul(ft.data, c2))
    assert np.max(np.abs(lct.data - want)) < 1e-12


def test_degenerate_chirp_branch():
    sig = rand_signal(8, seed=15)
    ident = LctParams.identity_chirp()  # b=0, d=1, c=0
    w = FreqWindow.square(2.0, 8)
    # identity chirp along axis 1 passes f through; axis 2 gets its kernel
    kind = LctKind(Side.TWO_SIDED, ident, SHEAR)
    out = qlct_forward(sig, kind, w)
    np.testing.assert_array_equal(out.grid.s, sig.grid.s)  # xi = x/d = x
    K2 = lct_kernel(SHEAR, J_AXIS, sig.grid.t[:, None], out.grid.t[None, :])
    want = (qmul(sig.data[:, :, None, :], K2[None, :, :, :]).sum(axis=1)
            * sig.grid.dt)
    np.testing.assert_allclose(out.data, want, atol=1e-13)
    # both axes identity chirps: the transform is the identity
    both = qlct_forward(sig, LctKind(Side.TWO_SIDED, ident, ident), w)
    np.testing.assert_array_equal(both.data, sig.data)
    # scaling branch: b=0, d=2 evaluates at xi = x/2 with sqrt(2) gain
    scale = LctParams(0.5, 0.0, 0.7, 2.0)
    out = qlct_forward(sig, LctKind(Side.TWO_SIDED, scale, ident), w)
    np.testing.assert_allclose(out.grid.s, sig.grid.s / 2.0)
    chirp = qexp_pure(I_AXIS, 0.7 * 2.0 * (sig.grid.s / 2.0) ** 2 / 2.0)
    want = np.sqrt(2.0) * qmul(chirp[:, None, :], sig.data)
    np.testing.assert_allclose(out.data, want, atol=1e-14)


def chirp_qft_chirp(sig, kind, window):
    """Two-sided QLCT (b1, b2 > 0) through full-field chirp products around
    the two-sided QFT: chirp by a s^2/2b, take the QFT at (u/b1, v/b2), then
    chirp by d u^2/2b with the e^{-mu pi/4} / sqrt(2 pi b) prefactors."""
    (a1, b1, _, d1), (a2, b2, _, d2) = kind.A1.astuple(), kind.A2.astuple()
    mu1, mu2 = kind.axes.mu1, kind.axes.mu2
    s, t = sig.grid.s, sig.grid.t
    p = chirp_multiply(a1 * s * s / (2 * b1), mu1, sig.data, left=True, axis=0)
    p = chirp_multiply(a2 * t * t / (2 * b2), mu2, p, left=False, axis=1)
    spec = qft_forward(QSignal2D(sig.grid, p), QftKind(Side.TWO_SIDED, kind.axes),
                       window.scaled(1.0 / b1, 1.0 / b2))
    u, v = window.to_grid().s, window.to_grid().t
    out = chirp_multiply(d1 * u * u / (2 * b1) - np.pi / 4, mu1, spec.data, left=True, axis=0,
                         scale=1.0 / np.sqrt(2.0 * np.pi * b1))
    return chirp_multiply(d2 * v * v / (2 * b2) - np.pi / 4, mu2, out, left=False, axis=1,
                          scale=1.0 / np.sqrt(2.0 * np.pi * b2))


def test_via_qft_matches_direct():
    w = FreqWindow.square(6.0, 32)
    for seed, mats in enumerate([SHEAR, FOURIER, GENERIC]):
        sig = rand_signal(32, seed=20 + seed, extent=4.0)
        kind = LctKind(Side.TWO_SIDED, mats, mats)
        composed = chirp_qft_chirp(sig, kind, w)
        via = qlct_forward(sig, kind, w)
        assert np.max(np.abs(composed - via.data)) < 1e-8


def test_via_qft_fast_path_agrees_and_is_faster():
    sig = sample(gaussian, GridSpec.centered(10.0, 256))
    kind = LctKind(Side.TWO_SIDED, SHEAR, SHEAR)
    qlct_forward(sig, kind)  # warm-up
    t0 = time.perf_counter()
    via = qlct_forward(sig, kind)
    t_fast = time.perf_counter() - t0
    t0 = time.perf_counter()
    composed = chirp_qft_chirp(sig, kind, via.window)
    t_composed = time.perf_counter() - t0
    assert np.max(np.abs(via.data - composed)) < 1e-8

    # the speed claim is asymptotic: baseline is the defining double-loop
    # quadrature, measured small and extrapolated by its n^4 law (running
    # it at 256^2 would take hours)
    small = sample(gaussian, GridSpec.centered(10.0, 16))
    w16 = FreqWindow.square(3.0, 16)
    t0 = time.perf_counter()
    qlct_bruteforce(small, Side.TWO_SIDED, SHEAR, SHEAR, kind.axes,
                    w16.to_grid().s, w16.to_grid().t)
    t_ref = (time.perf_counter() - t0) * (256 / 16) ** 4
    print(f"\nQLCT on its default window {t_fast * 1e3:.1f} ms; chirp-QFT-chirp "
          f"{t_composed * 1e3:.1f} ms; extrapolated defining quadrature {t_ref:.1f} s")
    assert t_ref > 5.0 * t_fast

    # every side's stages are the chirp-Fourier-chirp contraction it names
    for side in (Side.RIGHT_SIDED, Side.LEFT_SIDED):
        sided = LctKind(side, SHEAR, GENERIC)
        for window in (via.window, None):
            got = qlct_forward(sig, sided, window)
            assert np.array_equal(got.data, qlct_forward(sig, sided, got.window).data)


NEG_B1 = LctParams(0.5, -2.0, 0.25, 1.0)
NEG_B2 = LctParams(1.0, -0.5, 0.0, 1.0)


@pytest.mark.parametrize("n", [8, 9, 64])
@pytest.mark.parametrize("A1, A2", [(NEG_B1, SHEAR), (GENERIC, NEG_B2), (NEG_B1, NEG_B2)],
                         ids=["b1<0", "b2<0", "both<0"])
def test_via_qft_takes_negative_b(n, A1, A2):
    sig = rand_signal(n, seed=50 + n, extent=4.0)
    kind = LctKind(Side.TWO_SIDED, A1, A2)
    assert min(kind.A1.b, kind.A2.b) < 0  # used as given, not flipped to -A
    for window in (FreqWindow(3.0, 5.0, n, n), None):
        via = qlct_forward(sig, kind, window)
        assert via.window == (window or FreqWindow.natural(sig.grid).scaled(abs(A1.b), abs(A2.b)))
        if n < 10:
            fgrid = via.window.to_grid()
            ref = qlct_bruteforce(sig, Side.TWO_SIDED, A1, A2, kind.axes, fgrid.s, fgrid.t)
            assert np.max(np.abs(via.data - ref)) < 1e-13


def test_sided_decomposition_matches_direct():
    w = FreqWindow.square(4.0, 16)
    sig = rand_signal(16, seed=31)
    for side in (Side.RIGHT_SIDED, Side.LEFT_SIDED):
        kind = LctKind(side, SHEAR, GENERIC)
        direct = qlct_forward(sig, kind, w)
        deco = sided_decompose_transform(sig, kind, w)
        assert np.max(np.abs(direct.data - deco.data)) < 1e-10
    with pytest.raises(SideMismatchError):
        sided_decompose_transform(sig, LctKind(Side.TWO_SIDED, SHEAR, SHEAR), w)


def test_sided_decomposition_vanishing_parts():
    grid = GridSpec.centered(2.0, 8)
    rng = np.random.default_rng(33)
    w = FreqWindow.square(3.0, 8)
    # f in span{1, i}: the f_b term of the right decomposition vanishes
    data = np.zeros((8, 8, 4))
    data[..., :2] = rng.normal(size=(8, 8, 2))
    sig = QSignal2D(grid, data)
    kind = LctKind(Side.RIGHT_SIDED, SHEAR, SHEAR)
    direct = qlct_forward(sig, kind, w)
    deco = sided_decompose_transform(sig, kind, w)
    assert np.max(np.abs(direct.data - deco.data)) < 1e-12
    # f in span{1, j}: the f_e term of the left decomposition vanishes
    data = np.zeros((8, 8, 4))
    data[..., [0, 2]] = rng.normal(size=(8, 8, 2))
    sig = QSignal2D(grid, data)
    kind = LctKind(Side.LEFT_SIDED, SHEAR, SHEAR)
    deco = sided_decompose_transform(sig, kind, w)
    direct = qlct_forward(sig, kind, w)
    assert np.max(np.abs(direct.data - deco.data)) < 1e-12


def test_two_sided_inverse_round_trip():
    grid = GridSpec.centered(10.0, 128)
    sig = sample(gaussian, grid)
    kind = LctKind(Side.TWO_SIDED, SHEAR, SHEAR)
    w = FreqWindow.square(8.0, 128)
    spec = qlct_forward(sig, kind, w)
    back = qlct_inverse(spec, kind, grid)
    assert linf_diff(sig, back) < 1e-4
    zero = qlct_inverse(spec.scaled(0.0), kind, grid)
    assert np.all(zero.data == 0.0)
    # special matrix round trip agrees with the QFT round trip
    kf = LctKind(Side.TWO_SIDED, FOURIER, FOURIER)
    fspec = qlct_forward(sig, kf, w)
    fback = qlct_inverse(fspec, kf, grid)
    qback = qft_inverse(qft_forward(sig, QftKind(), w), QftKind(), grid)
    assert np.max(np.abs(fback.data - qback.data)) < 1e-10


def test_sided_inverse_round_trip_and_errors():
    # one inverse for every side
    grid = GridSpec.centered(10.0, 128)
    sig = sample(qgaussian, grid)
    w = FreqWindow.square(8.0, 128)
    for side in Side:
        kind = LctKind(side, SHEAR, SHEAR)
        spec = qlct_forward(sig, kind, w)
        back = qlct_inverse(spec, kind, grid)
        assert linf_diff(sig, back) < 1e-4
    kind = LctKind(Side.RIGHT_SIDED, SHEAR, SHEAR)
    spec = qlct_forward(sig, kind, w)
    with pytest.raises(ProvenanceMismatchError):
        qlct_inverse(spec, LctKind(Side.RIGHT_SIDED, GENERIC, SHEAR), grid)
    with pytest.raises(ProvenanceMismatchError):  # the spectrum's own side, not another
        qlct_inverse(spec, LctKind(Side.TWO_SIDED, SHEAR, SHEAR), grid)
    degen = LctKind(Side.TWO_SIDED, LctParams.identity_chirp(), SHEAR)
    dspec = qlct_forward(sig, degen, w)
    with pytest.raises(DegenerateBError):
        qlct_inverse(dspec, degen, grid)


def test_sided_routes_on_real_input():
    # real signals commute with the kernels: the forward spectra coincide
    # across sides; the truncated inverse routes each reconstruct f but
    # differ from one another by kernel-order leakage of truncation size
    grid = GridSpec.centered(8.0, 64)
    sig = sample(gaussian, grid)
    w = FreqWindow.square(8.0, 64)
    two = LctKind(Side.TWO_SIDED, SHEAR, SHEAR)
    spec_two = qlct_forward(sig, two, w)
    ref = qlct_inverse(spec_two, two, grid)
    err_two = linf_diff(sig, ref)
    assert err_two < 1e-4
    for side in (Side.RIGHT_SIDED, Side.LEFT_SIDED):
        kind = LctKind(side, SHEAR, SHEAR)
        spec = qlct_forward(sig, kind, w)
        np.testing.assert_allclose(spec.data, spec_two.data, rtol=0, atol=1e-13)
        back = qlct_inverse(spec, kind, grid)
        err = linf_diff(sig, back)
        assert err < 1e-4
        route_gap = np.max(np.abs(back.data - ref.data))
        assert route_gap <= 1.5 * (err + err_two)


def test_minus_matrix_convention():
    # L_{-A}(f)(u, v) = mu1 * L_A(f)(-u, v) along the first axis
    sig = rand_signal(16, seed=40)
    w = FreqWindow.square(4.0, 16)
    kind_pos = LctKind(Side.TWO_SIDED, GENERIC, SHEAR)
    neg = LctParams(*(-x for x in GENERIC.astuple()))
    kind_neg = LctKind(Side.TWO_SIDED, neg, SHEAR)
    L_pos = qlct_forward(sig, kind_pos, w)
    L_neg = qlct_forward(sig, kind_neg, w)
    want = qmul(quat(0, 1, 0, 0), L_pos.data[::-1, :, :])
    assert np.max(np.abs(L_neg.data - want)) < 1e-12


def test_qfrft_pi_half_is_qft():
    sig = sample(gaussian, GridSpec.centered(8.0, 64))
    w = FreqWindow.square(6.0, 64)
    frac = qfrft(sig, np.pi / 2, np.pi / 2, Side.TWO_SIDED, w)
    ft = qft_forward(sig, QftKind(), w)
    c1 = qexp_pure(I_AXIS, -np.pi / 4) / np.sqrt(2 * np.pi)
    c2 = qexp_pure(J_AXIS, -np.pi / 4) / np.sqrt(2 * np.pi)
    want = qmul(c1, qmul(ft.data, c2))
    assert np.max(np.abs(frac.data - want)) < 1e-10
    # phase-corrected output differs exactly by those constants
    corr = qfrft(sig, np.pi / 2, np.pi / 2, Side.TWO_SIDED, w, phase_corrected=True)
    want = qmul(qexp_pure(I_AXIS, np.pi / 4), qmul(frac.data, qexp_pure(J_AXIS, np.pi / 4)))
    assert np.max(np.abs(corr.data - want)) < 1e-13
    assert corr.kind.phase_corrected and not frac.kind.phase_corrected


def test_qfrft_round_trip_by_negated_angles():
    grid = GridSpec.centered(10.0, 128)
    sig = sample(gaussian, grid)
    a, b = 0.7, 1.1
    spec = qfrft(sig, a, b, Side.TWO_SIDED, FreqWindow.square(8.0, 128))
    back = qfrft(spec.as_signal(), -a, -b, Side.TWO_SIDED,
                 FreqWindow(10.0, 10.0, 128, 128))
    assert np.max(np.abs(back.data - sig.data)) < 1e-4


def test_qfrft_gaussian_eigenfunction_modulus():
    grid = GridSpec.centered(10.0, 128)
    psi = sample(lambda S, T: np.exp(-(S ** 2 + T ** 2) / 2), grid)
    w = FreqWindow.square(8.0, 64)
    for alpha in (0.4, 1.2, 2.6):
        spec = qfrft(psi, alpha, alpha, Side.TWO_SIDED, w)
        U, V = spec.grid.mesh()
        ref = np.exp(-(U ** 2 + V ** 2) / 2)
        assert np.max(np.abs(qabs(spec.data) - ref)) < 1e-8


def test_qfrft_degenerate_angle_and_sided_phase():
    sig = rand_signal()
    with pytest.raises(DegenerateAngleError):
        qfrft(sig, np.pi, 0.5, Side.TWO_SIDED, FreqWindow.square(2.0, 8))
    with pytest.raises(SideMismatchError):
        qfrft(sig, 0.5, 0.5, Side.RIGHT_SIDED, FreqWindow.square(2.0, 8),
              phase_corrected=True)


def test_phase_corrected_spectrum_refuses_inverse():
    grid = GridSpec.centered(4.0, 16)
    sig = sample(gaussian, grid)
    w = FreqWindow.square(4.0, 16)
    corr = qfrft(sig, 0.7, 0.7, Side.TWO_SIDED, w, phase_corrected=True)
    with pytest.raises(ProvenanceMismatchError):
        qlct_inverse(corr, corr.kind, grid)


@pytest.mark.parametrize("side", list(Side))
def test_forward_and_inverse_are_real_linear(side):
    rng = np.random.default_rng(43)
    window = FreqWindow(3.0, 5.0, 12, 9)
    for grid in property_grids(rng, 15, 22):
        kind = LctKind(side, GENERIC, SHEAR, random_axes(rng))
        a, b = rng.normal(size=2)
        f, g = rng.normal(size=(2, 15, 22, 4))
        fwd = lambda d: qlct_forward(QSignal2D(grid, d), kind, window).data
        assert np.max(np.abs(fwd(a * f + b * g) - (a * fwd(f) + b * fwd(g)))) < 1e-12
        F, G = rng.normal(size=(2, 12, 9, 4))
        inv = lambda d: qlct_inverse(QSpectrum2D(window.to_grid(), d, kind, window),
                                     kind, grid).data
        assert np.max(np.abs(inv(a * F + b * G) - (a * inv(F) + b * inv(G)))) < 1e-12


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("ns, nt", [(9, 9), (15, 22)])
def test_inverse_after_forward_recovers_the_input_on_the_scaled_natural_window(side, ns, nt):
    # with xi = b u the kernel phase -x xi / b is the DFT's, and the chirps cancel
    rng = np.random.default_rng(ns * 100 + nt + 9)
    for grid in property_grids(rng, ns, nt):
        sig = QSignal2D(grid, rng.normal(size=(ns, nt, 4)))
        kind = LctKind(side, GENERIC, SHEAR, random_axes(rng))
        natural = FreqWindow.natural(grid)
        window = FreqWindow(GENERIC.b * natural.u_max, SHEAR.b * natural.v_max, ns, nt)
        back = qlct_inverse(qlct_forward(sig, kind, window), kind, grid)
        assert linf_diff(sig, back) < 1e-13


@pytest.mark.parametrize("side", list(Side))
def test_round_trip_at_512_is_as_accurate_as_the_qft(side):
    # the output chirp angle d xi^2 / (2b) reaches ~2e4 rad here: the constant
    # -sign(b) pi/4 of the prefactor, added to it, would be rounded at its ulp
    # (l-inf ~1.4e-12, against ~4e-15 for the QFT)
    grid = GridSpec.centered(6.0, 512)
    sig = QSignal2D(grid, np.random.default_rng(0).normal(size=(512, 512, 4)))
    kind = LctKind(side, GENERIC, LctParams(1.0, -1.0, 0.0, 1.0))
    back = qlct_inverse(qlct_forward(sig, kind), kind, grid)
    qkind = QftKind(side)
    qback = qft_inverse(qft_forward(sig, qkind, FreqWindow.natural(grid)), qkind, grid)
    assert linf_diff(sig, back) <= 2 * linf_diff(sig, qback)


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("ns, nt", [(9, 9), (15, 22), (64, 64)])
def test_plancherel_ratio_is_one_on_the_scaled_natural_window(side, ns, nt):
    # ||L||^2 du dv / (||f||^2 ds dt) = 1: with |b| in the kernels' weights and
    # the window scaled by |b|, each stage is a unitary DFT between unit chirps
    rng = np.random.default_rng(ns * 100 + nt + 3)
    for grid in property_grids(rng, ns, nt):
        sig = QSignal2D(grid, rng.normal(size=(ns, nt, 4)))
        a, c = rng.uniform(0.5, 2.0, size=2), rng.normal(size=2)
        b = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.3, 2.0, size=2)
        mats = [LctParams(a[i], b[i], c[i], (1.0 + b[i] * c[i]) / a[i]) for i in range(2)]
        kind = LctKind(side, *mats, random_axes(rng))
        spec = qlct_forward(sig, kind)
        ratio = (np.sum(spec.data ** 2) * spec.grid.cell_area
                 / (np.sum(sig.data ** 2) * sig.grid.cell_area))
        assert abs(ratio - 1.0) < 1e-12


@pytest.mark.parametrize("side", list(Side))
def test_inverses_refuse_the_other_familys_spectrum(side):
    sig = rand_signal(8, seed=5)
    window = FreqWindow.square(3.0, 8)
    qspec = qft_forward(sig, QftKind(side), window)
    lkind = LctKind(side, GENERIC, SHEAR)
    lspec = qlct_forward(sig, lkind, window)
    for call in (lambda: qft_inverse(lspec, lspec.kind, sig.grid),
                 lambda: qft_inverse(lspec, QftKind(side), sig.grid),
                 lambda: derivative_multiplier(lspec, 0, 0),
                 lambda: qlct_inverse(qspec, qspec.kind, sig.grid),
                 lambda: qlct_inverse(qspec, lkind, sig.grid)):
        with pytest.raises(ProvenanceMismatchError):
            call()


B0 = LctParams(2.0, 0.0, 0.3, 0.5)


@pytest.mark.parametrize("side", list(Side))
def test_default_windows_bit_for_bit(side):
    """Without a window each forward runs, bit for bit, on the natural window
    of the signal grid: as given for the QFT, scaled by (|b1|, |b2|) for the
    QLCT (1 on a b = 0 axis) and by |sin| of the angles for qfrft, and it
    records that window.  The names the bench calls, qft_fast and
    qlct_via_qft, are those defaults."""
    sig = rand_signal(9, seed=61)
    natural = FreqWindow.natural(sig.grid)
    qkind = QftKind(side)
    pairs = [(qft_forward(sig, qkind), qft_forward(sig, qkind, natural), natural),
             (qft_module.qft_fast(sig, qkind), qft_forward(sig, qkind), natural)]
    for A1, A2, window in ((NEG_B1, GENERIC, natural.scaled(2.0, 0.5)),
                           (GENERIC, B0, natural.scaled(0.5, 1.0))):
        kind = LctKind(side, A1, A2)
        pairs.append((qlct_forward(sig, kind), qlct_forward(sig, kind, window), window))
        if side is not Side.TWO_SIDED:
            pairs.append((sided_decompose_transform(sig, kind),
                          sided_decompose_transform(sig, kind, window), window))
    kind = LctKind(side, NEG_B1, GENERIC)
    pairs.append((qlct_module.qlct_via_qft(sig, kind, fast=True), qlct_forward(sig, kind),
                  natural.scaled(2.0, 0.5)))
    window = natural.scaled(abs(np.sin(0.7)), abs(np.sin(-1.1)))
    for corrected in (False, True) if side is Side.TWO_SIDED else (False,):
        pairs.append((qfrft(sig, 0.7, -1.1, side, phase_corrected=corrected),
                      qfrft(sig, 0.7, -1.1, side, window, phase_corrected=corrected), window))
    for default, explicit, window in pairs:
        assert default.data.tobytes() == explicit.data.tobytes()
        assert (default.grid, default.kind) == (explicit.grid, explicit.kind)
        assert default.window == explicit.window == window
    assert qlct_module.qlct_inverse_two_sided is qlct_module.qlct_inverse_sided is qlct_inverse


@pytest.mark.parametrize("side", list(Side))
def test_transforms_leave_their_input_untouched(side):
    """Stages after the first overwrite a buffer the transform owns, never
    the caller's signal or spectrum, also when the first stage is the b = 0
    chirp (axis 0 runs first on the two- and right-sided kinds, axis 1 on
    the left-sided one)."""
    sig = rand_signal(9, seed=31)
    window = FreqWindow.natural(sig.grid)
    qkind, lkind = QftKind(side), LctKind(side, GENERIC, SHEAR)
    b0_first = LctKind(side, GENERIC, B0) if side is Side.LEFT_SIDED else LctKind(side, B0, SHEAR)
    qspec = qft_forward(sig, qkind, window)
    lspec = qlct_forward(sig, lkind, window.scaled(0.5, 1.0))
    calls = [lambda: qft_forward(sig, qkind, window),
             lambda: qft_inverse(qspec, qkind, sig.grid),
             lambda: qlct_forward(sig, lkind, window),
             lambda: qlct_forward(sig, b0_first, window),
             lambda: qlct_inverse(lspec, lkind, sig.grid),
             lambda: qlct_forward(sig, lkind),
             lambda: qfrft(sig, 0.7, -1.1, side, window)]
    if side is Side.TWO_SIDED:
        calls.append(lambda: qfrft(sig, 0.7, -1.1, side, window, phase_corrected=True))
    else:
        calls.append(lambda: sided_decompose_transform(sig, lkind, window))
    before = [a.copy() for a in (sig.data, qspec.data, lspec.data)]
    for call in calls:
        call()
        for was, now in zip(before, (sig.data, qspec.data, lspec.data)):
            assert was.tobytes() == now.tobytes()


@pytest.mark.parametrize("n", [300, 301])
@pytest.mark.parametrize("side", list(Side))
def test_inverses_that_consume_their_spectrum_give_the_same_bytes(side, n):
    """With overwrite=True an inverse writes into the spectrum's buffer and
    returns the bytes of the allocating inverse, on natural windows (folded
    stages) and narrow ones (every stage low-rank); onto a grid whose counts
    differ from the spectrum's it allocates and leaves the spectrum alone."""
    grid = GridSpec.centered(4.0, n)
    sig = QSignal2D(grid, np.random.default_rng(n).normal(size=(n, n, 4)))
    other = GridSpec.centered(4.0, n // 2)
    lkind = LctKind(side, GENERIC, LctParams(1.0, -0.5, 0.0, 1.0))
    narrow = FreqWindow(5.0, 5.0, n, n)
    assert _kernels.low_rank(grid.s, narrow.to_grid().s, 1.0) is not None
    cases = [(QftKind(side), qft_forward, qft_inverse, (1.0, 1.0)),
             (lkind, qlct_forward, qlct_inverse, (GENERIC.b, 0.5))]
    for kind, forward, inverse, b in cases:
        for window in (FreqWindow.natural(grid), narrow):
            spec = forward(sig, kind, window.scaled(*b))
            want = inverse(spec, kind, grid).data.tobytes()
            got = inverse(spec, kind, grid, overwrite=True).data
            assert np.shares_memory(got, spec.data)
            assert got.tobytes() == want

            spec = forward(sig, kind, window.scaled(*b))
            before = spec.data.tobytes()
            got = inverse(spec, kind, other, overwrite=True).data
            assert not np.shares_memory(got, spec.data)
            assert spec.data.tobytes() == before
            assert got.tobytes() == inverse(spec, kind, other).data.tobytes()


def _forward_cases(side, n):
    """(kind, forward, window) of the QFT and of the QLCT with every sign
    pattern of (b1, b2) and with a b = 0 axis, on the natural window (scaled
    by |b|) and on a narrow one."""
    grid = GridSpec.centered(4.0, n)
    kinds = [(QftKind(side), qft_forward, (1.0, 1.0))]
    kinds += [(LctKind(side, LctParams(0.7, b1, (0.7 * -0.4 - 1.0) / b1, -0.4),
                       LctParams(1.0, b2, 0.0, 1.0)), qlct_forward, (abs(b1), abs(b2)))
              for b1 in (0.5, -0.5) for b2 in (0.8, -0.8)]
    kinds.append((LctKind(side, GENERIC, B0), qlct_forward, (GENERIC.b, 1.0)))
    return [(kind, forward, window.scaled(*b)) for kind, forward, b in kinds
            for window in (FreqWindow.natural(grid), FreqWindow(5.0, 5.0, n, n))]


@pytest.mark.parametrize("n", [64, 301])
@pytest.mark.parametrize("side", list(Side))
def test_forwards_that_consume_their_signal_give_the_same_bytes(side, n):
    """With overwrite=True a forward transform writes into the signal's
    buffer and returns the bytes of the allocating transform: at 64 (2^6) the
    natural window takes the FFT and the narrow one the fold, at 301 (7 * 43)
    the natural window folds and every narrow stage is low-rank, the first
    stage of a sided QLCT interpolated right after it."""
    grid = GridSpec.centered(4.0, n)
    data = np.random.default_rng(n).normal(size=(n, n, 4))
    narrow = FreqWindow(5.0, 5.0, n, n).to_grid().s
    assert (_kernels.low_rank(narrow, grid.s, -1.0) is None) == (n == 64)
    for kind, forward, window in _forward_cases(side, n):
        want = forward(QSignal2D(grid, data), kind, window)
        sig = QSignal2D(grid, data.copy())
        got = forward(sig, kind, window, overwrite=True)
        assert np.shares_memory(got.data, sig.data)
        assert got.data.tobytes() == want.data.tobytes() and got.grid == want.grid


def test_forward_shares_the_signal_only_when_it_can_hold_the_spectrum():
    """overwrite=True writes into a C-contiguous float64 signal with the
    counts of the window; onto other counts, and from a Fortran-order, strided
    or float32 array of the right size, the transform allocates and leaves its
    input as it was."""
    sig = rand_signal(9, seed=41)
    kind = LctKind(Side.RIGHT_SIDED, GENERIC, SHEAR)
    want = qlct_forward(sig, kind, FreqWindow(3.0, 2.0, 7, 11)).data.tobytes()
    other = QSignal2D(sig.grid, sig.data.copy())
    got = qlct_forward(other, kind, FreqWindow(3.0, 2.0, 7, 11), overwrite=True)
    assert not np.shares_memory(got.data, other.data)
    assert other.data.tobytes() == sig.data.tobytes() and got.data.tobytes() == want

    window = FreqWindow(3.0, 2.0, 9, 9)
    want = qlct_forward(sig, kind, window).data
    mats = (kind.A1, kind.A2)
    for given in (np.asfortranarray(sig.data), np.repeat(sig.data, 2, axis=1)[:, ::2],
                  sig.data.astype(np.float32)):
        before = given.copy()
        got = _stages(given, kind.side.stages, kind.axes, sig.grid, window.to_grid(),
                      lambda axis, x, xi, dx: _lct_terms(mats[axis], x, xi, dx), overwrite=True)
        assert not np.shares_memory(got, given)
        assert np.array_equal(given, before)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 if given.dtype == np.float32 else 0)
