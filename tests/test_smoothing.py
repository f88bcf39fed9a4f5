from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import (
    exp_axis,
    half_period_panels,
    random_axes,
    si_panels,
    si_series,
    sinc_partial_sum_reference,
)
from qharmonics.errors import (
    DegenerateBError,
    InvalidParameterError,
    InvariantViolationError,
    NoIntegrableSectionError,
    NonConvergentError,
    NonFiniteError,
    NonPositiveWindowError,
    ProvenanceMismatchError,
    QHarmonicsError,
)
from qharmonics.fixtures import gaussian, indicator, qgaussian, sinc_rect
from qharmonics.grids import GridSpec, QSignal2D, QSpectrum2D, l1_norm, sample
from qharmonics.qft import FreqWindow, QftKind, Side, qft_forward, qft_inverse
from qharmonics.qlct import LctKind, LctParams, qfrft, qlct_forward, qlct_inverse
from qharmonics.quaternion import qabs, qmul
from qharmonics import smoothing
from qharmonics.smoothing import (
    dirichlet_partial_inverse_freq,
    dirichlet_partial_inverse_sinc,
    eta_jump_average,
    gauss_mean_inverse,
    gauss_weierstrass_kernel,
    lc_class_diagnostic,
    sinc_integral_bound_check,
)

GAUSS_RECT = (-8.0, 8.0, -8.0, 8.0)


def gaussian_spectrum(n=128, extent=10.0, wmax=8.0):
    sig = sample(gaussian, GridSpec.centered(extent, n))
    return sig, qft_forward(sig, QftKind(), FreqWindow.square(wmax, n))


def damped(spec, alpha):
    """The spectrum times e^{-alpha(u^2+v^2)}."""
    U, V = spec.grid.mesh()
    return spec.scaled(np.exp(-alpha * (U ** 2 + V ** 2)))


def lct_params(a, b, d):
    """The unit-determinant matrix (a, b, (ad - 1)/b, d)."""
    return LctParams(a, b, (a * d - 1) / b, d)


#: a two-sided QLCT with b = (0.8, -0.6)
KIND = LctKind(Side.TWO_SIDED, lct_params(0.5, 0.8, 1.2), lct_params(-0.4, -0.6, 0.9))


def chirped(value, kind, x, y, sign=1.0):
    """e^{sign mu1 a1 x^2/2b1} value e^{sign mu2 a2 y^2/2b2}.  With sign = 1
    it takes f to the signal whose QFT at (u/b1, v/b2) each two-sided QLCT
    stage computes between unit chirps; with sign = -1 it takes that
    signal's partial sums and Gauss means back to the QLCT's."""
    A1, A2, axes = kind.A1, kind.A2, kind.axes
    return qmul(qmul(exp_axis(axes.mu1, sign * A1.a * x ** 2 / (2 * A1.b)), value),
                exp_axis(axes.mu2, sign * A2.a * y ** 2 / (2 * A2.b)))


def test_partial_inverse_gaussian_center():
    sig, spec = gaussian_spectrum()
    got = dirichlet_partial_inverse_freq(spec, (0.0, 0.0), 8.0, 8.0)
    assert abs(got[0] - 1.0) < 1e-5
    assert np.max(np.abs(got[1:])) < 1e-12


def test_partial_inverse_freq_and_sinc_paths_agree():
    _, spec = gaussian_spectrum()
    point = (0.4, -0.3)
    a = dirichlet_partial_inverse_freq(spec, point, 8.0, 8.0)
    b = dirichlet_partial_inverse_sinc(gaussian, point, 8.0, 8.0, GAUSS_RECT)
    assert np.max(np.abs(a - b)) < 1e-6


@pytest.mark.parametrize("fn, rect_name, point, M", [
    (indicator, "indicator", (1.0, 0.0), 60.0),           # real, jump at an edge point
    (qgaussian, "qgaussian", (0.4, -0.3), 8.0),           # quaternion, all parts active
    (lambda S, T: np.exp(-T ** 2), "gaussian", (0.2, 0.1), 8.0),  # real, shape (1, nt)
])
def test_sinc_path_matches_unblocked_reference(fn, rect_name, point, M):
    rect = sinc_rect(rect_name, point)
    # more than one 256-node block of s, the last one partial
    ns = half_period_panels(rect[0], rect[1], M, order=8)[0].size
    assert ns > 256 and ns % 256
    got = dirichlet_partial_inverse_sinc(fn, point, M, M, rect)
    want = sinc_partial_sum_reference(fn, point, M, M, rect)
    assert got.shape == (4,)
    assert np.max(np.abs(got - want)) < 1e-13


def test_partial_inverse_error_decays_with_window_doubling():
    sig, spec = gaussian_spectrum(wmax=16.0)
    point = (0.5, 0.25)
    truth = gaussian(*point)
    errs = []
    for M in (2.0, 4.0, 8.0):
        val = dirichlet_partial_inverse_freq(spec, point, M, M)
        errs.append(abs(val[0] - truth))
    assert errs[0] > errs[1] > errs[2]


def partial_inverse_reference(spec, point, M, N):
    """(1/4pi^2) sum over the cells in |u|<=M, |v|<=N of the side-ordered
    kernel sandwich at the point, one qmul per factor."""
    keep_u, keep_v = np.abs(spec.grid.s) <= M, np.abs(spec.grid.t) <= N
    u, v = spec.grid.mesh()
    K1 = exp_axis(spec.kind.axes.mu1, u[keep_u] * point[0])  # (nu, 1, 4)
    K2 = exp_axis(spec.kind.axes.mu2, v[:, keep_v] * point[1])  # (1, nv, 4)
    F = spec.data[np.ix_(keep_u, keep_v)]
    terms = {Side.TWO_SIDED: lambda: qmul(qmul(K1, F), K2),
             Side.RIGHT_SIDED: lambda: qmul(qmul(F, K2), K1),
             Side.LEFT_SIDED: lambda: qmul(qmul(K2, K1), F)}[spec.kind.side]()
    return terms.sum(axis=(0, 1)) * spec.grid.cell_area / (4 * np.pi ** 2)


@pytest.mark.parametrize("side", list(Side))
def test_partial_inverse_freq_matches_windowed_sum(side):
    rng = np.random.default_rng(31)
    for _ in range(3):
        kind = QftKind(side, random_axes(rng))
        sig = QSignal2D(GridSpec.centered(5.0, 17), rng.normal(size=(17, 17, 4)))
        spec = qft_forward(sig, kind, FreqWindow(6.0, 4.5, 23, 20))
        point = tuple(rng.uniform(-2, 2, size=2))
        on_nodes = (abs(spec.grid.s[3]), abs(spec.grid.t[5]))  # |u| <= M keeps the node
        for M, N in ((8.0, 8.0), (3.1, 2.0), (0.3, 5.0), on_nodes):
            got = dirichlet_partial_inverse_freq(spec, point, M, N)
            want = partial_inverse_reference(spec, point, M, N)
            assert np.max(np.abs(got - want)) < 1e-14


def test_partial_inverse_window_validation():
    _, spec = gaussian_spectrum(n=32, wmax=4.0)
    with pytest.raises(NonPositiveWindowError):
        dirichlet_partial_inverse_freq(spec, (0, 0), -1.0, 2.0)
    with pytest.raises(NonFiniteError):  # NaN is refused as non-finite before any comparison
        dirichlet_partial_inverse_freq(spec, (0, 0), np.nan, 2.0)
    with pytest.raises(NonPositiveWindowError):
        dirichlet_partial_inverse_sinc(gaussian, (0, 0), 0.0, 1.0, GAUSS_RECT)
    for point in ((np.nan, 0.0), (0.0, np.inf)):
        with pytest.raises(NonFiniteError):
            dirichlet_partial_inverse_freq(spec, point, 2.0, 2.0)
        with pytest.raises(NonFiniteError):
            dirichlet_partial_inverse_sinc(gaussian, point, 2.0, 2.0, GAUSS_RECT)
    with pytest.raises(NonFiniteError):
        dirichlet_partial_inverse_sinc(gaussian, (0, 0), np.inf, 2.0, GAUSS_RECT)
    with pytest.raises(NonFiniteError):
        dirichlet_partial_inverse_sinc(gaussian, (0, 0), 2.0, 2.0, (-np.inf, 8.0, -8.0, 8.0))


@pytest.mark.parametrize("M,N,name", [(1e308, 2.0, "M"), (1e20, 2.0, "M"), (2.0, 1e17, "N")])
def test_sinc_panel_count_past_an_array_is_refused_before_allocating(traced_peak, M, N, name):
    """A panel count (hi - lo) * M / pi that is not finite or past numpy's
    array size limit is a typed error raised before any node array exists."""
    def call():
        with pytest.raises(InvalidParameterError, match=f"{name} = .* on \\[-8.0, 8.0\\]"):
            dirichlet_partial_inverse_sinc(gaussian, (0, 0), M, N, GAUSS_RECT)
    _, peak = traced_peak(call)
    assert peak < 64 * 1024


@pytest.mark.parametrize("panels", [smoothing.MAX_SINC_PANELS + 1, 6.4e16], ids=["cap+1", "M=1e17"])
def test_sinc_panel_cap_is_refused_before_allocating(traced_peak, panels):
    """Past MAX_SINC_PANELS panels on an axis of the indicator's rectangle
    (width 2), M is refused naming M, the rectangle and the cap, before any
    node array exists; one panel under the cap passes the same check."""
    rect = sinc_rect("indicator", (1.0, 1.0))
    M = panels * np.pi / 2.0

    def call():
        with pytest.raises(InvalidParameterError, match=r"M = .* on \[0.0, 2.0\].* 1024$"):
            dirichlet_partial_inverse_sinc(indicator, (1.0, 1.0), M, 2.0, rect)
    _, peak = traced_peak(call)
    assert peak < 64 * 1024
    smoothing._require_panels((smoothing.MAX_SINC_PANELS - 1) * np.pi / 2.0, 2.0, rect)


def test_partial_inverse_freq_empty_window_is_zero():
    # the first spectrum nodes sit at |u| = |v| = 0.125
    _, spec = gaussian_spectrum(n=32, wmax=4.0)
    for M, N in ((0.01, 0.01), (0.01, 4.0), (4.0, 0.1)):
        got = dirichlet_partial_inverse_freq(spec, (0.3, -0.2), M, N)
        assert got.tolist() == [0.0, 0.0, 0.0, 0.0]


def test_qlct_partial_sum_is_the_dechirped_qft_partial_sum():
    """Cropped to |u| <= M, |v| <= N and inverted at a point, a two-sided
    QLCT spectrum gives e^{-mu1 a1 x0^2/2b1} I e^{-mu2 a2 y0^2/2b2}, where I
    is the QFT partial sum of the chirped signal at (M/|b1|, N/|b2|), for
    every sign pattern of b and random axes."""
    rng = np.random.default_rng(43)
    grid = GridSpec.centered(4.0, 64)
    sig = sample(qgaussian, grid)
    window = FreqWindow(9.0, 7.0, 96, 96)
    S, T = grid.mesh()
    for sign1, sign2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        kind = LctKind(Side.TWO_SIDED,
                       lct_params(rng.uniform(-1, 1), sign1 * rng.uniform(0.5, 1.5), rng.uniform(-1, 1)),
                       lct_params(rng.uniform(-1, 1), sign2 * rng.uniform(0.5, 1.5), rng.uniform(-1, 1)),
                       random_axes(rng))
        b1, b2 = abs(kind.A1.b), abs(kind.A2.b)
        spec = qlct_forward(sig, kind, window)
        twin = qft_forward(QSignal2D(grid, chirped(sig.data, kind, S, T)),
                           QftKind(Side.TWO_SIDED, kind.axes), window.scaled(1 / b1, 1 / b2))
        for M, N in ((2.0, 3.0), (3.5, 5.2), (5.0, 1.3)):
            for x0, y0 in ((0.3, -0.2), (-1.1, 0.7)):
                got = dirichlet_partial_inverse_freq(spec, (x0, y0), M, N)
                want = chirped(dirichlet_partial_inverse_freq(twin, (x0, y0), M / b1, N / b2),
                               kind, x0, y0, sign=-1.0)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("side", list(Side))
def test_qlct_partial_sums_converge_on_every_side(side):
    """The crop route on a smooth fixture: the natural window scaled by |b|
    holds the whole spectrum, and the partial sums reach f(x0) to rounding."""
    grid = GridSpec.centered(8.0, 256)
    kind = LctKind(side, KIND.A1, KIND.A2)
    spec = qlct_forward(sample(qgaussian, grid), kind, FreqWindow.natural(grid).scaled(0.8, 0.6))
    point = (0.3, -0.2)
    errs = [np.max(np.abs(dirichlet_partial_inverse_freq(spec, point, M, M) - qgaussian(*point)))
            for M in (1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-14


def test_qlct_partial_sums_at_jumps():
    """The two-sided QLCT twin of acceptance test 10, through the crop route:
    at a corner, an edge and the interior of the indicator the partial sums
    approach 1/4, 1/2 and 1 (the chirps are continuous there), with test
    10's tolerances.  The window |u| <= M |b1|, |v| <= M |b2| is the QFT
    window M of the chirped signal; the jumps lie on cell edges."""
    grid = GridSpec.centered(2.0, 512)
    spec = qlct_forward(sample(indicator, grid), KIND, FreqWindow.natural(grid).scaled(0.8, 0.6))
    for point, eta, bound in (((1.0, 1.0), 0.25, 0.03), ((1.0, 0.0), 0.5, 0.03),
                              ((0.0, 0.0), 1.0, 0.02)):
        errs = [qabs(dirichlet_partial_inverse_freq(spec, point, 0.8 * M, 0.6 * M) - [eta, 0, 0, 0])
                for M in (25.0, 50.0, 100.0)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < bound


def test_sinc_product_normalization():
    # integral over the first quadrant of the product kernel is 1/4
    const = lambda S, T: np.ones(np.broadcast(S, T).shape)
    R = 200.0 * np.pi
    val = dirichlet_partial_inverse_sinc(const, (0.0, 0.0), 1.0, 1.0,
                                         (-R, 0.0, -R, 0.0))
    assert abs(val[0] - 0.25) < 1e-3


def test_indicator_corner_sweep():
    point = (1.0, 1.0)
    errs = []
    for M in (25.0, 50.0, 100.0):
        val = dirichlet_partial_inverse_sinc(indicator, point, M, M,
                                             (0.0, 2.0, 0.0, 2.0))
        errs.append(abs(val[0] - 0.25))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.03


def test_eta_jump_average():
    ja = eta_jump_average(gaussian, (0.3, -0.7))
    assert abs(ja.value[0] - gaussian(0.3, -0.7)) < 1e-8
    np.testing.assert_allclose(ja.value, ja.quadrant_values.mean(axis=0))

    corner = eta_jump_average(indicator, (1.0, 1.0))
    np.testing.assert_allclose(corner.quadrant_values[:, 0], [0, 0, 0, 1])
    assert corner.value[0] == 0.25

    edge = eta_jump_average(indicator, (1.0, 0.0))
    assert edge.value[0] == 0.5


def test_eta_nonconvergent():
    def wild(S, T):
        return np.sin(1.0 / (np.abs(S - 1.0) + np.abs(T - 1.0)))
    with pytest.raises(NonConvergentError):
        eta_jump_average(wild, (1.0, 1.0))
    with pytest.raises(NonConvergentError):  # a NaN extrapolant never settles
        eta_jump_average(lambda S, T: np.where(S > 1.0, np.nan, 0.0), (1.0, 1.0))
    for point in ((np.nan, 0.0), (0.0, np.inf)):
        with pytest.raises(NonFiniteError):
            eta_jump_average(gaussian, point)
    # a tableau needs two levels; h0 <= 0 would evaluate at or across the point
    # past MAX_ETA_LEVELS levels, before any array exists
    for kw in ({"levels": 0}, {"levels": 1}, {"levels": 2.5}, {"h0": 0.0}, {"h0": -0.5},
               {"levels": smoothing.MAX_ETA_LEVELS + 1}, {"levels": 10 ** 15}):
        with pytest.raises(InvalidParameterError):
            eta_jump_average(indicator, (1.0, 1.0), **kw)


def test_sinc_bound_values_against_oracles():
    assert abs(sinc_integral_bound_check(0.0, np.pi) - si_series(np.pi)) < 1e-12
    assert abs(si_series(np.pi) - 1.8519370519824661) < 1e-12
    assert sinc_integral_bound_check(3.25, 3.25) == 0.0
    big = sinc_integral_bound_check(-1e4, 1e4)
    assert abs(big - si_panels(-1e4, 1e4)) < 1e-9
    assert abs(big - np.pi) < 1e-3
    # oracle agreement on generic ranges
    for a, b in ((-7.3, 2.1), (100.0, 350.0), (-2000.0, 1.5)):
        assert abs(sinc_integral_bound_check(a, b) - abs(si_panels(a, b))) < 1e-9


def test_sinc_bound_property_random():
    rng = np.random.default_rng(77)
    pairs = rng.uniform(-1e6, 1e6, size=(1000, 2))
    vals = [sinc_integral_bound_check(a, b) for a, b in pairs]
    assert max(vals) <= 6.0


def test_gauss_weierstrass_kernel():
    grid = GridSpec.centered(6.0, 256)
    ker = gauss_weierstrass_kernel(0.25, grid)
    assert abs(l1_norm(ker) - 1.0) < 1e-8
    np.testing.assert_array_equal(ker.data, ker.data[::-1, ::-1])
    with pytest.raises(ValueError):
        gauss_weierstrass_kernel(0.0, grid)
    # it is the two-sided transform of (1/4pi^2) e^{-alpha r^2}
    src = sample(lambda S, T: np.exp(-0.25 * (S ** 2 + T ** 2)) / (4 * np.pi ** 2),
                 GridSpec.centered(12.0, 256))
    spec = qft_forward(src, QftKind(), FreqWindow.square(6.0, 256))
    assert np.max(np.abs(spec.data - ker.data)) < 1e-6


def test_gauss_mean_inverse_decreasing_and_closed_form():
    sig, spec = gaussian_spectrum()
    pairs = gauss_mean_inverse(spec, (1.0, 0.1, 0.01), reference=sig)
    errs = [err for _, err in pairs]
    assert errs[0] > errs[1] > errs[2]
    # damped integral equals the heat smoothing: closed form for the Gaussian
    S, T = sig.grid.mesh()
    for alpha, err in pairs:
        mean = qft_inverse(damped(spec, alpha), spec.kind, sig.grid)
        c = 1.0 + 4.0 * alpha
        heat = np.exp(-(S ** 2 + T ** 2) / c) / c
        assert np.max(np.abs(mean.data[..., 0] - heat)) < 1e-6
        assert np.max(np.abs(mean.data[..., 1:])) < 1e-9
        assert err == l1_norm(QSignal2D(sig.grid, mean.data - sig.data))


def test_gauss_mean_large_alpha_kills_signal():
    # the damping leaves nothing to invert: the error is the reference's norm
    sig, spec = gaussian_spectrum(n=64, wmax=6.0)
    ((alpha, err),) = gauss_mean_inverse(spec, (400.0,), sig)
    assert alpha == 400.0
    assert abs(err - l1_norm(sig)) < 1e-3 * l1_norm(sig)


@pytest.mark.parametrize("b", [0.8, -0.6, 1.5])
def test_qlct_gauss_mean_is_the_dechirped_qft_gauss_mean(b):
    """With |b1| = |b2| = b, the QLCT Gauss mean at alpha is the de-chirped
    QFT Gauss mean of the chirped signal at alpha b^2, and its L1 error
    against f is that mean's error against the chirped signal (the chirps
    are unit quaternions)."""
    grid = GridSpec.centered(10.0, 128)
    sig = sample(qgaussian, grid)
    S, T = grid.mesh()
    kind = LctKind(Side.TWO_SIDED, lct_params(0.7, b, -0.3), lct_params(-0.5, -b, 1.1),
                   random_axes(np.random.default_rng(47)))
    spec = qlct_forward(sig, kind, FreqWindow.natural(grid).scaled(abs(b), abs(b)))
    twin_sig = QSignal2D(grid, chirped(sig.data, kind, S, T))
    twin = qft_forward(twin_sig, QftKind(Side.TWO_SIDED, kind.axes), FreqWindow.natural(grid))
    schedule = (1.0, 0.1, 0.01)
    for alpha in schedule:
        mean = qlct_inverse(damped(spec, alpha), kind, grid).data
        want = chirped(qft_inverse(damped(twin, alpha * b * b), twin.kind, grid).data,
                       kind, S, T, sign=-1.0)
        assert np.max(np.abs(mean - want)) <= 1e-14 * np.max(np.abs(want))
    got = gauss_mean_inverse(spec, schedule, sig)
    want = gauss_mean_inverse(twin, [alpha * b * b for alpha in schedule], twin_sig)
    assert [alpha for alpha, _ in got] == list(schedule)
    for (_, err), (_, twin_err) in zip(got, want):
        assert abs(err - twin_err) <= 1e-14 * l1_norm(sig)


@pytest.mark.parametrize("family", ["qft", "qlct"])
@pytest.mark.parametrize("side", list(Side))
def test_gauss_means_converge_on_every_side(family, side):
    """The damping is real, so it commutes with every kernel placement: the
    L1 errors fall along the schedule for sided spectra too."""
    grid = GridSpec.centered(10.0, 128)
    sig = sample(qgaussian, grid)
    window = FreqWindow.natural(grid)
    if family == "qft":
        spec = qft_forward(sig, QftKind(side), window)
    else:
        spec = qlct_forward(sig, LctKind(side, KIND.A1, KIND.A2), window.scaled(0.8, 0.6))
    errs = [err for _, err in gauss_mean_inverse(spec, (1.0, 0.1, 0.01, 0.001), sig)]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_smoothing_refuses_what_the_inverses_refuse():
    """Phase-corrected and b = 0 QLCT spectra raise as the QLCT inverse
    does, and a spectrum of neither family raises a library error."""
    grid = GridSpec.centered(4.0, 16)
    sig = sample(qgaussian, grid)
    window = FreqWindow.square(3.0, 16)
    corrected = qfrft(sig, 0.7, 0.9, Side.TWO_SIDED, window, phase_corrected=True)
    degenerate = qlct_forward(sig, LctKind(Side.TWO_SIDED, LctParams(1.0, 0.0, 0.5, 1.0), KIND.A2),
                              window)
    for spec, error in ((corrected, ProvenanceMismatchError), (degenerate, DegenerateBError)):
        with pytest.raises(error) as inverse:
            qlct_inverse(spec, spec.kind, grid)
        for call in (lambda: dirichlet_partial_inverse_freq(spec, (0.1, 0.2), 2.0, 2.0),
                     lambda: gauss_mean_inverse(spec, (1.0,), sig)):
            with pytest.raises(error) as got:
                call()
            assert str(got.value) == str(inverse.value)
    for kind in (SimpleNamespace(side=Side.TWO_SIDED, family="ft"), object()):
        foreign = QSpectrum2D(window.to_grid(), np.ones((16, 16, 4)), kind)
        with pytest.raises(QHarmonicsError):
            dirichlet_partial_inverse_freq(foreign, (0.1, 0.2), 2.0, 2.0)
        with pytest.raises(QHarmonicsError):
            gauss_mean_inverse(foreign, (1.0,), sig)


def test_gauss_mean_scalar_pairing_identity():
    # sum of F w equals sum of f W at matched quadrature (Parseval-like pair)
    alpha = 0.3
    sig = sample(gaussian, GridSpec.centered(10.0, 128))
    spec = qft_forward(sig, QftKind(), FreqWindow.square(10.0, 192))
    U, V = spec.grid.mesh()
    w = np.exp(-alpha * (U ** 2 + V ** 2)) / (4 * np.pi ** 2)
    lhs = np.sum(spec.data * w[..., None], axis=(0, 1)) * spec.grid.cell_area
    S, T = sig.grid.mesh()
    W = np.exp(-(S ** 2 + T ** 2) / (4 * alpha)) / (4 * np.pi * alpha)
    rhs = np.sum(sig.data * W[..., None], axis=(0, 1)) * sig.grid.cell_area
    assert np.max(np.abs(lhs - rhs)) < 1e-6


def test_gauss_mean_schedule_validation_and_side_check():
    sig = sample(gaussian, GridSpec.centered(4.0, 16))
    two = qft_forward(sig, QftKind(), FreqWindow.square(3.0, 16))
    for schedule in ((1.0, 2.0), (0.1, 1.0), (1.0, 1.0), (-0.01,), (0.0,), (1.0, -0.1)):
        with pytest.raises(InvalidParameterError):
            gauss_mean_inverse(two, schedule, reference=sig)
    for schedule in ((np.nan,), (1.0, np.inf), (1.0, np.nan, 0.1)):
        with pytest.raises(NonFiniteError):
            gauss_mean_inverse(two, schedule, reference=sig)
    pairs = gauss_mean_inverse(two, (1.0, 0.1, 0.01), reference=sig)
    assert [alpha for alpha, _ in pairs] == [1.0, 0.1, 0.01]
    sided = qft_forward(sig, QftKind(Side.RIGHT_SIDED), FreqWindow.square(3.0, 16))
    assert [alpha for alpha, _ in gauss_mean_inverse(sided, (1.0,), reference=sig)] == [1.0]


def test_lc_diagnostic_gaussian_stable_under_radius_doubling():
    v1, v2 = lc_class_diagnostic(gaussian, (0.0, 0.0), 0.5, 0.5, 8.0)
    w1, w2 = lc_class_diagnostic(gaussian, (0.0, 0.0), 0.5, 0.5, 16.0)
    assert np.isfinite([v1, v2]).all()
    assert abs(w1 - v1) / v1 < 0.05
    assert abs(w2 - v2) / v2 < 0.05


def test_lc_diagnostic_s_independent_quadrant_sum():
    fn = lambda S, T: np.exp(-T ** 2) * np.ones(np.broadcast(S, T).shape)
    v1, _ = lc_class_diagnostic(fn, (0.0, 0.0), 0.5, 0.5, 6.0)
    assert v1 == 0.0


def test_lc_diagnostic_divergent_section_grows_with_inner_refinement():
    # no s-limit at the point: the s-strip estimate grows ~log with the
    # inner cutoff while the healthy t-strip estimate stays put
    fn = lambda S, T: (np.sin(np.log(1.0 / np.maximum(np.abs(S), 1e-300)))
                       * np.exp(-T ** 2))
    coarse, flat_c = lc_class_diagnostic(fn, (0.0, 0.0), 0.5, 0.5, 6.0, n_inner=64)
    fine, flat_f = lc_class_diagnostic(fn, (0.0, 0.0), 0.5, 0.5, 6.0, n_inner=4096)
    assert fine > coarse + 1.5
    assert abs(flat_f - flat_c) < 0.01


def test_lc_diagnostic_errors():
    with pytest.raises(InvalidParameterError):
        lc_class_diagnostic(gaussian, (0, 0), -0.1, 0.5, 4.0)
    with pytest.raises(InvalidParameterError):
        lc_class_diagnostic(gaussian, (0, 0), 0.5, 0.5, 0.4)
    # past MAX_LC_NODES strip nodes, before any array exists
    for kw in ({"n_inner": 0}, {"n_outer": 0}, {"n_inner": -3}, {"n_inner": 2.5},
               {"n_outer": 96.0}, {"n_inner": 10 ** 15}, {"n_inner": 4096, "n_outer": 257},
               {"n_inner": np.int64(2) ** 62, "n_outer": 192}):
        with pytest.raises(InvalidParameterError):
            lc_class_diagnostic(gaussian, (0, 0), 0.5, 0.5, 4.0, **kw)
    for args in (((0, 0), np.nan, 0.5, 4.0), ((0, 0), 0.5, 0.5, np.inf),
                 ((np.nan, 0), 0.5, 0.5, 4.0)):
        with pytest.raises(NonFiniteError):
            lc_class_diagnostic(gaussian, *args)
    bad = lambda S, T: np.inf * np.ones(np.broadcast(S, T).shape)
    with pytest.raises(NoIntegrableSectionError):
        lc_class_diagnostic(bad, (0, 0), 0.5, 0.5, 4.0)


def test_sinc_bound_violation_raises_typed_error(monkeypatch):
    monkeypatch.setattr(smoothing, "_sine_integral", lambda x: 10.0 * x)
    with pytest.raises(InvariantViolationError):
        sinc_integral_bound_check(0.0, 1.0)


def test_sinc_bound_nan_and_infinite_ends():
    # a NaN end is not a violated bound; infinite ends take Si(+-inf) = +-pi/2
    for a, b in ((np.nan, 1.0), (0.0, np.nan), (np.nan, np.inf)):
        with pytest.raises(NonFiniteError):
            sinc_integral_bound_check(a, b)
    assert sinc_integral_bound_check(-np.inf, np.inf) == np.pi
    assert sinc_integral_bound_check(0.0, np.inf) == np.pi / 2
    assert sinc_integral_bound_check(-np.inf, 0.0) == np.pi / 2
    assert sinc_integral_bound_check(np.inf, np.inf) == 0.0


def test_sine_integral_within_4_ulp_of_mpmath():
    # 4000 points over +-[1e-8, 1e6], both sides of the series/continued-fraction
    # switch at |x| = 4 among them; the table's header says how it was made
    x, want = np.loadtxt(Path(__file__).parent / "data" / "sine_integral_mpmath.txt",
                         unpack=True)
    assert x.size >= 4000 and np.any(x < 0) and np.any(x > 0)
    got = smoothing._sine_integral(x)
    assert np.max(np.abs(got - want) / np.spacing(np.abs(want))) <= 4
    assert all(smoothing._sine_integral(v) == g for v, g in zip(x[::400], got[::400]))
    assert smoothing._sine_integral(0.0) == 0.0


def test_gauss_legendre_literals_are_leggauss_8():
    gx, gw = np.polynomial.legendre.leggauss(8)
    np.testing.assert_array_equal(smoothing._GL8_NODES, gx)
    np.testing.assert_array_equal(smoothing._GL8_WEIGHTS, gw)


@pytest.mark.parametrize("lo, hi, rate", [(-8.0, 8.0, 25.0), (-np.pi, 2 * np.pi, 1.0),
                                          (0.0, 3.0, 1.0), (1.0, 1.5, 0.5), (-2.5, 7.25, 100.0)])
def test_panel_edges_are_np_unique(lo, hi, rate):
    # the sort that drops equal neighbours cuts the panels np.unique cut
    nodes, weights = smoothing._panel_nodes(lo, hi, rate)
    k_lo, k_hi = int(np.ceil(lo * rate / np.pi)), int(np.floor(hi * rate / np.pi))
    edges = np.unique(np.concatenate([[lo, hi], np.arange(k_lo, k_hi + 1) * np.pi / rate]))
    edges = edges[(edges >= lo) & (edges <= hi)]
    half, mid = np.diff(edges) / 2, (edges[:-1] + edges[1:]) / 2
    gx, gw = np.polynomial.legendre.leggauss(8)
    np.testing.assert_array_equal(nodes, (mid[:, None] + half[:, None] * gx).ravel())
    np.testing.assert_array_equal(weights, (half[:, None] * gw).ravel())
