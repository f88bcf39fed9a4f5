"""Acceptance gate: every shipped claim, one test per criterion.

Each test prints one `[PASS]/[FAIL]` line with the measured number (run
pytest with -s to see them all), then asserts.  Criterion 11's final
bound is a strict xfail: the damped-inversion L1 error at alpha is
alpha * ||laplacian f||_1 + O(alpha^2) ~= 9.25 * alpha * amplitude for
any Gaussian, so 1e-3 is out of reach at alpha = 0.01; the measured
value is printed and the decreasing part is asserted separately.
"""

import time

import numpy as np
import pytest

from oracles import qft_bruteforce
from test_qlct import chirp_qft_chirp
from qharmonics.fixtures import gaussian, indicator, qgaussian, scaled_gaussian
from qharmonics.grids import GridSpec, QSignal2D, linf_diff, sample
from qharmonics.qft import (
    FreqWindow,
    QftKind,
    Side,
    derivative_multiplier,
    ft2d,
    ft_from_qft,
    qft_forward,
    qft_from_ft,
    qft_inverse,
)
from qharmonics.qlct import (
    LctKind,
    LctParams,
    lct_kernel,
    qlct_forward,
    qlct_inverse,
    sided_decompose_transform,
)
from qharmonics.quaternion import qabs, qexp_pure, qmul
from qharmonics.smoothing import (
    dirichlet_partial_inverse_sinc,
    gauss_mean_inverse,
    sinc_integral_bound_check,
)
from qharmonics.variation import (
    Net,
    jordan_split,
    quasi_monotone_check,
    vitali_variation,
)

SHEAR = LctParams(1.0, 1.0, 0.0, 1.0)
FOURIER = LctParams.fourier()
I_AXIS = np.array([1.0, 0.0, 0.0])
J_AXIS = np.array([0.0, 1.0, 0.0])


def report(tag, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    print("\n" + line)
    assert ok, line


def rand_signal(n, seed, extent=2.0, real=False):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, n, 4))
    if real:
        data[..., 1:] = 0.0
    return QSignal2D(GridSpec.centered(extent, n), data)


def test_01_gaussian_spectrum_closed_form():
    sig = sample(scaled_gaussian(alpha=0.5), GridSpec.centered(12.0, 256))

    t0 = time.perf_counter()
    spec = qft_forward(sig, QftKind(), FreqWindow.square(3.0, 64))
    t_quad = time.perf_counter() - t0
    U, V = spec.grid.mesh()
    ref = np.exp(-(U ** 2 + V ** 2) / 2.0) / (2.0 * np.pi)
    err_quad = float(np.max(qabs(spec.data - np.stack(
        [ref, np.zeros_like(ref), np.zeros_like(ref), np.zeros_like(ref)], -1)) / ref))

    t0 = time.perf_counter()
    fast = qft_forward(sig)  # the natural window: the exact DFT
    t_fast = time.perf_counter() - t0
    keep_u = np.abs(fast.grid.s) <= 3.0
    keep_v = np.abs(fast.grid.t) <= 3.0
    U = fast.grid.s[keep_u][:, None]
    V = fast.grid.t[keep_v][None, :]
    ref = np.exp(-(U ** 2 + V ** 2) / 2.0) / (2.0 * np.pi)
    sub = fast.data[np.ix_(keep_u, keep_v)]
    err_fast = float(np.max(qabs(sub - np.stack(
        [ref, np.zeros_like(ref), np.zeros_like(ref), np.zeros_like(ref)], -1)) / ref))

    ok = err_quad < 1e-6 and err_fast < 1e-6 and t_quad < 30.0 and t_fast < 1.0
    report("01 gaussian spectrum closed form", ok,
           f"rel err quad {err_quad:.2e} fast {err_fast:.2e} "
           f"({t_quad:.2f} s quad < 30 s, {t_fast:.3f} s fast < 1 s)")


def test_02_l1_inversion_round_trip_all_sides():
    grid = GridSpec.centered(10.0, 256)
    window = FreqWindow.square(8.0, 256)
    sig = sample(gaussian, grid)
    errs = {}
    for side in Side:
        kind = QftKind(side)
        back = qft_inverse(qft_forward(sig, kind, window), grid)
        errs[side.value] = linf_diff(sig, back)
    ok = all(e < 1e-4 for e in errs.values())
    report("02 L1 inversion round-trip", ok,
           "sup errors " + ", ".join(f"{k}={v:.2e}" for k, v in errs.items()))


def test_03_qft_ft_relations():
    window = FreqWindow.square(4.0, 16)
    worst_rel, worst_id = 0.0, 0.0
    for seed in range(20):
        sig = rand_signal(16, seed=100 + seed, real=True)
        H = ft2d(sig, window)
        assembled = qft_from_ft(H)
        direct = qft_forward(sig, QftKind(), window).data
        worst_rel = max(worst_rel, float(np.max(np.abs(assembled - direct))))
        worst_id = max(worst_id, float(np.max(np.abs(ft_from_qft(assembled) - H))))
    ok = worst_rel < 1e-10 and worst_id < 1e-12
    report("03 QFT-FT relations", ok,
           f"assembled vs direct {worst_rel:.2e} < 1e-10, "
           f"round-trip identity {worst_id:.2e} < 1e-12")


def test_04_qlct_special_matrix_reduction():
    sig = rand_signal(16, seed=7)
    window = FreqWindow.square(5.0, 16)
    lct = qlct_forward(sig, LctKind(Side.TWO_SIDED, FOURIER, FOURIER), window)
    ft = qft_forward(sig, QftKind(), window)
    c1 = qexp_pure(I_AXIS, -np.pi / 4) / np.sqrt(2.0 * np.pi)
    c2 = qexp_pure(J_AXIS, -np.pi / 4) / np.sqrt(2.0 * np.pi)
    diff = float(np.max(np.abs(lct.data - qmul(c1, qmul(ft.data, c2)))))
    report("04 QLCT special-matrix reduction", diff < 1e-12,
           f"max diff vs e^(-i pi/4) QFT e^(-j pi/4) / 2pi: {diff:.2e} < 1e-12")


def test_05_qlct_via_qft_relation():
    window = FreqWindow.square(6.0, 32)
    mats = [SHEAR, FOURIER, LctParams(2.0, 0.5, 2.0, 1.0)]
    worst = 0.0
    for seed, A in enumerate(mats):
        sig = rand_signal(32, seed=200 + seed, extent=4.0)
        kind = LctKind(Side.TWO_SIDED, A, A)
        composed = chirp_qft_chirp(sig, kind, window)
        via = qlct_forward(sig, kind, window)
        worst = max(worst, float(np.max(np.abs(composed - via.data))))
    report("05 QLCT via chirp-QFT-chirp", worst < 1e-8,
           f"max diff over 3 matrix sets {worst:.2e} < 1e-8")


def test_06_two_sided_qlct_inversion_prefactor_decision():
    grid = GridSpec.centered(10.0, 256)
    sig = sample(gaussian, grid)
    kind = LctKind(Side.TWO_SIDED, SHEAR, SHEAR)
    spec = qlct_forward(sig, kind, FreqWindow.square(8.0, 256))
    back = qlct_inverse(spec, grid)
    err = linf_diff(sig, back)
    with_prefactor = QSignal2D(grid, back.data / (4.0 * np.pi ** 2))
    err_pref = linf_diff(sig, with_prefactor)
    ok = err < 1e-4 and err_pref > 1e-1
    report("06 two-sided QLCT inversion", ok,
           f"round-trip {err:.2e} < 1e-4; with 1/4pi^2 prefactor {err_pref:.2e} > 1e-1")


def test_07_sided_decomposition():
    window = FreqWindow.square(4.0, 16)
    worst = 0.0
    for seed, side in ((300, Side.RIGHT_SIDED), (301, Side.LEFT_SIDED)):
        sig = rand_signal(16, seed=seed)
        kind = LctKind(side, SHEAR, LctParams(2.0, 0.5, 2.0, 1.0))
        direct = qlct_forward(sig, kind, window)
        deco = sided_decompose_transform(sig, kind, window)
        worst = max(worst, float(np.max(np.abs(direct.data - deco.data))))
    report("07 sided decomposition", worst < 1e-10,
           f"two two-sided transforms vs direct sided quadrature {worst:.2e} < 1e-10")


def test_08_sided_qlct_inversion_with_order_control():
    grid = GridSpec.centered(10.0, 256)
    sig = sample(qgaussian, grid)
    window = FreqWindow.square(8.0, 256)
    errs = {}
    for side in (Side.RIGHT_SIDED, Side.LEFT_SIDED):
        kind = LctKind(side, SHEAR, SHEAR)
        spec = qlct_forward(sig, kind, window)
        errs[side.value] = linf_diff(sig, qlct_inverse(spec, grid))

    # negative control at 64^2: right-sided with the two inverse kernels
    # applied in the wrong order (u-kernel before v-kernel)
    g64 = GridSpec.centered(10.0, 64)
    sig64 = sample(qgaussian, g64)
    kind = LctKind(Side.RIGHT_SIDED, SHEAR, SHEAR)
    spec = qlct_forward(sig64, kind, FreqWindow.square(8.0, 64))
    u, v = spec.grid.s, spec.grid.t
    K1 = lct_kernel(SHEAR.inverse, I_AXIS, u[:, None], g64.s[None, :])
    K2 = lct_kernel(SHEAR.inverse, J_AXIS, v[:, None], g64.t[None, :])
    tmp = qmul(spec.data[:, :, None, :], K1[:, None, :, :]).sum(axis=0)  # (nv, ns, 4)
    wrong = qmul(tmp[:, :, None, :], K2[:, None, :, :]).sum(axis=0)      # (ns, nt, 4)
    residual = linf_diff(sig64, QSignal2D(g64, wrong * spec.grid.cell_area))

    ok = all(e < 1e-4 for e in errs.values()) and residual > 1e-2
    report("08 sided QLCT inversion", ok,
           "round-trips " + ", ".join(f"{k}={v:.2e}" for k, v in errs.items())
           + f"; swapped kernel order residual {residual:.2e} > 1e-2")


def test_09_derivative_multipliers():
    grid = GridSpec.centered(8.0, 256)
    window = FreqWindow.square(6.0, 128)

    f = sample(gaussian, grid)
    spec = qft_forward(f, QftKind(), window)
    dfds = sample(lambda S, T: -2.0 * S * gaussian(S, T), grid)
    want = qft_forward(dfds, QftKind(), window).data
    rel_two = float(np.max(qabs(derivative_multiplier(spec, 1, 0).data - want))
                    / np.max(qabs(want)))

    qf = sample(qgaussian, grid)
    dfdt = sample(lambda S, T: -2.0 * T[..., None] * qgaussian(S, T), grid)
    right = QftKind(Side.RIGHT_SIDED)
    want = qft_forward(dfdt, right, window).data
    got = derivative_multiplier(qft_forward(qf, right, window), 0, 1).data
    rel_right = float(np.max(qabs(got - want)) / np.max(qabs(want)))

    dfds_q = sample(lambda S, T: -2.0 * S[..., None] * qgaussian(S, T), grid)
    left = QftKind(Side.LEFT_SIDED)
    want = qft_forward(dfds_q, left, window).data
    got = derivative_multiplier(qft_forward(qf, left, window), 1, 0).data
    rel_left = float(np.max(qabs(got - want)) / np.max(qabs(want)))

    ok = max(rel_two, rel_right, rel_left) < 1e-5
    report("09 derivative multipliers", ok,
           f"rel errs two={rel_two:.2e} right={rel_right:.2e} left={rel_left:.2e} < 1e-5")


def test_10_jump_convergence_indicator():
    errs = []
    for M in (25.0, 50.0, 100.0):
        val = dirichlet_partial_inverse_sinc(indicator, (1.0, 1.0), M, M,
                                             (0.0, 2.0, 0.0, 2.0))
        errs.append(abs(float(val[0]) - 0.25))
    center = dirichlet_partial_inverse_sinc(indicator, (0.0, 0.0), 100.0, 100.0,
                                            (-1.0, 1.0, -1.0, 1.0))
    center_err = abs(float(center[0]) - 1.0)
    ok = errs[0] > errs[1] > errs[2] and errs[2] < 0.03 and center_err < 0.02
    report("10 jump convergence", ok,
           f"|I-1/4| sweep {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f} (< 0.03); "
           f"|I-1| at center {center_err:.4f} < 0.02")


def _gauss_mean_errors(fn, n, extent, wmax, nw):
    sig = sample(fn, GridSpec.centered(extent, n))
    spec = qft_forward(sig, QftKind(), FreqWindow.square(wmax, nw))
    return [err for _, err in gauss_mean_inverse(spec, (1.0, 0.1, 0.01), reference=sig)]


def test_11_gauss_mean_strictly_decreasing():
    g_errs = _gauss_mean_errors(gaussian, 128, 10.0, 8.0, 128)
    i_errs = _gauss_mean_errors(indicator, 128, 3.0, 45.0, 512)
    ok = g_errs[0] > g_errs[1] > g_errs[2] and i_errs[0] > i_errs[1] > i_errs[2]
    report("11 gauss-mean convergence (decreasing)", ok,
           f"gaussian {g_errs[0]:.3f} > {g_errs[1]:.3f} > {g_errs[2]:.3f}; "
           f"indicator {i_errs[0]:.3f} > {i_errs[1]:.3f} > {i_errs[2]:.3f}")


@pytest.mark.xfail(strict=True, reason=(
    "L1 heat-smoothing error is alpha * ||laplacian f||_1 + O(alpha^2) = "
    "9.25 * alpha * amplitude for every Gaussian (width-invariant), so the "
    "schedule's final alpha = 0.01 bottoms out near 9.1e-2 for the "
    "unit-amplitude fixture; 1e-3 would need alpha <= 1e-4"))
def test_11b_gauss_mean_final_error_bound():
    g_errs = _gauss_mean_errors(gaussian, 128, 10.0, 8.0, 128)
    ok = g_errs[-1] < 1e-3
    report("11b gauss-mean final error", ok,
           f"final L1 error at alpha=0.01: {g_errs[-1]:.3e} (bound 1e-3)")


def test_12_sinc_integral_bound():
    rng = np.random.default_rng(1234)
    pairs = rng.uniform(-1e6, 1e6, size=(1000, 2))
    vals = np.array([sinc_integral_bound_check(a, b) for a, b in pairs])
    ok = bool(np.all(vals <= 6.0))
    report("12 sinc integral bound", ok,
           f"1000 random windows all <= 6; max observed {vals.max():.6f} "
           f"(2 Si(pi) = {2 * 1.8519370519824661:.6f})")


def test_13_variation_suite():
    g = lambda s: np.sin(3.0 * s) + 0.5 * s
    h = lambda t: np.exp(-t) * np.cos(5.0 * t)
    net = Net.uniform(-1, 1, 40, 0, 2, 33)
    v2d = vitali_variation(lambda S, T: g(S) * h(T), net)
    v1d = (np.sum(np.abs(np.diff(g(net.s_cuts))))
           * np.sum(np.abs(np.diff(h(net.t_cuts)))))
    fact_err = abs(v2d - v1d) / v1d

    rng = np.random.default_rng(77)
    worst_recompose = 0.0
    all_qm = True
    for _ in range(100):
        f = rng.normal(size=(6, 6))
        f1, f2 = jordan_split(f)
        worst_recompose = max(worst_recompose, float(np.max(np.abs(f1 - f2 - f))))
        all_qm = all_qm and quasi_monotone_check(f1) and quasi_monotone_check(f2)

    exp_net = Net.uniform(-1, 1, 16, -1, 1, 16)
    exp_qm = quasi_monotone_check(lambda S, T: np.exp(S) * np.exp(T), exp_net)

    ok = fact_err < 1e-10 and worst_recompose < 1e-10 and all_qm and exp_qm
    report("13 variation suite", ok,
           f"factorization rel err {fact_err:.2e} < 1e-10; jordan recompose "
           f"{worst_recompose:.2e} < 1e-10 with quasi-monotone parts: {all_qm}; "
           f"exp(s)exp(t) quasi-monotone: {exp_qm}")


def test_14_fast_path_oracle_equivalence():
    sig = sample(qgaussian, GridSpec.centered(10.0, 64))
    fast = qft_forward(sig)
    want = qft_bruteforce(sig, Side.TWO_SIDED, QftKind().axes,
                          fast.grid.s, fast.grid.t)
    diff = float(np.max(np.abs(fast.data - want)))
    report("14 fast path vs brute-force oracle", diff < 1e-9,
           f"matched 64x64 grids, max diff {diff:.2e} < 1e-9")
