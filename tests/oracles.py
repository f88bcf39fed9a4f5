"""Independent brute-force oracles.

These deliberately avoid the library's kernel-factoring contraction
engine: kernels are assembled from cos/sin directly and the sums run as
plain quaternion-product loops, so agreement with the production paths
is evidence, not tautology.
"""

import numpy as np

from qharmonics.grids import GridSpec
from qharmonics.qft import qft_from_ft
from qharmonics.quaternion import AxisPair, qmul, quat


def random_axes(rng):
    """A random orthonormal axis pair (a seeded test input, not an oracle)."""
    mu1 = rng.normal(size=3)
    mu1 /= np.linalg.norm(mu1)
    mu2 = rng.normal(size=3)
    mu2 -= (mu2 @ mu1) * mu1
    return AxisPair(mu1, mu2 / np.linalg.norm(mu2))


def property_grids(rng, ns, nt):
    """A grid centred at 0 (mirrored nodes) and one at a random origin."""
    yield GridSpec(-0.5 * ns * 0.3, -0.5 * nt * 0.7, 0.3, 0.7, ns, nt)
    yield GridSpec(*rng.uniform(-2, 2, size=2), 0.3, 0.7, ns, nt)


def exp_axis(mu, theta):
    """cos(theta) + mu sin(theta), assembled by hand."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(theta.shape + (4,))
    out[..., 0] = np.cos(theta)
    out[..., 1] = np.sin(theta) * mu[0]
    out[..., 2] = np.sin(theta) * mu[1]
    out[..., 3] = np.sin(theta) * mu[2]
    return out


def qft_bruteforce(sig, side, axes, u, v):
    """O(n^4)-style quadrature of the defining integrals, qmul term by term."""
    mu1, mu2 = axes.mu1, axes.mu2
    s, t = sig.grid.s, sig.grid.t
    K1 = exp_axis(mu1, -np.outer(s, u))  # K1[k, p] = e^{-mu1 u_p s_k}
    K2 = exp_axis(mu2, -np.outer(t, v))
    data = sig.data
    nu, nv = len(u), len(v)
    out = np.zeros((nu, nv, 4))
    if side.value == "two":
        for p in range(nu):
            tmp = qmul(K1[:, p][:, None, :], data).sum(axis=0)  # (nt, 4)
            out[p] = qmul(tmp[:, None, :], K2[:, :, :]).sum(axis=0)
    elif side.value == "right":
        for p in range(nu):
            tmp = qmul(data, K1[:, p][:, None, :]).sum(axis=0)
            out[p] = qmul(tmp[:, None, :], K2[:, :, :]).sum(axis=0)
    else:
        for q in range(nv):
            Tq = qmul(K2[:, q][None, :, :], data).sum(axis=1)  # (ns, 4)
            for p in range(nu):
                out[p, q] = qmul(K1[:, p], Tq).sum(axis=0)
    return out * sig.grid.cell_area


def qft_fft_reference(sig, side):
    """QFT on ``FreqWindow.natural(sig.grid)`` by FFT, canonical (i, j) axes.

    An independent route to the DFT that the natural-window quadrature
    computes.  Each real component goes through one complex FFT, shifted
    onto the midpoint grids (the half-cell frequency offset becomes an
    input modulation, the half-cell sample offset an output phase), and the
    quaternion spectrum is reassembled with the sign-flip rule
    e^{-ius} j = j e^{ius} (Ell and Sangwine, IEEE TIP 2007):

        two-sided  F = F(f0) + i F(f1) + j F(f2)(-u,v) + k F(f3)(-u,v)
        right      F = F(f0) + i F(f1) + j F(f2)       + k F(f3)
        left       F = F(f0) + i F(f1)(u,-v) + j F(f2)(-u,v) + k F(f3)(-u,-v)

    where F(h) is the two-sided QFT of the real component h.  Returns the
    ``(ns, nt, 4)`` spectrum.
    """
    grid = sig.grid
    ns, nt = grid.ns, grid.nt
    k, l = np.arange(ns), np.arange(nt)
    u = -np.pi / grid.ds + (k + 0.5) * 2.0 * np.pi / (ns * grid.ds)
    v = -np.pi / grid.dt + (l + 0.5) * 2.0 * np.pi / (nt * grid.dt)
    pre = np.outer((-1.0) ** k * np.exp(-1j * np.pi * k / ns),
                   (-1.0) ** l * np.exp(-1j * np.pi * l / nt))
    post = np.outer(np.exp(-1j * u * grid.s[0]), np.exp(-1j * v * grid.t[0]))
    H = np.fft.fft2(np.moveaxis(sig.data, -1, 0) * pre, axes=(-2, -1)) * post
    f0, f1, f2, f3 = (qft_from_ft(H[n] * grid.cell_area) for n in range(4))
    i, j, kk = quat(0, 1, 0, 0), quat(0, 0, 1, 0), quat(0, 0, 0, 1)
    if side.value == "two":
        return f0 + qmul(i, f1) + qmul(j, f2[::-1]) + qmul(kk, f3[::-1])
    if side.value == "right":
        return f0 + qmul(i, f1) + qmul(j, f2) + qmul(kk, f3)
    return f0 + qmul(i, f1[:, ::-1]) + qmul(j, f2[::-1]) + qmul(kk, f3[::-1, ::-1])


def lct_kernel_ref(mat, mu, x, xi, phase=0.0):
    """Canonical kernel from the written-out formula, as one exponential.

    The prefactor e^{-sign(b) mu pi/4} shares the axis with the phase,
    so K = e^{mu (a x^2/(2b) - x xi/b + d xi^2/(2b) - sign(b) pi/4)}
           / sqrt(2 pi |b|), times e^{mu phase} (a fractional kernel's
    correction, phase = half the rotation's angle).
    """
    a, b, _, d = mat
    theta = (a * x * x - 2.0 * x * xi + d * xi * xi) / (2.0 * b) - np.sign(b) * np.pi / 4 + phase
    return exp_axis(mu, theta) / np.sqrt(2.0 * np.pi * abs(b))


def qlct_bruteforce(sig, side, A1, A2, axes, u, v, phases=(0.0, 0.0)):
    """Direct kernel-sandwich quadrature with reference kernels, each
    multiplied by e^{mu phase} of its entry of `phases`."""
    s, t = sig.grid.s, sig.grid.t
    K1 = lct_kernel_ref(A1.astuple(), axes.mu1, s[:, None], u[None, :], phases[0])  # (ns, nu, 4)
    K2 = lct_kernel_ref(A2.astuple(), axes.mu2, t[:, None], v[None, :], phases[1])  # (nt, nv, 4)
    data = sig.data
    nu, nv = len(u), len(v)
    out = np.zeros((nu, nv, 4))
    if side.value == "two":
        for p in range(nu):
            tmp = qmul(K1[:, p][:, None, :], data).sum(axis=0)
            out[p] = qmul(tmp[:, None, :], K2).sum(axis=0)
    elif side.value == "right":
        for p in range(nu):
            tmp = qmul(data, K1[:, p][:, None, :]).sum(axis=0)
            out[p] = qmul(tmp[:, None, :], K2).sum(axis=0)
    else:
        for q in range(nv):
            Tq = qmul(K2[:, q][None, :, :], data).sum(axis=1)  # (ns, 4)
            for p in range(nu):
                out[p, q] = qmul(K1[:, p], Tq).sum(axis=0)
    return out * sig.grid.cell_area


def si_series(x, terms=60):
    """Power series of the sine integral; accurate for |x| up to ~25."""
    total = 0.0
    term_x = float(x)
    fact = 1.0
    for n in range(terms):
        k = 2 * n + 1
        if n:
            fact *= (k - 1) * k
            term_x *= x * x
        total += (-1.0) ** n * term_x / (k * fact)
    return total


def half_period_panels(lo, hi, rate, order=10):
    """Gauss-Legendre nodes/weights on [lo, hi], cut at the zeros of sin(rate*x)."""
    edges = np.unique(np.concatenate([
        [lo, hi],
        np.arange(np.ceil(lo * rate / np.pi), np.floor(hi * rate / np.pi) + 1) * np.pi / rate,
    ]))
    edges = edges[(edges >= lo) & (edges <= hi)]
    gx, gw = np.polynomial.legendre.leggauss(order)
    half = np.diff(edges) / 2
    mid = (edges[:-1] + edges[1:]) / 2
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


def si_panels(a, b, order=10):
    """integral_a^b sin(t)/t dt by Gauss-Legendre on half-period panels."""
    if a == b:
        return 0.0
    nodes, weights = half_period_panels(min(a, b), max(a, b), 1.0, order=order)
    vals = np.sinc(nodes / np.pi)  # sin(t)/t with the removable singularity
    total = float(np.sum(weights * vals))
    return total if b >= a else -total


def sinc_partial_sum_reference(fn, point, M, N, rect, order=8):
    """Double sinc convolution at a point as one unblocked double sum.

    sum_i sum_j ws_i wt_j sin(M s_i)/(pi s_i) sin(N t_j)/(pi t_j)
    f(x0 - s_i, y0 - t_j) over the half-period panels of ``rect``, with
    the whole (s, t) field sampled at once.  A real field is returned in
    the real part of a quaternion (4,).
    """
    x0, y0 = point
    s_lo, s_hi, t_lo, t_hi = rect
    s, ws = half_period_panels(s_lo, s_hi, M, order=order)
    t, wt = half_period_panels(t_lo, t_hi, N, order=order)
    weight = np.outer(ws * np.sin(M * s) / (np.pi * s), wt * np.sin(N * t) / (np.pi * t))
    vals = np.asarray(fn(x0 - s[:, None], y0 - t[None, :]), dtype=float)
    if vals.ndim == 2:
        return np.array([np.sum(weight * vals), 0.0, 0.0, 0.0])
    return np.sum(weight[..., None] * vals, axis=(0, 1))


def _qmul_long_double(p, q):
    """Hamilton product of long-double quaternion arrays, written out."""
    pw, px, py, pz = np.moveaxis(p, -1, 0)
    qw, qx, qy, qz = np.moveaxis(q, -1, 0)
    return np.stack([pw * qw - px * qx - py * qy - pz * qz,
                     pw * qx + px * qw + py * qz - pz * qy,
                     pw * qy - px * qz + py * qw + pz * qx,
                     pw * qz + px * qy - py * qx + pz * qw], axis=-1)


def partial_sum_long_double(spec, point, Ms, Ns):
    """Every window (Ms[i], Ns[j]) of a QFT or QLCT spectrum's inversion
    integral at the point, in long double: the cells with |u| <= M, |v| <= N
    of the side-ordered kernel sandwich, each axis kernel one exponential
    whose whole angle is taken in long double from the double parameters
    and the nodes defined by their indices, centre + m du / 2 (as
    ``GridSpec.axes``).  The QFT kernel is e^{mu u x} du / 2pi, the QLCT's
    that of the inverse matrix (d, -b, -c, a)."""
    ld = np.longdouble
    pi = 4 * np.arctan(ld(1))
    g, kind = spec.grid, spec.kind
    kernels = []
    for (centre, width, m), x, mu, A in (
            (g.axes[0], point[0], kind.axes.mu1, getattr(kind, "A1", None)),
            (g.axes[1], point[1], kind.axes.mu2, getattr(kind, "A2", None))):
        x, width = ld(x), ld(width)
        u = ld(centre) + np.asarray(m, ld) * width / 2
        if A is None:
            theta, weight = u * x, width / (2 * pi)
        else:
            a, b, _, d = (ld(v) for v in A.astuple())
            theta = -(d * u * u - 2 * u * x + a * x * x) / (2 * b) + np.sign(b) * pi / 4
            weight = width / np.sqrt(2 * pi * abs(b))
        K = np.empty(u.shape + (4,), ld)
        K[:, 0] = np.cos(theta)
        K[:, 1:] = np.sin(theta)[:, None] * np.asarray(mu, ld)
        kernels.append(K * weight)
    K1, K2, F = kernels[0][:, None], kernels[1][None, :], np.asarray(spec.data, ld)
    terms = {"two": lambda: _qmul_long_double(_qmul_long_double(K1, F), K2),
             "right": lambda: _qmul_long_double(_qmul_long_double(F, K2), K1),
             "left": lambda: _qmul_long_double(K2, _qmul_long_double(K1, F))}[kind.side.value]()
    return np.array([[terms[np.abs(g.s) <= M][:, np.abs(g.t) <= N].sum(axis=(0, 1)) for N in Ns]
                     for M in Ms])
