"""Convergence machinery for the pointwise and L1 inversion results.

Two routes to the truncated inversion value at a point are provided: the
inverse of the spectrum cropped to the window |u| <= M, |v| <= N,
evaluated at the point, and the signal-domain double sinc convolution

    I(x0, y0, M, N) = integral f(x0-s, y0-t) sin(Ms)/(pi s) sin(Nt)/(pi t) ds dt

they agree up to quadrature tolerance and converge to the quadrant-limit
average eta at jumps.  The sinc quadrature splits the domain at the
kernel zeros (half-period panels) with a Gauss-Legendre rule per panel;
uniform panels lose several digits once M is large because of
oscillatory cancellation.

Partial sums and Gauss means take any raw QFT or QLCT spectrum, of any
side: each crops or damps the spectrum and inverts it by its own kind's
inverse.  A two-sided QLCT partial sum at (M, N) is the de-chirped QFT
partial sum of the chirped signal at (M/|b1|, N/|b2|).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    InvariantViolationError,
    NoIntegrableSectionError,
    NonConvergentError,
    NonFiniteError,
    NonPositiveWindowError,
)
from .grids import GridSpec, QSignal2D, QSpectrum2D, residual_moduli, sample
from .qlct import _invert
from .quaternion import qabs

__all__ = [
    "JumpAverage",
    "dirichlet_partial_inverse_freq",
    "dirichlet_partial_inverse_sinc",
    "eta_jump_average",
    "sinc_integral_bound_check",
    "gauss_weierstrass_kernel",
    "gauss_mean_inverse",
    "lc_class_diagnostic",
]


# -- truncated inversion at a point ------------------------------------------

def dirichlet_partial_inverse_freq(spec: QSpectrum2D, point, M, N):
    """Windowed inversion integral at one point, from a QFT or QLCT spectrum.

    The integral over |u|<=M, |v|<=N of the side-ordered inverse kernel
    sandwich: the spectrum cropped to the cells whose midpoints lie in the
    window, inverted by its own kind's inverse at the point (which refuses
    the spectra that inverse refuses).  A window that holds no cell gives
    the empty sum 0 and runs no inverse.  Returns a single quaternion (4,).
    """
    if not (M > 0 and N > 0):  # written so that NaN fails
        raise NonPositiveWindowError(f"window ({M}, {N}) must be positive")
    # one cell narrower than any ulp: its midpoint x0 + ds/2 rounds to x0
    tiny = np.finfo(float).smallest_subnormal
    at = GridSpec(point[0], point[1], tiny, tiny, 1, 1)
    g = spec.grid
    u = np.flatnonzero(np.abs(g.s) <= M)
    v = np.flatnonzero(np.abs(g.t) <= N)
    if not (u.size and v.size):
        return np.zeros(4)
    crop = GridSpec(g.s_min + u[0] * g.ds, g.t_min + v[0] * g.dt, g.ds, g.dt, u.size, v.size)
    cropped = QSpectrum2D(crop, spec.data[u[0]:u[-1] + 1, v[0]:v[-1] + 1], spec.kind)
    return _invert(cropped, at).data[0, 0]


def _panel_nodes(lo, hi, rate, breakpoints=(), order=8):
    """Gauss-Legendre nodes/weights on panels cut at the zeros of sin(rate*x)."""
    k_lo = int(np.ceil(lo * rate / np.pi))
    k_hi = int(np.floor(hi * rate / np.pi))
    edges = np.unique(np.concatenate([
        [lo, hi],
        np.arange(k_lo, k_hi + 1) * np.pi / rate,
        np.asarray(breakpoints, dtype=float),
    ]))
    edges = edges[(edges >= lo) & (edges <= hi)]
    gx, gw = np.polynomial.legendre.leggauss(order)
    half = np.diff(edges) / 2
    mid = (edges[:-1] + edges[1:]) / 2
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights


def dirichlet_partial_inverse_sinc(fn, point, M, N, rect,
                                   breakpoints_s=(), breakpoints_t=(), order=8):
    """Signal-domain double sinc convolution for the same partial sum.

    Parameters
    ----------
    fn : callable
        Analytic handle ``fn(S, T) -> (..., 4)`` (or a real field).
    point : (x0, y0)
    M, N : positive window extents.
    rect : (s_lo, s_hi, t_lo, t_hi)
        Truncation rectangle for the shifted integrand f(x0-s, y0-t).
    breakpoints_s, breakpoints_t : extra panel cuts (e.g. at the edge of
        an indicator's support) so discontinuities fall on panel edges.

    Each block of 256 s nodes is two matrix-vector products (s kernel,
    then t kernel); a real field stays real.  Returns a quaternion (4,).
    """
    if not (M > 0 and N > 0):
        raise NonPositiveWindowError(f"window ({M}, {N}) must be positive")
    x0, y0 = point
    s_lo, s_hi, t_lo, t_hi = rect
    if not np.isfinite([M, N, x0, y0, s_lo, s_hi, t_lo, t_hi]).all():
        raise NonFiniteError("window, point and rectangle must be finite")
    s, ws = _panel_nodes(s_lo, s_hi, M, breakpoints_s, order)
    t, wt = _panel_nodes(t_lo, t_hi, N, breakpoints_t, order)
    ker_s = ws * (M / np.pi) * np.sinc(M * s / np.pi)
    ker_t = wt * (N / np.pi) * np.sinc(N * t / np.pi)
    total = np.zeros(4)
    for block in range(0, s.size, 256):
        sb = s[block:block + 256]
        vals = np.asarray(fn(x0 - sb[:, None], y0 - t[None, :]), dtype=float)
        vals = np.broadcast_to(vals, (sb.size, t.size) + vals.shape[2:])
        row = ker_s[block:block + 256] @ vals.reshape(sb.size, -1)
        if vals.ndim == 2:
            total[0] += row @ ker_t
        else:
            total += ker_t @ row.reshape(t.size, 4)
    return total


# -- quadrant limits and the jump average ------------------------------------

@dataclass(frozen=True)
class JumpAverage:
    """The four directional limits at a point and their mean eta."""

    value: np.ndarray            # (4,) quaternion
    quadrant_values: np.ndarray  # (4, 4): (+,+), (+,-), (-,+), (-,-)
    h_sequence: np.ndarray


def _richardson(values, max_cols=6):
    """Iterated Richardson extrapolation for a dyadic h-sequence.

    values[k] = g(h0 2^-k); column m removes the h^m error term.
    Returns (limit, settle) where settle is the movement between the
    last two tableau corners.
    """
    T = np.asarray(values, dtype=float)
    cols = min(max_cols, T.shape[0] - 1)
    corners = [T[-1]]
    for m in range(1, cols + 1):
        fac = 2.0 ** m
        T = (fac * T[1:] - T[:-1]) / (fac - 1.0)
        corners.append(T[-1])
    return corners[-1], float(qabs(corners[-1] - corners[-2]))


def eta_jump_average(fn, point, h0=0.5, levels=11, tol=1e-6) -> JumpAverage:
    """Estimate the quadrant limits f(x0 +- 0, y0 +- 0) and their mean.

    Evaluates along the dyadic approach h_k = h0 2^-k into each open
    quadrant and extrapolates with an iterated Richardson tableau (the
    limits are only asserted to exist, so the tableau depth is an
    artifact choice).  Raises NonConvergentError when the extrapolant
    still moves by more than `tol` at the last level.
    """
    x0, y0 = point
    if not np.isfinite([x0, y0, h0]).all():
        raise NonFiniteError("point and h0 must be finite")
    h = h0 * 2.0 ** (-np.arange(levels))
    quadrants = []
    for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        vals = np.asarray(fn(x0 + sx * h, y0 + sy * h), dtype=float)
        if vals.ndim == 1:
            vals = np.stack([vals] + [np.zeros_like(vals)] * 3, axis=-1)
        limit, settle = _richardson(vals)
        if not settle <= tol:  # written so that NaN fails
            raise NonConvergentError(
                f"quadrant ({sx:+d},{sy:+d}) extrapolant still moves by {settle:.3e}")
        quadrants.append(limit)
    quadrants = np.stack(quadrants)
    return JumpAverage(quadrants.mean(axis=0), quadrants, h)


# -- sinc integral bound ------------------------------------------------------

def sinc_integral_bound_check(a, b) -> float:
    """|integral_a^b sin(t)/t dt| via the sine integral; always <= 6."""
    from scipy.special import sici  # here, so importing the CLI does not load scipy

    val = float(abs(sici(b)[0] - sici(a)[0]))
    if not val <= 6.0:
        raise InvariantViolationError(f"sine-integral bound violated: {val}")
    return val


# -- Gauss-Weierstrass means --------------------------------------------------

def gauss_weierstrass_kernel(alpha, grid: GridSpec) -> QSignal2D:
    """Heat kernel (1/(4 pi alpha)) e^{-(s^2+t^2)/(4 alpha)} sampled on grid."""
    if not alpha > 0:
        raise InvalidParameterError("alpha must be positive")
    return sample(lambda S, T: np.exp(-(S ** 2 + T ** 2) / (4.0 * alpha))
                  / (4.0 * np.pi * alpha), grid)


def gauss_mean_inverse(spec: QSpectrum2D, schedule, reference: QSignal2D):
    """L1 errors of the damped (Gauss-mean) inversion along a schedule of alphas.

    For each alpha the spectrum, of any raw QFT or QLCT kind, is damped by
    e^{-alpha(u^2+v^2)} and inverted by its own kind's inverse onto the
    reference's grid; for a two-sided QFT spectrum that is the heat
    smoothing f * W_alpha up to truncation.  Returns the (alpha, L1
    distance to the reference) pairs, non-increasing along a decreasing
    schedule, and holds one inverted field at a time.  The schedule must
    be finite (NonFiniteError), positive and strictly decreasing
    (InvalidParameterError).
    """
    schedule = tuple(float(a) for a in schedule)
    if not np.isfinite(schedule).all():
        raise NonFiniteError(f"schedule {schedule!r} must be finite")
    if not (all(a > 0 for a in schedule) and np.all(np.diff(schedule) < 0)):
        raise InvalidParameterError(
            f"schedule {schedule!r} must be strictly decreasing and positive")
    U, V = spec.grid.mesh()
    # each damped copy is the inverse's own buffer, freed once its error is taken
    return [(alpha, _l1_distance(_invert(spec.scaled(np.exp(-alpha * (U ** 2 + V ** 2))),
                                         reference.grid, overwrite=True), reference))
            for alpha in schedule]


def _l1_distance(a: QSignal2D, b: QSignal2D) -> float:
    """``l1_norm`` of a - b, bit for bit, in ``a``'s memory (consumed)."""
    mod = residual_moduli(a.data, lambda rows: b.data[rows])
    return float(np.sum(mod) * a.grid.cell_area)


# -- LC-class numeric diagnostic ----------------------------------------------

def _quadrant_sum(fn, x0, y0, S, T):
    """f(x0-s,y0-t) + f(x0+s,y0+t) + f(x0-s,y0+t) + f(x0+s,y0-t)."""
    vals = (np.asarray(fn(x0 - S, y0 - T), dtype=float)
            + np.asarray(fn(x0 + S, y0 + T), dtype=float)
            + np.asarray(fn(x0 - S, y0 + T), dtype=float)
            + np.asarray(fn(x0 + S, y0 - T), dtype=float))
    return vals


def _lc_strip(fn, x0, y0, eps_inner, eps_outer, radius, n_inner, n_outer, swap):
    inner = (np.arange(n_inner) + 0.5) * (eps_inner / n_inner)
    outer = eps_outer + (np.arange(n_outer) + 0.5) * ((radius - eps_outer) / n_outer)
    d_in = eps_inner / n_inner
    d_out = (radius - eps_outer) / n_outer
    if swap:  # inner variable is t, outer is s
        S, T = outer[None, :], inner[:, None]
    else:     # inner variable is s, outer is t
        S, T = inner[:, None], outer[None, :]
    G = _quadrant_sum(fn, x0, y0, S, T)
    if G.ndim == 2:
        G = G[..., None]
    mass = np.sum(qabs(G) if G.shape[-1] == 4 else np.abs(G[..., 0]), axis=1) * d_out
    finite = np.isfinite(mass)
    if not finite.any():
        raise NoIntegrableSectionError("no section with finite truncated mass")
    anchor = int(np.argmax(finite))  # nearest-to-zero finite section
    diff = G - G[anchor][None, :, :]
    integrand = np.sqrt(np.sum(diff * diff, axis=-1)) / inner[:, None]
    return float(np.sum(integrand) * d_in * d_out)


def lc_class_diagnostic(fn, point, eps1, eps2, radius,
                        n_inner=96, n_outer=192):
    """Truncated estimates of the two cross-neighborhood strip integrals.

    First value: integral over s in (0, eps1], t in [eps2, radius] of
    |(ftilde(s,t) - ftilde(a,t)) / s|; second is the mirrored t-strip.
    ftilde is the four-quadrant sum around the point; the sections a, b
    are the quadrature nodes closest to zero with finite truncated 1D
    mass.  Raw numbers are returned for the caller to judge: the
    underlying condition is asymptotic and not decidable from finite
    data.
    """
    x0, y0 = point
    if not np.isfinite([x0, y0, eps1, eps2, radius]).all():
        raise NonFiniteError("point, strip half-widths and radius must be finite")
    if not (eps1 > 0 and eps2 > 0):
        raise InvalidParameterError("strip half-widths must be positive")
    if not radius > max(eps1, eps2):
        raise InvalidParameterError("radius must exceed the strip half-widths")
    val1 = _lc_strip(fn, x0, y0, eps1, eps2, radius, n_inner, n_outer, swap=False)
    val2 = _lc_strip(fn, x0, y0, eps2, eps1, radius, n_inner, n_outer, swap=True)
    return val1, val2
