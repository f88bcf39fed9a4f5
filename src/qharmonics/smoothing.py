"""Convergence machinery for the pointwise and L1 inversion results.

Two routes to the truncated inversion value at a point are provided: the
spectrum's inverse kernel sandwich at the point summed over |u| <= M,
|v| <= N (every window of a table in one pass), and the double sinc
convolution

    I(x0, y0, M, N) = integral f(x0-s, y0-t) sin(Ms)/(pi s) sin(Nt)/(pi t) ds dt

they agree up to quadrature tolerance and converge to the quadrant-limit
average eta at jumps.  The sinc quadrature splits the domain at the
kernel zeros (half-period panels) with a Gauss-Legendre rule per panel;
uniform panels lose several digits once M is large because of
oscillatory cancellation.

Partial sums and Gauss means take any raw QFT or QLCT spectrum, of any
side: each sums or damps and inverts it by its own kind's inverse.  A
two-sided QLCT partial sum at (M, N) is the de-chirped QFT partial sum
of the chirped signal at (M/|b1|, N/|b2|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidParameterError,
    InvariantViolationError,
    NoIntegrableSectionError,
    NonConvergentError,
    _require_counts,
    _require_real,
)
from ._kernels import _point_chirp, chirp_multiply
from .grids import (GridSpec, QSignal2D, QSpectrum2D, evaluate, fixture_values,
                    residual_moduli, sample)
from .qft import _inverse_plan, _invert, _weight
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
    """Windowed inversion integrals at one point, from a QFT or QLCT spectrum.

    The sums over the cells with |u| <= M, |v| <= N of the side-ordered
    inverse kernel sandwich at the point, of shape M.shape + N.shape + (4,):
    a quaternion for scalars, the table of every window for sequences.  One
    copy of the largest window's cells, ordered by |u| and by |v|, takes a
    chirp per stage of its kind's inverse plan at the point (refusing what
    that inverse refuses); its 2D prefix sum then holds every window.  A
    window that holds no cell gives the empty sum 0.
    """
    p = _require_real(point, "point", shape=(2,))
    M, N = _require_real(M, "M", shape=None), _require_real(N, "N", shape=None)
    if not (np.all(M > 0) and np.all(N > 0)):
        raise InvalidParameterError(f"windows M = {M}, N = {N} must be positive")
    plan, g, mus = _inverse_plan(spec), spec.grid, (spec.kind.axes.mu1, spec.kind.axes.mu2)
    orders = [np.argsort(np.abs(x), kind="stable") for x in (g.s, g.t)]
    counts = [np.sort(np.abs(x)).searchsorted(w.ravel(), "right") for x, w in ((g.s, M), (g.t, N))]
    # each window's cells are a prefix of that order; at least one cell is copied
    keep = [order[:n.max(initial=1)] for order, n in zip(orders, counts)]
    cells = spec.data[np.ix_(*keep)]
    for axis, left, c, pre, post, scale in plan:
        x = g.axes[axis]
        cells = chirp_multiply((*x[:2], x[2][keep[axis]]), _point_chirp(p[axis], c, pre, post),
                               mus[axis], cells, left, axis, scale=_weight(c, scale, x), out=cells)
    np.cumsum(np.cumsum(cells, axis=0, out=cells), axis=1, out=cells)
    table = cells[np.ix_(counts[0] - 1, counts[1] - 1)]
    table[counts[0] == 0] = table[:, counts[1] == 0] = 0.0  # the empty windows
    return table.reshape(M.shape + N.shape + (4,))


#: the 8-point Gauss-Legendre rule, leggauss(8) to the bit, without loading numpy.polynomial
_GL8_NODES = np.array([-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
                       -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
                       0.7966664774136267, 0.9602898564975362])
_GL8_WEIGHTS = np.array([0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
                         0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
                         0.22238103445337443, 0.10122853629037706])


#: most half-period panels per axis, (hi - lo) * rate / pi, in a sinc partial
#: sum: one block of 256 s nodes then takes at most 256 x 8 x 1024 quaternion
#: fixture values, 64 MiB (the bench's largest, M = 400 on the indicator's
#: rectangle, is 255 panels)
MAX_SINC_PANELS = 1024

#: most levels h0 2^-k of :func:`eta_jump_average` (x0 + h0 2^-k rounds to
#: x0 of order 1 before k = 64) and nodes n_inner * n_outer of a
#: :func:`lc_class_diagnostic` strip (a quaternion per node is 32 MiB at 2^20)
MAX_ETA_LEVELS, MAX_LC_NODES = 64, 1 << 20


def _require_panels(M, N, rect):
    """Raise InvalidParameterError, before any array exists, unless M, N > 0
    and M on the s sides of `rect` (s_lo, s_hi, t_lo, t_hi) and N on its
    t sides each cut at most MAX_SINC_PANELS."""
    if not (M > 0 and N > 0):
        raise InvalidParameterError(f"window ({M}, {N}) must be positive")
    for name, rate, lo, hi in (("M", M, *rect[:2]), ("N", N, *rect[2:])):
        count = (hi - lo) * rate / np.pi
        if not count <= MAX_SINC_PANELS:
            raise InvalidParameterError(f"{name} = {rate!r} on [{lo!r}, {hi!r}] needs "
                                        f"{count:.3g} sinc panels, more than {MAX_SINC_PANELS}")


def _panel_nodes(lo, hi, rate):
    """8-point Gauss-Legendre nodes/weights on panels cut at the zeros of
    sin(rate*x), at most MAX_SINC_PANELS of them (:func:`_require_panels`)."""
    k_lo = int(np.ceil(lo * rate / np.pi))
    k_hi = int(np.floor(hi * rate / np.pi))
    edges = np.sort(np.concatenate([[lo, hi], np.arange(k_lo, k_hi + 1) * np.pi / rate]))
    # inside [lo, hi], equal neighbours dropped (np.unique would load numpy.ma)
    edges = edges[(edges >= lo) & (edges <= hi) & np.append(True, edges[1:] != edges[:-1])]
    half = np.diff(edges) / 2
    mid = (edges[:-1] + edges[1:]) / 2
    nodes = (mid[:, None] + half[:, None] * _GL8_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL8_WEIGHTS[None, :]).ravel()
    return nodes, weights


def dirichlet_partial_inverse_sinc(fn, point, M, N, rect):
    """Signal-domain double sinc convolution for the same partial sum.

    Parameters
    ----------
    fn : callable
        Pointwise fixture ``fn(S, T)``, read by :func:`grids.fixture_values`:
        a real field or a quaternion ``(..., 4)``.
    point : (x0, y0)
    M, N : positive window extents.
    rect : (s_lo, s_hi, t_lo, t_hi)
        Truncation rectangle for the shifted integrand f(x0-s, y0-t).

    Each block of 256 s nodes is two matrix-vector products (s kernel,
    then t kernel); a real field stays real.  Returns a quaternion (4,).
    """
    x0, y0 = _require_real(point, "point", shape=(2,)).tolist()
    _require_real((M, N), "M, N")
    rect = _require_real(rect, "rect", shape=(4,)).tolist()
    _require_panels(M, N, rect)
    s, ws = _panel_nodes(*rect[:2], M)
    t, wt = _panel_nodes(*rect[2:], N)
    ker_s = ws * (M / np.pi) * np.sinc(M * s / np.pi)
    ker_t = wt * (N / np.pi) * np.sinc(N * t / np.pi)
    total = np.zeros(4)
    for block in range(0, s.size, 256):
        sb = s[block:block + 256]
        # contiguous, so a broadcast result takes the same BLAS product as a full one
        vals = np.ascontiguousarray(fixture_values(fn, x0 - sb[:, None], y0 - t[None, :]))
        row = ker_s[block:block + 256] @ vals.reshape(sb.size, -1)
        part = ker_t @ row.reshape(t.size, -1)  # the scalar part of a real field, or all four
        total[:part.size] += part
    return total


# -- quadrant limits and the jump average ------------------------------------

@dataclass(frozen=True)
class JumpAverage:
    """The four directional limits at a point and their mean eta."""

    value: np.ndarray            # (4,) quaternion
    quadrant_values: np.ndarray  # (4, 4): (+,+), (+,-), (-,+), (-,-)
    h_sequence: np.ndarray


def _richardson(values):
    """Iterated Richardson extrapolation for a dyadic h-sequence.

    values[k] = g(h0 2^-k); column m (at most 6) removes the h^m error
    term.  Returns (limit, settle) where settle is the movement between
    the last two tableau corners.
    """
    T = np.asarray(values, dtype=float)
    corners = [T[-1]]
    for m in range(1, min(6, T.shape[0] - 1) + 1):
        fac = 2.0 ** m
        T = (fac * T[1:] - T[:-1]) / (fac - 1.0)
        corners.append(T[-1])
    return corners[-1], float(qabs(corners[-1] - corners[-2]))


def eta_jump_average(fn, point, h0=0.5, levels=11, tol=1e-6) -> JumpAverage:
    """Estimate the quadrant limits f(x0 +- 0, y0 +- 0) and their mean.

    Evaluates along the dyadic approach h_k = h0 2^-k into each open
    quadrant and extrapolates with an iterated Richardson tableau (the
    limits are only asserted to exist, so the tableau depth is an
    artifact choice), at most MAX_ETA_LEVELS levels.  Raises
    NonConvergentError when the extrapolant still moves by more than `tol`
    at the last level.
    """
    x0, y0 = _require_real(point, "point", shape=(2,)).tolist()
    _require_real((h0, tol), "h0, tol")
    if not (h0 > 0 and isinstance(levels, (int, np.integer)) and 2 <= levels <= MAX_ETA_LEVELS):
        raise InvalidParameterError(
            f"h0 must be positive and levels an integer from 2 to {MAX_ETA_LEVELS}")
    h = h0 * 2.0 ** (-np.arange(levels))
    quadrants = []
    for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        # one column of coordinates: (levels, 1, 4) quaternions
        vals = evaluate(fn, (x0 + sx * h)[:, None], (y0 + sy * h)[:, None])[:, 0]
        limit, settle = _richardson(vals)
        if not settle <= tol:  # written so that NaN fails
            raise NonConvergentError(
                f"quadrant ({sx:+d},{sy:+d}) extrapolant still moves by {settle:.3e}")
        quadrants.append(limit)
    quadrants = np.stack(quadrants)
    return JumpAverage(quadrants.mean(axis=0), quadrants, h)


# -- sinc integral bound ------------------------------------------------------

def _sine_integral(x):
    """Si(x) = integral of sin(t)/t over [0, x] to a few ulps, x not NaN: the series
    (Abramowitz and Stegun 5.2.14) for |x| <= 4, else pi/2 + Im E1(ix) with E1(z)
    = e^{-z} / (z + 1 - 1/(z + 3 - 4/(z + 5 - ...))) from depth 60 up."""
    a, series, tail = np.abs(x), 0.0, 0.0
    s = np.minimum(a, 4.0)
    for k in range(20, -1, -1):  # Horner form: (-1)^k / ((2k + 1) (2k + 1)!) at x^(2k+1)
        series = series * (s * s) + (-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1))
    z = 1j * np.clip(a, 4.0, 1e30)  # beyond 1e30, and at +-inf, Si rounds to +-pi/2
    for k in range(60, 0, -1):
        tail = k * k / (z + (2 * k + 1) - tail)
    large = np.pi / 2 + (np.exp(-z) / (z + 1 - tail)).imag
    return np.copysign(np.where(a <= 4.0, s * series, large), x)


def sinc_integral_bound_check(a, b) -> float:
    """|integral_a^b sin(t)/t dt| via the sine integral; always <= 6.  Ends may be infinite."""
    _require_real((a, b), "a, b", allow_inf=True)
    val = float(abs(_sine_integral(b) - _sine_integral(a)))
    if not val <= 6.0:
        raise InvariantViolationError(f"sine-integral bound violated: {val}")
    return val


# -- Gauss-Weierstrass means --------------------------------------------------

def gauss_weierstrass_kernel(alpha, grid: GridSpec) -> QSignal2D:
    """Heat kernel (1/(4 pi alpha)) e^{-(s^2+t^2)/(4 alpha)} sampled on grid."""
    _require_real(alpha, "alpha")
    if not alpha > 0:
        raise InvalidParameterError("alpha must be positive")
    return sample(lambda S, T: np.exp(-(S ** 2 + T ** 2) / (4.0 * alpha))
                  / (4.0 * np.pi * alpha), grid)


def _require_schedule(schedule):
    """The alphas of :func:`gauss_mean_inverse` as a tuple of floats: finite
    (NonFiniteError), positive and strictly decreasing (InvalidParameterError)."""
    schedule = tuple(_require_real(schedule, "schedule", shape=None).reshape(-1).tolist())
    if not (all(a > 0 for a in schedule) and np.all(np.diff(schedule) < 0)):
        raise InvalidParameterError(
            f"schedule {schedule!r} must be strictly decreasing and positive")
    return schedule


def gauss_mean_inverse(spec: QSpectrum2D, schedule, reference: QSignal2D):
    """L1 errors of the damped (Gauss-mean) inversion along a schedule of alphas.

    For each alpha the spectrum, of any raw QFT or QLCT kind, is damped by
    e^{-alpha(u^2+v^2)} and inverted by its own kind's inverse onto the
    reference's grid; for a two-sided QFT spectrum that is the heat
    smoothing f * W_alpha up to truncation.  Returns the (alpha, L1
    distance to the reference) pairs, non-increasing along a decreasing
    schedule, and holds one inverted field at a time.  The schedule must
    pass :func:`_require_schedule`.
    """
    schedule = _require_schedule(schedule)
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
    return (fixture_values(fn, x0 - S, y0 - T) + fixture_values(fn, x0 + S, y0 + T)
            + fixture_values(fn, x0 - S, y0 + T) + fixture_values(fn, x0 + S, y0 - T))


def _lc_strip(fn, x0, y0, eps_inner, eps_outer, radius, n_inner, n_outer, swap):
    d_in, d_out = eps_inner / n_inner, (radius - eps_outer) / n_outer
    inner = (np.arange(n_inner) + 0.5) * d_in
    outer = eps_outer + (np.arange(n_outer) + 0.5) * d_out
    # the inner variable is s, or t when swapped; either way G is (n_inner, n_outer)
    S, T = (outer[None, :], inner[:, None]) if swap else (inner[:, None], outer[None, :])
    G = _quadrant_sum(fn, x0, y0, S, T).reshape(n_inner, n_outer, -1)  # a real sum: one part
    # finite exactly where each section's mass of moduli is: |g| <= sum |parts| <= 2 |g|
    mass = np.sum(np.abs(G.reshape(n_inner, -1)), axis=1) * d_out
    finite = np.isfinite(mass)
    if not finite.any():
        raise NoIntegrableSectionError("no section with finite truncated mass")
    anchor = int(np.argmax(finite))  # nearest-to-zero finite section
    diff = G - G[anchor]
    integrand = np.sqrt(np.sum(diff * diff, axis=-1)) / inner[:, None]
    return float(np.sum(integrand) * d_in * d_out)


def _require_strips(eps1, eps2, radius):
    """The strips of :func:`lc_class_diagnostic`: finite (NonFiniteError), positive
    half-widths and a radius beyond both (InvalidParameterError)."""
    _require_real((eps1, eps2, radius), "eps1, eps2, radius")
    if not (eps1 > 0 and eps2 > 0):
        raise InvalidParameterError("strip half-widths must be positive")
    if not radius > max(eps1, eps2):
        raise InvalidParameterError("radius must exceed the strip half-widths")


def lc_class_diagnostic(fn, point, eps1, eps2, radius,
                        n_inner=96, n_outer=192):
    """Truncated estimates of the two cross-neighborhood strip integrals.

    First value: integral over s in (0, eps1], t in [eps2, radius] of
    |(ftilde(s,t) - ftilde(a,t)) / s|; second is the mirrored t-strip.
    ftilde is the four-quadrant sum around the point; the sections a, b
    are the quadrature nodes closest to zero with finite truncated 1D
    mass; a strip has at most MAX_LC_NODES nodes.  Raw numbers are
    returned for the caller to judge: the underlying condition is
    asymptotic and not decidable from finite data.  Strips run with numpy's
    overflow warnings off: a Gaussian at radius 1e300 is 0, with no warning.
    """
    x0, y0 = _require_real(point, "point", shape=(2,)).tolist()
    _require_strips(eps1, eps2, radius)
    _require_counts((n_inner, n_outer), "n_inner, n_outer")
    if int(n_inner) * int(n_outer) > MAX_LC_NODES:
        raise InvalidParameterError(f"n_inner * n_outer = {int(n_inner) * int(n_outer)} "
                                    f"strip nodes, more than {MAX_LC_NODES}")
    with np.errstate(over="ignore"):
        return (_lc_strip(fn, x0, y0, eps1, eps2, radius, n_inner, n_outer, swap=False),
                _lc_strip(fn, x0, y0, eps2, eps1, radius, n_inner, n_outer, swap=True))
