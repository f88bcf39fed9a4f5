"""Quaternion linear canonical transforms and their inversion pathways.

Each axis carries a unit-determinant matrix (a, b, c, d), used as given,
and the kernel

    K(x, xi) = (1 / sqrt(mu 2 pi b)) e^{mu (a x^2/(2b) - x xi/b + d xi^2/(2b))}

with sqrt(1/(mu 2 pi b)) fixed as e^{-mu pi/4} / sqrt(2 pi b) for b > 0
and e^{+mu pi/4} / sqrt(2 pi |b|) for b < 0.  The inverse transform is
the forward kernel sandwich of the inverse matrices (d, -b, -c, a), its
stages in reverse order.  Inversion carries NO extra 1/4pi^2 factor: the
kernels are already normalized by 1/sqrt(2 pi |b|), and a Gaussian
round-trip confirms the choice (including the factor leaves an O(1)
residual).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import const_multiply
from .errors import (
    DegenerateAngleError,
    DegenerateBError,
    InvalidParameterError,
    ProvenanceMismatchError,
    SideMismatchError,
    _require_real,
)
from .grids import GridSpec, QSignal2D, QSpectrum2D
from .qft import FreqWindow, Side, _require, _stages, qft_inverse
from .quaternion import (
    CANONICAL_AXES,
    AxisPair,
    axis_components,
    qexp_pure,
)

__all__ = [
    "LctParams",
    "LctKind",
    "lct_kernel",
    "qlct_forward",
    "qlct_inverse",
    "sided_decompose_transform",
    "qfrft",
]

DET_TOL = 1e-10


@dataclass(frozen=True)
class LctParams:
    """Per-axis canonical-transform matrix (a, b, c, d), det = 1, used as
    given: b may take either sign.

    A and -A parameterize different transforms: L_{-A}(f)(xi) =
    mu * L_A(f)(-xi), a frequency reflection times the axis unit.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        _require_real(self.astuple(), "a, b, c, d")
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > DET_TOL:
            raise InvalidParameterError(f"matrix determinant {det!r} is not 1 within {DET_TOL}")

    @property
    def is_degenerate(self):
        return self.b == 0.0

    @property
    def inverse(self):
        """The inverse matrix (d, -b, -c, a)."""
        return LctParams(self.d, -self.b, -self.c, self.a)

    @classmethod
    def identity_chirp(cls):
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def fourier(cls):
        return cls(0.0, 1.0, -1.0, 0.0)

    @classmethod
    def rotation(cls, angle):
        _require_real(angle, "angle")
        return cls(np.cos(angle), np.sin(angle), -np.sin(angle), np.cos(angle))

    def astuple(self):
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class LctKind:
    """Which QLCT: side, per-axis matrices, axes, and the QFRFT phase flag."""

    side: Side
    A1: LctParams
    A2: LctParams
    axes: AxisPair = field(default=CANONICAL_AXES)
    phase_corrected: bool = False

    family = "qlct"


def lct_kernel(A: LctParams, axis, x, xi):
    """Evaluate the canonical kernel K_A(x, xi) on broadcastable arrays.

    The prefactor sqrt(1/(mu 2 pi b)) = e^{-sign(b) mu pi/4} / sqrt(2 pi |b|)
    shares the axis of the phase, so |K| = 1/sqrt(2 pi |b|) everywhere.
    Raises DegenerateBError when b = 0 (that branch is a chirp
    multiplication, not a kernel).
    """
    a, b, _, d = A.astuple()
    if b == 0.0:
        raise DegenerateBError("kernel undefined for b = 0 (chirp branch)")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    phase = a * x * x / (2 * b) - x * xi / b + d * xi * xi / (2 * b) - np.sign(b) * np.pi / 4
    return qexp_pure(axis, phase) / np.sqrt(2.0 * np.pi * abs(b))


def _lct_terms(A: LctParams, x, xi, dx):
    """Stage terms (c, pre, post, scale) of one axis for ``qft._stages``:
    chirp(x), the Fourier kernel at xi/b and chirp(xi) in one contraction
    of cell width `dx`, the output chirp carrying the prefactor phase
    -sign(b) pi/4 as its own factor (d xi^2/(2b) reaches 1e4 rad).

    A b = 0 axis is the pointwise chirp sqrt(d) e^{mu c d xi^2 / 2} f(d xi)
    (c = None): its output coordinates are xi = x/d, so no resampling is
    needed; requires d > 0 (det = ad = 1 pins d = 1/a).
    """
    a, b, c, d = A.astuple()
    if b == 0.0:
        if d <= 0:
            raise DegenerateBError("degenerate branch needs d > 0")
        xi = x / d
        return None, c * d * xi * xi / 2.0, None, np.sqrt(d)
    return (-1.0 / b, a * x * x / (2 * b), (d * xi * xi / (2 * b), -np.sign(b) * np.pi / 4),
            dx / np.sqrt(2.0 * np.pi * abs(b)))


def qlct_forward(sig: QSignal2D, kind: LctKind, window: FreqWindow = None,
                 overwrite=False) -> QSpectrum2D:
    """Forward QLCT by midpoint quadrature of the kernel sandwich.

    Kernel placement per side matches the defining integrals: two-sided
    K1 f K2, right-sided f K1 K2, left-sided K1 K2 f; each b != 0 stage is
    the chirp-QFT-chirp factorization in one contraction.  The default
    window, recorded in the spectrum, is the natural window of the signal
    grid scaled by (|b1|, |b2|): there each stage is the exact DFT of the
    chirped samples.  Axes with b = 0 take the chirp-scaling branch; their
    output grid is the input grid mapped by xi = x/d and the window is
    ignored (its scale is 1) along that axis.
    ``overwrite=True`` hands the signal over, as for
    :func:`qft.qft_forward`: its data may be destroyed and the spectrum
    may share its memory.
    """
    if window is None:
        window = FreqWindow.natural(sig.grid).scaled(abs(kind.A1.b) or 1.0, abs(kind.A2.b) or 1.0)
    fgrid = window.to_grid()
    mats = (kind.A1, kind.A2)
    data = _stages(sig.data, kind.side.stages, kind.axes, sig.grid, fgrid,
                   lambda axis, x, xi, dx: _lct_terms(mats[axis], x, xi, dx), overwrite)
    g = sig.grid
    if kind.A1.is_degenerate:
        fgrid = replace(fgrid, s_min=g.s_min / kind.A1.d, ds=g.ds / kind.A1.d, ns=g.ns)
    if kind.A2.is_degenerate:
        fgrid = replace(fgrid, t_min=g.t_min / kind.A2.d, dt=g.dt / kind.A2.d, nt=g.nt)
    return QSpectrum2D(fgrid, data, kind, window)


def qlct_inverse(spec: QSpectrum2D, kind: LctKind, out_grid: GridSpec,
                 overwrite=False) -> QSignal2D:
    """Invert a raw QLCT spectrum of `kind`, of any side: the forward
    sandwich of the inverse matrices A^{-1} = (d, -b, -c, a), its stages
    in reverse order, with no 1/4pi^2 prefactor (see module docstring).

    two-sided:   f = integral K_{A1^{-1}}(u,s) L(u,v) K_{A2^{-1}}(v,t)
    right-sided: f = integral L(u,v) K_{A2^{-1}}(v,t) K_{A1^{-1}}(u,s)
    left-sided:  f = integral K_{A2^{-1}}(v,t) K_{A1^{-1}}(u,s) L(u,v)

    The sided orders undo the forward kernels innermost-first; swapping
    the two inverse kernels on a non-real signal does not reconstruct f.
    Refuses a spectrum of another kind, a phase-corrected one and a b = 0
    axis.  ``overwrite=True`` hands the spectrum over, as for
    :func:`qft.qft_inverse`: its data may be destroyed and the result may
    share its memory.
    """
    _require(spec, kind, "qlct")
    if kind.phase_corrected:
        raise ProvenanceMismatchError(
            "undo the fractional phase factors before inverting")
    if kind.A1.is_degenerate or kind.A2.is_degenerate:
        raise DegenerateBError("inverse through a degenerate (b = 0) axis")
    mats = (kind.A1.inverse, kind.A2.inverse)
    out = _stages(spec.data, reversed(kind.side.stages), kind.axes, spec.grid, out_grid,
                  lambda axis, u, x, du: _lct_terms(mats[axis], u, x, du), overwrite)
    return QSignal2D(out_grid, out)


def _invert(spec: QSpectrum2D, out_grid: GridSpec, overwrite=False) -> QSignal2D:
    """Invert `spec` onto `out_grid` by its own family's inverse,
    :func:`qft.qft_inverse` or :func:`qlct_inverse`, which refuses what it
    cannot invert.  ``overwrite`` is as for the inverses.
    """
    inverse = qft_inverse if getattr(spec.kind, "family", None) == "qft" else qlct_inverse
    return inverse(spec, spec.kind, out_grid, overwrite=overwrite)


# bench/spans.py wraps these names and bench/worker.py calls qlct_via_qft; they
# go when the bench reads a stage trace (ROADMAP 1b)
qlct_inverse_two_sided = qlct_inverse_sided = qlct_inverse


def qlct_via_qft(sig, kind, fast=True):
    return qlct_forward(sig, kind)


def _embed(re, im, mu):
    """re + mu * im as a quaternion array."""
    out = np.zeros(re.shape + (4,))
    out[..., 0] = re
    out[..., 1:] = im[..., None] * mu
    return out


def sided_decompose_transform(sig: QSignal2D, kind: LctKind,
                              window: FreqWindow = None) -> QSpectrum2D:
    """Sided QLCT as a sum of two two-sided QLCTs of symplectic parts.

    right-sided: L_R(f) = L_T^{mu1,mu2}(f_a) + L_T^{-mu1,mu2}(f_b) mu2
    left-sided:  L_L(f) = L_T^{mu1,mu2}(f_d) + mu1 L_T^{mu1,-mu2}(f_e)

    where f = f_a + f_b mu2 = f_d + mu1 f_e with the parts living in the
    commuting subalgebras span{1, mu1} and span{1, mu2} respectively.
    The window defaults as for :func:`qlct_forward`.
    """
    if kind.side is Side.TWO_SIDED:
        raise SideMismatchError("decomposition computes the sided transforms")
    axes = kind.axes
    a0, a1c, a2c, a3c = axis_components(sig.data, axes)
    mu1, mu2 = axes.mu1, axes.mu2

    def two(ax):
        return LctKind(Side.TWO_SIDED, kind.A1, kind.A2, ax)

    if kind.side is Side.RIGHT_SIDED:
        f_a = QSignal2D(sig.grid, _embed(a0, a1c, mu1))
        f_b = QSignal2D(sig.grid, _embed(a2c, a3c, mu1))
        term1 = qlct_forward(f_a, two(axes), window)
        term2 = qlct_forward(f_b, two(AxisPair(-mu1, mu2)), window)
        data = term1.data + const_multiply(np.concatenate([[0.0], mu2]), term2.data, left=False)
    else:
        f_d = QSignal2D(sig.grid, _embed(a0, a2c, mu2))
        f_e = QSignal2D(sig.grid, _embed(a1c, a3c, mu2))
        term1 = qlct_forward(f_d, two(axes), window)
        term2 = qlct_forward(f_e, two(AxisPair(mu1, -mu2)), window)
        data = term1.data + const_multiply(np.concatenate([[0.0], mu1]), term2.data, left=True)
    return QSpectrum2D(term1.grid, data, kind, term1.window)


def _require_angles(alpha, beta):
    """The angle rule of :func:`qfrft`, which the CLI applies before it loads
    anything: real, finite, and |sin| of at least 1e-12, below which the
    fractional kernel degenerates (DegenerateAngleError)."""
    _require_real((alpha, beta), "alpha, beta")
    for name, angle in (("alpha", alpha), ("beta", beta)):
        if abs(np.sin(angle)) < 1e-12:
            raise DegenerateAngleError(f"sin({name}) = 0: fractional kernel degenerates")


def qfrft(sig: QSignal2D, alpha: float, beta: float, side: Side,
          window: FreqWindow = None, axes: AxisPair = CANONICAL_AXES,
          phase_corrected=False) -> QSpectrum2D:
    """Fractional transform: QLCT with rotation matrices A(alpha), A(beta).

    The raw QLCT output differs from the fractional transform by the
    fixed phases e^{-mu1 alpha/2}, e^{-mu2 beta/2}; ``phase_corrected``
    multiplies them back out (left/right respectively) and is recorded
    in the provenance.  The correction only factors out as a constant
    sandwich for the two-sided transform; sided kinds accept raw output
    only.  A negative angle gives a rotation with b = sin(angle) < 0, used
    as given, so a forward pass with (-alpha, -beta) inverts the
    (alpha, beta) pass.  The window defaults as for :func:`qlct_forward`:
    the natural window scaled by (|sin alpha|, |sin beta|).
    """
    _require_angles(alpha, beta)
    if phase_corrected and side is not Side.TWO_SIDED:
        raise SideMismatchError(
            "phase correction is a constant sandwich only for the two-sided kind")
    kind = LctKind(side, LctParams.rotation(alpha), LctParams.rotation(beta),
                   axes, phase_corrected=phase_corrected)
    spec = qlct_forward(sig, LctKind(side, kind.A1, kind.A2, axes), window)
    data = spec.data
    if phase_corrected:
        data = const_multiply(qexp_pure(axes.mu1, alpha / 2), data, left=True)
        data = const_multiply(qexp_pure(axes.mu2, beta / 2), data, left=False)
    return QSpectrum2D(spec.grid, data, kind, spec.window)
