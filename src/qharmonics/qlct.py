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

from ._kernels import _ratio, const_multiply
from .errors import (
    DegenerateBError,
    InvalidParameterError,
    SideMismatchError,
    _require_real,
    _require_type,
)
from .grids import GridSpec, QSignal2D, QSpectrum2D, _checked
from .qft import FreqWindow, Side, _invert, _require, _stages
from .quaternion import CANONICAL_AXES, AxisPair, axis_components, qexp_pure

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
    """Which QLCT: side, per-axis matrices, axes, and the QFRFT phase flag (rotations only)."""

    side: Side
    A1: LctParams
    A2: LctParams
    axes: AxisPair = field(default=CANONICAL_AXES)
    phase_corrected: bool = False

    family = "qlct"

    def __post_init__(self):
        if self.phase_corrected and not all(A.a == A.d and A.b == -A.c
                                            for A in (self.A1, self.A2)):
            raise InvalidParameterError("a phase-corrected kind needs rotations (a = d, b = -c)")

    def plan(self, inverse=False):
        """Stage records for ``qft._stages``: the kernel sandwich of (A1, A2)
        or, inverse, of the inverse matrices in reverse order, which refuses
        b = 0 (DegenerateBError); a phase-corrected kind's records carry the
        fractional phase, the inverse's the negated one."""
        stages, mats = self.side.stages, (self.A1, self.A2)
        if inverse:
            if self.A1.is_degenerate or self.A2.is_degenerate:
                raise DegenerateBError("inverse through a degenerate (b = 0) axis")
            stages, mats = tuple(reversed(stages)), (self.A1.inverse, self.A2.inverse)
        return tuple((axis, left, *_lct_stage(mats[axis], self.phase_corrected))
                     for axis, left in stages)


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


def _lct_stage(A: LctParams, phase_corrected):
    """(c, pre, post, scale) of one axis's stage record: chirp(x), the
    Fourier kernel at xi/b and chirp(xi) in one contraction of weight dx /
    sqrt(2 pi |b|); c = -1/b and the chirps a x^2/(2b) and d xi^2/(2b) -
    sign(b) pi/4 (up to 1e4 rad) are exact double-doubles of a, b and d.
    `phase_corrected` adds theta/2 to the constant, theta = atan2(b, a): the
    kernel is then the 2 pi-periodic sqrt(1 - mu cot theta) one (Almeida),
    and a rotation's inverse negates theta.  A b = 0 axis is the pointwise
    chirp sqrt(d) e^{mu c x^2 / (2d)} f(x) at xi = x/d (c = None); requires
    d > 0 (det = ad = 1 pins d = 1/a)."""
    a, b, c, d = A.astuple()
    if b == 0.0:
        if d <= 0:
            raise DegenerateBError("degenerate branch needs d > 0")
        return None, (_ratio(c, 2.0 * d), 0.0, 0.0), None, np.sqrt(d)
    phase = -np.sign(b) * np.pi / 4 + (np.arctan2(b, a) / 2 if phase_corrected else 0.0)
    return (_ratio(-1.0, b), (_ratio(a, 2.0 * b), 0.0, 0.0), (_ratio(d, 2.0 * b), 0.0, phase),
            np.sqrt(2.0 * np.pi * abs(b)))


def qlct_forward(sig: QSignal2D, kind: LctKind, window: FreqWindow = None, *,
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
    _require(kind, "qlct", "kind")
    _require_type(window, FreqWindow, "window", optional=True)
    if window is None:
        window = FreqWindow.natural(sig.grid).scaled(abs(kind.A1.b) or 1.0, abs(kind.A2.b) or 1.0)
    fgrid = window.to_grid()
    data = _stages(sig.data, kind.plan(), kind.axes, sig.grid, fgrid, overwrite)
    g = sig.grid  # a b = 0 axis: the input's, centre and spacing over d (a centre 0 stays 0)
    for A, lo, step, n, keys in ((kind.A1, g.s_min, g.ds, g.ns, ("s_min", "ds", "ns")),
                                 (kind.A2, g.t_min, g.dt, g.nt, ("t_min", "dt", "nt"))):
        if A.is_degenerate:
            lo, step = (lo + n * step / 2) / A.d - n * (step / A.d) / 2, step / A.d
            fgrid = replace(fgrid, **dict(zip(keys, (lo, step, n))))
    return _checked(QSpectrum2D, fgrid, data, kind, window)


def qlct_inverse(spec: QSpectrum2D, out_grid: GridSpec, *, overwrite=False) -> QSignal2D:
    """Invert a raw QLCT spectrum, of any side, by its own kind: the forward
    sandwich of the inverse matrices A^{-1} = (d, -b, -c, a), its stages
    in reverse order, with no 1/4pi^2 prefactor (see module docstring).

    two-sided:   f = integral K_{A1^{-1}}(u,s) L(u,v) K_{A2^{-1}}(v,t)
    right-sided: f = integral L(u,v) K_{A2^{-1}}(v,t) K_{A1^{-1}}(u,s)
    left-sided:  f = integral K_{A2^{-1}}(v,t) K_{A1^{-1}}(u,s) L(u,v)

    The sided orders undo the forward kernels innermost-first; swapping
    the two inverse kernels on a non-real signal does not reconstruct f.
    A phase-corrected spectrum inverts too.  Refuses a spectrum of another
    family, and :meth:`LctKind.plan` a b = 0 axis.  ``overwrite=True`` hands
    the spectrum over, as for :func:`qft.qft_inverse`: its data may be
    destroyed and the result may share its memory.
    """
    return _invert(spec, out_grid, overwrite, "qlct")


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
    The two-sided kinds keep ``kind``'s matrices and phase flag, and the
    window defaults as for :func:`qlct_forward`.
    """
    _require(kind, "qlct", "kind")
    _require_type(window, FreqWindow, "window", optional=True)
    if kind.side is Side.TWO_SIDED:
        raise SideMismatchError("decomposition computes the sided transforms")
    axes, right = kind.axes, kind.side is Side.RIGHT_SIDED
    a0, a1, a2, a3 = axis_components(sig.data, axes)
    mu1, mu2 = axes.mu1, axes.mu2
    # right: f_a = a0 + a1 mu1, f_b = a2 + a3 mu1; left: f_d = a0 + a2 mu2, f_e = a1 + a3 mu2
    (p0, p1), (q0, q1), mu = ((a0, a1), (a2, a3), mu1) if right else ((a0, a2), (a1, a3), mu2)
    flipped = AxisPair(-mu1, mu2) if right else AxisPair(mu1, -mu2)
    term1, term2 = (qlct_forward(QSignal2D(sig.grid, _embed(re, im, mu)),
                                 replace(kind, side=Side.TWO_SIDED, axes=ax), window)
                    for re, im, ax in ((p0, p1, axes), (q0, q1, flipped)))
    unit = np.concatenate([[0.0], mu2 if right else mu1])
    data = term1.data + const_multiply(unit, term2.data, left=not right)
    return QSpectrum2D(term1.grid, data, kind, term1.window)


def _require_angles(alpha, beta):
    """The angle rule of :func:`qfrft`, which the CLI applies before it loads
    anything: real, finite, and |sin| of at least 1e-12, below which the
    fractional kernel degenerates (DegenerateBError: the rotation's b is sin)."""
    _require_real((alpha, beta), "alpha, beta")
    for name, angle in (("alpha", alpha), ("beta", beta)):
        if abs(np.sin(angle)) < 1e-12:
            raise DegenerateBError(f"sin({name}) = 0: fractional kernel degenerates")


def qfrft(sig: QSignal2D, alpha: float, beta: float, side: Side,
          window: FreqWindow = None, axes: AxisPair = CANONICAL_AXES,
          phase_corrected=False) -> QSpectrum2D:
    """Fractional transform: QLCT with rotation matrices A(alpha), A(beta).

    The raw QLCT kernel of a rotation differs from the fractional kernel
    by the phase e^{-mu theta/2}, theta the angle reduced to (-pi, pi];
    ``phase_corrected`` sets the kind's flag, whose stages multiply it back
    into each kernel on any side (see :func:`_lct_stage`).  A negative
    angle gives a rotation with b = sin(angle) < 0, used as given, so a
    forward pass with (-alpha, -beta) inverts the (alpha, beta) pass.  The
    window defaults as for :func:`qlct_forward`: the natural window scaled
    by (|sin alpha|, |sin beta|).
    """
    _require_angles(alpha, beta)
    return qlct_forward(sig, LctKind(side, LctParams.rotation(alpha), LctParams.rotation(beta),
                                     axes, phase_corrected), window)
