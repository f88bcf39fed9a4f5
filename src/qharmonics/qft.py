"""Quaternion Fourier transforms (two-sided, right-sided, left-sided).

Forward transforms are midpoint-rule quadratures of

    two-sided   F(u,v) = integral e^{-mu1 u s} f(s,t) e^{-mu2 v t} ds dt
    right-sided F(u,v) = integral f(s,t) e^{-mu1 u s} e^{-mu2 v t} ds dt
    left-sided  F(u,v) = integral e^{-mu1 u s} e^{-mu2 v t} f(s,t) ds dt

over the signal's (truncated) domain.  The inverse carries the 1/4pi^2
factor and the side-specific kernel order

    two-sided   f = (1/4pi^2) integral e^{mu1 u s} F e^{mu2 v t} du dv
    right-sided f = (1/4pi^2) integral F e^{mu2 v t} e^{mu1 u s} du dv
    left-sided  f = (1/4pi^2) integral e^{mu2 v t} e^{mu1 u s} F du dv

Each kernel factor is one contraction along an axis of any uniform grid
(see ``_kernels``); a kind's ``plan`` lists their records, forward or
inverse, and one stage loop runs the plans of both families.  On a narrow
window, where a kernel has low rank, a stage contracts onto Chebyshev points
and the loop interpolates them once at the end.  On any midpoint grid with
``FreqWindow.natural``, the forward transforms' default window, the
quadrature is exactly the 2D DFT of the samples about the grid's centre
(a grid off 0, such as an image on [0, w], adds its centre's terms),
and every stage runs as complex FFTs on the symplectic split of the
field, for any sample counts and any axis pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._kernels import chirp_multiply, const_multiply, exp_contract, interpolate, low_rank
from .errors import (
    InvalidParameterError,
    NonRealInputError,
    ProvenanceMismatchError,
    SideMismatchError,
    _require_counts,
    _require_real,
    _require_type,
)
from .grids import GridSpec, QSignal2D, QSpectrum2D, _checked
from .quaternion import CANONICAL_AXES, AxisPair

__all__ = [
    "Side",
    "QftKind",
    "FreqWindow",
    "qft_forward",
    "qft_inverse",
    "ft2d",
    "qft_from_ft",
    "ft_from_qft",
    "derivative_multiplier",
]


class Side(Enum):
    TWO_SIDED = "two"
    RIGHT_SIDED = "right"
    LEFT_SIDED = "left"

    @property
    def stages(self):
        """Forward kernel stages, innermost first, as (grid axis, kernel on
        the left); inverses undo them in reverse order."""
        return _STAGES[self]


_STAGES = {Side.TWO_SIDED: ((0, True), (1, False)),
           Side.RIGHT_SIDED: ((0, False), (1, False)),
           Side.LEFT_SIDED: ((1, True), (0, True))}


@dataclass(frozen=True)
class QftKind:
    """Which QFT: kernel placement plus the (generalized) axis pair."""

    side: Side = Side.TWO_SIDED
    axes: AxisPair = field(default=CANONICAL_AXES)

    family = "qft"

    def plan(self, inverse=False):
        """Stage records (axis, left, c, pre, post, scale) for :func:`_stages`:
        the forward kernels e^{-mu x y} on the cells, or the inverse's
        e^{+mu y x} with one 1/2pi per stage, its stages in reverse order."""
        stages, c, scale = ((reversed(self.side.stages), 1.0, 2.0 * np.pi) if inverse
                            else (self.side.stages, -1.0, 1.0))
        return tuple((axis, left, c, None, None, scale) for axis, left in stages)


@dataclass(frozen=True)
class FreqWindow:
    """Truncation window [-u_max, u_max] x [-v_max, v_max], midpoint sampled."""

    u_max: float
    v_max: float
    nu: int
    nv: int

    def __post_init__(self):
        _require_real((self.u_max, self.v_max), "u_max, v_max")
        if not (self.u_max > 0 and self.v_max > 0):
            raise InvalidParameterError("window extents must be positive")
        _require_counts((self.nu, self.nv), "nu, nv", 2)
        self.to_grid()  # refused here if that grid is not finite or too large, as GridSpec is

    @classmethod
    def square(cls, extent, n):
        return cls(extent, extent, n, n)

    @classmethod
    def natural(cls, grid: GridSpec):
        """Window matching the FFT of `grid`: extent pi/spacing, same counts."""
        return cls(np.pi / grid.ds, np.pi / grid.dt, grid.ns, grid.nt)

    def scaled(self, fu, fv):
        """The window with its extents multiplied by (fu, fv), same counts."""
        _require_real((fu, fv), "fu, fv")
        return FreqWindow(fu * self.u_max, fv * self.v_max, self.nu, self.nv)

    def to_grid(self) -> GridSpec:
        return GridSpec.centered(self.u_max, self.nu, self.v_max, self.nv)


def qft_forward(sig: QSignal2D, kind: QftKind = QftKind(), window: FreqWindow = None, *,
                overwrite=False) -> QSpectrum2D:
    """Forward QFT on the window's midpoint frequency grid; by default
    ``FreqWindow.natural(sig.grid)``, on which the inverse recovers the
    signal to rounding.  The spectrum records the window it ran on.

    ``overwrite=True`` hands the signal over, as for :func:`qft_inverse`:
    its data may be destroyed and the spectrum may share its memory (it
    does for a C-contiguous signal with the counts of the window), so the
    transform allocates no field of its own.
    """
    _require(kind, "qft", "kind")
    _require_type(window, FreqWindow, "window", optional=True)
    window = FreqWindow.natural(sig.grid) if window is None else window
    fgrid = window.to_grid()
    data = _stages(sig.data, kind.plan(), kind.axes, sig.grid, fgrid, overwrite)
    return _checked(QSpectrum2D, fgrid, data, kind, window)


def qft_inverse(spec: QSpectrum2D, out_grid: GridSpec, *, overwrite=False) -> QSignal2D:
    """Inverse QFT quadrature of `spec` by its own kind onto `out_grid`
    (1/4pi^2 normalization, one 1/2pi in the weight of each stage).
    Refuses a spectrum of another family (ProvenanceMismatchError).

    ``overwrite=True`` hands the spectrum over, as ``overwrite_x`` in
    ``scipy.fft``: its data may be destroyed and the result may share its
    memory (it does for a C-contiguous spectrum with the counts of
    `out_grid`), so the inverse allocates no field of its own.
    """
    return _invert(spec, out_grid, overwrite, "qft")


def _inverse_plan(spec: QSpectrum2D):
    """`spec`'s own kind's inverse plan; ProvenanceMismatchError for a kind without one."""
    if not callable(getattr(spec.kind, "plan", None)):
        raise ProvenanceMismatchError(f"no inverse for a spectrum of kind {spec.kind!r}")
    return spec.kind.plan(inverse=True)


def _invert(spec: QSpectrum2D, out_grid: GridSpec, overwrite=False, family=None) -> QSignal2D:
    """Check `spec` (of `family`, if given) and `out_grid`, then run :func:`_inverse_plan`."""
    _require_type(spec, QSpectrum2D, "spec")
    if family is not None:
        _require(spec.kind, family)
    _require_type(out_grid, GridSpec, "out_grid")
    return _checked(QSignal2D, out_grid, _stages(spec.data, _inverse_plan(spec), spec.kind.axes,
                                                 spec.grid, out_grid, overwrite))


def _stages(data, plan, axes, src, dst, overwrite=False):
    """Run the stage records `plan`, a kind's ``plan``, from the nodes of grid
    `src` onto those of grid `dst`.  A record ``(axis, left, c, pre, post,
    scale)`` is the :func:`exp_contract` of grid axis `axis`, or with c =
    None the chirp e^{mu pre} of its input nodes (a b = 0 QLCT axis), of
    weight :func:`_weight`.  A low-rank stage contracts onto its Chebyshev
    points, and its interpolation and output chirp wait for the end when
    every later stage multiplies from the other side, else run right after
    it.  Every step fills one buffer of the output's size (`data` when
    `overwrite` hands it over and it is one, else a new array) and checks
    the blocks it writes (NonFiniteError, naming it), so the field returned
    is finite and the transforms do not scan it again."""
    mus, xs, ys = (axes.mu1, axes.mu2), src.axes, dst.axes
    size = 4 * math.prod((xs if c is None else ys)[axis][2].size for axis, _, c, *_ in plan)
    out = (data if overwrite and data.flags.carray and data.dtype == np.float64
           and data.size == size else np.empty(size))
    deferred = [None, None]
    for i, (axis, left, c, pre, post, scale) in enumerate(plan):
        x, y, w = xs[axis], ys[axis], _weight(c, scale, xs[axis])
        if c is None:
            data = chirp_multiply(x, pre, mus[axis], data, left, axis, scale=w, out=out)
            continue
        rank = low_rank(y, x, c)
        data = exp_contract(y if rank is None else rank[0], x, c, mus[axis], data, left, axis,
                            pre=pre, post=post if rank is None else None, scale=w, out=out)
        if rank is not None:
            deferred[axis] = (rank[1], y, post, mus[axis], left)
            if post is not None and any(later == left for _, later, *_ in plan[i + 1:]):
                data, deferred = interpolate(data, deferred, out), [None, None]
    return interpolate(data, deferred, out) if any(deferred) else data


def _weight(c, scale, x):
    """A stage record's weight on input axis x: x's spacing over `scale`, or `scale` for a chirp."""
    return scale if c is None else x[1] / scale


def _require(kind, family, what="spectrum"):
    """Raise ProvenanceMismatchError, naming `kind`, unless it is of `family`."""
    if getattr(kind, "family", None) != family:
        raise ProvenanceMismatchError(f"not a {family.upper()} {what}: {kind!r}")


# -- relations with the complex 2D Fourier transform -------------------------

def _real_field(sig: QSignal2D):
    if np.any(sig.data[..., 1:] != 0.0):
        raise NonRealInputError("signal has nonzero i/j/k parts")
    return sig.data[..., 0]


def ft2d(sig: QSignal2D, window: FreqWindow):
    """Complex 2D Fourier transform of a real signal, same quadrature.

    Kernel ``e^{-i u s} e^{-i v t}`` (both factors on the classical axis),
    evaluated on the window's midpoint grid.  Returns a complex array.
    """
    h = _real_field(sig)
    fgrid = window.to_grid()
    eu = np.exp(-1j * np.outer(fgrid.s, sig.grid.s))
    ev = np.exp(-1j * np.outer(fgrid.t, sig.grid.t))
    return (eu @ h @ ev.T) * sig.grid.cell_area


def qft_from_ft(H):
    """Assemble the two-sided QFT of a real field from its complex 2D FT.

    Uses H_T(u,v) = [H(u,v)(1-k) + H(u,-v)(1+k)] / 2.  The frequency grid
    must be symmetric in v (midpoint windows are), so the v reflection is
    an index flip.
    """
    H = np.asarray(H)
    x1, y1 = H.real, H.imag
    Hf = H[:, ::-1]
    x2, y2 = Hf.real, Hf.imag
    return np.stack([(x1 + x2) / 2, (y1 + y2) / 2,
                     (y1 - y2) / 2, (x2 - x1) / 2], axis=-1)


def ft_from_qft(HT):
    """Inverse relation: complex 2D FT from the two-sided QFT of a real field.

    Uses H(u,v) = [H_T(u,v)(1+k) + H_T(u,-v)(1-k)] / 2; the quaternion
    j/k parts of the right-hand side cancel for spectra of real fields
    and are discarded.
    """
    HT = np.asarray(HT)
    w1, x1, y1, z1 = (HT[..., n] for n in range(4))
    HTf = HT[:, ::-1, :]
    w2, x2, y2, z2 = (HTf[..., n] for n in range(4))
    re = ((w1 - z1) + (w2 + z2)) / 2
    im = ((x1 + y1) + (x2 - y2)) / 2
    return re + 1j * im


# bench/spans.py wraps this name and bench/worker.py calls it; it goes when the
# bench reads a stage trace (ROADMAP 1b)
def qft_fast(sig, kind):
    return qft_forward(sig, kind)


# -- derivative multipliers ---------------------------------------------------

def derivative_multiplier(spec: QSpectrum2D, m: int, n: int) -> QSpectrum2D:
    """Spectrum of the (m, n)-th partial derivative via frequency multipliers.

    Two-sided spectra take (mu1 u)^m on the left and (mu2 v)^n on the
    right.  Sided spectra only admit their own one-sided multiplier:
    left-sided (mu1 u)^m (n must be 0), right-sided (mu2 v)^n (m must
    be 0); anything else raises SideMismatchError.
    """
    _require(spec.kind, "qft")
    _require_counts((m, n), "derivative orders m, n", 0)
    kind = spec.kind
    if kind.side is Side.LEFT_SIDED and n != 0:
        raise SideMismatchError("left-sided spectra only admit the u-multiplier")
    if kind.side is Side.RIGHT_SIDED and m != 0:
        raise SideMismatchError("right-sided spectra only admit the v-multiplier")
    data = spec.data
    # (mu x)^k = x^k mu^k, and mu^k is one of 1, mu, -1, -mu: a real factor
    # times one fixed 4x4 map
    for k, mu, x, left in ((m, kind.axes.mu1, spec.grid.s[:, None, None], True),
                           (n, kind.axes.mu2, spec.grid.t[None, :, None], False)):
        if k:
            odd = k % 2
            mu_k = (-1.0) ** (k // 2) * np.concatenate([[1.0 - odd], odd * mu])
            data = x ** k * const_multiply(mu_k, data, left)
    return QSpectrum2D(spec.grid, data, kind, spec.window)
