"""Sampled quaternion signals on uniform rectangular grids.

The midpoint convention is used throughout: sample ``k`` along the first
axis sits at ``s_min + (k + 1/2) * ds``.  That keeps constant-function
quadrature exact and avoids double-counting domain edges.  Signal data is
stored as an ``(ns, nt, 4)`` float64 array, axis 0 indexing ``s`` and
axis 1 indexing ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (BadPpmError, InvalidParameterError, ShapeMismatchError, _require_counts,
                     _require_real)
from .quaternion import qabs

__all__ = [
    "GridSpec",
    "QSignal2D",
    "QSpectrum2D",
    "sample",
    "l1_norm",
    "linf_diff",
    "image_to_qsig",
    "qsig_to_image",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform 2D sampling geometry (midpoint convention)."""

    s_min: float
    t_min: float
    ds: float
    dt: float
    ns: int
    nt: int

    def __post_init__(self):
        _require_real((self.s_min, self.t_min, self.ds, self.dt), "s_min, t_min, ds, dt")
        if not (self.ds > 0 and self.dt > 0):
            raise InvalidParameterError("grid spacings must be positive")
        _require_counts((self.ns, self.nt), "ns, nt")  # 1x1 grids round-trip single pixels

    @classmethod
    def centered(cls, extent, n, extent_t=None, nt=None):
        """Square/rectangular grid over [-extent, extent]^2 with n^2 cells."""
        extent_t = extent if extent_t is None else extent_t
        nt = n if nt is None else nt
        _require_real((extent, extent_t), "extent, extent_t")
        _require_counts((n, nt), "n, nt")  # before they divide
        return cls(-extent, -extent_t, 2.0 * extent / n, 2.0 * extent_t / nt, n, nt)

    @property
    def s(self):
        return self.s_min + (np.arange(self.ns) + 0.5) * self.ds

    @property
    def t(self):
        return self.t_min + (np.arange(self.nt) + 0.5) * self.dt

    def mesh(self):
        """Broadcastable (ns,1) and (1,nt) coordinate arrays."""
        return self.s[:, None], self.t[None, :]

    @property
    def cell_area(self):
        return self.ds * self.dt


def _check_data(grid, data):
    data = np.ascontiguousarray(_require_real(data, "data", shape=None))
    if data.shape != (grid.ns, grid.nt, 4):
        raise ShapeMismatchError(
            f"data shape {data.shape} does not match grid ({grid.ns}, {grid.nt}, 4)")
    return data


@dataclass(frozen=True)
class QSignal2D:
    """Quaternion-valued samples of a function on a rectangle."""

    grid: GridSpec
    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _check_data(self.grid, self.data))


@dataclass(frozen=True)
class QSpectrum2D:
    """Transform output on a frequency/canonical-domain grid.

    ``kind`` records which transform produced it (a QftKind or LctKind),
    ``window`` the truncation used; both travel with the data so inverses
    can refuse mismatched requests.
    """

    grid: GridSpec
    data: np.ndarray
    kind: object
    window: object = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "data", _check_data(self.grid, self.data))

    def as_signal(self):
        """Reinterpret the samples as a plain signal (drops provenance)."""
        return QSignal2D(self.grid, self.data)

    def scaled(self, factor):
        """Pointwise real scaling (scalar or (ns, nt) field); provenance kept.
        Any other shape raises ShapeMismatchError."""
        factor = _require_real(factor, "factor", shape=None)
        if factor.shape not in ((), self.data.shape[:2]):
            raise ShapeMismatchError(f"factor of shape {factor.shape} is neither a scalar "
                                     f"nor the spectrum's {self.data.shape[:2]}")
        data = self.data * (factor[..., None] if factor.ndim == 2 else factor)
        return QSpectrum2D(self.grid, data, self.kind, self.window)


def sample(fn, grid: GridSpec) -> QSignal2D:
    """Sample a pointwise quaternion function at the grid midpoints: one
    (ns, nt, 4) field, filled by :func:`evaluate` a block of s-rows at a
    time, so ``fn`` is called once per block on slices of ``grid.mesh()``.
    Raises NonFiniteError if any sampled value is NaN or infinite."""
    (S, T), data = grid.mesh(), np.empty((grid.ns, grid.nt, 4))
    for rows in row_blocks(grid.ns, grid.nt * 32):
        evaluate(fn, S[rows], T, data[rows])
    return QSignal2D(grid, data)


def fixture_values(fn, S, T):
    """``fn(S, T)`` broadcast to the shape of the coordinate arrays S and T,
    which ``fn`` must treat pointwise: the one rule for reading a fixture.  A
    result of ndim <= 2 stays real; one of ndim 3 is a quaternion, (..., 4);
    any other raises ShapeMismatchError."""
    vals = np.asarray(fn(S, T), dtype=float)
    shape = np.broadcast(S, T).shape
    try:
        return np.broadcast_to(vals, shape + (4,) * (vals.ndim > 2))
    except ValueError:
        raise ShapeMismatchError(f"fixture value of shape {vals.shape} fits no block "
                                 f"{shape} or {shape + (4,)}") from None


def evaluate(fn, S, T, out=None):
    """:func:`fixture_values` on coordinates that broadcast to (n0, n1),
    written into ``out`` (by default a new (n0, n1, 4) array): a real result
    into the scalar part, a quaternion into all four."""
    vals = fixture_values(fn, S, T)
    out = np.empty(vals.shape[:2] + (4,)) if out is None else out
    if vals.ndim == 2:
        out[..., 0], out[..., 1:] = vals, 0.0
    else:
        out[...] = vals
    return out


def l1_norm(sig: QSignal2D) -> float:
    """Midpoint-rule L1 norm: sum of |q| times the cell area."""
    return float(np.sum(qabs(sig.data)) * sig.grid.cell_area)


def linf_diff(sig_a: QSignal2D, sig_b: QSignal2D) -> float:
    """Max pointwise quaternion modulus of the difference."""
    if sig_a.grid != sig_b.grid:
        raise ShapeMismatchError("signals live on different grids")
    return float(np.max(qabs(sig_a.data - sig_b.data)))


BLOCK_BYTES = 1 << 19  # the rows of one block: sampling, the residual, the PPM and container codecs


def row_blocks(n, row_bytes):
    """Slices of ``n`` rows of ``row_bytes`` each, at most BLOCK_BYTES (or one row) a slice."""
    step = max(1, BLOCK_BYTES // row_bytes)
    return [slice(r0, min(r0 + step, n)) for r0 in range(0, n, step)]


def residual_moduli(data, reference):
    """The (ns, nt) moduli |data - reference(rows)| of a C-order (ns, nt, 4)
    field, a slice ``rows`` of s-rows at a time, written into the front of
    ``data`` (consumed: a block's moduli end before its unread rows)."""
    ns, nt = data.shape[:2]
    mod = data.reshape(-1)[:ns * nt].reshape(ns, nt)
    for rows in row_blocks(ns, nt * 32):
        mod[rows] = qabs(data[rows] - reference(rows))
    return mod


# -- PPM color images --------------------------------------------------------
# Pixels map to pure quaternions: (R, G, B) -> (0, R/255, G/255, B/255),
# image column -> s axis, image row -> t axis (row 0 at t index 0).

def _ppm_tokens(buf, count):
    """Yield `count` whitespace-separated header tokens, honoring # comments.

    Returns (tokens, offset_of_first_raster_byte).
    """
    tokens = []
    i = 0
    n = len(buf)
    while len(tokens) < count:
        while i < n and buf[i:i + 1].isspace():
            i += 1
        if i < n and buf[i:i + 1] == b"#":
            while i < n and buf[i] != 0x0A:
                i += 1
            continue
        start = i
        while i < n and not buf[i:i + 1].isspace():
            i += 1
        if start == i:
            raise BadPpmError("truncated PPM header")
        tokens.append(buf[start:i])
    # exactly one whitespace byte separates the header from the raster
    if i >= n or not buf[i:i + 1].isspace():
        raise BadPpmError("missing separator before raster")
    return tokens, i + 1


def image_to_qsig(ppm_bytes: bytes) -> QSignal2D:
    """Decode a binary PPM (P6, 8-bit) into a pure-quaternion signal."""
    if ppm_bytes[:2] != b"P6":
        raise BadPpmError(f"not a binary PPM (magic {ppm_bytes[:2]!r})")
    tokens, offset = _ppm_tokens(ppm_bytes[2:], 3)
    try:
        width, height, maxval = (int(tok) for tok in tokens)
    except ValueError as exc:
        raise BadPpmError(f"bad PPM header field: {exc}") from None
    if width <= 0 or height <= 0:
        raise BadPpmError(f"bad PPM dimensions {width}x{height}")
    if maxval != 255:
        raise BadPpmError(f"only maxval 255 is supported, got {maxval}")
    if len(ppm_bytes) - 2 - offset < 3 * width * height:
        raise BadPpmError("truncated PPM raster")
    pix = np.frombuffer(ppm_bytes, dtype=np.uint8, count=3 * width * height, offset=2 + offset)
    data = np.zeros((width, height, 4))
    np.divide(pix.reshape(height, width, 3).transpose(1, 0, 2), 255.0, out=data[..., 1:])
    return QSignal2D(GridSpec(0.0, 0.0, 1.0, 1.0, width, height), data)


def qsig_to_image(sig: QSignal2D):
    """Encode a signal as binary PPM bytes.

    The i, j, k parts become R, G, B after clamping to [0, 1] and scaling
    by 255.  The scalar part cannot be represented; its range is returned
    in a stats dict alongside the bytes.

    Returns
    -------
    (bytes, dict)
        PPM bytes and ``{"scalar_min", "scalar_max", "scalar_max_abs"}``.
    """
    ns, nt = sig.grid.ns, sig.grid.nt
    raster = np.empty((nt, ns, 3), dtype=np.uint8)
    for rows in row_blocks(nt, ns * 24):
        rgb = np.clip(sig.data[:, rows, 1:].transpose(1, 0, 2), 0.0, 1.0)
        raster[rows] = np.rint(np.multiply(rgb, 255.0, out=rgb), out=rgb)
    lo, hi = float(sig.data[..., 0].min()), float(sig.data[..., 0].max())
    stats = {"scalar_min": lo, "scalar_max": hi, "scalar_max_abs": max(abs(lo), abs(hi))}
    return b"".join((f"P6\n{ns} {nt}\n255\n".encode("ascii"), raster)), stats
