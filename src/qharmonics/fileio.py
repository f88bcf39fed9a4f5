"""Versioned little-endian containers for signals and spectra.

Signal files (magic ``QSG1``)::

    "QSG1" | u32 ns | u32 nt | f64 s_min | f64 t_min | f64 ds | f64 dt
          | payload ns*nt*4 f64 (w, x, y, z per sample, row-major,
            t-major rows: the t index varies slowest)

Spectrum files (magic ``QSP1``) insert a provenance block between the
grid header and the payload::

    u8 kind tag | u8 flags | 6 f64 axes (mu1 xyz, mu2 xyz)
    | f64 u_max | f64 v_max | u32 nu | u32 nv
    | [QLCT tags only] 8 f64 (a1 b1 c1 d1 a2 b2 c2 d2)

Kind tags: 1 two-sided QFT, 2 right QFT, 3 left QFT, 4 two-sided QLCT,
5 right QLCT, 6 left QLCT.  Flags: bit0 fractional phase corrected.
Bits 1 and 2 are written as 0 and ignored on read: older writers set
them for a b < 0 matrix they had flipped to -A, and the stored matrix
is the one the data was computed with.  ``encode_*`` and
``decode_*`` convert between objects and bytes; ``save_*`` and ``load_*``
write and read files.  All loads round-trip saves bit-exactly.  Decoding
raises QsigFormatError for any malformed field, including values the
constructors reject (a non-unit axis, an invalid window or matrix).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import (
    BadMagicError,
    BadVersionError,
    QHarmonicsError,
    QsigFormatError,
    TruncatedPayloadError,
)
from .grids import GridSpec, QSignal2D, QSpectrum2D
from .qft import FreqWindow, QftKind, Side
from .qlct import LctKind, LctParams
from .quaternion import AxisPair

__all__ = ["encode_qsig", "decode_qsig", "save_qsig", "load_qsig",
           "encode_qspectrum", "decode_qspectrum", "save_qspectrum", "load_qspectrum"]

_SIDES = (Side.TWO_SIDED, Side.RIGHT_SIDED, Side.LEFT_SIDED)
_U4 = np.dtype("<u4")
_F8 = np.dtype("<f8")


def _grid_header(grid: GridSpec) -> bytes:
    return (np.array([grid.ns, grid.nt], dtype=_U4).tobytes()
            + np.array([grid.s_min, grid.t_min, grid.ds, grid.dt], dtype=_F8).tobytes())


def _payload(data) -> bytes:
    # t-major rows: serialize with the t index varying slowest
    return np.ascontiguousarray(data.transpose(1, 0, 2), dtype=_F8).tobytes()


class _Reader:
    def __init__(self, buf, family):
        if len(buf) < 4 or buf[:3] != family:
            raise BadMagicError(f"bad magic {bytes(buf[:4])!r}")
        if buf[3:4] != b"1":
            raise BadVersionError(f"unsupported version byte {bytes(buf[3:4])!r}")
        self.buf = buf
        self.pos = 4

    def take(self, dtype, count):
        nbytes = dtype.itemsize * count
        if self.pos + nbytes > len(self.buf):
            raise TruncatedPayloadError(
                f"need {nbytes} bytes at offset {self.pos}, have {len(self.buf) - self.pos}")
        out = np.frombuffer(self.buf, dtype=dtype, count=count, offset=self.pos)
        if dtype.kind == "f" and not np.isfinite(out).all():
            raise QsigFormatError(f"non-finite value in the {count} reals at offset {self.pos}")
        self.pos += nbytes
        return out

    def done(self):
        if self.pos != len(self.buf):
            raise QsigFormatError(f"{len(self.buf) - self.pos} trailing bytes")


def _read_grid(rd: _Reader) -> GridSpec:
    ns, nt = (int(x) for x in rd.take(_U4, 2))
    s_min, t_min, ds, dt = (float(x) for x in rd.take(_F8, 4))
    try:
        return GridSpec(s_min, t_min, ds, dt, ns, nt)
    except QHarmonicsError as exc:
        raise QsigFormatError(f"invalid grid header: {exc}") from None


def _read_payload(rd: _Reader, grid: GridSpec):
    flat = rd.take(_F8, grid.ns * grid.nt * 4)
    return np.ascontiguousarray(flat.reshape(grid.nt, grid.ns, 4).transpose(1, 0, 2), dtype=float)


def encode_qsig(sig: QSignal2D) -> bytes:
    return b"QSG1" + _grid_header(sig.grid) + _payload(sig.data)


def decode_qsig(buf) -> QSignal2D:
    rd = _Reader(buf, b"QSG")
    grid = _read_grid(rd)
    data = _read_payload(rd, grid)
    rd.done()
    return QSignal2D(grid, data)


def save_qsig(sig: QSignal2D, path):
    Path(path).write_bytes(encode_qsig(sig))


def load_qsig(path) -> QSignal2D:
    return decode_qsig(Path(path).read_bytes())


def _kind_tag(kind) -> int:
    base = {"qft": 1, "qlct": 4}[kind.family]
    return base + _SIDES.index(kind.side)


def encode_qspectrum(spec: QSpectrum2D) -> bytes:
    kind = spec.kind
    if spec.window is None:
        raise QsigFormatError("spectrum has no window metadata to serialize")
    flags = int(getattr(kind, "phase_corrected", False))
    block = bytes([_kind_tag(kind), flags])
    block += np.array(np.concatenate([kind.axes.mu1, kind.axes.mu2]), dtype=_F8).tobytes()
    block += np.array([spec.window.u_max, spec.window.v_max], dtype=_F8).tobytes()
    block += np.array([spec.window.nu, spec.window.nv], dtype=_U4).tobytes()
    if kind.family == "qlct":
        block += np.array(kind.A1.astuple() + kind.A2.astuple(), dtype=_F8).tobytes()
    return b"QSP1" + _grid_header(spec.grid) + block + _payload(spec.data)


def decode_qspectrum(buf) -> QSpectrum2D:
    rd = _Reader(buf, b"QSP")
    grid = _read_grid(rd)
    tag, flags = rd.take(np.dtype("u1"), 2)
    if not 1 <= tag <= 6:
        raise QsigFormatError(f"unknown kind tag {tag}")
    axes_vals = rd.take(_F8, 6)
    u_max, v_max = (float(x) for x in rd.take(_F8, 2))
    nu, nv = (int(x) for x in rd.take(_U4, 2))
    mats = [float(x) for x in rd.take(_F8, 8)] if tag > 3 else None
    data = _read_payload(rd, grid)
    rd.done()
    side = _SIDES[(tag - 1) % 3]
    try:
        axes = AxisPair(axes_vals[:3].copy(), axes_vals[3:].copy())
        window = FreqWindow(u_max, v_max, nu, nv)
        if mats is None:
            kind = QftKind(side, axes)
        else:
            kind = LctKind(side, LctParams(*mats[:4]), LctParams(*mats[4:]), axes,
                           phase_corrected=bool(flags & 1))
    except QHarmonicsError as exc:
        raise QsigFormatError(f"invalid spectrum metadata: {exc}") from None
    return QSpectrum2D(grid, data, kind, window)


def save_qspectrum(spec: QSpectrum2D, path):
    Path(path).write_bytes(encode_qspectrum(spec))


def load_qspectrum(path) -> QSpectrum2D:
    return decode_qspectrum(Path(path).read_bytes())
