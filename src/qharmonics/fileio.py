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
5 right QLCT, 6 left QLCT.  Flags: bit0 fractional phase corrected, valid
on rotation matrices only (on others the file fails to decode).
Bits 1 and 2 are written as 0 and ignored on read: older writers set
them for a b < 0 matrix they had flipped to -A, and the stored matrix
is the one the data was computed with.  ``encode_*`` and
``decode_*`` convert between objects and bytes; ``save_*`` and ``load_*``
write and read files, streaming the payload in blocks of t-rows: a save
holds one block beyond its field, a load the field it returns plus one.
Saves are atomic (a temp file renamed over the target): a failed save
leaves no partial file.  All loads round-trip saves bit-exactly.  Decoding
raises QsigFormatError for any malformed container: a bad magic or version
byte, a field or payload cut short, trailing bytes, or a value the
constructors reject (a non-unit axis, an invalid window or matrix).
"""

from __future__ import annotations

import io
import os

import numpy as np

from .errors import QHarmonicsError, QsigFormatError
from .grids import GridSpec, QSignal2D, QSpectrum2D, row_blocks
from .qft import FreqWindow, QftKind, Side
from .qlct import LctKind, LctParams
from .quaternion import AxisPair

__all__ = ["save_qsig", "load_qsig", "save_qspectrum", "load_qspectrum"]

_SIDES = (Side.TWO_SIDED, Side.RIGHT_SIDED, Side.LEFT_SIDED)
_U4 = np.dtype("<u4")
_F8 = np.dtype("<f8")


def _grid_header(magic, grid: GridSpec) -> bytes:
    return (magic + np.array([grid.ns, grid.nt], dtype=_U4).tobytes()
            + np.array([grid.s_min, grid.t_min, grid.ds, grid.dt], dtype=_F8).tobytes())


def _chunks(head, data):
    """The header, then the payload's t-major rows (t varies slowest) a block at a time."""
    yield head
    for rows in row_blocks(data.shape[1], data.shape[0] * 32):
        yield np.ascontiguousarray(data[:, rows].transpose(1, 0, 2), dtype=_F8)


def _write_atomic(chunks, path):
    """Write ``path`` whole or not at all: a temp file, removed on failure, then a rename."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(chunks)  # drops each chunk before it takes the next
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _decoded(read, fh):
    """``read(fh)``, reporting a constructor's rejection of a decoded value as a QsigFormatError."""
    try:
        return read(fh)
    except QsigFormatError:
        raise
    except QHarmonicsError as exc:
        raise QsigFormatError(f"malformed container: {exc}") from None


class _Reader:
    """A container on a binary stream: the file (a pipe is read whole), or BytesIO over a buffer."""

    def __init__(self, fh, family):
        fh = fh if fh.seekable() else io.BytesIO(fh.read())
        head = fh.read(4)
        if len(head) < 4 or head[:3] != family:
            raise QsigFormatError(f"bad magic {head!r}")
        if head[3:4] != b"1":
            raise QsigFormatError(f"unsupported version byte {head[3:4]!r}")
        self.fh, self.end = fh, fh.seek(0, os.SEEK_END)
        fh.seek(4)
        ns, nt = self.take(_U4, 2).tolist()
        self.grid = GridSpec(*self.take(_F8, 4).tolist(), ns, nt)

    def need(self, nbytes):
        pos = self.fh.tell()
        if pos + nbytes > self.end:
            raise QsigFormatError(f"need {nbytes} bytes at offset {pos}, have {self.end - pos}")

    def take(self, dtype, shape):
        out = np.empty(shape, dtype=dtype)
        self.need(out.nbytes)
        self.fh.readinto(out)
        return out

    def payload(self):
        """The (ns, nt, 4) field that ends the container, read a block of t-rows at a time."""
        ns, nt = self.grid.ns, self.grid.nt
        self.need(ns * nt * 32)  # before allocating: a corrupt ns must not ask for GiBs
        data = np.empty((ns, nt, 4))
        for rows in row_blocks(nt, ns * 32):
            data[:, rows] = self.take(_F8, (rows.stop - rows.start, ns, 4)).transpose(1, 0, 2)
        if self.fh.tell() != self.end:
            raise QsigFormatError(f"{self.end - self.fh.tell()} trailing bytes")
        return data


def _read_qsig(fh) -> QSignal2D:
    rd = _Reader(fh, b"QSG")
    return QSignal2D(rd.grid, rd.payload())


def encode_qsig(sig: QSignal2D) -> bytes:
    return b"".join(_chunks(_grid_header(b"QSG1", sig.grid), sig.data))


def decode_qsig(buf) -> QSignal2D:
    return _decoded(_read_qsig, io.BytesIO(buf))


def save_qsig(sig: QSignal2D, path):
    _write_atomic(_chunks(_grid_header(b"QSG1", sig.grid), sig.data), path)


def load_qsig(path) -> QSignal2D:
    with open(path, "rb") as fh:
        return _decoded(_read_qsig, fh)


def _kind_tag(kind) -> int:
    base = {"qft": 1, "qlct": 4}[kind.family]
    return base + _SIDES.index(kind.side)


def _qspectrum_head(spec: QSpectrum2D) -> bytes:
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
    return _grid_header(b"QSP1", spec.grid) + block


def _read_qspectrum(fh) -> QSpectrum2D:
    rd = _Reader(fh, b"QSP")
    tag, flags = rd.take(np.dtype("u1"), 2)
    if not 1 <= tag <= 6:
        raise QsigFormatError(f"unknown kind tag {tag}")
    side, axes = _SIDES[(tag - 1) % 3], AxisPair(*rd.take(_F8, (2, 3)))
    window = FreqWindow(*rd.take(_F8, 2).tolist(), *rd.take(_U4, 2).tolist())
    kind = QftKind(side, axes) if tag <= 3 else LctKind(
        side, *(LctParams(*m) for m in rd.take(_F8, (2, 4)).tolist()), axes,
        phase_corrected=bool(flags & 1))
    return QSpectrum2D(rd.grid, rd.payload(), kind, window)


def encode_qspectrum(spec: QSpectrum2D) -> bytes:
    return b"".join(_chunks(_qspectrum_head(spec), spec.data))


def decode_qspectrum(buf) -> QSpectrum2D:
    return _decoded(_read_qspectrum, io.BytesIO(buf))


def save_qspectrum(spec: QSpectrum2D, path):
    _write_atomic(_chunks(_qspectrum_head(spec), spec.data), path)


def load_qspectrum(path) -> QSpectrum2D:
    with open(path, "rb") as fh:
        return _decoded(_read_qspectrum, fh)
