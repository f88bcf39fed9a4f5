"""Seeded inputs for the benchmark, and a reader/writer for the files.

Everything here depends on numpy alone, never on qharmonics, so the
inputs and the reference decoding stay the same whatever the program
under test does.  Each draw takes its own stream of the workload seed,
so adding a draw to one workload leaves the others' inputs unchanged.

The QSIG/QSP layouts follow the format notes in ``qharmonics.fileio``:
little-endian, a grid header, then the (w, x, y, z) payload with the t
index varying slowest.
"""

from __future__ import annotations

import struct

import numpy as np

QSIG_HEADER = struct.Struct("<4sII4d")


def rng(seed: int, stream: str) -> np.random.Generator:
    """Independent generator for one named draw of one seed."""
    return np.random.default_rng([seed, int.from_bytes(stream.encode(), "little") % (2 ** 63)])


def fmt(x: float) -> str:
    """Shortest text that parses back to exactly `x`."""
    return repr(float(x))


def fmt3(v) -> str:
    return ",".join(fmt(x) for x in v)


def axis_pair(g: np.random.Generator):
    """(mu1, mu2): the images of i and j under a random rotation."""
    q, r = np.linalg.qr(g.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    return q[:, 0].copy(), q[:, 1].copy()


def lct_matrix(g: np.random.Generator):
    """(a, b, c, d) with ad - bc = 1 and b in [0.5, 1]."""
    a, d = g.uniform(-1.0, 1.0, size=2)
    b = g.uniform(0.5, 1.0)
    return float(a), float(b), float((a * d - 1.0) / b), float(d)


def lct_flags(mats) -> list:
    out = []
    for axis, mat in zip("12", mats):
        for name, val in zip("abcd", mat):
            out.append(f"--{name}{axis}={fmt(val)}")
    return out


def centered_coords(extent: float, n: int):
    """Midpoints of n cells over [-extent, extent] (GridSpec.centered)."""
    ds = 2.0 * extent / n
    return -extent + (np.arange(n) + 0.5) * ds


def bumps(g: np.random.Generator, count=4):
    """Parameters of a smooth quaternion field: Gaussian bumps."""
    return [(g.normal(size=4), g.uniform(-1.0, 1.0, size=2), g.uniform(0.8, 1.1))
            for _ in range(count)]


def field(params, extent: float, n: int):
    """Sample the bump field on the centered n x n grid, shape (n, n, 4)."""
    s = centered_coords(extent, n)
    out = np.zeros((n, n, 4))
    for coeff, (cx, cy), width in params:
        gs = np.exp(-(s - cx) ** 2 / (2 * width * width))
        gt = np.exp(-(s - cy) ** 2 / (2 * width * width))
        out += np.outer(gs, gt)[..., None] * coeff
    return out


def ppm(g: np.random.Generator, width: int, height: int) -> bytes:
    raster = g.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    return f"P6\n{width} {height}\n255\n".encode("ascii") + raster.tobytes()


def jump_points(g: np.random.Generator):
    """One corner, one edge and one interior point of the square [-1, 1]^2,
    each with the value the partial sums converge to there."""
    sx, sy = g.choice([-1.0, 1.0], size=2)
    off = float(g.uniform(-0.6, 0.6))
    edge = (float(sx), off) if g.random() < 0.5 else (off, float(sy))
    inner = tuple(float(x) for x in g.uniform(-0.6, 0.6, size=2))
    return [("corner", (float(sx), float(sy)), 0.25),
            ("edge", edge, 0.5),
            ("interior", inner, 1.0)]


def qsig_bytes(data, extent: float) -> bytes:
    n = data.shape[0]
    ds = 2.0 * extent / n
    head = QSIG_HEADER.pack(b"QSG1", n, data.shape[1], -extent, -extent, ds, ds)
    return head + np.ascontiguousarray(data.transpose(1, 0, 2), dtype="<f8").tobytes()


def read_container(path):
    """Decode a QSIG or QSP file: (magic, (ns, nt, s_min, t_min, ds, dt), data).

    Raises ValueError for anything malformed."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < QSIG_HEADER.size:
        raise ValueError(f"{path}: {len(buf)} bytes is shorter than a header")
    magic, ns, nt, s_min, t_min, ds, dt = QSIG_HEADER.unpack_from(buf)
    pos = QSIG_HEADER.size
    if magic == b"QSP1":
        if len(buf) < pos + 2:
            raise ValueError(f"{path}: truncated spectrum block")
        tag = buf[pos]
        pos += 2 + 6 * 8 + 2 * 8 + 2 * 4 + (8 * 8 if tag >= 4 else 0)
    elif magic != b"QSG1":
        raise ValueError(f"{path}: bad magic {magic!r}")
    want = ns * nt * 4 * 8
    if len(buf) != pos + want:
        raise ValueError(f"{path}: payload is {len(buf) - pos} bytes, want {want}")
    data = np.frombuffer(buf, dtype="<f8", offset=pos).reshape(nt, ns, 4).transpose(1, 0, 2)
    return magic, (ns, nt, s_min, t_min, ds, dt), data
