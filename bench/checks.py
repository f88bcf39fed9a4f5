"""Output checks, run outside the timed region.

Every reference here is computed by this file from first principles
(kernel sums with quaternion multiplication matrices, closed forms) or taken from the
seeded inputs; none of it calls qharmonics.  A check returns
``(ok, margin, detail)`` where ``margin`` is the measured error divided
by its tolerance, so a passing check has ``margin <= 1``.

Tolerances come from the repository's acceptance tests: round trips to
1e-4 in the sup norm (test_02), the fast path to 1e-9 of the brute-force
sum (test_14), the jump sweep to 0.03 at its largest M (test_10) and
strictly decreasing Gauss-mean errors (test_11).
"""

from __future__ import annotations

import math

import numpy as np

import seeded

ROUNDTRIP_TOL = 1e-4
ORACLE_TOL = 1e-9
PLANCHEREL_TOL = 1e-9
JUMP_TOL = 0.03
JUMP_RATE = 2.0  # err(M) <= JUMP_RATE / M: the O(1/M) decay at a jump
LC_TOL = 1e-9
QGAUSS_COEFF = np.array([0.8, -0.3, 0.5, 0.1])

BAD = 1e9  # margin reported for a failed check with no measurable error


def _fail(detail):
    return False, BAD, detail


def exp_axis(mu, theta):
    """cos(theta) + mu sin(theta) for a pure unit mu, shape theta.shape + (4,)."""
    theta = np.asarray(theta, dtype=float)
    return np.concatenate([np.cos(theta)[..., None],
                           np.sin(theta)[..., None] * np.asarray(mu)], axis=-1)


def natural_freqs(n, extent):
    """Midpoint frequencies of the FFT window of a centered n-grid."""
    u_max = math.pi / (2.0 * extent / n)
    return -u_max + (np.arange(n) + 0.5) * (2.0 * u_max / n)


def left_matrix(a):
    """4x4 real matrices of q -> a q, for a quaternion array a (..., 4)."""
    a0, a1, a2, a3 = (a[..., n] for n in range(4))
    return np.stack([np.stack([a0, -a1, -a2, -a3], -1), np.stack([a1, a0, -a3, a2], -1),
                     np.stack([a2, a3, a0, -a1], -1), np.stack([a3, -a2, a1, a0], -1)], -2)


def right_matrix(a):
    """4x4 real matrices of q -> q a, for a quaternion array a (..., 4)."""
    a0, a1, a2, a3 = (a[..., n] for n in range(4))
    return np.stack([np.stack([a0, -a1, -a2, -a3], -1), np.stack([a1, a0, a3, -a2], -1),
                     np.stack([a2, -a3, a0, a1], -1), np.stack([a3, a2, -a1, a0], -1)], -2)


def _sandwich(data, side, K1, K2):
    """Quadrature sums at the nodes of kernel columns K1[s, p], K2[t, q].

    Each kernel factor acts as its 4x4 left or right multiplication
    matrix, summed over the grid axis it belongs to.  The cost is one
    pass over `data` per column of K2 (left-sided) or of K1 (others)."""
    out = np.zeros((K1.shape[1], K2.shape[1], 4))
    if side == "left":
        for q in range(K2.shape[1]):
            h = np.tensordot(data, left_matrix(K2[:, q]), axes=([1, 2], [0, 2]))
            for p in range(K1.shape[1]):
                out[p, q] = np.einsum("sij,sj->i", left_matrix(K1[:, p]), h)
        return out
    first = left_matrix if side == "two" else right_matrix
    for p in range(K1.shape[1]):
        g = np.tensordot(data, first(K1[:, p]), axes=([0, 2], [0, 2]))
        for q in range(K2.shape[1]):
            out[p, q] = np.einsum("tij,tj->i", right_matrix(K2[:, q]), g)
    return out


def _spot(got, ref, scale, detail):
    err = float(np.max(np.abs(got - ref))) / scale
    margin = err / ORACLE_TOL
    return margin <= 1.0, margin, f"{detail}: max error {err:.2e} of max |F|"


def _plancherel(out, du, dv, data, ds, want):
    ratio = float(np.sum(out * out) * du * dv / (np.sum(data * data) * ds * ds * want))
    margin = abs(ratio - 1.0) / PLANCHEREL_TOL
    return margin <= 1.0, margin, f"energy ratio {ratio!r}"


def _combine(*results):
    ok = all(r[0] for r in results)
    return ok, max(r[1] for r in results), "; ".join(r[2] for r in results)


def check_qft_fast(out, grid_u, grid_v, data, extent, side, nodes):
    """qft_fast on the natural window against the brute-force sum at
    `nodes` and against Plancherel over the whole spectrum."""
    n = data.shape[0]
    if out.shape != data.shape or not np.all(np.isfinite(out)):
        return _fail(f"spectrum shape {out.shape} or non-finite values")
    u = natural_freqs(n, extent)
    if np.max(np.abs(grid_u - u)) > 1e-9 or np.max(np.abs(grid_v - u)) > 1e-9:
        return _fail("spectrum grid is not the natural window")
    s = seeded.centered_coords(extent, n)
    ds = 2.0 * extent / n
    iu, iv = nodes
    K1 = exp_axis([1.0, 0.0, 0.0], -np.outer(s, u[iu]))
    K2 = exp_axis([0.0, 1.0, 0.0], -np.outer(s, u[iv]))
    ref = _sandwich(data, side, K1, K2) * ds * ds
    scale = float(np.max(np.abs(out)))
    return _combine(_spot(out[np.ix_(iu, iv)], ref, scale, f"{side} QFT at {len(iu) * len(iv)} nodes"),
                    _plancherel(out, u[1] - u[0], u[1] - u[0], data, ds, 4.0 * math.pi ** 2))


def lct_kernel(mat, mu, x, xi):
    a, b, _, d = mat
    theta = (a * x * x - 2.0 * x * xi + d * xi * xi) / (2.0 * b) - math.copysign(math.pi / 4, b)
    return exp_axis(mu, theta) / math.sqrt(2.0 * math.pi * abs(b))


def check_qlct_fast(out, grid_u, grid_v, data, extent, mats, nodes):
    """Two-sided QLCT through the fast route, against the kernel sum."""
    n = data.shape[0]
    if out.shape != data.shape or not np.all(np.isfinite(out)):
        return _fail(f"spectrum shape {out.shape} or non-finite values")
    base = natural_freqs(n, extent)
    u, v = mats[0][1] * base, mats[1][1] * base
    if np.max(np.abs(grid_u - u)) > 1e-9 or np.max(np.abs(grid_v - v)) > 1e-9:
        return _fail("spectrum grid is not the scaled natural window")
    s = seeded.centered_coords(extent, n)
    ds = 2.0 * extent / n
    iu, iv = nodes
    K1 = lct_kernel(mats[0], [1.0, 0.0, 0.0], s[:, None], u[None, iu])
    K2 = lct_kernel(mats[1], [0.0, 1.0, 0.0], s[:, None], v[None, iv])
    ref = _sandwich(data, "two", K1, K2) * ds * ds
    scale = float(np.max(np.abs(out)))
    return _combine(_spot(out[np.ix_(iu, iv)], ref, scale, f"two-sided QLCT at {len(iu) * len(iv)} nodes"),
                    _plancherel(out, u[1] - u[0], v[1] - v[0], data, ds, 1.0))


# -- CLI outputs ---------------------------------------------------------------

def _rows(stdout, header):
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}, got {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _floats(fields):
    vals = [float(x) for x in fields]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"non-finite value in {fields!r}")
    return vals


def guarded(check):
    """Turn a malformed output (parse or decode error) into a failed check."""
    def run(*args):
        try:
            return check(*args)
        except (ValueError, IndexError, KeyError, OSError) as exc:
            return _fail(f"malformed output: {exc}")
    return run


@guarded
def roundtrip(stdout, fixture, side, transform):
    rows = _rows(stdout, "fixture,side,transform,l1_error,linf_error")
    if len(rows) != 1 or rows[0][:3] != [fixture, side, transform]:
        return _fail(f"unexpected rows {rows!r}")
    linf = _floats(rows[0][3:])[1]
    margin = linf / ROUNDTRIP_TOL
    return margin <= 1.0, margin, f"linf {linf:.3e}"


@guarded
def gauss_mean(stdout, schedule):
    rows = _rows(stdout, "alpha,l1_error")
    vals = [_floats(r) for r in rows]
    if [v[0] for v in vals] != [float(a) for a in schedule]:
        return _fail(f"alphas {[v[0] for v in vals]} != schedule {schedule}")
    errs = [v[1] for v in vals]
    margin = max(b / a for a, b in zip(errs, errs[1:]))
    return margin < 1.0, margin, f"L1 errors {errs}"


@guarded
def jump(stdout, sweep, where, target):
    rows = [_floats(r) for r in _rows(stdout, "M,N,I_re,I_i,I_j,I_k,abs_err")]
    if [r[0] for r in rows] != [float(m) for m in sweep]:
        return _fail(f"sweep {[r[0] for r in rows]} != {sweep}")
    errs = [math.sqrt((r[2] - target) ** 2 + r[3] ** 2 + r[4] ** 2 + r[5] ** 2) for r in rows]
    margin = max(errs[-1] / JUMP_TOL, max(e * m for e, m in zip(errs, sweep)) / JUMP_RATE)
    ok = margin <= 1.0
    if where == "corner":  # test_10's strictly decreasing sweep
        ok = ok and all(b < a for a, b in zip(errs, errs[1:]))
    return ok, margin, f"{where} errors to {target}: {[f'{e:.2e}' for e in errs]}"


def lc_reference(point, eps1, eps2, radius, n_inner=96, n_outer=192):
    """The two strip integrals for the unit Gaussian, by the midpoint rule."""
    x0, y0 = point

    def quad(S, T):
        f = lambda s, t: np.exp(-(s * s + t * t))  # noqa: E731
        return f(x0 - S, y0 - T) + f(x0 + S, y0 + T) + f(x0 - S, y0 + T) + f(x0 + S, y0 - T)

    def strip(e_in, e_out, swap):
        inner = (np.arange(n_inner) + 0.5) * (e_in / n_inner)
        outer = e_out + (np.arange(n_outer) + 0.5) * ((radius - e_out) / n_outer)
        S, T = (outer[None, :], inner[:, None]) if swap else (inner[:, None], outer[None, :])
        G = quad(S, T)
        integrand = np.abs(G - G[0][None, :]) / inner[:, None]
        return float(np.sum(integrand) * (e_in / n_inner) * ((radius - e_out) / n_outer))

    return strip(eps1, eps2, False), strip(eps2, eps1, True)


@guarded
def lc_diag(stdout, point, eps1, eps2, radius):
    rows = _rows(stdout, "val_s,val_t")
    got = _floats(rows[0])
    want = lc_reference(point, eps1, eps2, radius)
    rel = max(abs(g - w) / abs(w) for g, w in zip(got, want))
    margin = rel / LC_TOL
    return margin <= 1.0, margin, f"strip integrals {got}, reference {want}"


@guarded
def variation_indicator(stdout):
    """Indicator of [-1, 1]^2: Vitali variation 4, line variations 2."""
    rows = _rows(stdout, "vitali,line_var_s,line_var_t,is_hardy_bvf,nets_tested")
    vit, lvs, lvt = _floats(rows[0][:3])
    dev = max(abs(vit - 4.0), abs(lvs - 2.0), abs(lvt - 2.0))
    ok = dev <= 1e-12 and rows[0][3] == "true" and int(rows[0][4]) > 0
    return ok, dev / 1e-12, f"report {rows[0]}"


def _fixture_values(name, extent, n):
    s = seeded.centered_coords(extent, n)
    S, T = s[:, None], s[None, :]
    r2 = S * S + T * T
    if name == "gaussian":
        return np.exp(-r2)[..., None] * np.array([1.0, 0, 0, 0])
    if name == "heatgauss":
        return (np.exp(-0.5 * r2) / (4.0 * math.pi ** 2))[..., None] * np.array([1.0, 0, 0, 0])
    if name == "indicator":
        box = (np.abs(S) <= 1.0) & (np.abs(T) <= 1.0)
        return box.astype(float)[..., None] * np.array([1.0, 0, 0, 0])
    return np.exp(-r2)[..., None] * QGAUSS_COEFF


@guarded
def fixture_files(out_dir, extent, n):
    worst = 0.0
    for name in ("gaussian", "heatgauss", "indicator", "qgaussian"):
        magic, head, data = seeded.read_container(f"{out_dir}/{name}.qsig")
        if magic != b"QSG1" or head[:2] != (n, n):
            return _fail(f"{name}.qsig: header {magic!r} {head}")
        worst = max(worst, float(np.max(np.abs(data - _fixture_values(name, extent, n)))))
    margin = worst / 1e-12
    return margin <= 1.0, margin, f"max deviation {worst:.2e} from the closed forms"


@guarded
def spectrum_file(path, n):
    magic, head, data = seeded.read_container(path)
    ok = magic == b"QSP1" and head[:2] == (n, n) and bool(np.all(np.isfinite(data)))
    return ok, 0.0 if ok else BAD, f"{magic!r} {head[:2]}"


@guarded
def signal_matches(path, want):
    magic, head, data = seeded.read_container(path)
    if magic != b"QSG1" or data.shape != want.shape:
        return _fail(f"{magic!r} shape {data.shape}")
    linf = float(np.max(np.abs(data - want)))
    margin = linf / ROUNDTRIP_TOL
    return margin <= 1.0, margin, f"round trip linf {linf:.3e}"


@guarded
def image_signal(path, ppm_bytes, width, height):
    magic, head, data = seeded.read_container(path)
    raster = np.frombuffer(ppm_bytes[-3 * width * height:], dtype=np.uint8)
    want = raster.reshape(height, width, 3).transpose(1, 0, 2) / 255.0
    ok = (magic == b"QSG1" and data.shape == (width, height, 4)
          and not np.any(data[..., 0]) and np.array_equal(data[..., 1:], want))
    return ok, 0.0 if ok else BAD, "pixels decoded exactly" if ok else "pixel mismatch"


@guarded
def image_bytes(path, stdout, ppm_bytes):
    with open(path, "rb") as fh:
        got = fh.read()
    stats = _floats(_rows(stdout, "scalar_min,scalar_max,scalar_max_abs")[0])
    ok = got == ppm_bytes and stats == [0.0, 0.0, 0.0]
    return ok, 0.0 if ok else BAD, "PPM reproduced byte for byte" if ok else "PPM differs"
