"""Closed-form check: the two-sided transform of a Gaussian is a Gaussian.

Samples w(x, y) = (1/4pi^2) e^{-0.5 (x^2+y^2)}, transforms it on a narrow
window (the quadrature path) and on the default natural window (the
FFT-backed path), and compares each against the exact spectrum
(1/2pi) e^{-(u^2+v^2)/2}.
"""

import time

import numpy as np

from qharmonics import FreqWindow, GridSpec, QftKind, qft_forward, sample
from qharmonics.fixtures import scaled_gaussian
from qharmonics.quaternion import qabs

grid = GridSpec.centered(12.0, 256)
sig = sample(scaled_gaussian(alpha=0.5), grid)

t0 = time.perf_counter()
spec = qft_forward(sig, QftKind(), FreqWindow.square(3.0, 64))
t_quad = time.perf_counter() - t0

t0 = time.perf_counter()
fast = qft_forward(sig)
t_fast = time.perf_counter() - t0


def rel_err(spectrum, keep=3.0):
    ku = np.abs(spectrum.grid.s) <= keep
    kv = np.abs(spectrum.grid.t) <= keep
    U = spectrum.grid.s[ku][:, None]
    V = spectrum.grid.t[kv][None, :]
    exact = np.exp(-(U ** 2 + V ** 2) / 2.0) / (2.0 * np.pi)
    got = spectrum.data[np.ix_(ku, kv)]
    err = qabs(got - np.stack([exact] + [np.zeros_like(exact)] * 3, axis=-1))
    return np.max(err / exact)


print(f"quadrature path: rel err {rel_err(spec):.3e}  ({t_quad * 1e3:.1f} ms)")
print(f"fast path:       rel err {rel_err(fast):.3e}  ({t_fast * 1e3:.1f} ms)")
print("\nspectrum slice at v ~ 0 (u, computed, exact):")
j = np.argmin(np.abs(spec.grid.t))
for i in range(0, 64, 8):
    u = spec.grid.s[i]
    exact = np.exp(-(u ** 2 + spec.grid.t[j] ** 2) / 2.0) / (2.0 * np.pi)
    print(f"  {u:+7.3f}  {spec.data[i, j, 0]:.10f}  {exact:.10f}")
