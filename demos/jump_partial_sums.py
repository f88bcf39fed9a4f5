"""Partial-sum inversion at a jump: convergence to the quadrant average.

At a discontinuity the windowed inversion integral does not converge to
the function value but to the average of the four quadrant limits - 1/4
at a corner of the unit-square indicator, 1/2 at an edge midpoint, 1 at
an interior point.  The sweep below shows the corner value crawling
toward 1/4 as the window grows, Gibbs oscillation and all.

The same holds for the linear canonical transform: summing a two-sided
QLCT spectrum of the indicator over |u| <= M |b1|, |v| <= M |b2| at the
corner gives the de-chirped QFT partial sum of the chirped indicator at
M, and the chirps are continuous there.  One call gives the whole sweep,
a table of windows from one pass over the spectrum.
"""

import numpy as np

from qharmonics import (FreqWindow, GridSpec, LctKind, LctParams, Side,
                        dirichlet_partial_inverse_freq, dirichlet_partial_inverse_sinc,
                        eta_jump_average, qlct_forward, sample)
from qharmonics.fixtures import indicator, sinc_rect

POINTS = {"corner (1,1)": (1.0, 1.0),
          "edge (1,0)": (1.0, 0.0),
          "interior (0,0)": (0.0, 0.0)}

for label, point in POINTS.items():
    eta = eta_jump_average(indicator, point)
    print(f"{label}: quadrant limits {eta.quadrant_values[:, 0]}, "
          f"average eta = {eta.value[0]:.4f}")
    rect = sinc_rect("indicator", point)
    print("      M      I(M, M)      |I - eta|")
    for M in (25.0, 50.0, 100.0, 200.0):
        val = dirichlet_partial_inverse_sinc(indicator, point, M, M, rect)
        err = abs(val[0] - eta.value[0])
        print(f"  {M:5.0f}  {val[0]:+.6f}   {err:.6f}")
    print()

print("double-sinc normalization over one quadrant (should be 1/4):")
const = lambda S, T: np.ones(np.broadcast(S, T).shape)
R = 200.0 * np.pi
val = dirichlet_partial_inverse_sinc(const, (0.0, 0.0), 1.0, 1.0, (-R, 0.0, -R, 0.0))
print(f"  {val[0]:.6f}")

print()
print("frequency partial sums of a two-sided QLCT spectrum, b = (0.8, -0.6), corner (1,1):")
grid = GridSpec.centered(2.0, 512)  # the jumps at +-1 lie on cell edges
A1 = LctParams(0.5, 0.8, (0.5 * 1.2 - 1) / 0.8, 1.2)
A2 = LctParams(-0.4, -0.6, (-0.4 * 0.9 - 1) / -0.6, 0.9)
spec = qlct_forward(sample(indicator, grid), LctKind(Side.TWO_SIDED, A1, A2),
                    FreqWindow.natural(grid).scaled(abs(A1.b), abs(A2.b)))
print(f"  {'M':>5}  {'I(M, M)':<42}   |I - 1/4|")
sweep = np.array([25.0, 50.0, 100.0, 200.0])
table = dirichlet_partial_inverse_freq(spec, (1.0, 1.0), sweep * abs(A1.b), sweep * abs(A2.b))
for k, M in enumerate(sweep):
    val = table[k, k]
    err = np.sqrt(np.sum((val - [0.25, 0.0, 0.0, 0.0]) ** 2))
    print(f"  {M:5.0f}  {val[0]:+.6f} {val[1]:+.6f}i {val[2]:+.6f}j {val[3]:+.6f}k   {err:.6f}")
