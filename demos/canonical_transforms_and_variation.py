"""Canonical-transform round trips and the bounded-variation toolkit.

Part 1 pushes a quaternion-valued Gaussian through shear-matrix and
fractional transforms and back, a phase-corrected one through its inverse.  Part 2 decomposes a rough field into
two quasi-monotone parts and reports the Hardy-sense variation of a
smooth one.
"""

import numpy as np

from qharmonics import (
    FreqWindow,
    GridSpec,
    LctKind,
    LctParams,
    Net,
    QSignal2D,
    Side,
    hardy_bvf_check,
    jordan_split,
    linf_diff,
    qfrft,
    qlct_forward,
    qlct_inverse,
    quasi_monotone_check,
    sample,
)
from qharmonics.fixtures import qgaussian

grid = GridSpec.centered(10.0, 128)
window = FreqWindow.square(8.0, 128)
sig = sample(qgaussian, grid)
shear = LctParams(1.0, 1.0, 0.0, 1.0)

print("canonical-transform round trips (sup error):")
for side in Side:
    kind = LctKind(side, shear, shear)
    back = qlct_inverse(qlct_forward(sig, kind, window), grid)
    print(f"  shear matrix, {side.value:>5}-sided: {linf_diff(sig, back):.2e}")

spec = qfrft(sig, 0.8, 1.3, Side.TWO_SIDED, window)
back = qfrft(QSignal2D(spec.grid, spec.data), -0.8, -1.3, Side.TWO_SIDED,
             FreqWindow(10.0, 10.0, 128, 128))
err = np.max(np.abs(back.data - sig.data))
print(f"  fractional (0.8, 1.3) then (-0.8, -1.3): {err:.2e}")

# the phase-corrected kernels carry e^{mu theta/2}, and the inverse the negated phase
spec = qfrft(sig, 0.8, 1.3, Side.LEFT_SIDED, phase_corrected=True)
back = qlct_inverse(spec, grid)
print(f"  phase-corrected left-sided fractional, inverted: {linf_diff(sig, back):.2e}")

print("\nbounded-variation toolkit:")
rng = np.random.default_rng(8)
rough = np.cumsum(rng.normal(size=(12, 12)), axis=0)
f1, f2 = jordan_split(rough)
print(f"  rough 12x12 field split: recomposition error "
      f"{np.max(np.abs(f1 - f2 - rough)):.1e}, "
      f"parts quasi-monotone: {quasi_monotone_check(f1)}, "
      f"{quasi_monotone_check(f2)}")

net = Net.uniform(-3, 3, 96, -3, 3, 96)
report = hardy_bvf_check(lambda S, T: np.exp(-(S ** 2 + T ** 2)), net)
print(f"  Gaussian on a 96x96 net: vitali {report.vitali:.4f}, "
      f"line variations ({report.line_var_s:.4f}, {report.line_var_t:.4f}), "
      f"bounded-variation: {report.is_hardy_bvf} "
      f"({report.nets_tested} nets tested)")
