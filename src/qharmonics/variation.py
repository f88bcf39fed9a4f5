"""2D bounded-variation machinery on rectangular nets.

A *net* is a pair of strictly increasing cut sequences along the two
axes; a real field is given by its values at the net nodes, as a 2D
array ``f[i, j] = f(s_i, t_j)``.  The three discrete differences are

    d10 f(i, j) = f(i+1, j) - f(i, j)
    d01 f(i, j) = f(i, j+1) - f(i, j)
    d11 f(i, j) = f(i+1, j+1) - f(i+1, j) - f(i, j+1) + f(i, j)

and the Vitali variation of a net is the sum of |d11| over its cells.
Quasi-monotone means all three differences are nonnegative everywhere;
on a grid the cellwise check is equivalent to the all-rectangles one
because larger rectangles telescope into cell sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InvalidParameterError,
    InvariantViolationError,
    _require_counts,
    _require_real,
)
from .grids import fixture_values

__all__ = [
    "Net",
    "VariationReport",
    "mixed_difference",
    "vitali_variation",
    "hardy_bvf_check",
    "quasi_monotone_check",
    "jordan_split",
]

#: absolute slack for the quasi-monotone sign checks; exact >= 0 is brittle
#: under floating-point accumulation
QM_TOL = 1e-12


@dataclass(frozen=True)
class Net:
    """Axis-parallel partition of a rectangle."""

    s_cuts: np.ndarray
    t_cuts: np.ndarray

    def __post_init__(self):
        s = _require_real(self.s_cuts, "s_cuts", shape=None)
        t = _require_real(self.t_cuts, "t_cuts", shape=None)
        if s.size < 2 or t.size < 2:
            raise InvalidParameterError("a net needs at least 2 cuts per axis")
        if not (np.all(np.diff(s) > 0) and np.all(np.diff(t) > 0)):
            raise InvalidParameterError("net cuts must be strictly increasing")
        object.__setattr__(self, "s_cuts", s)
        object.__setattr__(self, "t_cuts", t)

    @classmethod
    def uniform(cls, s_lo, s_hi, m, t_lo, t_hi, n):
        """Net with m (resp. n) equal cells per axis."""
        _require_real((s_lo, s_hi, t_lo, t_hi), "s_lo, s_hi, t_lo, t_hi")
        _require_counts((m, n), "m, n")
        return cls(np.linspace(s_lo, s_hi, m + 1), np.linspace(t_lo, t_hi, n + 1))

    def coarsened(self, step):
        """Indices (s, t) of the cuts of the sub-net keeping every `step`-th
        cut (endpoints always kept)."""
        return tuple(np.append(np.arange(0, n - 1, step), n - 1) for n in self.shape)

    @property
    def shape(self):
        return self.s_cuts.size, self.t_cuts.size


@dataclass(frozen=True)
class VariationReport:
    """Result of a Hardy-sense bounded-variation check."""

    vitali: float
    line_var_s: float
    line_var_t: float
    is_hardy_bvf: bool
    nets_tested: int


def _as_field(f, net=None):
    if callable(f):
        if net is None:
            raise InvalidParameterError("a net is required to evaluate a callable field")
        f = fixture_values(f, net.s_cuts[:, None], net.t_cuts[None, :])
    f = _require_real(f, "f", shape=None)
    if f.ndim != 2:
        raise InvalidParameterError(f"expected a 2D field, got shape {f.shape}")
    if net is not None and f.shape != net.shape:
        raise IndexOutOfRangeError(
            f"field shape {f.shape} does not match net shape {net.shape}")
    return f


def _in_range(index, n):
    return isinstance(index, (int, np.integer)) and 0 <= index < n


def mixed_difference(f, cell):
    """The triple (d11, d10, d01) at one cell (i, j)."""
    f = _as_field(f)
    i, j = cell
    if not (_in_range(i, f.shape[0] - 1) and _in_range(j, f.shape[1] - 1)):
        raise IndexOutOfRangeError(f"cell {cell} outside field of shape {f.shape}")
    d10 = f[i + 1, j] - f[i, j]
    d01 = f[i, j + 1] - f[i, j]
    d11 = f[i + 1, j + 1] - f[i + 1, j] - f[i, j + 1] + f[i, j]
    return d11, d10, d01


def _d11(f):
    return f[1:, 1:] - f[1:, :-1] - f[:-1, 1:] + f[:-1, :-1]


def vitali_variation(f, net: Net = None) -> float:
    """Sum of |d11| over all cells of the net."""
    f = _as_field(f, net)
    return float(np.sum(np.abs(_d11(f))))


def _line_variation(values):
    return float(np.sum(np.abs(np.diff(values))))


def hardy_bvf_check(f, net: Net, bound=1e6, t_index=None, s_index=None) -> VariationReport:
    """Vitali variation plus 1D variation along one section per axis.

    The supremum over all nets is approximated by the finest net
    available (the one given); a dyadic coarsening sweep is also run so
    ``nets_tested`` reports how many nets backed the estimate.  Only one
    1D section per axis is required, so the sections default to the
    middle cuts, deterministically, with ``t_index``/``s_index``
    overrides.
    """
    _require_real(bound, "bound")
    f = _as_field(f, net)
    ti = f.shape[1] // 2 if t_index is None else t_index
    si = f.shape[0] // 2 if s_index is None else s_index
    if not (_in_range(ti, f.shape[1]) and _in_range(si, f.shape[0])):
        raise IndexOutOfRangeError(f"section (s {si}, t {ti}) outside field of shape {f.shape}")
    vit, nets, step = vitali_variation(f), 1, 2
    while min(net.shape) // step >= 2:
        # refinement can only grow the sum (triangle inequality on d11)
        nets += 1
        if np.sum(np.abs(_d11(f[np.ix_(*net.coarsened(step))]))) > vit + 1e-12:
            raise InvariantViolationError("coarsening increased the Vitali sum")
        step *= 2
    line_s = _line_variation(f[:, ti])   # function of s at fixed t
    line_t = _line_variation(f[si, :])   # function of t at fixed s
    ok = vit <= bound and line_s <= bound and line_t <= bound  # an overflow to inf fails
    return VariationReport(vit, line_s, line_t, bool(ok), nets)


def quasi_monotone_check(f, net: Net = None) -> bool:
    """True iff d11, d10, d01 >= -1e-12 at every cell."""
    f = _as_field(f, net)
    diffs = (_d11(f), np.diff(f, axis=0), np.diff(f, axis=1))
    return bool(all(np.all(d >= -QM_TOL) for d in diffs))


def jordan_split(f, net: Net = None):
    """Write ``f = f1 - f2`` with both parts quasi-monotone.

    The mixed difference is split into positive and negative parts and
    accumulated row-by-row; the leftover (which has d11 = 0) is an
    additively separable field handled by 1D Jordan splits of the bottom
    row and left column marginals.
    """
    f = _as_field(f, net)
    pos = np.maximum(_d11(f), 0.0)
    neg = np.maximum(-_d11(f), 0.0)
    P = np.zeros_like(f)
    N = np.zeros_like(f)
    P[1:, 1:] = np.cumsum(np.cumsum(pos, axis=0), axis=1)
    N[1:, 1:] = np.cumsum(np.cumsum(neg, axis=0), axis=1)
    r = f - P + N
    # r has vanishing mixed differences, r[i, j] = r[i, 0] + r[0, j] - r[0, 0]: the
    # cumulative rises and falls of its first column and row are their Jordan splits
    (a_pos, a_neg), (b_pos, b_neg) = (
        [np.concatenate([[0.0], np.cumsum(np.maximum(sign * np.diff(line), 0.0))])
         for sign in (1.0, -1.0)] for line in (r[:, 0], r[0, :]))
    r00 = r[0, 0]
    f1 = P + a_pos[:, None] + b_pos[None, :] + max(r00, 0.0)
    f2 = N + a_neg[:, None] + b_neg[None, :] + max(-r00, 0.0)
    return f1, f2
