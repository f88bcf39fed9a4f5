"""Span tracing around the public functions of the qharmonics modules.

`Recorder.install` wraps each function in WRAPPED and rebinds the
wrapper wherever a qharmonics module holds the original, both in the
defining module and under the names other modules imported (so
``qft.exp_contract`` and ``qlct.chirp_multiply`` are traced too).  A
function that no longer exists is listed in `missing`; the run goes on
without it.  Spans are kept in memory as
``[name, start, end, parent, job, count]`` and written by the caller
once, when its run ends.  `aggregate` turns them into per-layer sums.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

import numpy as np


def _qmul_elems(args, kwargs):
    p, q = args[:2] if len(args) >= 2 else (kwargs["p"], kwargs["q"])
    return float(np.prod(np.broadcast_shapes(np.shape(p)[:-1], np.shape(q)[:-1])))


def _contract_gflop(args, kwargs):
    """Two GEMMs of (n_out x n_in) by (n_in x field.size / n_in)."""
    theta = args[0] if args else kwargs["theta"]
    fld = args[2] if len(args) > 2 else kwargs["field"]
    return 4.0 * np.shape(theta)[0] * np.size(fld) / 1e9


def _path_bytes(index):
    def count(args, kwargs):
        path = args[index] if len(args) > index else kwargs["path"]
        return float(os.path.getsize(path))
    return count


# (span name, module under qharmonics, function, computed count or None)
WRAPPED = [
    ("fileio.load", "fileio", "load_qsig", _path_bytes(0)),
    ("fileio.load", "fileio", "load_qspectrum", _path_bytes(0)),
    ("fileio.save", "fileio", "save_qsig", _path_bytes(1)),
    ("fileio.save", "fileio", "save_qspectrum", _path_bytes(1)),
    ("grids.sample", "grids", "sample", None),
    ("grids.image", "grids", "image_to_qsig", None),
    ("grids.image", "grids", "qsig_to_image", None),
    ("grids.norm", "grids", "l1_norm", None),
    ("grids.norm", "grids", "linf_diff", None),
    ("quaternion.qmul", "quaternion", "qmul", _qmul_elems),
    ("quaternion.mul_pure", "quaternion", "mul_pure", None),
    ("quaternion.qexp_pure", "quaternion", "qexp_pure", None),
    ("kernels.exp_contract", "_kernels", "exp_contract", _contract_gflop),
    ("kernels.chirp_multiply", "_kernels", "chirp_multiply", None),
    ("kernels.const_multiply", "_kernels", "const_multiply", None),
    ("qft.qft_forward", "qft", "qft_forward", None),
    ("qft.qft_inverse", "qft", "qft_inverse", None),
    ("qft.qft_fast", "qft", "qft_fast", None),
    ("qft.qft_from_ft", "qft", "qft_from_ft", None),
    ("qlct.qlct_forward", "qlct", "qlct_forward", None),
    ("qlct.qlct_inverse", "qlct", "qlct_inverse_two_sided", None),
    ("qlct.qlct_inverse", "qlct", "qlct_inverse_sided", None),
    ("qlct.qlct_via_qft", "qlct", "qlct_via_qft", None),
    ("qlct.qfrft", "qlct", "qfrft", None),
    ("smoothing.sinc", "smoothing", "dirichlet_partial_inverse_sinc", None),
    ("smoothing.eta", "smoothing", "eta_jump_average", None),
    ("smoothing.lc_diag", "smoothing", "lc_class_diagnostic", None),
    ("smoothing.gauss_mean", "smoothing", "gauss_mean_inverse", None),
    ("variation.hardy", "variation", "hardy_bvf_check", None),
]

class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.active = False
        self.missing = []
        self.eval_points = {}
        self._fixture_depth = 0

    def wrap(self, name, fn, count=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            entry = [name, time.perf_counter(), 0.0,
                     rec.stack[-1] if rec.stack else -1, rec.job, 0.0]
            rec.stack.append(len(rec.spans))
            rec.spans.append(entry)
            try:
                return fn(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter()
                rec.stack.pop()
                if count is not None:
                    try:
                        entry[5] = count(args, kwargs)
                    except (KeyError, IndexError, TypeError, ValueError, OSError):
                        pass

        return traced

    def install(self):
        """Wrap every function in WRAPPED that exists; list the rest."""
        for name, modname, attr, count in WRAPPED:
            qualified = f"qharmonics.{modname}.{attr}"
            try:
                mod = importlib.import_module(f"qharmonics.{modname}")
            except ImportError:
                self.missing.append(qualified)
                continue
            orig = getattr(mod, attr, None)
            if not callable(orig):
                self.missing.append(qualified)
                continue
            self._rebind(orig, self.wrap(name, orig, count))
        self._wrap_fixtures()

    @staticmethod
    def _rebind(orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname == "qharmonics" or modname.startswith("qharmonics."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    def _wrap_fixtures(self):
        """Count the points at which fixture callables are evaluated."""
        try:
            table = importlib.import_module("qharmonics.fixtures").FIXTURES
        except (ImportError, AttributeError):
            self.missing.append("qharmonics.fixtures.FIXTURES")
            return
        for key, fn in list(table.items()):
            table[key] = self._count_points(fn)

    def _count_points(self, fn):
        rec = self

        @functools.wraps(fn)
        def counted(S, T, *args, **kwargs):
            outer = rec.active and rec._fixture_depth == 0
            rec._fixture_depth += 1
            try:
                return fn(S, T, *args, **kwargs)
            finally:
                rec._fixture_depth -= 1
                if outer:
                    rec.eval_points[rec.job] = (rec.eval_points.get(rec.job, 0)
                                                + int(np.broadcast(S, T).size))

        return counted

    def dump(self):
        return {"spans": self.spans, "eval_points": list(self.eval_points.items()),
                "missing": self.missing}


# -- aggregation ---------------------------------------------------------------

def span_sources():
    """Span name -> the qualified functions that feed it."""
    out = {}
    for name, modname, attr, _ in WRAPPED:
        out.setdefault(name, []).append(f"qharmonics.{modname}.{attr}")
    return out


def aggregate(spans):
    """Per span name: inclusive seconds, self seconds, calls and count sums.

    A span nested inside another of the same name adds to neither time
    nor calls, so recursion is not counted twice."""
    totals = {}
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _job, _count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for idx, (name, start, end, parent, _job, count) in enumerate(spans):
        anc = parent
        while anc >= 0 and spans[anc][0] != name:
            anc = spans[anc][3]
        t = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0.0})
        t["self_s"] += (end - start) - child_time[idx]
        t["count"] += count
        if anc < 0:
            t["s"] += end - start
            t["calls"] += 1
    return totals
