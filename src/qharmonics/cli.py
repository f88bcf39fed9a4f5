"""Batch command-line driver (`qharmonics <subcommand> --flags`).

Exit codes: 0 success, 1 usage error (message on stderr, nothing
written), 2 runtime error (partial outputs deleted).  All numeric output
uses 17 significant digits with '.' decimals so identical inputs give
byte-identical output on one BLAS build, CPU and set of block shapes
(BLAS picks its GEMM kernel by shape, which moves the last digits).
QH_THREADS caps BLAS parallelism (default 1 for reproducibility); it
must be set before numpy loads, so this module sets the BLAS thread
variables at import.  `import qharmonics` leaves threading alone: a
library call gives the CLI's last digits only if those variables are set
before numpy loads, or if this module is imported first.

A process spends about 40 ms in the interpreter and `site`, 50-60 in
numpy's import, 12 in qharmonics, 3 on the parser and 20 at exit, where
the collector walks every object; `program` freezes it after `main`, for
4-5 ms.  `main` does not: in-process callers (tests, bench) run on.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys

_threads = os.environ.get("QH_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, _threads)

import argparse  # noqa: E402
import numpy as np  # noqa: E402

from . import fileio, fixtures, smoothing, variation  # noqa: E402
from .errors import QHarmonicsError, _require_real  # noqa: E402
from .grids import GridSpec, evaluate, image_to_qsig, qsig_to_image, residual_moduli, sample  # noqa: E402
from .qft import FreqWindow, QftKind, Side, qft_forward, qft_inverse  # noqa: E402
from .qlct import LctKind, LctParams, _require_angles, qlct_forward, qlct_inverse  # noqa: E402
from .quaternion import CANONICAL_AXES, AxisPair  # noqa: E402
from .variation import Net  # noqa: E402

__all__ = ["main", "program"]

_DESCRIPTION = ("Quaternion Fourier and linear canonical transforms of QSIG signals, their "
                "inverses, and the paper's inversion and variation diagnostics on built-in "
                "fixtures. Exit codes: 0 success, 1 usage error (nothing written), 2 runtime "
                "error (no partial output).")
_G17 = "{:.17g}".format
_SIDES = [side.value for side in Side]
_MATRIX = ("a1", "b1", "c1", "d1", "a2", "b2", "c2", "d2")


class _UsageError(Exception):
    def __init__(self, message, prog="qharmonics"):
        super().__init__(f"{prog}: {message}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message, self.prog)


@contextlib.contextmanager
def _usage(prefix=""):
    """Report the library's refusal of a flag value as a usage error."""
    try:
        yield
    except QHarmonicsError as exc:
        raise _UsageError(f"{prefix}{exc}") from None


def finite(text):
    """A finite real; the argparse type of the real-valued flags (a ValueError otherwise)."""
    return float(_require_real(float(text), "value"))


def _floats(text, n=None, flag=""):
    try:
        vals = tuple(finite(tok) for tok in text.split(","))
    except ValueError:
        raise _UsageError(f"{flag}: could not parse {text!r} as comma-separated finite reals")
    if n is not None and len(vals) != n:
        raise _UsageError(f"{flag}: expected {n} comma-separated reals, got {len(vals)}")
    return vals


def _axes(args) -> AxisPair:
    if args.mu1 is None and args.mu2 is None:
        return CANONICAL_AXES
    if args.mu1 is None or args.mu2 is None:
        raise _UsageError("--mu1 and --mu2 must be given together")
    with _usage("invalid axes: "):
        return AxisPair(np.array(_floats(args.mu1, 3, "--mu1")),
                        np.array(_floats(args.mu2, 3, "--mu2")))


def _window(args, grid) -> FreqWindow | None:
    """``--window M[,N]`` on the counts of `grid`; without it None, the
    transform's own default window."""
    if args.window is None:
        return None
    vals = _floats(args.window, flag="--window")
    if len(vals) == 1:
        vals = (vals[0], vals[0])
    elif len(vals) != 2:
        raise _UsageError("--window takes M or M,N")
    with _usage("invalid window: "):
        return FreqWindow(vals[0], vals[1], grid.ns, grid.nt)


def _kind(args):
    """The kind of ``args.transform`` on ``--side`` and the axis flags: a QFT,
    qfrft's rotations under its angle rule, or a QLCT of the matrix flags."""
    axes, side = _axes(args), Side(args.side)
    if args.transform == "qft":
        return QftKind(side, axes)
    if args.transform == "qfrft":
        with _usage("invalid angles: "):
            _require_angles(args.alpha, args.beta)
        return LctKind(side, LctParams.rotation(args.alpha), LctParams.rotation(args.beta), axes,
                       args.phase_corrected)
    entries = [getattr(args, k) for k in _MATRIX]
    missing = [f"--{k}" for k, v in zip(_MATRIX, entries) if v is None]
    if missing:
        raise _UsageError(f"missing matrix flags: {', '.join(missing)}")
    with _usage("invalid canonical matrix: "):
        return LctKind(side, LctParams(*entries[:4]), LctParams(*entries[4:]), axes)


def _signal_grid(args) -> GridSpec:
    if args.grid < 2:
        raise _UsageError("--grid must be at least 2")
    with _usage("invalid --grid: "):  # the library's node cap, on the counts alone
        GridSpec.centered(1.0, args.grid)
    with _usage("invalid --extent: "):
        return GridSpec.centered(args.extent, args.grid)


def _fixture(args):
    with _usage():
        return fixtures.get_fixture(args.fixture)


def _build_parser():
    top = _Parser(prog="qharmonics", description=_DESCRIPTION)
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, run, help, axes=False):
        p = sub.add_parser(name, prog=f"qharmonics {name}", help=help)
        p.set_defaults(run=run)
        if axes:  # only the commands that read _axes take the axis flags
            p.add_argument("--mu1", default=None)
            p.add_argument("--mu2", default=None)
        return p

    def io_flags(p):
        p.add_argument("--in", dest="inp", required=True)
        p.add_argument("--out", required=True)

    def grid_flags(p, grid=256, extent=10.0):
        p.add_argument("--grid", type=int, default=grid)
        p.add_argument("--extent", type=finite, default=extent)

    def matrix_flags(p):
        for k in _MATRIX:
            p.add_argument(f"--{k}", type=finite, default=None)

    def forward(name, help, *angles):
        """A transform of a QSIG file to a spectrum file; `angles` are
        required reals that come before --window."""
        p = add(name, _cmd_forward, help, axes=True)
        p.set_defaults(transform=name)
        io_flags(p)
        p.add_argument("--side", choices=_SIDES, default="two")
        for flag in angles:
            p.add_argument(flag, type=finite, required=True)
        p.add_argument("--window", default=None)
        return p

    def inverse(name, fn, help):
        p = add(name, _cmd_inverse, help)
        p.set_defaults(inverse=fn)
        io_flags(p)
        grid_flags(p)

    forward("qft", "forward QFT of a QSIG file")
    inverse("iqft", qft_inverse, "inverse QFT of a spectrum file")
    matrix_flags(forward("qlct", "forward QLCT of a QSIG file"))
    inverse("iqlct", qlct_inverse, "inverse QLCT of a spectrum file")
    p = forward("qfrft", "fractional transform of a QSIG file", "--alpha", "--beta")
    p.add_argument("--phase-corrected", action="store_true")

    p = add("roundtrip", _cmd_roundtrip, "forward+inverse reconstruction errors on a fixture",
            axes=True)
    p.add_argument("--fixture", default="gaussian")
    p.add_argument("--side", choices=_SIDES, default="two")
    grid_flags(p)
    p.add_argument("--window", default=None)
    p.add_argument("--transform", choices=("qft", "qlct"), default="qft")
    matrix_flags(p)

    p = add("jump-demo", _cmd_jump_demo, "partial-sum sweep at a point (CSV)")
    p.add_argument("--M", default="25,50,100")
    p.add_argument("--point", default="1,1")
    p.add_argument("--fixture", default="indicator")

    p = add("gauss-mean", _cmd_gauss_mean, "damped-inversion error sweep (CSV)")
    p.add_argument("--fixture", default="gaussian")
    p.add_argument("--schedule", default="1,0.1,0.01")
    grid_flags(p, grid=128, extent=6.0)
    p.add_argument("--window", default="8")

    p = add("variation", _cmd_variation, "bounded-variation report for a fixture or file (CSV)")
    p.add_argument("--fixture", default=None)
    p.add_argument("--in", dest="inp", default=None)
    p.add_argument("--component", choices=("w", "x", "y", "z"), default="w")
    p.add_argument("--bound", type=finite, default=1e6)
    grid_flags(p, grid=64, extent=3.0)

    p = add("lc-diag", _cmd_lc_diag, "cross-neighborhood strip integral estimates (CSV)")
    p.add_argument("--fixture", default="gaussian")
    p.add_argument("--point", default="0,0")
    p.add_argument("--eps1", type=finite, default=0.5)
    p.add_argument("--eps2", type=finite, default=0.5)
    p.add_argument("--radius", type=finite, default=8.0)

    io_flags(add("img2qsig", _cmd_img2qsig, "PPM image to QSIG"))
    io_flags(add("qsig2img", _cmd_qsig2img, "QSIG to PPM image (scalar-part stats on stdout)"))

    p = add("fixtures", _cmd_fixtures, "write the built-in fixtures as QSIG files")
    p.add_argument("--out-dir", required=True)
    grid_flags(p, grid=64, extent=6.0)

    return top


# -- subcommand bodies --------------------------------------------------------

def _cmd_forward(args):
    """``qft``, ``qlct`` and ``qfrft``: the forward of :func:`_kind`, in the
    loaded signal's buffer (qfrft is the QLCT of its rotations); the
    transforms are read by name when it runs (bench/spans.py rebinds them)."""
    kind = _kind(args)
    sig = fileio.load_qsig(args.inp)
    forward = qft_forward if kind.family == "qft" else qlct_forward
    fileio.save_qspectrum(forward(sig, kind, _window(args, sig.grid), overwrite=True), args.out)


def _cmd_inverse(args):
    """``iqft`` and ``iqlct``: ``args.inverse`` refuses the other family's spectrum."""
    grid = _signal_grid(args)
    spec = fileio.load_qspectrum(args.inp)
    fileio.save_qsig(args.inverse(spec, grid, overwrite=True), args.out)


def _cmd_roundtrip(args):
    kind = _kind(args)
    fn = _fixture(args)
    grid = _signal_grid(args)
    forward, inverse = ((qft_forward, qft_inverse) if kind.family == "qft"
                        else (qlct_forward, qlct_inverse))
    with _usage("invalid canonical matrix: "):
        kind.plan(inverse=True)
    window = _window(args, grid)
    if window is None:  # the forward's default window, checked before the fixture is sampled
        with _usage("invalid --extent: "):
            FreqWindow.natural(grid)
    # the forward transform consumes the sample, the inverse the spectrum, and the
    # residual (a block of s-rows at a time) the inverse's field: one field
    spec = forward(sample(fn, grid), kind, window, overwrite=True)
    back = inverse(spec, grid, overwrite=True)
    S, T = grid.mesh()
    err = residual_moduli(back.data, lambda rows: evaluate(fn, S[rows], T))  # |back - f|
    print("fixture,side,transform,l1_error,linf_error")
    print(",".join([args.fixture, args.side, args.transform,
                    _G17(float(np.sum(err) * grid.cell_area)), _G17(float(np.max(err)))]))


def _cmd_jump_demo(args):
    fn = _fixture(args)
    point = _floats(args.point, 2, "--point")
    sweep = _floats(args.M, flag="--M")
    rect = fixtures.sinc_rect(args.fixture, point)
    with _usage("invalid --M: "):
        for m in sweep:
            smoothing._require_panels(m, m, rect)
    eta = smoothing.eta_jump_average(fn, point).value
    print("M,N,I_re,I_i,I_j,I_k,abs_err")
    for m in sweep:
        val = smoothing.dirichlet_partial_inverse_sinc(fn, point, m, m, rect)
        err = float(np.sqrt(np.sum((val - eta) ** 2)))
        print(",".join([_G17(m), _G17(m)] + [_G17(x) for x in val] + [_G17(err)]))


def _cmd_gauss_mean(args):
    fn = _fixture(args)
    grid = _signal_grid(args)
    window = _window(args, grid)
    with _usage("invalid --schedule: "):
        schedule = smoothing._require_schedule(_floats(args.schedule, flag="--schedule"))
    sig = sample(fn, grid)
    spec = qft_forward(sig, QftKind(Side.TWO_SIDED), window)
    errors = smoothing.gauss_mean_inverse(spec, schedule, sig)
    print("alpha,l1_error")
    for alpha, error in errors:
        print(f"{_G17(alpha)},{_G17(error)}")


def _cmd_variation(args):
    if (args.fixture is None) == (args.inp is None):
        raise _UsageError("give exactly one of --fixture or --in")
    if args.inp is not None:
        sig = fileio.load_qsig(args.inp)
    else:
        sig = sample(_fixture(args), _signal_grid(args))
    comp = "wxyz".index(args.component)
    field = sig.data[..., comp]
    net = Net(sig.grid.s, sig.grid.t)
    report = variation.hardy_bvf_check(field, net, bound=args.bound)
    print("vitali,line_var_s,line_var_t,is_hardy_bvf,nets_tested")
    print(",".join([_G17(report.vitali), _G17(report.line_var_s), _G17(report.line_var_t),
                    str(report.is_hardy_bvf).lower(), str(report.nets_tested)]))


def _cmd_lc_diag(args):
    fn = _fixture(args)
    with _usage("invalid --eps1, --eps2, --radius: "):
        smoothing._require_strips(args.eps1, args.eps2, args.radius)
    val1, val2 = smoothing.lc_class_diagnostic(
        fn, _floats(args.point, 2, "--point"), args.eps1, args.eps2, args.radius)
    print("val_s,val_t")
    print(f"{_G17(val1)},{_G17(val2)}")


def _cmd_img2qsig(args):
    with open(args.inp, "rb") as fh:
        fileio.save_qsig(image_to_qsig(fh.read()), args.out)


def _cmd_qsig2img(args):
    ppm, stats = qsig_to_image(fileio.load_qsig(args.inp))
    fileio._write_atomic((ppm,), args.out)
    print("scalar_min,scalar_max,scalar_max_abs")
    print(",".join(_G17(stats[k]) for k in ("scalar_min", "scalar_max", "scalar_max_abs")))


def _cmd_fixtures(args):
    """The one command that writes more than one file: each is written
    atomically, and if a later one fails the files it wrote and the
    directories it made go too."""
    grid = _signal_grid(args)
    made, head = [], os.path.abspath(args.out_dir)
    while not os.path.exists(head):
        made, head = made + [head], os.path.dirname(head)
    os.makedirs(args.out_dir, exist_ok=True)
    written = []
    try:
        for name in sorted(fixtures.FIXTURES):
            path = os.path.join(args.out_dir, f"{name}.qsig")
            fileio.save_qsig(sample(fixtures.FIXTURES[name], grid), path)
            written.append(path)
            print(f"wrote {name}.qsig")
    except Exception:
        for path, remove in [(p, os.unlink) for p in written] + [(d, os.rmdir) for d in made]:
            with contextlib.suppress(OSError):
                remove(path)
        raise


def main(argv=None) -> int:
    """Run one subcommand; return its exit code.  Exit 2 leaves no partial output: `fixtures`
    removes the files and directories it made, every other command writes one file atomically."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.run(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"qharmonics: error: {exc}", file=sys.stderr)
        return 2
    return 0


def program():
    """The process entry (``python -m qharmonics.cli``, the ``qharmonics`` script)."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    program()
