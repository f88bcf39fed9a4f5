import argparse
import gc
import itertools
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

import qharmonics
import qharmonics.cli as cli
import qharmonics.fileio as fileio
from oracles import qlct_bruteforce
from qharmonics.cli import main
from qharmonics.grids import GridSpec, QSignal2D, linf_diff, row_blocks, sample
from qharmonics.fixtures import FIXTURES, gaussian, qgaussian
from qharmonics.qft import FreqWindow, QftKind, Side, qft_forward, qft_inverse
from qharmonics.qlct import LctKind, LctParams, qlct_forward, qlct_inverse
from qharmonics.quaternion import AxisPair, qabs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_roundtrip_prints_errors_and_succeeds(capsys):
    code, out, err = run(capsys, "roundtrip", "--fixture", "gaussian",
                         "--side", "two", "--grid", "128", "--extent", "10",
                         "--window", "8")
    assert code == 0 and err == ""
    header, row = out.strip().splitlines()
    assert header == "fixture,side,transform,l1_error,linf_error"
    fields = row.split(",")
    assert fields[:3] == ["gaussian", "two", "qft"]
    assert float(fields[4]) < 1e-4


@pytest.mark.parametrize("transform", [
    ["--transform", "qft"],
    ["--transform", "qlct", "--a1", "0.6", "--b1", "0.5", "--c1=-2.48", "--d1=-0.4",
     "--a2", "1", "--b2", "0.5", "--c2", "0", "--d2", "1"]], ids=["qft", "qlct"])
def test_roundtrip_holds_one_field(capsys, traced_peak, transform):
    """Peak traced memory of a round trip, in fields: the sample is filled a
    block of s-rows at a time, the forward transform consumes it, the
    inverse the spectrum, and the residual the inverse's field, its moduli
    written a block of s-rows at a time into the field's front against the
    fixture evaluated again on that block.  So the peak is one field plus a
    stage's buffers, or the interpolation's scratch for the QLCT (1.11 and
    1.20 measured at 1024^2).  At 256^2 every stage folds, its blocks a
    quarter of the field (1.83 measured)."""
    for n, bound in ((1024, 1.24), (256, 2.1)):
        (code, out, err), peak = traced_peak(lambda: run(
            capsys, "roundtrip", "--fixture", "qgaussian", "--grid", str(n),
            "--extent", "10", "--window", "8", *transform))
        assert code == 0 and err == ""
        assert float(out.splitlines()[1].split(",")[4]) < 1e-4
        assert peak / (n * n * 4 * 8) <= bound


#: the measured traced peaks, in fields, of the 512^2 round trips below and a
#: margin of about 3%: one field, handed from stage to stage, and the
#: buffers of a stage or of the interpolation that follows a sided QLCT's
#: first stage
PEAKS = {"qft-two": 1.36, "qlct-two": 1.68, "qlct-right": 1.9}
QLCT_HALF = ["--transform", "qlct", "--a1", "0.5", "--b1", "0.5", "--c1=-1.5", "--d1", "0.5",
             "--a2", "0.5", "--b2", "0.5", "--c2=-1.5", "--d2", "0.5"]


@pytest.mark.parametrize("case", list(PEAKS))
def test_narrow_window_roundtrip_peaks_no_higher(capsys, traced_peak, case):
    """Peak traced memory of a 512^2 `roundtrip --window 8`, every stage
    low-rank: the sample is filled in place a block of s-rows at a time,
    the transforms run in it, the compressed stages and the interpolation
    write into it, and the residual's moduli take its front."""
    transform, side = case.split("-")
    n = 512
    (code, out, err), peak = traced_peak(lambda: run(
        capsys, "roundtrip", "--fixture", "qgaussian", "--side", side, "--grid", str(n),
        "--extent", "10", "--window", "8", *(QLCT_HALF if transform == "qlct" else [])))
    assert code == 0 and err == ""
    assert float(out.splitlines()[1].split(",")[4]) < (1e-14 if transform == "qlct" else 1e-4)
    assert peak / (n * n * 4 * 8) <= PEAKS[case]


@pytest.mark.parametrize("fixture", ["gaussian", "indicator", "qgaussian"])
@pytest.mark.parametrize("transform", [[], QLCT_HALF], ids=["qft", "qlct"])
def test_roundtrip_csv_is_the_library_residual(capsys, fixture, transform):
    """The CSV residual, taken against the fixture a block of s-rows at a
    time (the last of the 300 rows a partial block), equals to the digit the
    residual of a separately sampled signal against the library's round
    trip, real fixtures promoted as `sample` promotes them."""
    n, grid, window = 300, GridSpec.centered(4.0, 300), FreqWindow(6.0, 6.0, 300, 300)
    blocks = row_blocks(n, n * 32)
    assert len(blocks) > 1 and blocks[-1].stop - blocks[-1].start < blocks[0].stop
    code, out, err = run(capsys, "roundtrip", "--fixture", fixture, "--grid", str(n),
                         "--extent", "4", "--window", "6", *transform)
    assert code == 0 and err == ""
    sig = sample(FIXTURES[fixture], grid)
    if transform:
        A = LctParams(0.5, 0.5, -1.5, 0.5)
        kind = LctKind(Side.TWO_SIDED, A, A)
        back = qlct_inverse(qlct_forward(sig, kind, window), grid)
    else:
        back = qft_inverse(qft_forward(sig, QftKind(), window), grid)
    err = qabs(back.data - sig.data)
    row = [fixture, "two", "qlct" if transform else "qft",
           "{:.17g}".format(float(np.sum(err) * grid.cell_area)), "{:.17g}".format(float(np.max(err)))]
    assert out.splitlines()[1] == ",".join(row)


@pytest.mark.parametrize("schedule", ["1", "1,0.1,0.01", "1,0.3,0.1,0.03,0.01,0.003"],
                         ids=["1-alpha", "3-alphas", "6-alphas"])
def test_gauss_mean_error_needs_no_difference_field(capsys, traced_peak, schedule):
    """Peak traced memory of a 512^2 Gauss mean, in fields, flat in the
    schedule's length: the sample, its spectrum, one damped copy that the
    inverse consumes, and the moduli of that copy's error written into its
    front a block of rows at a time instead of a field-size difference
    (3.31 measured for one alpha)."""
    n = 512
    (code, out, err), peak = traced_peak(lambda: run(
        capsys, "gauss-mean", "--fixture", "gaussian", "--grid", str(n), "--extent", "10",
        "--window", "8", "--schedule", schedule))
    assert code == 0 and err == "" and len(out.splitlines()) == 1 + len(schedule.split(","))
    assert peak / (n * n * 4 * 8) <= 3.6


def test_usage_errors_exit_1(capsys, tmp_path):
    code, out, err = run(capsys, "qft")
    assert code == 1 and "required" in err and out == ""

    code, out, err = run(capsys, "roundtrip", "--grid", "0")
    assert code == 1 and "at least 2" in err

    code, out, err = run(capsys, "roundtrip", "--fixture", "nope")
    assert code == 1 and "unknown fixture" in err

    code, out, err = run(capsys, "qlct", "--in", "x", "--out", "y", "--a1", "1")
    assert code == 1 and "missing matrix flags" in err

    code, out, err = run(capsys, "jump-demo", "--M", "25,oops")
    assert code == 1 and "comma-separated" in err

    code, out, err = run(capsys, "gauss-mean", "--schedule", "0.1,1")
    assert code == 1 and "decreasing" in err

    code, out, err = run(capsys, "roundtrip", "--transform", "qlct", "--a1", "1", "--b1", "0",
                         "--c1", "0", "--d1", "1", "--a2", "1", "--b2", "1", "--c2", "0",
                         "--d2", "1")
    assert code == 1 and "degenerate (b = 0)" in err and out == ""

    code, out, err = run(capsys, "bogus-subcommand")
    assert code == 1

    # qfrft's own angle rule, applied before the input is loaded
    src = tmp_path / "g.qsig"
    fileio.save_qsig(sample(gaussian, GridSpec.centered(4.0, 8)), src)
    for alpha, beta in (("0", "0.7"), ("0.7", "3.141592653589793"), ("1e-13", "0.7")):
        out_path = tmp_path / "fr.qsp"
        code, out, err = run(capsys, "qfrft", "--in", str(src), "--out", str(out_path),
                             "--alpha", alpha, "--beta", beta)
        assert code == 1 and out == "" and "fractional kernel degenerates" in err
        assert not out_path.exists()
    code, out, err = run(capsys, "qfrft", "--in", str(tmp_path / "missing.qsig"), "--out",
                         str(tmp_path / "fr.qsp"), "--alpha", "0", "--beta", "0.7")
    assert code == 1 and "sin(alpha) = 0" in err

    # a sweep entry past the sinc panel cap, refused before the CSV header
    code, out, err = run(capsys, "jump-demo", "--M", "25,1e17")
    assert code == 1 and out == ""
    assert err.startswith("qharmonics: invalid --M: M = 1e+17 on [0.0, 2.0]") and "1024" in err


@pytest.mark.parametrize("argv, want", [
    (["roundtrip", "--extent", "0"], "invalid --extent: grid spacings must be positive"),
    (["iqft", "--in", "x.qsp", "--out", "y.qsig", "--extent", "-1"], "invalid --extent: "),
    (["gauss-mean", "--extent", "-2"], "invalid --extent: "),
    (["variation", "--fixture", "gaussian", "--extent", "0"], "invalid --extent: "),
    (["fixtures", "--out-dir", "{tmp}/fx", "--extent", "0"], "invalid --extent: "),
    (["jump-demo", "--M", "25,0"], "invalid --M: window (0.0, 0.0) must be positive"),
    (["jump-demo", "--M", "-1"], "invalid --M: window (-1.0, -1.0) must be positive"),
    (["lc-diag", "--eps1", "0"],
     "invalid --eps1, --eps2, --radius: strip half-widths must be positive\n"),
    (["lc-diag", "--eps2", "0.5", "--radius", "0.5"],
     "invalid --eps1, --eps2, --radius: radius must exceed the strip half-widths\n"),
    (["gauss-mean", "--schedule", "1,2"],
     "invalid --schedule: schedule (1.0, 2.0) must be strictly decreasing and positive\n"),
    (["gauss-mean", "--schedule", "0.1,-1"],
     "invalid --schedule: schedule (0.1, -1.0) must be strictly decreasing and positive\n"),
    (["roundtrip", "--transform", "qlct", "--a1", "1", "--b1", "0", "--c1", "0", "--d1", "1",
      "--a2", "1", "--b2", "1", "--c2", "0", "--d2", "1"],
     "invalid canonical matrix: inverse through a degenerate (b = 0) axis\n"),
], ids=["roundtrip-extent", "iqft-extent", "gauss-mean-extent", "variation-extent",
        "fixtures-extent", "jump-demo-M-zero", "jump-demo-M-negative", "lc-diag-eps",
        "lc-diag-radius", "gauss-mean-increasing", "gauss-mean-negative", "roundtrip-qlct-b0"])
def test_flags_the_library_refuses_exit_1_before_any_output(capsys, tmp_path, monkeypatch,
                                                            argv, want):
    """The library's own check of --extent (GridSpec), --M (the sinc panel
    rule), lc-diag's strips (``smoothing._require_strips``), the Gauss-mean
    schedule (``smoothing._require_schedule``) and the QLCT inverse
    (``LctKind.plan(inverse=True)``) is the usage error, raised before
    anything is sampled, evaluated, read, printed or written."""
    def never(*args, **kwargs):
        raise AssertionError("sampled before the flags were checked")

    monkeypatch.setattr(cli, "sample", never)
    monkeypatch.setattr(cli.smoothing, "lc_class_diagnostic", never)
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 1 and out == "" and not (tmp_path / "fx").exists()
    assert err.startswith(f"qharmonics: {want}")


@pytest.mark.parametrize("argv, want", [
    (["jump-demo", "--point", "1,2,3"], "--point: expected 2 comma-separated reals, got 3"),
    (["lc-diag", "--point", "1"], "--point: expected 2 comma-separated reals, got 1"),
    (["qft", "--in", "{tmp}/missing.qsig", "--out", "{tmp}/x.qsp", "--mu1", "1,0,0"],
     "--mu1 and --mu2 must be given together"),
    (["roundtrip", "--mu2", "0,1,0"], "--mu1 and --mu2 must be given together"),
    (["roundtrip", "--window", "1,2,3"], "--window takes M or M,N"),
], ids=["point-count", "point-short", "mu1-alone", "mu2-alone", "window-three"])
def test_flag_shapes_are_usage_errors(capsys, tmp_path, argv, want):
    """A wrong count of comma-separated reals or half an axis pair exits 1
    with nothing printed or written."""
    code, out, err = run(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert (code, out, err) == (1, "", f"qharmonics: {want}\n")
    assert os.listdir(tmp_path) == []


def test_variation_of_a_file_is_the_variation_of_its_fixture(capsys, tmp_path):
    path = tmp_path / "g.qsig"
    fileio.save_qsig(sample(qgaussian, GridSpec.centered(3.0, 40)), path)
    for component in "wxyz":
        code, from_file, err = run(capsys, "variation", "--in", str(path), "--component", component)
        assert code == 0 and err == ""
        code, from_fixture, _ = run(capsys, "variation", "--fixture", "qgaussian", "--grid", "40",
                                    "--extent", "3", "--component", component)
        assert code == 0 and from_file == from_fixture


def test_usage_errors_name_the_program_once(capsys):
    cases = [
        (["jump-demo", "--M", "25", "--mu1", "5,5,5"],
         "qharmonics: unrecognized arguments: --mu1 5,5,5"),
        (["bogus-subcommand"], "qharmonics: argument command: invalid choice"),
        (["qlct", "--a1", "x"], "qharmonics qlct: argument --a1: "),
        (["roundtrip", "--fixture", "nosuch"], "qharmonics: unknown fixture 'nosuch'"),
    ]
    for argv, want in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(want) and err.count("qharmonics") == 1, err


def test_runtime_errors_exit_2_nothing_left_behind(capsys, tmp_path):
    out_path = tmp_path / "never.qsp"
    code, _, err = run(capsys, "qft", "--in", str(tmp_path / "missing.qsig"),
                       "--out", str(out_path))
    assert code == 2 and err != ""
    assert not out_path.exists()

    bad = tmp_path / "bad.qsig"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code, _, err = run(capsys, "qft", "--in", str(bad), "--out", str(out_path))
    assert code == 2 and "magic" in err
    assert not out_path.exists()

    bad_ppm = tmp_path / "bad.ppm"
    bad_ppm.write_bytes(b"P5\n1 1\n255\n\x00")
    code, _, err = run(capsys, "img2qsig", "--in", str(bad_ppm),
                       "--out", str(tmp_path / "x.qsig"))
    assert code == 2
    assert not (tmp_path / "x.qsig").exists()


def test_fixtures_failing_save_removes_the_files_it_wrote(capsys, tmp_path, monkeypatch):
    """fixtures writes one file per fixture; when the third save fails it
    exits 2 and removes the two it wrote, leaving other files alone."""
    fx = tmp_path / "fx"
    fx.mkdir()
    (fx / "qgaussian.qsig").write_bytes(b"previous")
    save, calls = fileio.save_qsig, []

    def third_fails(sig, path):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("disk full")
        save(sig, path)

    monkeypatch.setattr(fileio, "save_qsig", third_fails)
    code, out, err = run(capsys, "fixtures", "--out-dir", str(fx), "--grid", "8")
    assert code == 2 and "disk full" in err
    assert out == "wrote gaussian.qsig\nwrote heatgauss.qsig\n"
    assert [os.path.basename(p) for p in calls] == [
        "gaussian.qsig", "heatgauss.qsig", "indicator.qsig"]
    assert sorted(p.name for p in fx.iterdir()) == ["qgaussian.qsig"]
    assert (fx / "qgaussian.qsig").read_bytes() == b"previous"


def test_fixtures_and_transform_pipeline(capsys, tmp_path):
    fx = tmp_path / "fx"
    code, out, _ = run(capsys, "fixtures", "--out-dir", str(fx),
                       "--grid", "64", "--extent", "10")
    assert code == 0
    assert sorted(p.name for p in fx.iterdir()) == [
        "gaussian.qsig", "heatgauss.qsig", "indicator.qsig", "qgaussian.qsig"]

    spec_path = tmp_path / "g.qsp"
    code, *_ = run(capsys, "qft", "--in", str(fx / "gaussian.qsig"),
                   "--out", str(spec_path), "--window", "8")
    assert code == 0
    back_path = tmp_path / "g_back.qsig"
    code, *_ = run(capsys, "iqft", "--in", str(spec_path),
                   "--out", str(back_path), "--grid", "64", "--extent", "10")
    assert code == 0
    orig = fileio.load_qsig(fx / "gaussian.qsig")
    back = fileio.load_qsig(back_path)
    assert linf_diff(orig, back) < 1e-4

    lspec = tmp_path / "l.qsp"
    code, *_ = run(capsys, "qlct", "--in", str(fx / "qgaussian.qsig"),
                   "--out", str(lspec), "--side", "right", "--window", "8",
                   "--a1", "1", "--b1", "1", "--c1", "0", "--d1", "1",
                   "--a2", "1", "--b2", "1", "--c2", "0", "--d2", "1")
    assert code == 0
    lback = tmp_path / "l_back.qsig"
    code, *_ = run(capsys, "iqlct", "--in", str(lspec), "--out", str(lback),
                   "--grid", "64", "--extent", "10")
    assert code == 0
    assert linf_diff(fileio.load_qsig(fx / "qgaussian.qsig"),
                     fileio.load_qsig(lback)) < 1e-4


def test_jump_demo_csv(capsys):
    code, out, _ = run(capsys, "jump-demo", "--M", "25,50,100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "M,N,I_re,I_i,I_j,I_k,abs_err"
    assert len(lines) == 4
    errs = [float(line.split(",")[-1]) for line in lines[1:]]
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 0.03


def test_gauss_mean_csv(capsys):
    code, out, _ = run(capsys, "gauss-mean", "--fixture", "gaussian",
                       "--schedule", "1,0.1", "--grid", "64", "--extent", "6",
                       "--window", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,l1_error"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals[0] > vals[1]


def test_variation_and_lc_diag_csv(capsys, tmp_path):
    code, out, _ = run(capsys, "variation", "--fixture", "gaussian",
                       "--grid", "64", "--extent", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "vitali,line_var_s,line_var_t,is_hardy_bvf,nets_tested"
    assert lines[1].split(",")[3] == "true"

    code, _, err = run(capsys, "variation", "--fixture", "gaussian",
                       "--in", "also.qsig")
    assert code == 1 and "exactly one" in err

    code, out, _ = run(capsys, "lc-diag", "--fixture", "gaussian",
                       "--point", "0,0", "--eps1", "0.5", "--eps2", "0.5",
                       "--radius", "6")
    assert code == 0
    assert out.splitlines()[0] == "val_s,val_t"


def test_image_pipeline_and_stats(capsys, tmp_path):
    rng = np.random.default_rng(5)
    raster = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    ppm = tmp_path / "img.ppm"
    ppm.write_bytes(b"P6\n6 4\n255\n" + raster.tobytes())
    qsig = tmp_path / "img.qsig"
    code, *_ = run(capsys, "img2qsig", "--in", str(ppm), "--out", str(qsig))
    assert code == 0
    out_ppm = tmp_path / "round.ppm"
    code, out, _ = run(capsys, "qsig2img", "--in", str(qsig),
                       "--out", str(out_ppm))
    assert code == 0
    assert out.splitlines()[0] == "scalar_min,scalar_max,scalar_max_abs"
    assert out_ppm.read_bytes() == ppm.read_bytes()


def test_determinism_same_argv_same_bytes(capsys, tmp_path):
    sig = sample(gaussian, GridSpec.centered(6.0, 32))
    src = tmp_path / "g.qsig"
    fileio.save_qsig(sig, src)
    outs = []
    stdouts = []
    for i in range(2):
        dst = tmp_path / f"out{i}.qsp"
        code, out, _ = run(capsys, "qft", "--in", str(src), "--out", str(dst),
                           "--window", "4")
        assert code == 0
        outs.append(dst.read_bytes())
        stdouts.append(out)
    assert outs[0] == outs[1]
    assert stdouts[0] == stdouts[1]

    for _ in range(2):
        code, out, _ = run(capsys, "jump-demo", "--M", "25")
        assert code == 0
        stdouts.append(out)
    assert stdouts[-1] == stdouts[-2]


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "subcommand" in out or "qharmonics" in out


def test_top_level_help_is_the_short_description(capsys):
    """The module's developer notes stay in its docstring, out of ``--help``."""
    code, out, _ = run(capsys, "--help")
    assert code == 0 and cli._DESCRIPTION.split()[0] in out and "Exit codes" in out
    assert "QH_THREADS" in cli.__doc__ and "QH_THREADS" not in out and "BLAS" not in out


def test_nonfinite_input_exit_2_nothing_written(capsys, tmp_path):
    # QSignal2D rejects NaN, so the NaN goes into the encoded payload: the
    # real at data[3, 4, 2] (t-major rows, after the 44-byte header)
    raw = fileio.encode_qsig(QSignal2D(GridSpec.centered(2.0, 8), np.zeros((8, 8, 4))))
    offset = 44 + 8 * ((4 * 8 + 3) * 4 + 2)
    src = tmp_path / "nan.qsig"
    src.write_bytes(raw[:offset] + np.float64(np.nan).tobytes() + raw[offset + 8:])
    out_path = tmp_path / "nan.qsp"
    code, out, err = run(capsys, "qft", "--in", str(src), "--out", str(out_path))
    assert code == 2 and out == "" and "non-finite" in err
    assert not out_path.exists()


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(qharmonics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, qharmonics.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "False"


def test_every_subcommand_runs_on_numpys_core(tmp_path):
    """With scipy's import blocked, each subcommand runs in one process that
    loads neither numpy.ma nor numpy.polynomial."""
    src = os.path.dirname(os.path.dirname(qharmonics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    mats = ["--a1", "2", "--b1", "0.5", "--c1", "2", "--d1", "1",
            "--a2", "1", "--b2=-1", "--c2", "0", "--d2", "1"]
    runs = [["fixtures", "--out-dir", "fx", "--grid", "16"],
            ["qft", "--in", "fx/qgaussian.qsig", "--out", "f.qsp"],
            ["iqft", "--in", "f.qsp", "--out", "f.qsig", "--grid", "16", "--extent", "6"],
            ["qlct", "--side", "left", "--in", "fx/qgaussian.qsig", "--out", "l.qsp", *mats],
            ["iqlct", "--in", "l.qsp", "--out", "l.qsig", "--grid", "16", "--extent", "6"],
            ["qfrft", "--in", "fx/qgaussian.qsig", "--out", "r.qsp", "--alpha", "0.5",
             "--beta", "0.7", "--phase-corrected"],
            ["roundtrip", "--transform", "qlct", "--grid", "16", *mats],
            ["jump-demo", "--M", "25,50"],
            ["gauss-mean", "--grid", "16", "--schedule", "1,0.1"],
            ["variation", "--fixture", "heatgauss", "--grid", "16"],
            ["lc-diag", "--fixture", "qgaussian", "--point", "0.2,-0.1"],
            ["qsig2img", "--in", "fx/qgaussian.qsig", "--out", "q.ppm"],
            ["img2qsig", "--in", "q.ppm", "--out", "q.qsig"]]
    subcommands = next(action.choices for action in cli._build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert sorted(run[0] for run in runs) == sorted(subcommands)
    probe = ("import sys; sys.modules['scipy'] = None; import qharmonics.cli; "
             f"codes = [qharmonics.cli.main(argv) for argv in {runs!r}]; "
             "print(codes, sorted(m for m in ('scipy', 'numpy.ma', 'numpy.polynomial') "
             "if sys.modules.get(m) is not None), file=sys.stderr)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env, cwd=tmp_path)
    assert out.stderr.strip() == f"{[0] * len(runs)} []"


def test_cli_import_does_not_load_numpy_fft():
    """numpy.fft is reached only by an FFT stage, so CLI runs without one
    never load it."""
    src = os.path.dirname(os.path.dirname(qharmonics.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = ("import sys, numpy; before = 'numpy.fft' in sys.modules; import qharmonics.cli; "
             "print(before, 'numpy.fft' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env=env)
    before, after = out.stdout.split()
    assert after == before


@pytest.mark.parametrize("argv", [
    ["roundtrip", "--grid", "16", "--window", "inf"],
    ["roundtrip", "--grid", "16", "--transform", "qlct", "--a1", "nan", "--b1", "1",
     "--c1", "0", "--d1", "1", "--a2", "1", "--b2", "1", "--c2", "0", "--d2", "1"],
    ["roundtrip", "--grid", "16", "--extent", "inf"],
    ["jump-demo", "--M", "nan"],
])
def test_non_finite_flags_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and "finite" in err


def test_failed_write_keeps_existing_output_and_leaves_no_temp(capsys, tmp_path, monkeypatch):
    src = tmp_path / "g.qsig"
    fileio.save_qsig(sample(gaussian, GridSpec.centered(4.0, 8)), src)
    out_path = tmp_path / "g.qsp"
    out_path.write_bytes(b"previous")

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(fileio, "save_qspectrum", fail)  # fails before any file opens
    code, _, err = run(capsys, "qft", "--in", str(src), "--out", str(out_path))
    assert code == 2 and "disk full" in err
    assert out_path.read_bytes() == b"previous"
    monkeypatch.undo()

    chunks = fileio._chunks

    def fail_after_first_block(head, data):
        yield from itertools.islice(chunks(head, data), 2)  # the header and one block
        raise OSError("disk full")

    monkeypatch.setattr(fileio, "_chunks", fail_after_first_block)  # fails mid-file
    code, _, err = run(capsys, "qft", "--in", str(src), "--out", str(out_path))
    assert code == 2 and "disk full" in err
    assert out_path.read_bytes() == b"previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.qsig", "g.qsp"]
    monkeypatch.undo()

    monkeypatch.setattr(os, "replace", fail)  # fails after the temp file is written
    code, _, err = run(capsys, "qft", "--in", str(src), "--out", str(out_path))
    assert code == 2 and "disk full" in err
    assert out_path.read_bytes() == b"previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.qsig", "g.qsp"]


def test_qft_with_tilted_axes_records_them_and_round_trips(capsys, tmp_path):
    sig = sample(qgaussian, GridSpec.centered(6.0, 32))
    src = tmp_path / "q.qsig"
    fileio.save_qsig(sig, src)
    axes = AxisPair(np.array([0.6, 0.8, 0.0]), np.array([0.48, -0.36, 0.8]))
    for side in Side:
        spec_path, back_path = tmp_path / f"{side.value}.qsp", tmp_path / f"{side.value}.qsig"
        code, _, err = run(capsys, "qft", "--in", str(src), "--out", str(spec_path),
                           "--side", side.value, "--mu1=0.6,0.8,0", "--mu2=0.48,-0.36,0.8")
        assert code == 0 and err == ""
        assert fileio.load_qspectrum(spec_path).kind == QftKind(side, axes)
        code, _, err = run(capsys, "iqft", "--in", str(spec_path), "--out", str(back_path),
                           "--grid", "32", "--extent", "6")
        assert code == 0 and err == ""
        # the default window is the natural one, on which the inverse undoes the DFT
        assert linf_diff(sig, fileio.load_qsig(back_path)) < 1e-12


def test_axis_flags_are_usage_errors_where_unread(capsys, tmp_path):
    out = tmp_path / "out"
    commands = [
        ["iqft", "--in", "g.qsp", "--out", str(out)],
        ["iqlct", "--in", "g.qsp", "--out", str(out)],
        ["jump-demo", "--M", "25"],
        ["gauss-mean", "--grid", "16"],
        ["variation", "--fixture", "gaussian"],
        ["lc-diag"],
        ["img2qsig", "--in", "g.ppm", "--out", str(out)],
        ["qsig2img", "--in", "g.qsig", "--out", str(out)],
        ["fixtures", "--out-dir", str(out)],
    ]
    for argv in commands:
        for axes in (["--mu1", "5,5,5"], ["--mu1=nan,1,1", "--mu2=0,1,0"]):
            code, stdout, err = run(capsys, *argv, *axes)
            assert code == 1 and stdout == "" and "unrecognized arguments: --mu1" in err
            assert not out.exists()


NEG_B_MATRICES = ("--a1", "0.5", "--b1=-2", "--c1", "0.25", "--d1", "1",
                  "--a2", "1", "--b2", "1", "--c2", "0", "--d2", "1")


@pytest.mark.parametrize("side", list(Side))
def test_qlct_uses_a_negative_b_matrix_as_given(capsys, tmp_path, side):
    grid = GridSpec.centered(8.0, 32)
    sig = sample(qgaussian, grid)
    src, spec_path, back_path = tmp_path / "q.qsig", tmp_path / "q.qsp", tmp_path / "b.qsig"
    fileio.save_qsig(sig, src)
    natural = FreqWindow.natural(grid)  # scaled by |b1| = 2 and |b2| = 1
    window = f"{2.0 * natural.u_max!r},{natural.v_max!r}"
    code, _, err = run(capsys, "qlct", "--in", str(src), "--out", str(spec_path),
                       "--side", side.value, "--window", window, *NEG_B_MATRICES)
    assert code == 0 and err == ""
    spec = fileio.load_qspectrum(spec_path)
    assert spec.kind.A1.astuple() == (0.5, -2.0, 0.25, 1.0)
    fgrid = spec.window.to_grid()
    ref = qlct_bruteforce(sig, side, spec.kind.A1, spec.kind.A2, spec.kind.axes,
                          fgrid.s, fgrid.t)
    assert np.max(np.abs(spec.data - ref)) < 1e-13
    code, _, err = run(capsys, "iqlct", "--in", str(spec_path), "--out", str(back_path),
                       "--grid", "32", "--extent", "8")
    assert code == 0 and err == ""
    assert linf_diff(sig, fileio.load_qsig(back_path)) < 1e-12


@pytest.mark.parametrize("side", list(Side))
def test_file_inverses_refuse_the_other_family(capsys, tmp_path, side):
    """iqft refuses a QLCT spectrum and iqlct a QFT one: exit 2, nothing
    written."""
    src = tmp_path / "q.qsig"
    fileio.save_qsig(sample(qgaussian, GridSpec.centered(8.0, 16)), src)
    cases = (("qft", [], "iqlct", "not a QLCT spectrum"),
             ("qlct", list(NEG_B_MATRICES), "iqft", "not a QFT spectrum"))
    for forward, flags, inverse, message in cases:
        spec_path, back_path = tmp_path / f"{forward}.qsp", tmp_path / f"{inverse}.qsig"
        code, _, err = run(capsys, forward, "--in", str(src), "--out", str(spec_path),
                           "--side", side.value, *flags)
        assert code == 0 and err == ""
        code, out, err = run(capsys, inverse, "--in", str(spec_path), "--out", str(back_path),
                             "--grid", "16", "--extent", "8")
        assert code == 2 and out == "" and message in err
        assert not back_path.exists()


LCT_FLAGS = ["--a1", "2", "--b1", "0.5", "--c1", "2", "--d1", "1",
             "--a2", "1", "--b2", "1", "--c2", "0", "--d2", "1"]


def test_roundtrip_default_windows(capsys):
    """Without --window, both round trips run on the library's default
    window, where they are exact: the QLCT on the natural window scaled by
    (|b1|, |b2|), the QFT on the natural window, byte for byte the output
    with that window given."""
    base = ["roundtrip", "--fixture", "qgaussian", "--grid", "32", "--extent", "6"]
    for transform in ("qlct", "qft"):
        code, out, err = run(capsys, *base, "--transform", transform, *LCT_FLAGS)
        assert code == 0 and err == ""
        l1, linf = map(float, out.strip().splitlines()[1].split(",")[3:])
        assert l1 < 1e-12 and linf < 1e-12

    natural = FreqWindow.natural(GridSpec.centered(6.0, 32))
    code, default, _ = run(capsys, *base, "--transform", "qft", *LCT_FLAGS)
    code_n, explicit, _ = run(capsys, *base, "--transform", "qft",
                              f"--window={natural.u_max!r}", *LCT_FLAGS)
    assert code == code_n == 0 and default == explicit


@pytest.mark.parametrize("forward", [
    *(pytest.param(("qlct", "--side", side.value, *LCT_FLAGS), id=f"qlct-{side.value}")
      for side in Side),
    pytest.param(("qfrft", "--alpha", "0.5", "--beta", "0.7"), id="qfrft"),
    pytest.param(("qfrft", "--side", "left", "--phase-corrected", "--alpha", "0.5", "--beta",
                  "0.7"), id="qfrft-left-corrected")])
def test_file_round_trips_on_default_windows(capsys, tmp_path, forward):
    """Without --window, qlct and qfrft write their spectra on the natural
    window scaled by |b| (|sin| of the angles for qfrft), from which iqlct
    recovers the signal, also a phase-corrected one of any side."""
    code, _, err = run(capsys, "fixtures", "--out-dir", str(tmp_path), "--grid", "33")
    assert code == 0 and err == ""
    src, spec, back = tmp_path / "qgaussian.qsig", tmp_path / "q.qsp", tmp_path / "b.qsig"
    code, _, err = run(capsys, forward[0], "--in", str(src), "--out", str(spec), *forward[1:])
    assert code == 0 and err == ""
    code, _, err = run(capsys, "iqlct", "--in", str(spec), "--out", str(back),
                       "--grid", "33", "--extent", "6")
    assert code == 0 and err == ""
    assert linf_diff(fileio.load_qsig(src), fileio.load_qsig(back)) < 1e-12


def test_commands_call_the_transforms_by_their_module_names(capsys, tmp_path, monkeypatch):
    """`qft`, `qlct`, `qfrft` and `roundtrip` read the transforms from the
    module when they run, so wrappers bound over those names (as a stage
    trace binds them) see every call."""
    calls = []
    for name in ("qft_forward", "qft_inverse", "qlct_forward", "qlct_inverse"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, fn=fn, name=name, **k: calls.append(name)
                            or fn(*a, **k))
    code, _, err = run(capsys, "fixtures", "--out-dir", str(tmp_path), "--grid", "16")
    src, spec = str(tmp_path / "qgaussian.qsig"), str(tmp_path / "q.qsp")
    for argv in (["qft"], ["qlct", *LCT_FLAGS], ["qfrft", "--alpha", "0.5", "--beta", "0.7"]):
        code, _, err = run(capsys, *argv[:1], "--in", src, "--out", spec, *argv[1:])
        assert code == 0 and err == ""
    for transform in ("qft", "qlct"):
        code, _, err = run(capsys, "roundtrip", "--grid", "16", "--transform", transform,
                           *LCT_FLAGS)
        assert code == 0 and err == ""
    assert calls == ["qft_forward", "qlct_forward", "qlct_forward", "qft_forward", "qft_inverse",
                     "qlct_forward", "qlct_inverse"]


def test_default_windows_take_the_fft_path(capsys, tmp_path, dft_calls):
    """On their default windows the QLCT and QFT round trips and qfrft run
    every stage as an FFT (one block per stage at 32^2); the QFT round trip
    on a window 8 keeps the fold."""
    base = ["roundtrip", "--fixture", "qgaussian", "--grid", "32", "--extent", "6"]
    code, _, err = run(capsys, *base, "--transform", "qlct", *LCT_FLAGS)
    assert code == 0 and err == "" and len(dft_calls) == 4
    code, _, err = run(capsys, *base, "--transform", "qft")
    assert code == 0 and err == "" and len(dft_calls) == 8
    code, _, err = run(capsys, *base, "--transform", "qft", "--window", "8")
    assert code == 0 and err == "" and len(dft_calls) == 8
    code, _, err = run(capsys, "fixtures", "--out-dir", str(tmp_path), "--grid", "32")
    src, spec = tmp_path / "qgaussian.qsig", tmp_path / "q.qsp"
    code, _, err = run(capsys, "qfrft", "--in", str(src), "--out", str(spec),
                       "--alpha", "0.5", "--beta", "0.7")
    assert code == 0 and err == "" and len(dft_calls) == 10


# -- console-script checks on the FFT route (formerly CI steps) ---------------

#: a child's environment: this checkout's qharmonics first on the path, and
#: stdout block-buffered into a pipe (no PYTHONUNBUFFERED), so a lost flush shows
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {
    "PYTHONPATH": os.pathsep.join([os.path.dirname(os.path.dirname(qharmonics.__file__)),
                                   os.environ.get("PYTHONPATH", "")])}


def limit_memory():
    """A child's address space of 2 GiB (``preexec_fn``): a runaway
    allocation fails in the child as a MemoryError, and no field of a
    grid at the node cap fits."""
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = 2 << 30 if hard == resource.RLIM_INFINITY else min(2 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def console(cwd, *argv, status=0, limited=False):
    """``python -m qharmonics.cli argv`` in `cwd`, through the program entry
    as the console script runs it (in 2 GiB of address space if `limited`);
    fails unless it exits with `status` and returns the finished process
    (stdout and stderr as bytes)."""
    out = subprocess.run([sys.executable, "-m", "qharmonics.cli", *argv], capture_output=True,
                         env=CHILD_ENV, cwd=cwd, preexec_fn=limit_memory if limited else None)
    assert out.returncode == status, out.stderr.decode()
    return out


def plancherel_ratio(sig, spec):
    """||F||^2 du dv / (4 pi^2 ||f||^2 ds dt), 1 for a QFT on the natural window."""
    return (np.sum(spec.data ** 2) * spec.grid.cell_area
            / (4 * np.pi ** 2 * np.sum(sig.data ** 2) * sig.grid.cell_area))


@pytest.mark.parametrize("argv, status, want", [
    (["--extent", "1e300"], 1, "qharmonics: invalid --extent: grid cell area and nodes must be "
                               "finite, got area inf"),
    (["--extent", "1", "--window", "1e300"], 1, "qharmonics: invalid window: grid cell area and "
                                                "nodes must be finite, got area inf"),
    (["--extent", "1", "--window", "1e154"], 2, "qharmonics: error: contract on axis 1 gave "
                                                "non-finite values"),
    (["--extent", "1e-320"], 1, "qharmonics: invalid --extent: u_max must be finite, got "
                                "non-finite inf"),
    (["--extent", "1e-160"], 1, "qharmonics: invalid --extent: grid cell area and nodes must be "
                                "finite, got area inf"),
], ids=["extent", "window-grid", "window-sum", "natural-window", "natural-grid"])
def test_console_refuses_an_overflow_in_one_line(tmp_path, argv, status, want):
    """A `roundtrip` whose signal grid (--extent 1e300), frequency grid
    (--window 1e300), natural window (pi / spacing at --extent 1e-320) or
    natural window's grid (--extent 1e-160) overflows exits 1 before it
    samples; one whose inverse sums overflow (--window 1e154) exits 2.  Each
    writes one line on stderr, no numpy warning before it, and nothing on
    stdout or on disk."""
    out = console(tmp_path, "roundtrip", "--grid", "4", *argv, status=status)
    assert out.stdout == b"" and os.listdir(tmp_path) == []
    assert out.stderr.decode().startswith(want) and out.stderr.count(b"\n") == 1


@pytest.mark.parametrize("argv", [
    ["roundtrip"], ["gauss-mean"], ["variation", "--fixture", "gaussian"],
    ["iqft", "--in", "absent.qsp", "--out", "back.qsig"],
    ["fixtures", "--out-dir", "d/sub"],
], ids=["roundtrip", "gauss-mean", "variation", "iqft", "fixtures"])
def test_console_refuses_a_grid_past_the_node_cap(tmp_path, argv):
    """``--grid 1000000000`` (10^18 nodes, 8 GB for one axis's nodes) is a
    usage error naming --grid, raised before any array or directory exists,
    in a child whose 2 GiB address space would turn an allocation into exit
    2; it writes one line and nothing on stdout or on disk."""
    out = console(tmp_path, *argv, "--grid", "1000000000", "--extent", "1", status=1,
                  limited=True)
    assert out.stdout == b"" and os.listdir(tmp_path) == []
    assert out.stderr == (b"qharmonics: invalid --grid: 1000000000 x 1000000000 grid nodes, "
                          b"more than 67108864\n")


@pytest.mark.parametrize("existing", [[], ["d"], ["d", "d/sub"]], ids=["new", "parent", "out-dir"])
def test_console_failed_fixtures_removes_the_directories_it_made(tmp_path, existing):
    """`fixtures --grid 8192`, at the node cap, fails on its first 2 GiB
    sample in a 2 GiB address space (exit 2, one line): it removes the
    directories of --out-dir d/sub that it made, and leaves those that
    existed as they were, with their contents."""
    for name in existing:
        (tmp_path / name).mkdir()
        (tmp_path / name / "keep").write_bytes(b"kept")
    out = console(tmp_path, "fixtures", "--out-dir", "d/sub", "--grid", "8192", status=2,
                  limited=True)
    assert out.stderr.startswith(b"qharmonics: error: Unable to allocate 2.00 GiB")
    assert out.stdout == b"" and out.stderr.count(b"\n") == 1
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == sorted(
        existing + [f"{name}/keep" for name in existing])


def test_console_lc_diag_far_strip_prints_no_warning(tmp_path):
    """`lc-diag --radius 1e300` squares coordinates past the largest double:
    the Gaussian is 0 there, and stderr stays empty (no numpy warning)."""
    out = console(tmp_path, "lc-diag", "--eps1", "0.5", "--eps2", "0.5", "--radius", "1e300")
    assert (out.stdout, out.stderr) == (b"val_s,val_t\n0,0\n", b"")


@pytest.fixture(scope="module")
def fixtures_360(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("fx360")
    console(cwd, "fixtures", "--out-dir", "fx360", "--grid", "360")
    return cwd


@pytest.mark.parametrize("side", [side.value for side in Side])
def test_console_qft_file_round_trip_on_a_360_grid(fixtures_360, side):
    """`qft` on its default window and `iqft` through files on a 360^2
    qgaussian (360 = 2^3 3^2 5 takes the FFT in eight blocks a stage, the
    last partial): Plancherel within 1e-12 and the round trip within 1e-12
    in l-infinity, on every side."""
    console(fixtures_360, "qft", "--side", side, "--in", "fx360/qgaussian.qsig",
            "--out", f"m-{side}.qsp")
    f = fileio.load_qsig(fixtures_360 / "fx360" / "qgaussian.qsig")
    F = fileio.load_qspectrum(fixtures_360 / f"m-{side}.qsp")
    assert abs(plancherel_ratio(f, F) - 1) <= 1e-12
    console(fixtures_360, "iqft", "--in", f"m-{side}.qsp", "--out", f"mback-{side}.qsig",
            "--grid", "360", "--extent", "6")
    assert linf_diff(f, fileio.load_qsig(fixtures_360 / f"mback-{side}.qsig")) < 1e-12


@pytest.fixture(scope="module")
def smooth_image(tmp_path_factory):
    """A 13-smooth odd non-square image, 231 x 195, as PPM and as QSIG."""
    cwd = tmp_path_factory.mktemp("smooth")
    r = np.random.default_rng(11).integers(0, 256, size=(195, 231, 3), dtype=np.uint8)
    (cwd / "smooth.ppm").write_bytes(b"P6\n231 195\n255\n" + r.tobytes())
    console(cwd, "img2qsig", "--in", "smooth.ppm", "--out", "smooth.qsig")
    return cwd


@pytest.mark.parametrize("side", [side.value for side in Side])
def test_console_image_qft_on_its_own_grid(smooth_image, side):
    """`qft` of the 231 x 195 image QSIG (its grid on [0, w] takes the FFT,
    the centre's terms in the angles at the nodes): Plancherel within 1e-12, and the library's
    `qft_inverse` back onto the image's grid within 1e-12 (the CLI `iqft`
    writes only centred square grids), on every side."""
    console(smooth_image, "qft", "--side", side, "--in", "smooth.qsig", "--out", f"{side}.qsp")
    f = fileio.load_qsig(smooth_image / "smooth.qsig")
    F = fileio.load_qspectrum(smooth_image / f"{side}.qsp")
    assert abs(plancherel_ratio(f, F) - 1) <= 1e-12
    assert linf_diff(f, qft_inverse(F, f.grid)) <= 1e-12


def test_console_odd_image_through_qsig_and_its_qft(tmp_path):
    """A 333 x 257 image (factors 37 and 257) through QSIG (several blocks)
    and back gives the same PPM bytes; its `qft` on the image's grid (every
    stage an FFT, its centre a chirp) keeps Plancherel within 1e-12, and the
    library's `qft_inverse` takes it back onto that grid within 1e-12."""
    r = np.random.default_rng(7).integers(0, 256, size=(257, 333, 3), dtype=np.uint8)
    ppm = b"P6\n333 257\n255\n" + r.tobytes()
    (tmp_path / "odd.ppm").write_bytes(ppm)
    console(tmp_path, "img2qsig", "--in", "odd.ppm", "--out", "odd.qsig")
    console(tmp_path, "qsig2img", "--in", "odd.qsig", "--out", "odd-back.ppm")
    assert (tmp_path / "odd-back.ppm").read_bytes() == ppm
    console(tmp_path, "qft", "--in", "odd.qsig", "--out", "odd.qsp")
    f, F = fileio.load_qsig(tmp_path / "odd.qsig"), fileio.load_qspectrum(tmp_path / "odd.qsp")
    assert abs(plancherel_ratio(f, F) - 1) <= 1e-12
    assert linf_diff(f, qft_inverse(F, f.grid)) <= 1e-12


@pytest.fixture(scope="module")
def fixtures_37(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("fx37")
    console(cwd, "fixtures", "--out-dir", "fx", "--grid", "37")
    return cwd


@pytest.mark.parametrize("fixtures_dir, n", [("fixtures_33", 33), ("fixtures_37", 37)],
                         ids=["33", "37"])
def test_console_left_qft_file_round_trip_on_odd_grids(request, fixtures_dir, n):
    """`qft --side left` on its default window and `iqft` through files on
    the n^2 qgaussian (33 = 3 * 11 and the prime 37 take the FFT) give it
    back within 1e-12 in l-infinity."""
    cwd = request.getfixturevalue(fixtures_dir)
    console(cwd, "qft", "--side", "left", "--in", "fx/qgaussian.qsig", "--out", "f.qsp")
    console(cwd, "iqft", "--in", "f.qsp", "--out", "fback.qsig", "--grid", str(n),
            "--extent", "6")
    f = fileio.load_qsig(cwd / "fx" / "qgaussian.qsig")
    assert linf_diff(f, fileio.load_qsig(cwd / "fback.qsig")) < 1e-12


def test_console_plancherel_on_the_default_window_at_64(tmp_path):
    """`qft` on its default window of the 64^2 qgaussian (the FFT) keeps
    Plancherel within 1e-12."""
    console(tmp_path, "fixtures", "--out-dir", "fx", "--grid", "64")
    console(tmp_path, "qft", "--in", "fx/qgaussian.qsig", "--out", "g.qsp")
    f = fileio.load_qsig(tmp_path / "fx" / "qgaussian.qsig")
    F = fileio.load_qspectrum(tmp_path / "g.qsp")
    assert abs(plancherel_ratio(f, F) - 1) <= 1e-12


# -- console-script round trips on narrow windows (formerly CI steps) ---------

def test_console_roundtrip_on_a_narrow_window_and_an_odd_grid(tmp_path):
    """`roundtrip` on window 5 over the 301^2 grid of extent 4, where every
    stage is low-rank, exits 0 with a finite error."""
    out = console(tmp_path, "roundtrip", "--fixture", "qgaussian", "--grid", "301", "--extent",
                  "4", "--window", "5")
    assert np.isfinite(roundtrip_linf(out.stdout))


#: the `roundtrip` CSV of a two-sided QFT recomputed by the library on the
#: whole field (the fixture called once on the whole mesh), for a child that
#: imports the CLI first and so runs BLAS on the CLI's threads: at 1024^2 the
#: GEMMs' last digits depend on their thread count
WHOLE_FIELD_CSV = """
import sys
import qharmonics.cli
import numpy as np
from qharmonics import fixtures, grids, qft, quaternion
name, n, extent, window = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), float(sys.argv[4])
g, k = grids.GridSpec.centered(extent, n), qft.QftKind()
f = grids.evaluate(fixtures.FIXTURES[name], *g.mesh())
spec = qft.qft_forward(grids.QSignal2D(g, f), k, qft.FreqWindow.square(window, n))
e = quaternion.qabs(qft.qft_inverse(spec, g).data - f)
print("fixture,side,transform,l1_error,linf_error")
print(f"{name},two,qft,{float(np.sum(e) * g.cell_area):.17g},{float(np.max(e)):.17g}")
"""


@pytest.mark.parametrize("argv", [("indicator", "300", "4", "6"), ("qgaussian", "1024", "10", "8")],
                         ids=["indicator-300", "qgaussian-1024"])
def test_console_roundtrip_csv_is_a_whole_field_recomputation(tmp_path, argv):
    """The CSV of a `roundtrip` process equals byte for byte the residual of
    the library's round trip of the whole field: on the indicator at 300
    (the last block of s-rows partial), and on the qgaussian at 1024^2
    (blocked sampling, the residual in the inverse's field)."""
    fixture, n, extent, window = argv
    got = console(tmp_path, "roundtrip", "--fixture", fixture, "--grid", n, "--extent", extent,
                  "--window", window)
    want = subprocess.run([sys.executable, "-c", WHOLE_FIELD_CSV, *argv], capture_output=True,
                          env=CHILD_ENV, check=True)
    assert got.stdout == want.stdout


# -- console-script checks of the QLCT phases (formerly CI steps) -------------

#: the matrices of the CI's QLCT round trips: A1 with b = 0.5, A2 the shear
GENERIC_FLAGS = ("--a1", "2", "--b1", "0.5", "--c1", "2", "--d1", "1",
                 "--a2", "1", "--b2", "1", "--c2", "0", "--d2", "1")


def roundtrip_linf(out):
    """The linf_error of a one-line `roundtrip` CSV."""
    header, line = out.decode().strip().splitlines()
    return float(dict(zip(header.split(","), line.split(",")))["linf_error"])


@pytest.mark.parametrize("argv", [
    pytest.param(("--grid", "32", "--extent", "8", "--window",
                  "12.566370614359172,6.283185307179586", "--a1", "0.5", "--b1=-2", "--c1",
                  "0.25", "--d1", "1", "--a2", "1", "--b2", "1", "--c2", "0", "--d2", "1"),
                 id="negative-b"),
    pytest.param(("--grid", "32", "--extent", "6") + GENERIC_FLAGS, id="default-window"),
    pytest.param(("--side", "left", "--grid", "33", "--extent", "6") + GENERIC_FLAGS,
                 id="sided-odd-grid")])
def test_console_qlct_roundtrips(tmp_path, argv):
    """`roundtrip --transform qlct` on qgaussian: with a negative b on a
    window of 4 pi by 2 pi, on its default window, and sided on an odd grid
    (in-place stages, odd n), each exits 0 with a finite error."""
    out = console(tmp_path, "roundtrip", "--transform", "qlct", "--fixture", "qgaussian", *argv)
    assert np.isfinite(roundtrip_linf(out.stdout))


def test_console_sided_qlct_on_a_narrow_window(tmp_path):
    """A right-sided QLCT round trip at 512^2 on window 8 (its first stage
    is interpolated before the second runs): linf within 1e-6 relative of
    4.1886112491731141e-07."""
    out = console(tmp_path, "roundtrip", "--transform", "qlct", "--side", "right", "--fixture",
                  "qgaussian", "--grid", "512", "--extent", "10", "--window", "8", "--a1", "1",
                  "--b1", "1", "--c1", "0", "--d1", "1", "--a2", "0.5", "--b2=-1", "--c2", "1",
                  "--d2", "0")
    assert abs(roundtrip_linf(out.stdout) / 4.1886112491731141e-07 - 1) <= 1e-6


@pytest.fixture(scope="module")
def fixtures_33(tmp_path_factory):
    cwd = tmp_path_factory.mktemp("fx33")
    console(cwd, "fixtures", "--out-dir", "fx", "--grid", "33")
    return cwd


def test_console_qlct_file_round_trip_on_every_side(fixtures_33):
    """`qlct` on its default window and `iqlct` through files on the 33^2
    qgaussian, every side within 1e-12 in l-infinity; `iqft` refuses the
    QLCT spectrum (exit 2) and writes nothing."""
    f = fileio.load_qsig(fixtures_33 / "fx" / "qgaussian.qsig")
    for side in (side.value for side in Side):
        console(fixtures_33, "qlct", "--side", side, "--in", "fx/qgaussian.qsig", "--out", "q.qsp",
                *GENERIC_FLAGS)
        console(fixtures_33, "iqlct", "--in", "q.qsp", "--out", "back.qsig", "--grid", "33",
                "--extent", "6")
        assert linf_diff(f, fileio.load_qsig(fixtures_33 / "back.qsig")) < 1e-12
    console(fixtures_33, "iqft", "--in", "q.qsp", "--out", "wrong.qsig", status=2)
    assert not (fixtures_33 / "wrong.qsig").exists()


def test_console_qlct_default_window_is_the_library_rule(fixtures_33):
    """`qlct` of a b < 0 matrix pair on the 33^2 fixture writes the same
    bytes without --window as with --window the natural window scaled by
    (|b1|, |b2|), as the library gives it."""
    m = ("--a1", "0.5", "--b1=-2", "--c1", "0.25", "--d1", "1", "--a2", "1", "--b2=-0.5", "--c2",
         "0", "--d2", "1")
    console(fixtures_33, "qlct", "--in", "fx/qgaussian.qsig", "--out", "default.qsp", *m)
    grid = fileio.load_qsig(fixtures_33 / "fx" / "qgaussian.qsig").grid
    w = FreqWindow.natural(grid).scaled(abs(-2.0), abs(-0.5))
    console(fixtures_33, "qlct", "--in", "fx/qgaussian.qsig", "--out", "explicit.qsp",
            "--window", f"{w.u_max!r},{w.v_max!r}", *m)
    assert ((fixtures_33 / "default.qsp").read_bytes()
            == (fixtures_33 / "explicit.qsp").read_bytes())


# -- the program entry: exit codes, messages and outputs (formerly CI steps) --

@pytest.fixture(scope="module")
def fixtures_16(tmp_path_factory):
    """The 16^2 fixtures in ``fxu``, a QSIG file with a bad magic, and a
    ``blocked`` directory whose ``heatgauss.qsig`` is a directory, so that
    ``fixtures --out-dir blocked`` fails at its second file's rename."""
    cwd = tmp_path_factory.mktemp("fx16")
    console(cwd, "fixtures", "--out-dir", "fxu", "--grid", "16")
    (cwd / "junk.qsig").write_bytes(b"JUNKJUNKJUNK")
    (cwd / "blocked" / "heatgauss.qsig").mkdir(parents=True)
    return cwd


def tree(cwd):
    """Every path under `cwd`, relative to it, sorted."""
    return sorted(str(path.relative_to(cwd)) for path in cwd.rglob("*"))


def without_pid(text):
    """`text` with the process id in a temp file's name (``*.tmp-<pid>``) blanked."""
    return re.sub(rb"\.tmp-\d+", b".tmp-", text)


@pytest.mark.parametrize("argv, status, err", [
    pytest.param(("roundtrip", "--grid", "16"), 0, "", id="roundtrip"),
    pytest.param(("jump-demo", "--M", "25,50"), 0, "", id="sinc-partial-sums"),
    pytest.param(("lc-diag", "--fixture", "qgaussian", "--point", "0.2,-0.1"), 0, "",
                 id="pointwise-lc-diag"),
    pytest.param(("jump-demo", "--fixture", "qgaussian", "--point", "0.3,-0.2", "--M", "25,100"),
                 0, "", id="pointwise-jump-demo"),
    pytest.param(("variation", "--fixture", "heatgauss", "--grid", "64"), 0, "",
                 id="pointwise-variation"),
    pytest.param(("gauss-mean", "--grid", "32", "--schedule", "1,0.1"), 0, "", id="gauss-means"),
    pytest.param(("qfrft", "--in", "fxu/gaussian.qsig", "--out", "deg.qsp", "--alpha", "0",
                  "--beta", "0.7"), 1, "fractional kernel degenerates", id="qfrft-sin-alpha-0"),
    pytest.param(("jump-demo", "--M", "1e17"), 1, "sinc panels, more than 1024",
                 id="jump-demo-panel-cap"),
    pytest.param(("lc-diag", "--eps1", "0"), 1, "strip half-widths must be positive",
                 id="lc-diag-strip"),
    pytest.param(("gauss-mean", "--schedule", "1,2"), 1, "strictly decreasing",
                 id="gauss-mean-schedule"),
    pytest.param(("roundtrip", "--transform", "qlct", "--a1", "1", "--b1", "0", "--c1", "0",
                  "--d1", "1", "--a2", "1", "--b2", "1", "--c2", "0", "--d2", "1"), 1,
                 "degenerate (b = 0)", id="qlct-inverse-b0"),
    pytest.param(("qft", "--in", "junk.qsig", "--out", "never.qsp"), 2, "bad magic",
                 id="runtime-error-load"),
    pytest.param(("fixtures", "--out-dir", "blocked", "--grid", "16"), 2, "Is a directory",
                 id="runtime-error-rename")])
def test_console_exits_with_mains_code_and_bytes(fixtures_16, capsysbinary, monkeypatch, argv,
                                                 status, err):
    """The program entry exits with the code in-process `main` returns (0,
    1 or 2) and writes the same stdout and stderr bytes (but for the process
    id in a temp file's name).  A success writes nothing on stderr, a usage
    error nothing on stdout, and a command that fails leaves the directory
    as it found it: ``fixtures`` removes the file it wrote before the
    rename onto a directory failed, and leaves no ``*.tmp-*`` file."""
    before = tree(fixtures_16)
    done = console(fixtures_16, *argv, status=status)
    assert err.encode() in done.stderr and (status != 0 or done.stderr == b"")
    assert status != 1 or done.stdout == b""
    assert status == 0 or tree(fixtures_16) == before
    monkeypatch.chdir(fixtures_16)
    assert main(list(argv)) == status
    got = capsysbinary.readouterr()
    assert (got.out, without_pid(got.err)) == (done.stdout, without_pid(done.stderr))
    assert status == 0 or tree(fixtures_16) == before


def test_main_leaves_the_collector_as_it_found_it(capsys):
    """Only the program entry freezes the collector: `main` in process
    leaves it enabled or disabled, and frozen, as it was."""
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            frozen = gc.get_freeze_count()
            assert main(["roundtrip", "--grid", "16"]) == 0
            assert main(["jump-demo", "--M", "1e17"]) == 1
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        gc.enable() if was else gc.disable()


def test_program_freezes_the_collector_and_exits_normally():
    """`program` exits with `main`'s code through a normal exit: atexit
    handlers run, with the collector's objects frozen, and stdout is
    flushed."""
    code = ("import atexit, gc, sys; from qharmonics import cli; "
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0)); "
            "sys.argv[1:] = ['jump-demo', '--M', '25']; cli.program()")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=CHILD_ENV)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("M,N,I_re") and out.stdout.endswith("\nfrozen True\n")
