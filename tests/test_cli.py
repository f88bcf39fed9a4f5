import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import qharmonics
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
        back = qlct_inverse(qlct_forward(sig, kind, window), kind, grid)
    else:
        back = qft_inverse(qft_forward(sig, QftKind(), window), QftKind(), grid)
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

    code, out, err = run(capsys, "bogus-subcommand")
    assert code == 1


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
    """Without --window, the QLCT round trip runs on the natural window
    scaled by (|b1|, |b2|), where it is exact; the QFT keeps the window 8."""
    base = ["roundtrip", "--fixture", "qgaussian", "--grid", "32", "--extent", "6"]
    code, out, err = run(capsys, *base, "--transform", "qlct", *LCT_FLAGS)
    assert code == 0 and err == ""
    l1, linf = map(float, out.strip().splitlines()[1].split(",")[3:])
    assert l1 < 1e-12 and linf < 1e-12

    code, default, _ = run(capsys, *base, "--transform", "qft", *LCT_FLAGS)
    code8, explicit, _ = run(capsys, *base, "--transform", "qft", "--window", "8", *LCT_FLAGS)
    assert code == code8 == 0 and default == explicit


@pytest.mark.parametrize("forward", [
    *(pytest.param(("qlct", "--side", side.value, *LCT_FLAGS), id=f"qlct-{side.value}")
      for side in Side),
    pytest.param(("qfrft", "--alpha", "0.5", "--beta", "0.7"), id="qfrft")])
def test_file_round_trips_on_default_windows(capsys, tmp_path, forward):
    """Without --window, qlct and qfrft write their spectra on the natural
    window scaled by |b| (|sin| of the angles for qfrft), from which iqlct
    recovers the signal."""
    code, _, err = run(capsys, "fixtures", "--out-dir", str(tmp_path), "--grid", "33")
    assert code == 0 and err == ""
    src, spec, back = tmp_path / "qgaussian.qsig", tmp_path / "q.qsp", tmp_path / "b.qsig"
    code, _, err = run(capsys, forward[0], "--in", str(src), "--out", str(spec), *forward[1:])
    assert code == 0 and err == ""
    code, _, err = run(capsys, "iqlct", "--in", str(spec), "--out", str(back),
                       "--grid", "33", "--extent", "6")
    assert code == 0 and err == ""
    assert linf_diff(fileio.load_qsig(src), fileio.load_qsig(back)) < 1e-12


def test_default_windows_take_the_fft_path(capsys, tmp_path, dft_calls):
    """On their default windows the QLCT round trip and qfrft run every stage
    as an FFT (one block per stage at 32^2); the QFT round trip, on its
    window 8, keeps the fold."""
    base = ["roundtrip", "--fixture", "qgaussian", "--grid", "32", "--extent", "6"]
    code, _, err = run(capsys, *base, "--transform", "qlct", *LCT_FLAGS)
    assert code == 0 and err == "" and len(dft_calls) == 4
    code, _, err = run(capsys, *base, "--transform", "qft")
    assert code == 0 and err == "" and len(dft_calls) == 4
    code, _, err = run(capsys, "fixtures", "--out-dir", str(tmp_path), "--grid", "32")
    src, spec = tmp_path / "qgaussian.qsig", tmp_path / "q.qsp"
    code, _, err = run(capsys, "qfrft", "--in", str(src), "--out", str(spec),
                       "--alpha", "0.5", "--beta", "0.7")
    assert code == 0 and err == "" and len(dft_calls) == 6
