import itertools
import os

import numpy as np
import pytest

import qharmonics.fileio as fileio
import qharmonics.grids as grids
from qharmonics.errors import (
    BadMagicError,
    BadPpmError,
    BadVersionError,
    InvalidParameterError,
    InvalidWindowError,
    NonFiniteError,
    QsigFormatError,
    ShapeMismatchError,
    TruncatedPayloadError,
)
from qharmonics.fixtures import gaussian, get_fixture, indicator, qgaussian
from qharmonics.grids import (
    GridSpec,
    QSignal2D,
    QSpectrum2D,
    image_to_qsig,
    l1_norm,
    linf_diff,
    qsig_to_image,
    sample,
)
from qharmonics.qft import FreqWindow, QftKind, Side, qft_forward
from qharmonics.qlct import LctKind, LctParams, qfrft, qlct_forward
from qharmonics.smoothing import (
    dirichlet_partial_inverse_freq,
    dirichlet_partial_inverse_sinc,
    eta_jump_average,
    gauss_mean_inverse,
    gauss_weierstrass_kernel,
    lc_class_diagnostic,
    sinc_integral_bound_check,
)
from qharmonics.quaternion import AxisPair, qabs
from qharmonics.variation import Net, hardy_bvf_check, vitali_variation


def rand_signal(n=8, seed=0, extent=2.0):
    rng = np.random.default_rng(seed)
    return QSignal2D(GridSpec.centered(extent, n), rng.normal(size=(n, n, 4)))


def test_gridspec_validation_and_midpoints():
    with pytest.raises(ValueError):
        GridSpec(0, 0, 0.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        GridSpec(0, 0, 1.0, 1.0, 0, 4)
    for ns, nt in [(2.5, 3), (3, 3.0), (np.nan, 4), (4, np.float64(4)), ("4", 4)]:
        with pytest.raises(InvalidParameterError):
            GridSpec(0, 0, 1.0, 1.0, ns, nt)
    assert GridSpec(0, 0, 1.0, 1.0, np.int64(3), np.uint32(2)).s.size == 3
    g = GridSpec.centered(2.0, 4)
    np.testing.assert_allclose(g.s, [-1.5, -0.5, 0.5, 1.5])
    np.testing.assert_allclose(g.t, [-1.5, -0.5, 0.5, 1.5])


def test_sample_constant_and_symmetry():
    g = GridSpec.centered(3.0, 16)
    ones = sample(lambda S, T: np.ones(np.broadcast(S, T).shape), g)
    assert np.all(ones.data[..., 0] == 1.0) and np.all(ones.data[..., 1:] == 0.0)
    gs = sample(gaussian, g)
    np.testing.assert_array_equal(gs.data, gs.data[::-1, ::-1])


def test_sample_shares_no_fixture_memory_and_copies_the_rest(traced_peak):
    """The signal's data is one array that `sample` fills a block of s-rows
    at a time: it shares memory with nothing the fixture returned, and a
    512^2 `qgaussian` sample traces at most one field plus two blocks.  A
    view of caller memory, an array the fixture keeps a reference to, and a
    broadcast each give the signal an array of its own."""
    g = GridSpec.centered(3.0, 8)
    made = []

    def fresh(S, T):
        made.append(qgaussian(S, T))
        return made[-1]

    for n in (8, 300):  # one block, and six with a partial last one
        made.clear()
        sig = sample(fresh, GridSpec.centered(3.0, n))
        assert len(made) == len(grids.row_blocks(n, n * 32))
        assert not any(np.shares_memory(sig.data, out) for out in made)
        np.testing.assert_array_equal(sig.data, qgaussian(*sig.grid.mesh()))
    n = 512
    sig, peak = traced_peak(lambda: sample(qgaussian, GridSpec.centered(10.0, n)))
    assert peak <= sig.data.nbytes + 2 * grids.BLOCK_BYTES
    caller = np.random.default_rng(1).normal(size=(2, 8, 8, 4))
    kept = caller[1].copy()
    broadcast = np.broadcast_to(np.array([1.0, 2.0, 3.0, 4.0]), (8, 8, 4))
    for fn, source in ((lambda S, T: caller[0], caller), (lambda S, T: kept, kept),
                       (lambda S, T: broadcast, broadcast)):
        before = source.copy()
        sig = sample(fn, g)
        assert not np.shares_memory(sig.data, source) and sig.data.flags.owndata
        np.testing.assert_array_equal(sig.data, np.broadcast_to(before[0] if source is caller
                                                                else before, (8, 8, 4)))
        sig.data[...] = 0.0
        np.testing.assert_array_equal(source, before)


def test_sample_puts_real_results_in_the_scalar_part():
    """A result of ndim <= 2 is real and goes, broadcast over the block, into
    the scalar part: a Python scalar, and a field that ignores a coordinate
    (even on a t axis of 4 points); one of ndim 3 is a quaternion; any other
    shape raises ShapeMismatchError."""
    g = GridSpec.centered(2.0, 4)
    S, T = g.mesh()
    want = np.zeros((4, 4, 4))
    for fn, real in ((lambda S, T: 2.0, 2.0), (lambda S, T: np.exp(-S ** 2), np.exp(-S ** 2)),
                     (lambda S, T: np.exp(-T ** 2), np.exp(-T ** 2)),
                     (lambda S, T: np.exp(-T[0] ** 2), np.exp(-T ** 2))):
        want[..., 0] = real
        np.testing.assert_array_equal(sample(fn, g).data, want)
    quat = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(sample(lambda S, T: quat[None, None], g).data,
                                  np.broadcast_to(quat, (4, 4, 4)))
    g3 = GridSpec.centered(2.0, 4, nt=3)
    np.testing.assert_array_equal(sample(lambda S, T: np.exp(-T ** 2), g3).data[..., 0],
                                  np.broadcast_to(np.exp(-g3.t ** 2), (4, 3)))
    for bad in (np.ones(3), np.ones((4, 4, 3)), np.ones((1, 4, 4, 4)), np.ones((5, 4))):
        with pytest.raises(ShapeMismatchError):
            sample(lambda S, T: bad, g)


#: the pointwise consumers of a fixture beside ``sample`` (whose cases are the
#: table above), on small inputs
FIXTURE_CONSUMERS = {
    "sinc": lambda fn: dirichlet_partial_inverse_sinc(fn, (0.3, -0.2), 5.0, 5.0,
                                                      (-1.5, 1.5, -1.5, 1.5)),
    "eta": lambda fn: eta_jump_average(fn, (0.3, -0.2)).quadrant_values,
    "lc": lambda fn: lc_class_diagnostic(fn, (0.2, -0.1), 0.5, 0.5, 4.0, n_inner=8, n_outer=16),
    "vitali": lambda fn: vitali_variation(fn, Net.uniform(-1.0, 1.0, 5, -1.0, 1.0, 6)),
}

#: fixture results of every shape: the accepted ones, then the refused ones
FIXTURE_SHAPES = {
    "scalar": lambda S, T: 2.0,
    "s_only": lambda S, T: np.exp(-S ** 2),
    "t_only": lambda S, T: np.exp(-T ** 2),
    "quaternion_constant": lambda S, T: np.array([1.0, 2.0, 3.0, 4.0])[None, None],
    "bad_3": lambda S, T: np.ones(3),
    "bad_quaternion_3": lambda S, T: np.ones(np.broadcast(S, T).shape + (3,)),
    "bad_ndim_4": lambda S, T: np.ones((1, 1, 1, 4)),
}


def _broadcast_twin(fn):
    """``fn`` with its result complete: the coordinates' full shape (and (4,))."""
    def full(S, T):
        vals = np.asarray(fn(S, T), dtype=float)
        return np.broadcast_to(vals, np.broadcast(S, T).shape + vals.shape[2:]).copy()
    return full


@pytest.mark.parametrize("shape", sorted(FIXTURE_SHAPES))
@pytest.mark.parametrize("consumer", sorted(FIXTURE_CONSUMERS))
def test_every_fixture_consumer_reads_results_by_one_rule(consumer, shape):
    """Each consumer reads a scalar, a field that ignores a coordinate and a
    quaternion constant as their broadcast-complete twins (the variation
    nets refuse the quaternion, whose field is not real, both ways); a
    result of shape (3,), (..., 3) or ndim 4 raises ShapeMismatchError."""
    run, fn = FIXTURE_CONSUMERS[consumer], FIXTURE_SHAPES[shape]
    if shape.startswith("bad"):
        with pytest.raises(ShapeMismatchError):
            run(fn)
    elif consumer == "vitali" and shape == "quaternion_constant":
        for f in (fn, _broadcast_twin(fn)):
            with pytest.raises(InvalidParameterError):
                run(f)
    else:
        np.testing.assert_array_equal(run(fn), run(_broadcast_twin(fn)))


@pytest.mark.parametrize("ns,nt,rows", [(300, 300, 54), (3, 20000, 1)], ids=["300x300", "3x20000"])
def test_residual_moduli_consumes_the_field_a_block_of_s_rows_at_a_time(ns, nt, rows):
    """The moduli |data - ref| of a 300x300 field (54 s-rows a block, the
    last block partial) and of a 3x20000 one (a row larger than a block,
    one row a block), bit for bit the whole-field moduli, with the same sum
    and max, written into the front of ``data``."""
    assert grids.row_blocks(ns, nt * 32)[0] == slice(0, rows)
    rng = np.random.default_rng(6)
    data, ref = rng.normal(size=(ns, nt, 4)), rng.normal(size=(ns, nt, 4))
    whole = qabs(data - ref)
    asked = []
    mod = grids.residual_moduli(data, lambda r: asked.append(r) or ref[r])
    assert asked == grids.row_blocks(ns, nt * 32)
    assert mod.shape == (ns, nt) and np.shares_memory(mod, data)
    np.testing.assert_array_equal(mod, whole)
    assert np.sum(mod) == np.sum(whole) and np.max(mod) == np.max(whole)


def test_sample_indicator_interior_count():
    g = GridSpec.centered(2.0, 4)
    ind = sample(indicator, g)
    assert ind.data[..., 0].sum() == 4.0


def test_sample_nonfinite():
    g = GridSpec.centered(1.0, 4)
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteError):
        sample(lambda S, T: 1.0 / (S - S[0, 0]) * np.ones_like(T), g)


def test_l1_norm_constant_and_homogeneous():
    g = GridSpec(0.0, 0.0, 0.1, 0.1, 10, 10)
    ones = sample(lambda S, T: np.ones(np.broadcast(S, T).shape), g)
    assert abs(l1_norm(ones) - 1.0) < 1e-12
    sig = rand_signal(12, seed=5)
    for c in (-2.5, 0.3):
        scaled = QSignal2D(sig.grid, c * sig.data)
        np.testing.assert_allclose(l1_norm(scaled), abs(c) * l1_norm(sig), rtol=1e-12)


def test_l1_norm_gaussian_pi():
    sig = sample(gaussian, GridSpec.centered(6.0, 256))
    assert abs(l1_norm(sig) - np.pi) / np.pi < 1e-6


def test_linf_diff():
    sig = rand_signal()
    assert linf_diff(sig, sig) == 0.0
    with pytest.raises(ShapeMismatchError):
        linf_diff(sig, rand_signal(n=10))


def test_qsig_roundtrip_bit_exact(tmp_path):
    sig = rand_signal()
    path = tmp_path / "x.qsig"
    fileio.save_qsig(sig, path)
    back = fileio.load_qsig(path)
    assert back.grid == sig.grid
    assert back.data.tolist() == sig.data.tolist()
    # resaving is byte-identical
    path2 = tmp_path / "y.qsig"
    fileio.save_qsig(back, path2)
    assert path.read_bytes() == path2.read_bytes()
    # a pipe cannot seek: its bytes are read whole
    read_end, write_end = os.pipe()
    os.write(write_end, path.read_bytes())
    os.close(write_end)
    try:
        assert fileio.load_qsig(f"/dev/fd/{read_end}").data.tobytes() == sig.data.tobytes()
    finally:
        os.close(read_end)


def test_qsig_payload_byte_layout(tmp_path):
    # documented layout: little-endian, t index slowest in the payload
    g = GridSpec(0.0, 0.0, 1.0, 1.0, 3, 2)
    data = np.arange(3 * 2 * 4, dtype=float).reshape(3, 2, 4)
    path = tmp_path / "layout.qsig"
    fileio.save_qsig(QSignal2D(g, data), path)
    raw = path.read_bytes()
    assert raw[:4] == b"QSG1"
    ns, nt = np.frombuffer(raw, dtype="<u4", count=2, offset=4)
    assert (ns, nt) == (3, 2)
    payload = np.frombuffer(raw, dtype="<f8", offset=44).reshape(2, 3, 4)
    for k in range(3):
        for l in range(2):
            assert payload[l, k].tolist() == data[k, l].tolist()


# blocks of one t-row of a 4-wide field: a 4x4 payload spans four blocks
ONE_ROW_BLOCKS = 4 * 32


def test_qsig_format_errors(tmp_path, monkeypatch):
    sig = rand_signal(4)
    path = tmp_path / "x.qsig"
    fileio.save_qsig(sig, path)
    raw = path.read_bytes()
    oversized = bytearray(raw)
    oversized[7] |= 0x80  # ns with its top bit set declares a 256 GiB payload
    cases = [
        (b"NOPE" + raw[4:], BadMagicError),
        (b"QSG9" + raw[4:], BadVersionError),
        # header says 4x4 but only 3 quaternions of payload follow
        (raw[:4 + 8 + 32] + raw[44:44 + 3 * 32], TruncatedPayloadError),
        (raw[:-40], TruncatedPayloadError),  # the payload ends inside its last t-row
        (bytes(oversized), TruncatedPayloadError),  # refused before allocating
        (raw + b"\x00", QsigFormatError),
    ]
    bad = tmp_path / "bad.qsig"
    for block_bytes in (grids.BLOCK_BYTES, ONE_ROW_BLOCKS):
        monkeypatch.setattr(grids, "BLOCK_BYTES", block_bytes)
        for buf, error in cases:
            bad.write_bytes(buf)
            with pytest.raises(error):
                fileio.load_qsig(bad)
            with pytest.raises(error):
                fileio.decode_qsig(buf)


def test_failed_save_keeps_the_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    chunks = fileio._chunks

    def fail_after_first_block(head, data):
        yield from itertools.islice(chunks(head, data), 2)  # the header and one block
        raise OSError("disk full")

    monkeypatch.setattr(fileio, "_chunks", fail_after_first_block)
    monkeypatch.setattr(grids, "BLOCK_BYTES", 8 * 32)  # one t-row of the 8x8 signal per block
    path = tmp_path / "x.qsig"
    path.write_bytes(b"previous")
    with pytest.raises(OSError, match="disk full"):
        fileio.save_qsig(rand_signal(), path)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["x.qsig"]


FILE_IO_CASES = [("save_qsig", 0.25), ("save_qspectrum", 0.25), ("load_qsig", 1.25),
                 ("load_qspectrum", 1.25), ("image_to_qsig", 1.25), ("qsig_to_image", 0.5)]


@pytest.mark.parametrize("name,bound", FILE_IO_CASES, ids=[c[0] for c in FILE_IO_CASES])
def test_file_io_holds_one_field(tmp_path, traced_peak, name, bound):
    """Peak traced allocation of one 512^2 file or image call, in units of
    the field (n*n*4 doubles); its inputs are allocated beforehand.  A save
    holds one block of t-rows, a load or an image decode the field it
    returns plus one block, an image encode its raster, the PPM bytes and
    one block."""
    n = 512
    rng = np.random.default_rng(4)
    sig = QSignal2D(GridSpec.centered(10.0, n), rng.normal(size=(n, n, 4)))
    window = FreqWindow(8.0, 8.0, n, n)
    spec = QSpectrum2D(window.to_grid(), rng.normal(size=(n, n, 4)), QftKind(), window)
    raster = rng.integers(0, 256, size=3 * n * n, dtype=np.uint8)
    ppm = f"P6\n{n} {n}\n255\n".encode() + raster.tobytes()
    image = image_to_qsig(ppm)
    qsig, qsp = tmp_path / "x.qsig", tmp_path / "x.qsp"
    fileio.save_qsig(sig, qsig)
    fileio.save_qspectrum(spec, qsp)
    call = {"save_qsig": lambda: fileio.save_qsig(sig, qsig),
            "save_qspectrum": lambda: fileio.save_qspectrum(spec, qsp),
            "load_qsig": lambda: fileio.load_qsig(qsig),
            "load_qspectrum": lambda: fileio.load_qspectrum(qsp),
            "image_to_qsig": lambda: image_to_qsig(ppm),
            "qsig_to_image": lambda: qsig_to_image(image)}[name]
    peak = traced_peak(call)[1]
    assert peak / (n * n * 4 * 8) < bound


def test_spectrum_roundtrip_qft_and_qlct(tmp_path):
    sig = rand_signal(8, seed=9)
    axes = AxisPair(np.array([0.0, 0.6, 0.8]), np.array([1.0, 0.0, 0.0]))
    kind = QftKind(Side.RIGHT_SIDED, axes)
    spec = qft_forward(sig, kind, FreqWindow.square(3.0, 8))
    path = tmp_path / "s.qsp"
    fileio.save_qspectrum(spec, path)
    back = fileio.load_qspectrum(path)
    assert back.kind == spec.kind
    assert back.window == spec.window
    assert back.data.tolist() == spec.data.tolist()

    lkind = LctKind(Side.TWO_SIDED, LctParams(1.0, 1.0, 0.0, 1.0),
                    LctParams(0.0, -1.0, 1.0, 0.0))  # negative b, kept as given
    from qharmonics.qlct import qlct_forward
    lspec = qlct_forward(sig, lkind, FreqWindow.square(3.0, 8))
    fileio.save_qspectrum(lspec, path)
    lback = fileio.load_qspectrum(path)
    assert lback.kind == lspec.kind
    assert lback.kind.A2.b == -1.0
    assert lback.data.tolist() == lspec.data.tolist()

    with pytest.raises(BadMagicError):
        fileio.load_qsig(path)  # spectra are not signals


def test_qsp_sign_flag_bits_are_ignored_on_read():
    # older writers set flag bits 1-2 for a matrix they had flipped to -A;
    # the stored matrix is the one the data was computed with
    sig = rand_signal(8, seed=12)
    window = FreqWindow.square(3.0, 8)
    spectra = [
        qlct_forward(sig, LctKind(Side.LEFT_SIDED, LctParams(1.0, 1.0, 0.0, 1.0),
                                  LctParams(0.0, -1.0, 1.0, 0.0)), window),
        qfrft(sig, -0.7, 0.4, Side.TWO_SIDED, window, phase_corrected=True),
    ]
    for spec in spectra:
        raw = bytearray(fileio.encode_qspectrum(spec))
        assert raw[45] == int(spec.kind.phase_corrected)  # flags byte
        raw[45] |= 0b110
        back = fileio.decode_qspectrum(bytes(raw))
        assert back.kind == spec.kind
        assert back.data.tobytes() == spec.data.tobytes()


def test_get_fixture_unknown_name_is_a_library_error():
    assert get_fixture("gaussian") is gaussian
    with pytest.raises(InvalidParameterError, match="unknown fixture 'nosuch'"):
        get_fixture("nosuch")


def test_ppm_decode_encode():
    white = b"P6\n1 1\n255\n\xff\xff\xff"
    sig = image_to_qsig(white)
    np.testing.assert_array_equal(sig.data[0, 0], [0.0, 1.0, 1.0, 1.0])
    assert np.all(sig.data[..., 0] == 0.0)

    rng = np.random.default_rng(11)
    raster = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    ppm = b"P6\n# a comment\n7 5\n255\n" + raster.tobytes()
    sig = image_to_qsig(ppm)
    assert sig.grid.ns == 7 and sig.grid.nt == 5
    out, stats = qsig_to_image(sig)
    assert out == b"P6\n7 5\n255\n" + raster.tobytes()
    assert stats["scalar_max_abs"] == 0.0


def test_ppm_errors():
    with pytest.raises(BadPpmError):
        image_to_qsig(b"P5\n1 1\n255\n\xff")
    with pytest.raises(BadPpmError):
        image_to_qsig(b"P6\n1 1\n65535\n\xff\xff\xff")
    with pytest.raises(BadPpmError):
        image_to_qsig(b"P6\n2 2\n255\n\xff")  # truncated raster
    with pytest.raises(BadPpmError):
        image_to_qsig(b"P6\nx 1\n255\n\xff\xff\xff")


def test_qsig_to_image_modes():
    g = GridSpec(0.0, 0.0, 1.0, 1.0, 2, 2)
    data = np.zeros((2, 2, 4))
    data[..., 1] = 1.5  # out of range on both sides: clamped
    data[..., 2] = -0.5
    sig = QSignal2D(g, data)
    out, _ = qsig_to_image(sig)
    assert out.endswith(bytes([255, 0, 0] * 4))


@pytest.mark.parametrize("bad_value,block_bytes", [
    pytest.param(np.nan, grids.BLOCK_BYTES, id="nan"),
    pytest.param(np.inf, grids.BLOCK_BYTES, id="inf"),
    pytest.param(np.nan, ONE_ROW_BLOCKS, id="nan-one-row-blocks"),
    pytest.param(np.inf, ONE_ROW_BLOCKS, id="inf-one-row-blocks")])
def test_loaders_reject_nonfinite_values(tmp_path, monkeypatch, bad_value, block_bytes):
    monkeypatch.setattr(grids, "BLOCK_BYTES", block_bytes)
    sig = rand_signal(4)
    path = tmp_path / "x.qsig"
    fileio.save_qsig(sig, path)
    raw = path.read_bytes()
    bad = tmp_path / "bad.qsig"
    for offset in (4 + 8 + 16, len(raw) - 8):  # the ds header field, the last payload real
        bad.write_bytes(raw[:offset] + np.float64(bad_value).tobytes() + raw[offset + 8:])
        with pytest.raises(QsigFormatError):
            fileio.load_qsig(bad)

    spec = qft_forward(sig, QftKind(), FreqWindow.square(3.0, 4))
    fileio.save_qspectrum(spec, path)
    raw = path.read_bytes()
    # the u_max window field follows the grid header, kind/flag bytes and axes
    for offset in (4 + 8 + 32 + 2 + 48, len(raw) - 8):
        bad.write_bytes(raw[:offset] + np.float64(bad_value).tobytes() + raw[offset + 8:])
        with pytest.raises(QsigFormatError):
            fileio.load_qspectrum(bad)


@pytest.mark.parametrize("bad_value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_every_float_field_of_a_container_refuses_non_finite_values(bad_value):
    """A non-finite value in any float field of a QSIG or a QLCT QSP is a
    QsigFormatError, raised where the decoded value meets the constructor
    that checks it; the payload's names the sample."""
    sig = rand_signal(4)
    kind = LctKind(Side.TWO_SIDED, LctParams(2.0, 0.5, 2.0, 1.0), LctParams(1.0, 1.0, 0.0, 1.0))
    spec = qlct_forward(sig, kind, FreqWindow.square(3.0, 4))
    # byte offsets of the f64 fields: the grid header after magic and counts,
    # then (QSP) axes after the tag and flag bytes, window extents, matrices
    grid_fields = list(range(12, 44, 8))
    qsp_fields = grid_fields + list(range(46, 110, 8)) + list(range(118, 182, 8))
    sample = 8 * ((2 * 4 + 1) * 4 + 3)  # data[1, 2, 3], in rows of t
    for raw, decode, fields, payload in ((fileio.encode_qsig(sig), fileio.decode_qsig,
                                          grid_fields, 44),
                                         (fileio.encode_qspectrum(spec), fileio.decode_qspectrum,
                                          qsp_fields, 182)):
        assert len(raw) == payload + 4 * 4 * 32
        for offset in fields + [payload + sample]:
            buf = raw[:offset] + np.float64(bad_value).tobytes() + raw[offset + 8:]
            with pytest.raises(QsigFormatError) as info:
                decode(buf)
            if offset == payload + sample:
                assert "index (1, 2, 3)" in str(info.value)


NAN_DATA = np.full((4, 4, 4), np.nan)
COMPLEX_DATA = np.full((4, 4, 4), 1 + 2j)
GAUSS_SIG = QSignal2D(GridSpec.centered(1.0, 4), np.ones((4, 4, 4)))
GAUSS_SPEC = qft_forward(GAUSS_SIG, QftKind(), FreqWindow.square(2.0, 4))


def gauss_mean(schedule):
    return gauss_mean_inverse(GAUSS_SPEC, schedule, reference=GAUSS_SIG)


@pytest.mark.parametrize("make,error", [
    (lambda: GridSpec(0, 0, np.inf, 1, 4, 4), NonFiniteError),
    (lambda: GridSpec(np.nan, 0, 1, 1, 4, 4), NonFiniteError),
    (lambda: GridSpec(0, 0, -1.0, 1, 4, 4), InvalidParameterError),
    (lambda: GridSpec(0, 0, 1, 1, 4, 0), InvalidParameterError),
    (lambda: FreqWindow(np.inf, 1.0, 4, 4), NonFiniteError),
    (lambda: QSignal2D(GridSpec.centered(1.0, 4), NAN_DATA), NonFiniteError),
    (lambda: QSignal2D(GridSpec.centered(1.0, 4), np.full((4, 4, 4), -np.inf)), NonFiniteError),
    (lambda: QSpectrum2D(GridSpec.centered(1.0, 4), NAN_DATA, QftKind()), NonFiniteError),
    (lambda: LctParams(np.nan, 1.0, 0.0, 1.0), NonFiniteError),
    (lambda: LctParams(1.0, 1.0, 1.0, 1.0), InvalidParameterError),
    (lambda: gauss_mean((np.nan,)), NonFiniteError),
    (lambda: gauss_mean((1.0, np.inf)), NonFiniteError),
    (lambda: gauss_mean((0.1, 1.0)), InvalidParameterError),
    (lambda: Net([0.0, np.nan, 1.0], [0.0, 1.0]), NonFiniteError),
    (lambda: Net([0.0, 1.0], [-np.inf, 1.0]), NonFiniteError),
    (lambda: Net([0.0, 1.0, 1.0], [0.0, 1.0]), InvalidParameterError),
    # refused before numpy converts (or divides by) them; a ComplexWarning is an error here
    (lambda: QSignal2D(GridSpec.centered(1.0, 4), COMPLEX_DATA), InvalidParameterError),
    (lambda: QSpectrum2D(GridSpec.centered(1.0, 4), COMPLEX_DATA, QftKind()),
     InvalidParameterError),
    (lambda: GridSpec.centered(1.0, 0), InvalidParameterError),
    (lambda: GridSpec.centered(1.0, 4, nt=0), InvalidParameterError),
    (lambda: GridSpec.centered(1.0, None), InvalidParameterError),
    (lambda: GridSpec.centered("1", 4), InvalidParameterError),
    (lambda: GridSpec("0", 0, 1.0, 1.0, 4, 4), InvalidParameterError),
    (lambda: GridSpec(0, 0, None, 1.0, 4, 4), InvalidParameterError),
    (lambda: FreqWindow("1", 1.0, 4, 4), InvalidWindowError),
    (lambda: FreqWindow(1.0, None, 4, 4), InvalidWindowError),
    (lambda: LctParams("1", 1.0, 0.0, 1.0), InvalidParameterError),
    (lambda: LctParams(1.0, None, 0.0, 1.0), InvalidParameterError),
])
def test_constructors_raise_typed_errors(make, error):
    with pytest.raises(error):
        make()


RECT = (-4.0, 4.0, -4.0, 4.0)
WINDOW = FreqWindow.square(2.0, 4)
I_AXIS, J_AXIS = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])

#: id: (the argument's name in the messages, a call with the bad value `v` in
#: that argument, as an entry where it is a sequence, the parameter-error class)
BOUNDARY_ARGUMENTS = {
    "sinc-M": ("M", lambda v: dirichlet_partial_inverse_sinc(gaussian, (0, 0), v, 2.0, RECT),
               InvalidParameterError),
    "sinc-N": ("N", lambda v: dirichlet_partial_inverse_sinc(gaussian, (0, 0), 2.0, v, RECT),
               InvalidParameterError),
    "sinc-point": ("point", lambda v: dirichlet_partial_inverse_sinc(gaussian, (0, v), 2.0, 2.0,
                                                                     RECT),
                   InvalidParameterError),
    "sinc-rect": ("rect", lambda v: dirichlet_partial_inverse_sinc(gaussian, (0, 0), 2.0, 2.0,
                                                                   (-4.0, v, -4.0, 4.0)),
                  InvalidParameterError),
    "freq-M": ("M", lambda v: dirichlet_partial_inverse_freq(GAUSS_SPEC, (0, 0), v, 2.0),
               InvalidParameterError),
    "freq-N": ("N", lambda v: dirichlet_partial_inverse_freq(GAUSS_SPEC, (0, 0), 2.0, v),
               InvalidParameterError),
    "freq-point": ("point", lambda v: dirichlet_partial_inverse_freq(GAUSS_SPEC, (v, 0), 2.0, 2.0),
                   InvalidParameterError),
    "eta-point": ("point", lambda v: eta_jump_average(gaussian, (v, 0)), InvalidParameterError),
    "eta-h0": ("h0", lambda v: eta_jump_average(gaussian, (0, 0), h0=v), InvalidParameterError),
    "lc-point": ("point", lambda v: lc_class_diagnostic(gaussian, (0, v), 0.5, 0.5, 4.0),
                 InvalidParameterError),
    "lc-eps1": ("eps1", lambda v: lc_class_diagnostic(gaussian, (0, 0), v, 0.5, 4.0),
                InvalidParameterError),
    "lc-radius": ("radius", lambda v: lc_class_diagnostic(gaussian, (0, 0), 0.5, 0.5, v),
                  InvalidParameterError),
    "gauss_mean-schedule": ("schedule", lambda v: gauss_mean((1.0, v)), InvalidParameterError),
    "kernel-alpha": ("alpha", lambda v: gauss_weierstrass_kernel(v, GridSpec.centered(1.0, 4)),
                     InvalidParameterError),
    "sinc_bound-a": ("a", lambda v: sinc_integral_bound_check(v, 1.0), InvalidParameterError),
    "sinc_bound-b": ("b", lambda v: sinc_integral_bound_check(0.0, v), InvalidParameterError),
    "hardy-bound": ("bound", lambda v: hardy_bvf_check(np.zeros((3, 3)),
                                                       Net.uniform(0, 1, 2, 0, 1, 2), bound=v),
                    InvalidParameterError),
    "Net-s_cuts": ("s_cuts", lambda v: Net([0.0, v, 2.0], [0.0, 1.0]), InvalidParameterError),
    "Net.uniform-s_lo": ("s_lo", lambda v: Net.uniform(v, 1.0, 2, 0.0, 1.0, 2),
                         InvalidParameterError),
    "qfrft-alpha": ("alpha", lambda v: qfrft(GAUSS_SIG, v, 0.7, Side.TWO_SIDED, WINDOW),
                    InvalidParameterError),
    "qfrft-beta": ("beta", lambda v: qfrft(GAUSS_SIG, 0.7, v, Side.TWO_SIDED, WINDOW),
                   InvalidParameterError),
    "rotation-angle": ("angle", lambda v: LctParams.rotation(v), InvalidParameterError),
    "AxisPair-vector": ("axis", lambda v: AxisPair([v, 0.0, 0.0], J_AXIS), InvalidParameterError),
    "AxisPair-quaternion": ("axis", lambda v: AxisPair(I_AXIS, [v, 0.0, 1.0, 0.0]),
                            InvalidParameterError),
    "scaled-fu": ("fu", lambda v: WINDOW.scaled(v, 1.0), InvalidWindowError),
    "scaled-fv": ("fv", lambda v: WINDOW.scaled(1.0, v), InvalidWindowError),
    "spectrum-factor": ("factor", lambda v: GAUSS_SPEC.scaled(v), InvalidParameterError),
}


@pytest.mark.parametrize("value", ["1", None, 1 + 2j, np.nan, np.inf, -np.inf],
                         ids=["str", "None", "complex", "nan", "inf", "-inf"])
@pytest.mark.parametrize("case", list(BOUNDARY_ARGUMENTS))
def test_every_boundary_refuses_non_real_and_non_finite_arguments(case, value):
    """One rule at every boundary, before any comparison or numpy call on the
    argument: a string, None or a complex raises the boundary's parameter
    error, NaN or an infinity NonFiniteError (the sine integral takes
    infinite ends), and each message names the argument."""
    name, call, error = BOUNDARY_ARGUMENTS[case]
    if case.startswith("sinc_bound") and value in (np.inf, -np.inf):
        assert call(value) <= 6.0
        return
    with pytest.raises(NonFiniteError if isinstance(value, float) else error,
                       match=rf"\b{name}\b"):
        call(value)


def test_spectrum_scaled_takes_a_scalar_or_a_field_of_its_own_shape():
    """A factor of shape () or (ns, nt) scales every part of each sample; any
    other shape, one numpy would broadcast against the parts, raises."""
    field = np.arange(16.0).reshape(4, 4)
    scaled = GAUSS_SPEC.scaled(field)
    assert np.array_equal(scaled.data, GAUSS_SPEC.data * field[..., None])
    assert (scaled.kind, scaled.window) == (GAUSS_SPEC.kind, GAUSS_SPEC.window)
    assert np.array_equal(GAUSS_SPEC.scaled(2).data, 2.0 * GAUSS_SPEC.data)
    for shape in ((4,), (4, 1), (1, 4), (4, 5), (4, 4, 4), (1,)):
        with pytest.raises(ShapeMismatchError, match=r"\bfactor\b"):
            GAUSS_SPEC.scaled(np.ones(shape))


def _corruptions(raw):
    """Every single-bit flip of `raw`, then every proper prefix of it."""
    for offset in range(len(raw)):
        for bit in range(8):
            buf = bytearray(raw)
            buf[offset] ^= 1 << bit
            yield bytes(buf)
    for cut in range(len(raw)):
        yield raw[:cut]


@pytest.mark.parametrize("family", ["qsig", "qft", "qlct"])
def test_every_bit_flip_and_truncation_raises_only_format_errors(family):
    sig = rand_signal(8, seed=21)
    if family == "qsig":
        raw, decode = fileio.encode_qsig(sig), fileio.decode_qsig
    else:
        window = FreqWindow.square(3.0, 8)
        spec = (qft_forward(sig, QftKind(Side.LEFT_SIDED), window) if family == "qft" else
                qlct_forward(sig, LctKind(Side.TWO_SIDED, LctParams(2.0, 0.5, 2.0, 1.0),
                                          LctParams(1.0, 1.0, 0.0, 1.0)), window))
        raw, decode = fileio.encode_qspectrum(spec), fileio.decode_qspectrum
    for buf in _corruptions(raw):
        try:
            decode(buf)
        except QsigFormatError:
            pass


def _bit_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _awkward_values(rng, shape):
    """Normal draws salted with -0.0, subnormals and extremes, which a lossy codec would alter."""
    data = rng.normal(size=shape)
    flat = data.reshape(-1)
    picks = rng.integers(0, flat.size, size=min(flat.size, 4))
    flat[picks] = [-0.0, 5e-324, -1.7976931348623157e308, 1e-310][:picks.size]
    return data


@pytest.mark.parametrize("ns, nt", [(1, 1), (1, 6), (7, 1), (5, 5), (9, 4), (3, 14)])
def test_qsig_roundtrip_bit_for_bit_at_odd_and_nonsquare_shapes(ns, nt):
    rng = np.random.default_rng(1000 * ns + nt)
    grid = GridSpec(*rng.uniform(-3, 3, size=2), *rng.uniform(0.05, 2.0, size=2), ns, nt)
    sig = QSignal2D(grid, _awkward_values(rng, (ns, nt, 4)))
    raw = fileio.encode_qsig(sig)
    back = fileio.decode_qsig(raw)
    assert back.grid == sig.grid
    assert _bit_equal(back.data, sig.data)
    assert fileio.encode_qsig(back) == raw


@pytest.mark.parametrize("nu, nv", [(2, 2), (3, 5), (7, 2), (4, 9)])
@pytest.mark.parametrize("family", ["qft", "qlct"])
def test_qspectrum_roundtrip_bit_for_bit_at_odd_and_nonsquare_shapes(family, nu, nv):
    rng = np.random.default_rng(100 * nu + nv)
    sig = QSignal2D(GridSpec.centered(2.0, 5), rng.normal(size=(5, 5, 4)))
    window = FreqWindow(*rng.uniform(0.5, 4.0, size=2), nu, nv)
    side = Side(rng.choice(["two", "right", "left"]))
    if family == "qft":
        spec = qft_forward(sig, QftKind(side), window)
    else:
        spec = qlct_forward(sig, LctKind(side, LctParams(2.0, 0.5, 2.0, 1.0),
                                         LctParams(0.0, -1.0, 1.0, 0.0)), window)
    spec = QSpectrum2D(spec.grid, _awkward_values(rng, spec.data.shape), spec.kind, spec.window)
    raw = fileio.encode_qspectrum(spec)
    back = fileio.decode_qspectrum(raw)
    assert (back.grid, back.kind, back.window) == (spec.grid, spec.kind, spec.window)
    assert _bit_equal(back.data, spec.data)
    assert fileio.encode_qspectrum(back) == raw


@pytest.mark.parametrize("width, height", [(1, 1), (1, 4), (6, 1), (3, 8), (13, 5)])
def test_ppm_roundtrip_bit_for_bit_through_qsig(width, height):
    rng = np.random.default_rng(10 * width + height)
    raster = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    ppm = f"P6\n{width} {height}\n255\n".encode() + raster.tobytes()
    sig = fileio.decode_qsig(fileio.encode_qsig(image_to_qsig(ppm)))
    assert (sig.grid.ns, sig.grid.nt) == (width, height)
    out, _ = qsig_to_image(sig)
    assert out == ppm
