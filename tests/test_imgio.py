import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdsr.guidance import luminance
from gdsr.imgio import (
    ImageFormatError,
    load_image,
    load_luminance,
    load_pfm_grid,
    quantize,
    save_error_map,
    save_image,
)


def _levels(values, maxval):
    """``values`` moved onto the quantization grid, divided back as the
    decoder divides: saving and loading them must return them bit for bit."""
    return quantize(values, maxval) / maxval


def test_p5_8bit_readback(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5 2 2 255\n" + bytes([0, 128, 255, 64]))
    img = load_image(path)
    assert isinstance(img, np.ndarray) and img.dtype == np.float64
    want = np.array([[0, 128], [255, 64]]) / 255.0
    assert np.array_equal(img, want)


def test_p5_16bit_big_endian(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n" + bytes([0x01, 0x00]))
    img = load_image(path)
    assert img[0, 0] == 256 / 65535


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "comment.pgm"
    path.write_bytes(b"P5\n# a comment line\n 2\t1 # inline\n255\n" + bytes([7, 9]))
    img = load_image(path)
    assert np.array_equal(img, np.array([[7, 9]]) / 255.0)


def test_p6_color_readback(tmp_path):
    path = tmp_path / "tiny.ppm"
    path.write_bytes(b"P6 1 1 255\n" + bytes([255, 0, 128]))
    img = load_image(path)
    assert isinstance(img, np.ndarray) and img.dtype == np.float64
    assert img.shape == (1, 1, 3)
    assert np.array_equal(img[0, 0], [1.0, 0.0, 128 / 255])


@pytest.mark.parametrize("fmt,maxval", [("pgm8", 255), ("pgm16", 65535)])
def test_pgm_roundtrip_exact(tmp_path, fmt, maxval):
    rng = np.random.default_rng(80)
    img = _levels(rng.random((11, 7)), maxval)
    path = tmp_path / f"rt.{fmt}.pgm"
    save_image(img, path, fmt)
    back = load_image(path)
    assert np.array_equal(back, img)


@pytest.mark.parametrize("fmt,maxval", [("ppm8", 255), ("ppm16", 65535)])
def test_ppm_roundtrip_exact(tmp_path, fmt, maxval):
    rng = np.random.default_rng(81)
    rgb = np.stack([_levels(rng.random((5, 9)), maxval) for _ in range(3)], axis=-1)
    path = tmp_path / f"rt.{fmt}.ppm"
    save_image(rgb, path, fmt)
    back = load_image(path)
    assert back.shape == (5, 9, 3)
    assert np.array_equal(back, rgb)


@pytest.mark.parametrize("shape", [(4, 4), (4, 4, 1), (4, 4, 4), (0, 4, 3), (2, 4, 4, 3)])
def test_ppm_output_requires_rgb_array(tmp_path, shape):
    path = tmp_path / "bad.ppm"
    with pytest.raises(ValueError, match=r"\(M, N, 3\) array"):
        save_image(np.zeros(shape), path, "ppm8")
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["pgm8", "ppm16"])
@pytest.mark.parametrize("sample", [np.nan, np.inf, -np.inf])
def test_netpbm_output_rejects_non_finite_samples(tmp_path, fmt, sample):
    img = np.full((2, 3, 3) if fmt.startswith("ppm") else (2, 3), 0.5)
    img[1, 2] = sample
    path = tmp_path / "bad"
    with pytest.raises(ValueError, match="non-finite"):
        save_image(img, path, fmt)
    assert not path.exists()


def test_pfm_roundtrip_exact_for_float32_values(tmp_path):
    rng = np.random.default_rng(82)
    img = rng.random((6, 4)).astype(np.float32).astype(np.float64)
    path = tmp_path / "rt.pfm"
    save_image(img, path, "pfm")
    back = load_image(path)
    assert np.array_equal(back, img)


def test_pfm_negative_values_via_grid_loader(tmp_path):
    coeffs = np.array([[1.5, -2.25], [0.0, 8.0]])
    path = tmp_path / "coeffs.pfm"
    save_image(coeffs, path, "pfm")
    assert np.array_equal(load_pfm_grid(path), coeffs)
    with pytest.raises(ImageFormatError, match="negative"):
        load_image(path)  # depth loader rejects negative samples


def test_pfm_big_endian_scale_sign(tmp_path):
    payload = np.array([[2.0, 3.0]], dtype=">f4").tobytes()
    path = tmp_path / "be.pfm"
    path.write_bytes(b"Pf\n2 1\n1.0\n" + payload)
    img = load_image(path)
    assert np.array_equal(img, np.array([[2.0, 3.0]]))


def test_malformed_inputs(tmp_path):
    cases = {
        "badmagic.img": b"P9 1 1 255\n\x00",
        "truncated.pgm": b"P5 4 4 255\n\x00\x00",
        "nomax.pgm": b"P5 2 2",
        "zeromax.pgm": b"P5 1 1 0\n\x00",
        "hugemax.pgm": b"P5 1 1 70000\n\x00\x00",
        "colorpfm.pfm": b"PF\n1 1\n-1.0\n" + b"\x00" * 12,
        "badscale.pfm": b"Pf\n1 1\n0.0\n" + b"\x00" * 4,
        "gluedmagic.pgm": b"P52 1 255\n\x07\x09",
        "gluedpfm.pfm": b"Pf1 1\n-1.0\n" + b"\x00" * 4,
        "underscore.pgm": b"P5 1_0 1 255\n" + b"\x00" * 10,
        "plussign.pgm": b"P5 +2 1 255\n\x01\x02",
        "hugeint.pgm": b"P5 " + b"1" * 5000 + b" 1 255\n",
    }
    for name, blob in cases.items():
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(ImageFormatError):
            load_image(path)


@pytest.mark.parametrize("loader", [load_image, load_pfm_grid])
@pytest.mark.parametrize("header, match", [
    (b"Pf\n2 2\nabc\n", "scale"),
    (b"Pf\n2 2\n0.0\n", "scale"),
    (b"Pf\n2 2\nnan\n", "scale"),
    (b"Pf\n0 2\n-1.0\n", "dimensions"),
    (b"Pf\n2 0\n-1.0\n", "dimensions"),
    (b"Pf\n-2 -2\n-1.0\n", "dimensions"),
], ids=["nonnumeric-scale", "zero-scale", "nan-scale", "zero-width", "zero-height",
        "negative-size"])
def test_pfm_bad_header_is_format_error(tmp_path, loader, header, match):
    path = tmp_path / "bad.pfm"
    path.write_bytes(header + b"\x00" * 16)
    with pytest.raises(ImageFormatError, match=match):
        loader(path)


def test_sample_exceeding_maxval_rejected(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5 1 1 100\n" + bytes([200]))
    with pytest.raises(ImageFormatError, match="maxval"):
        load_image(path)


@pytest.mark.parametrize("name, fmt, loader, bound", [
    # file bytes, plus the float grid, plus load_luminance's one plane buffer
    ("guide.ppm", "ppm8", load_luminance, 2.5),
    ("depth.pgm", "pgm16", load_image, 1.35),
    ("depth.pfm", "pfm", load_image, 1.65),
], ids=["ppm8-luminance", "pgm16", "pfm"])
def test_decoders_read_the_payload_in_place(tmp_path, name, fmt, loader, bound):
    # a sliced payload was a second copy of the samples: 2.78, 1.50 and 2.00 grids
    rng = np.random.default_rng(5)
    shape = (480, 640, 3) if fmt == "ppm8" else (480, 640)
    path = tmp_path / name
    save_image(rng.random(shape), path, fmt)
    grid = 480 * 640 * 8
    tracemalloc.start()
    try:
        loader(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * grid, f"peak {peak / grid:.2f} grids"


def test_save_error_map_levels(tmp_path):
    gt = np.full((3, 3), 0.5)
    for pred_val, expected in ((0.5, 0), (0.6, 255), (0.55, 128)):
        pred = np.full((3, 3), pred_val)
        path = tmp_path / f"err_{expected}.pgm"
        save_error_map(pred, gt, path, max_err=0.1)
        back = load_image(path)
        assert np.array_equal(quantize(back, 255), np.full((3, 3), expected))


def test_save_error_map_validation(tmp_path):
    gt = np.zeros((2, 2))
    with pytest.raises(ValueError, match="max_err"):
        save_error_map(gt, gt, tmp_path / "x.pgm", max_err=0.0)
    with pytest.raises(ValueError, match="dimension"):
        save_error_map(np.zeros((2, 3)), gt, tmp_path / "x.pgm", 1.0)


def test_save_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(83)
    img = rng.random((9, 9))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    save_image(img, p1, "pgm16")
    save_image(img, p2, "pgm16")
    assert p1.read_bytes() == p2.read_bytes()


def _load_blob(blob, loader=load_image):
    """Decode ``blob`` as a file; hypothesis examples get no tmp_path."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "blob"
        path.write_bytes(blob)
        return loader(path)


_SIZES = st.tuples(st.integers(1, 24), st.integers(1, 24))


@settings(max_examples=60, deadline=None)
@given(size=_SIZES, maxval=st.integers(1, 65535), color=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_netpbm_readback_any_size_and_maxval(size, maxval, color, seed):
    M, N = size
    planes = 3 if color else 1
    ints = np.random.default_rng(seed).integers(0, maxval + 1, size=(M, N, planes))
    dtype = ">u2" if maxval > 255 else "u1"
    magic = b"P6" if color else b"P5"
    blob = magic + f"\n{N} {M}\n{maxval}\n".encode() + ints.astype(dtype).tobytes()
    img = _load_blob(blob)
    want = ints / maxval
    if color:
        assert img.shape == (M, N, 3)
        assert np.array_equal(img, want)
    else:
        assert isinstance(img, np.ndarray)
        assert np.array_equal(img, want[:, :, 0])


@settings(max_examples=40, deadline=None)
@given(size=_SIZES, fmt=st.sampled_from(["pgm8", "pgm16", "ppm8", "ppm16"]),
       seed=st.integers(0, 2**32 - 1))
def test_netpbm_save_load_round_trip(size, fmt, seed):
    maxval = 255 if fmt.endswith("8") else 65535
    rng = np.random.default_rng(seed)
    planes = [_levels(rng.random(size), maxval) for _ in range(3)]
    img = np.stack(planes, axis=-1) if fmt.startswith("ppm") else planes[0]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "rt"
        save_image(img, path, fmt)
        back = load_image(path)
    assert back.shape == img.shape and np.array_equal(back, img)


_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@settings(max_examples=40, deadline=None)
@given(size=_SIZES, data=st.data(), little=st.booleans())
def test_pfm_round_trip_any_size(size, data, little):
    values = np.array(data.draw(st.lists(_F32, min_size=size[0] * size[1],
                                         max_size=size[0] * size[1]))).reshape(size)
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "rt.pfm"
        save_image(values, path, "pfm")
        assert np.array_equal(load_pfm_grid(path), values)
        if values.min() >= 0.0:
            assert np.array_equal(load_image(path), values)
    # the scale line's sign picks the byte order; rows are stored bottom-up
    endian, scale = ("<f4", b"-1.0") if little else (">f4", b"2.5")
    blob = b"Pf\n%d %d\n%s\n" % (size[1], size[0], scale)
    assert np.array_equal(_load_blob(blob + values[::-1].astype(endian).tobytes(),
                                     load_pfm_grid), values)


@pytest.mark.parametrize("sample", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("loader", [load_image, load_pfm_grid])
def test_pfm_non_finite_samples_are_format_errors(loader, sample):
    payload = np.array([[1.0, sample]], dtype="<f4").tobytes()
    with pytest.raises(ImageFormatError, match="non-finite"):
        _load_blob(b"Pf\n2 1\n-1.0\n" + payload, loader)


_TOKENS = st.one_of(
    st.integers(-3, 70000).map(lambda v: str(v).encode()),
    st.sampled_from([b"-1.0", b"1.0", b"0.0", b"nan", b"inf", b"1e40", b"+7", b"0x10", b"1_0"]),
    st.binary(min_size=1, max_size=4),
)
_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"  ", b"# note\n", b"#", b""])


@st.composite
def _headers(draw):
    """A magic number, then a few tokens and separators, then a payload."""
    blob = draw(st.sampled_from([b"P5", b"P6", b"Pf", b"PF", b"P4", b"", b"P"]))
    for _ in range(draw(st.integers(0, 5))):
        blob += draw(_SEPARATORS) + draw(_TOKENS)
    return blob + draw(_SEPARATORS) + draw(st.binary(max_size=64))


def _valid_files():
    rng = np.random.default_rng(84)
    return [
        b"P5\n4 3\n255\n" + quantize(rng.random((3, 4)), 255).tobytes(),
        b"P5\n2 2\n65535\n" + np.arange(4, dtype=">u2").tobytes(),
        b"P6 2 1 255\n" + bytes(range(6)),
        b"Pf\n2 2\n-1.0\n" + np.array([0.5, 1.0, 2.0, 0.0], dtype="<f4").tobytes(),
    ]


@st.composite
def _mutated_files(draw):
    """A valid file with bytes replaced, inserted, removed or cut off."""
    blob = bytearray(draw(st.sampled_from(_valid_files())))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(blob)))
        op = draw(st.sampled_from(["set", "insert", "delete", "truncate"]))
        if op == "set" and pos < len(blob):
            blob[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            blob[pos:pos] = draw(st.binary(min_size=1, max_size=3))
        elif op == "delete":
            del blob[pos:pos + 1]
        elif op == "truncate":
            del blob[pos:]
    return bytes(blob)


def _decodes_or_format_error(blob, loader):
    try:
        img = _load_blob(blob, loader)
    except ImageFormatError:
        return
    assert np.all(np.isfinite(img))


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(_headers(), _mutated_files(), st.binary(max_size=40)),
       loader=st.sampled_from([load_image, load_pfm_grid]))
def test_fuzzed_files_raise_only_format_errors(blob, loader):
    _decodes_or_format_error(blob, loader)


def _outcome(blob, loader):
    """What ``loader`` makes of ``blob``: what it returns, or the text of
    the ImageFormatError it raises."""
    try:
        return _load_blob(blob, loader)
    except ImageFormatError as exc:
        return f"ImageFormatError: {exc}"


def _luminance_of_load_image(blob):
    """The oracle of load_luminance: the luminance of the decoded P6 array,
    None for a decoded grayscale grid, or load_image's error text."""
    img = _outcome(blob, load_image)
    if isinstance(img, str):
        return img
    return luminance(img) if img.ndim == 3 else None


def _assert_same_outcome(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.dtype == want.dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    else:
        assert got == want


_HEADER_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# a comment\n",
                                      b" # inline 1 2 3\n"])


@settings(max_examples=80, deadline=None)
@given(size=_SIZES, maxval=st.one_of(st.sampled_from([1, 255, 256, 65535]),
                                     st.integers(1, 65535)),
       seps=st.lists(_HEADER_SEPARATORS, min_size=4, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_load_luminance_is_luminance_of_load_image(size, maxval, seps, seed):
    # 8-bit samples for maxval <= 255, 16-bit big-endian ones above
    M, N = size
    ints = np.random.default_rng(seed).integers(0, maxval + 1, size=(M, N, 3))
    ints[0, 0] = maxval
    dtype = ">u2" if maxval > 255 else "u1"
    header = b"P6" + seps[0] + b"%d" % N + seps[1] + b"%d" % M + seps[2] + b"%d" % maxval
    blob = header + seps[3][-1:] + ints.astype(dtype).tobytes()
    got = _outcome(blob, load_luminance)
    assert isinstance(got, np.ndarray) and got.shape == (M, N)
    _assert_same_outcome(got, _luminance_of_load_image(blob))


@pytest.mark.parametrize("blob", [
    b"P6 2 1 255\n" + bytes(range(5)),
    b"P6 1 1 65535\n" + bytes(5),
    b"P6 1 1 100\n" + bytes([1, 200, 3]),
    b"P6 1 1 300\n" + np.array([1, 2, 301], dtype=">u2").tobytes(),
    b"P9 1 1 255\n" + bytes(3),
    b"PF\n1 1\n-1.0\n" + bytes(12),
    b"P3 1 1 255\n1 2 3\n",
    b"P6",
    b"",
    b"P5 2 1 255\n\x07",
    b"Pf\n1 1\n-1.0\n" + np.array([-1.0], dtype="<f4").tobytes(),
    b"P5 2 1 255\n\x07\x09",
    b"Pf\n1 1\n-1.0\n" + np.array([0.5], dtype="<f4").tobytes(),
], ids=["p6-truncated", "p6-16bit-truncated", "p6-over-maxval", "p6-16bit-over-maxval",
        "bad-magic", "color-pfm", "ascii-ppm", "magic-only", "empty", "p5-truncated",
        "pfm-negative", "p5", "pfm"])
def test_load_luminance_fails_as_load_image_does(blob):
    # a malformed file raises load_image's error; a grayscale one gives None
    want = _luminance_of_load_image(blob)
    assert isinstance(want, str) or want is None
    assert _outcome(blob, load_luminance) == want


@settings(max_examples=300, deadline=None)
@given(blob=st.one_of(_headers(), _mutated_files(), st.binary(max_size=40)))
def test_fuzzed_files_decode_to_the_luminance_of_load_image(blob):
    _assert_same_outcome(_outcome(blob, load_luminance), _luminance_of_load_image(blob))
