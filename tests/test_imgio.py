import numpy as np
import pytest

from gdsr.image_core import DepthMap, RgbImage, dequantize, quantize
from gdsr.imgio import ImageFormatError, load_image, load_pfm_grid, save_error_map, save_image


def test_p5_8bit_readback(tmp_path):
    path = tmp_path / "tiny.pgm"
    path.write_bytes(b"P5 2 2 255\n" + bytes([0, 128, 255, 64]))
    img = load_image(path)
    assert isinstance(img, DepthMap)
    want = np.array([[0, 128], [255, 64]]) / 255.0
    assert np.array_equal(img.data, want)


def test_p5_16bit_big_endian(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n" + bytes([0x01, 0x00]))
    img = load_image(path)
    assert img.data[0, 0] == 256 / 65535


def test_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "comment.pgm"
    path.write_bytes(b"P5\n# a comment line\n 2\t1 # inline\n255\n" + bytes([7, 9]))
    img = load_image(path)
    assert np.array_equal(img.data, np.array([[7, 9]]) / 255.0)


def test_p6_color_readback(tmp_path):
    path = tmp_path / "tiny.ppm"
    path.write_bytes(b"P6 1 1 255\n" + bytes([255, 0, 128]))
    img = load_image(path)
    assert isinstance(img, RgbImage)
    assert img.red[0, 0] == 1.0
    assert img.green[0, 0] == 0.0
    assert img.blue[0, 0] == 128 / 255


@pytest.mark.parametrize("fmt,maxval", [("pgm8", 255), ("pgm16", 65535)])
def test_pgm_roundtrip_exact(tmp_path, fmt, maxval):
    rng = np.random.default_rng(80)
    img = dequantize(quantize(rng.random((11, 7)), maxval), maxval)
    path = tmp_path / f"rt.{fmt}.pgm"
    save_image(img, path, fmt)
    back = load_image(path)
    assert np.array_equal(back.data, img)


@pytest.mark.parametrize("fmt,maxval", [("ppm8", 255), ("ppm16", 65535)])
def test_ppm_roundtrip_exact(tmp_path, fmt, maxval):
    rng = np.random.default_rng(81)
    planes = [dequantize(quantize(rng.random((5, 9)), maxval), maxval) for _ in range(3)]
    rgb = RgbImage(*planes)
    path = tmp_path / f"rt.{fmt}.ppm"
    save_image(rgb, path, fmt)
    back = load_image(path)
    assert np.array_equal(back.red, rgb.red)
    assert np.array_equal(back.green, rgb.green)
    assert np.array_equal(back.blue, rgb.blue)


def test_pfm_roundtrip_exact_for_float32_values(tmp_path):
    rng = np.random.default_rng(82)
    img = rng.random((6, 4)).astype(np.float32).astype(np.float64)
    path = tmp_path / "rt.pfm"
    save_image(img, path, "pfm")
    back = load_image(path)
    assert np.array_equal(back.data, img)


def test_pfm_negative_values_via_grid_loader(tmp_path):
    coeffs = np.array([[1.5, -2.25], [0.0, 8.0]])
    path = tmp_path / "coeffs.pfm"
    save_image(coeffs, path, "pfm")
    assert np.array_equal(load_pfm_grid(path), coeffs)
    with pytest.raises(ValueError):
        load_image(path)  # depth loader rejects negative samples


def test_pfm_big_endian_scale_sign(tmp_path):
    payload = np.array([[2.0, 3.0]], dtype=">f4").tobytes()
    path = tmp_path / "be.pfm"
    path.write_bytes(b"Pf\n2 1\n1.0\n" + payload)
    img = load_image(path)
    assert np.array_equal(img.data, np.array([[2.0, 3.0]]))


def test_malformed_inputs(tmp_path):
    cases = {
        "badmagic.img": b"P9 1 1 255\n\x00",
        "truncated.pgm": b"P5 4 4 255\n\x00\x00",
        "nomax.pgm": b"P5 2 2",
        "zeromax.pgm": b"P5 1 1 0\n\x00",
        "hugemax.pgm": b"P5 1 1 70000\n\x00\x00",
        "colorpfm.pfm": b"PF\n1 1\n-1.0\n" + b"\x00" * 12,
        "badscale.pfm": b"Pf\n1 1\n0.0\n" + b"\x00" * 4,
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


def test_save_error_map_levels(tmp_path):
    gt = DepthMap(np.full((3, 3), 0.5))
    for pred_val, expected in ((0.5, 0), (0.6, 255), (0.55, 128)):
        pred = DepthMap(np.full((3, 3), pred_val))
        path = tmp_path / f"err_{expected}.pgm"
        save_error_map(pred, gt, path, max_err=0.1)
        back = load_image(path)
        assert np.array_equal(quantize(back.data, 255), np.full((3, 3), expected))


def test_save_error_map_validation(tmp_path):
    gt = DepthMap(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="max_err"):
        save_error_map(gt, gt, tmp_path / "x.pgm", max_err=0.0)
    with pytest.raises(ValueError, match="dimension"):
        save_error_map(DepthMap(np.zeros((2, 3))), gt, tmp_path / "x.pgm", 1.0)


def test_save_deterministic_bytes(tmp_path):
    rng = np.random.default_rng(83)
    img = rng.random((9, 9))
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    save_image(img, p1, "pgm16")
    save_image(img, p2, "pgm16")
    assert p1.read_bytes() == p2.read_bytes()
