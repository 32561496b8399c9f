import numpy as np
import pytest

from gdsr.image_core import (
    RgbImage,
    as_image,
    dequantize,
    quantize,
)


def test_as_image_rejects_bad_inputs():
    with pytest.raises(ValueError):
        as_image(np.zeros(3))
    with pytest.raises(ValueError):
        as_image(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        as_image(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        as_image(np.array([[np.inf, 1.0]]))


@pytest.mark.parametrize("value,maxval,expected", [
    (0.0, 65535, 0),
    (1.0, 65535, 65535),
    (0.5, 255, 128),   # 127.5 rounds half away from zero
])
def test_quantize_points(value, maxval, expected):
    grid = quantize(np.full((2, 2), value), maxval)
    assert grid.dtype == (np.uint8 if maxval == 255 else np.uint16)
    assert np.all(grid == expected)


def test_quantize_clamps_out_of_range_samples():
    img = np.array([[1.5, 0.5]])
    assert np.array_equal(quantize(img, 255), np.array([[255, 128]], dtype=np.uint8))


@pytest.mark.parametrize("maxval", [255, 65535])
def test_quantize_dequantize_idempotent(maxval):
    rng = np.random.default_rng(3)
    img = rng.random((16, 9))
    once = quantize(img, maxval)
    again = quantize(dequantize(once, maxval), maxval)
    assert np.array_equal(once, again)


def test_dequantize_range():
    grid = np.array([[0, 128, 255]], dtype=np.uint8)
    out = dequantize(grid, 255)
    assert out[0, 0] == 0.0 and out[0, 2] == 1.0
    assert abs(out[0, 1] - 128 / 255) < 1e-15


def test_rgb_image_validation():
    plane = np.full((3, 3), 0.5)
    img = RgbImage(plane, plane, plane)
    assert img.shape == (3, 3)
    with pytest.raises(ValueError):
        RgbImage(plane, plane, np.full((3, 4), 0.5))
    with pytest.raises(ValueError):
        RgbImage(plane, plane, np.full((3, 3), 1.5))
