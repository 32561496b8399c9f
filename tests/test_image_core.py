import numpy as np
import pytest

from gdsr import quantize
from gdsr.image_core import as_image


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

