"""Grid validation, the RGB guide container and quantization.

Everything downstream computes on 2-D float64 sample grids: depth is a
bare grid, the color guide three of them in an :class:`RgbImage`.
8/16-bit integers exist only at the file I/O boundary. Values are
treated as immutable after construction, so images can be shared freely
between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_image",
    "as_stack",
    "RgbImage",
    "quantize",
    "dequantize",
]


def as_image(values) -> np.ndarray:
    """Validate and return a 2-D float64 sample grid (M, N >= 1, all finite)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image, got array of shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"image dimensions must be >= 1, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image contains non-finite samples")
    return arr


def as_stack(values) -> np.ndarray:
    """Validate a channel stack shaped (C, M, N) with C >= 1, all finite.

    Accepts a 3-D array or a sequence of same-sized 2-D images.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] < 1:
        raise ValueError(f"expected a (C, M, N) channel stack, got shape {arr.shape}")
    if arr.shape[1] < 1 or arr.shape[2] < 1:
        raise ValueError(f"channel dimensions must be >= 1, got {arr.shape[1:]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("channel stack contains non-finite samples")
    return arr


@dataclass(frozen=True)
class RgbImage:
    """Three same-sized planes with samples normalized to [0, 1]."""

    red: np.ndarray
    green: np.ndarray
    blue: np.ndarray

    def __post_init__(self):
        for name in ("red", "green", "blue"):
            plane = as_image(getattr(self, name))
            if plane.min() < 0.0 or plane.max() > 1.0:
                raise ValueError(f"{name} plane has samples outside [0, 1]")
            object.__setattr__(self, name, plane)
        if not (self.red.shape == self.green.shape == self.blue.shape):
            raise ValueError("RGB planes must share identical dimensions")

    @property
    def shape(self) -> tuple[int, int]:
        return self.red.shape


def quantize(img, max_value: int) -> np.ndarray:
    """Map [0, 1] samples to integers in [0, max_value].

    Samples outside [0, 1] are clamped. Rounds half away from zero so the
    quantization rule is bit-exact and reproducible.
    """
    img = as_image(img)
    if max_value not in (255, 65535):
        raise ValueError(f"max_value must be 255 or 65535, got {max_value}")
    scaled = np.clip(img, 0.0, 1.0) * max_value
    # np.round would round halves to even; floor(x + 0.5) rounds them away
    # from zero on the nonnegative range we have here.
    ints = np.floor(scaled + 0.5)
    dtype = np.uint8 if max_value == 255 else np.uint16
    return np.clip(ints, 0, max_value).astype(dtype)


def dequantize(grid, max_value: int) -> np.ndarray:
    """Map integer samples in [0, max_value] back to floats in [0, 1]."""
    if max_value not in (255, 65535):
        raise ValueError(f"max_value must be 255 or 65535, got {max_value}")
    arr = np.asarray(grid)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D grid, got shape {arr.shape}")
    return arr.astype(np.float64) / float(max_value)
