"""Grid validation, and the one cache of per-shape operators.

Everything downstream computes on 2-D float64 sample grids: depth is a
bare grid, and so is the luminance of the color guide, which decodes to
an (M, N, 3) array. 8/16-bit integers exist only in :mod:`gdsr.imgio`.
Values are treated as immutable after construction, so grids can be
shared freely between workers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

__all__ = ["as_image", "as_stack"]


# Shapes kept: an entry benched at all four scale factors crops to <= 4.
_SHAPES_KEPT = 4
_shapes: OrderedDict = OrderedDict()  # shape -> (its lock, {key: operator})
_shapes_lock = threading.Lock()


def shape_operator(shape, key, build) -> np.ndarray:
    """Operator ``key`` of grids of ``shape``: ``build()`` on first use, then
    kept read-only for all. An LRU of shapes: a lookup refreshes its shape,
    one shape past ``_SHAPES_KEPT`` evicts the least recent with all its
    operators, and arrays handed out stay valid. A miss is built once, under
    its shape's lock; no build reads the cache. A shape holds 8,652,800
    bytes for bench-feature's set at 480x640, x8 (three symbols, four
    resample matrices), 31,865,856 for bench-image's at 1024x1376, x4, 8, 16."""
    shape = tuple(map(int, shape))
    with _shapes_lock:
        lock, operators = _shapes.setdefault(shape, (threading.Lock(), {}))
        _shapes.move_to_end(shape)
        if len(_shapes) > _SHAPES_KEPT:
            _shapes.popitem(last=False)
    with lock:
        if key not in operators:
            operators[key] = build()
            operators[key].setflags(write=False)
        return operators[key]


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
