"""Grid validation, and the one cache of per-shape operators.

Everything downstream computes on 2-D float64 sample grids: depth is a
bare grid, and so is the luminance of the color guide, which decodes to
an (M, N, 3) array. 8/16-bit integers exist only in :mod:`gdsr.imgio`.
Values are treated as immutable after construction, so grids can be
shared freely between workers.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

__all__ = ["as_image", "as_stack"]


# Shapes kept: an entry benched at all four scale factors crops to <= 4.
_SHAPES_KEPT = 4
_shapes: OrderedDict = OrderedDict()  # shape -> {key: operator}
_lock = threading.Lock()


def shape_operator(shape, key, build) -> np.ndarray:
    """Operator ``key`` of grids of ``shape``: ``build()`` on first use, then
    kept read-only for all. An LRU of shapes: a lookup refreshes its shape,
    one shape past ``_SHAPES_KEPT`` evicts the least recent with all its
    operators, and arrays handed out stay valid. An operator depends on
    its shape and key alone, never on a lambda. A shape holds
    8,652,800 bytes for bench-feature's set at 480x640, x8 (three symbols,
    four resample matrices), 31,865,856 for bench-image's at 1024x1376,
    x4, 8, 16 (one symbol, twelve resample matrices).

    Every lookup takes the one module lock, and a miss is built under it,
    so a key is built once; no build reads the cache. An operator is
    inserted only once its build returns: a build that raises leaves the
    cache as it found it."""
    shape = tuple(map(int, shape))
    with _lock:
        operators = _shapes.get(shape, {})
        if key not in operators:
            operator = build()
            operator.setflags(write=False)
            operators[key] = operator
            _shapes[shape] = operators
        _shapes.move_to_end(shape)
        if len(_shapes) > _SHAPES_KEPT:
            _shapes.popitem(last=False)
        return operators[key]


def is_finite(value) -> bool:
    """Whether a real number is finite as a float; an integer too large
    for one is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


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
