"""Grid validation, and the cache of shared read-only grids.

Everything downstream computes on 2-D float64 sample grids: depth is a
bare grid, and so is the luminance of the color guide, which decodes to
an (M, N, 3) array. 8/16-bit integers exist only in :mod:`gdsr.imgio`.
Values are treated as immutable after construction, so grids can be
shared freely between workers.
"""

from __future__ import annotations

import threading
from functools import lru_cache, wraps

import numpy as np

__all__ = ["as_image", "as_stack"]


def shared_cache(maxsize: int):
    """``functools.lru_cache(maxsize=maxsize)`` under one lock per cache,
    held while a miss builds: a bench worker that misses a key another
    worker is building waits and then hits, so each grid is built once.
    Each cache has its own lock, so one cache's build may read another.
    The cached function keeps ``cache_clear``, ``cache_info`` and
    ``__wrapped__``, the uncached build function."""
    def decorate(build):
        cached = lru_cache(maxsize=maxsize)(build)
        lock = threading.Lock()

        @wraps(build)
        def call(*args):
            with lock:
                return cached(*args)

        call.cache_clear, call.cache_info = cached.cache_clear, cached.cache_info
        return call

    return decorate


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
