"""Stencil filtering with half-sample symmetric boundary extension.

The extension mirrors the signal about the pixel edge and repeats the
boundary pixel (... b a | a b c ...). It is the extension under which
the orthonormal DCT-II diagonalizes flip-symmetric stencils, so every
filter in the pipeline uses it.

The image is padded once, then the output is filled in row blocks of
about 256 KB, so the taps of one block stay in cache. Within a block
each nonzero tap is added in row-major order through one reused
product buffer. Every pixel is therefore 0.0 plus the same products in
the same order as a per-tap loop over the whole grid, and has the same
bits.
"""

from __future__ import annotations

import numpy as np

from .image_core import as_image

__all__ = ["correlate_reflect"]

# Target size of one output row block: a few of them fit in L2 cache.
_BLOCK_BYTES = 1 << 18


def correlate_reflect(img, stencil) -> np.ndarray:
    """Sliding dot product of an odd-sized stencil over a reflected image.

    out[i, j] = sum_{u, v} stencil[u, v] * ext(img)[i + u - cu, j + v - cv]
    with (cu, cv) the stencil center and ext the half-sample symmetric
    extension. No kernel flip is applied; for the flip-symmetric stencils
    used by the solver this coincides with convolution.
    """
    return _correlate(as_image(img), _stencil(stencil))


def _stencil(values) -> np.ndarray:
    """Validate a stencil: a 2-D float64 array with odd dimensions and
    finite weights."""
    st = np.asarray(values, dtype=np.float64)
    if st.ndim != 2 or st.shape[0] % 2 == 0 or st.shape[1] % 2 == 0:
        raise ValueError(f"stencil must be 2-D with odd dimensions, got {st.shape}")
    if not np.all(np.isfinite(st)):
        raise ValueError("stencil weights must be finite")
    return st


def _correlate(img: np.ndarray, st: np.ndarray) -> np.ndarray:
    """:func:`correlate_reflect` without its checks: ``img`` a validated
    grid, ``st`` a 2-D float64 stencil with odd dimensions."""
    M, N = img.shape
    ph, pw = st.shape[0] // 2, st.shape[1] // 2
    if ph == 0 and pw == 0:
        return st[0, 0] * img
    padded = np.pad(img, ((ph, ph), (pw, pw)), mode="symmetric")
    taps = [(u, v, st[u, v]) for u, v in np.ndindex(st.shape) if st[u, v] != 0.0]
    out = np.zeros((M, N), dtype=np.float64)
    rows = max(1, _BLOCK_BYTES // (8 * N))
    buf = np.empty((min(rows, M), N), dtype=np.float64)
    for r0 in range(0, M, rows):
        acc = out[r0 : r0 + rows]
        prod = buf[: len(acc)]
        for u, v, w in taps:
            np.multiply(w, padded[r0 + u : r0 + u + len(acc), v : v + N], out=prod)
            acc += prod
    return out
