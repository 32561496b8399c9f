"""Stencil filtering with half-sample symmetric boundary extension.

The extension mirrors the signal about the pixel edge and repeats the
boundary pixel (... b a | a b c ...). It is the extension under which
the orthonormal DCT-II diagonalizes flip-symmetric stencils, so every
filter in the pipeline uses it.
"""

from __future__ import annotations

import numpy as np

from .image_core import as_image

__all__ = ["correlate_reflect"]


def correlate_reflect(img, stencil) -> np.ndarray:
    """Sliding dot product of an odd-sized stencil over a reflected image.

    out[i, j] = sum_{u, v} stencil[u, v] * ext(img)[i + u - cu, j + v - cv]
    with (cu, cv) the stencil center and ext the half-sample symmetric
    extension. No kernel flip is applied; for the flip-symmetric stencils
    used by the solver this coincides with convolution.
    """
    img = as_image(img)
    st = np.asarray(stencil, dtype=np.float64)
    if st.ndim != 2 or st.shape[0] % 2 == 0 or st.shape[1] % 2 == 0:
        raise ValueError(f"stencil must be 2-D with odd dimensions, got {st.shape}")
    return _correlate(img, st)


def _correlate(img: np.ndarray, st: np.ndarray) -> np.ndarray:
    """:func:`correlate_reflect` without its checks: ``img`` a validated
    grid, ``st`` a 2-D float64 stencil with odd dimensions."""
    M, N = img.shape
    ph, pw = st.shape[0] // 2, st.shape[1] // 2
    if ph == 0 and pw == 0:
        return st[0, 0] * img
    padded = np.pad(img, ((ph, ph), (pw, pw)), mode="symmetric")
    out = np.zeros((M, N), dtype=np.float64)
    for u in range(st.shape[0]):
        for v in range(st.shape[1]):
            w = st[u, v]
            if w != 0.0:
                out += w * padded[u : u + M, v : v + N]
    return out
