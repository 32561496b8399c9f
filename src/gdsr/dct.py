"""Orthonormal 2-D cosine transform, fast and naive paths.

Forward is the separable DCT-II, inverse the DCT-III, both with the
orthonormal scaling

    C[k, n] = s_k * cos(pi * (2n + 1) * k / (2N)),
    s_0 = sqrt(1/N), s_k = sqrt(2/N) for k > 0,

so the transform matrix is orthogonal: the inverse is the transpose,
round trips are exact to rounding, and Parseval's identity holds.

The fast path wraps scipy.fft (any length, not just powers of two).
The naive path evaluates the defining sums as explicit cosine basis
matrix products and exists as the independent oracle for the fast path;
it also serves as the correctness path if the fast backend ever lacked
a size.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import fft as _fft

from .image_core import as_image

__all__ = ["dct2_forward", "dct2_inverse", "dct2_naive"]

# Guard for the O(M*N*(M+N)) naive path.
_NAIVE_MAX_SAMPLES = 2**20


@lru_cache(maxsize=64)
def _basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix of order n (rows indexed by frequency)."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    C = np.cos(np.pi * (2 * m + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    C[0, :] = np.sqrt(1.0 / n)
    return C


def dct2_forward(img, path: str = "fast") -> np.ndarray:
    """Forward 2-D orthonormal DCT-II of a sample grid."""
    img = as_image(img)
    if path == "fast":
        return _fft.dctn(img, type=2, norm="ortho")
    return dct2_naive(img, "forward")


def dct2_inverse(coeffs, path: str = "fast") -> np.ndarray:
    """Inverse transform (DCT-III), exact inverse of :func:`dct2_forward`."""
    coeffs = as_image(coeffs)
    if path == "fast":
        return _fft.idctn(coeffs, type=2, norm="ortho")
    return dct2_naive(coeffs, "inverse")


def dct2_naive(img, direction: str) -> np.ndarray:
    """Direct-summation transform via explicit cosine basis matrices.

    Applies the separable transform rows first, then columns. Same
    normalization as the fast path. Guarded against accidental use on
    huge inputs.
    """
    img = as_image(img)
    M, N = img.shape
    if M * N > _NAIVE_MAX_SAMPLES:
        raise ValueError(f"naive transform guard: {M}x{N} exceeds {_NAIVE_MAX_SAMPLES} samples")
    cm, cn = _basis(M), _basis(N)
    if direction == "forward":
        rows = img @ cn.T
        return cm @ rows
    if direction == "inverse":
        rows = img @ cn
        return cm.T @ rows
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
