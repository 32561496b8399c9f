"""Orthonormal 2-D cosine transform.

Forward is the separable DCT-II, inverse the DCT-III, both with the
orthonormal scaling

    C[k, n] = s_k * cos(pi * (2n + 1) * k / (2N)),
    s_0 = sqrt(1/N), s_k = sqrt(2/N) for k > 0,

so the transform matrix is orthogonal: the inverse is the transpose,
round trips are exact to rounding, and Parseval's identity holds.

Both directions wrap scipy.fft, which handles any length, not just
powers of two. scipy is imported at the first transform, not with this
module, so a process that never transforms does not load it.
"""

from __future__ import annotations

import numpy as np

from .image_core import as_image

__all__ = ["dct2_forward", "dct2_inverse"]


def dct2_forward(img) -> np.ndarray:
    """Forward 2-D orthonormal DCT-II of a sample grid."""
    return _dct2(as_image(img))


def dct2_inverse(coeffs) -> np.ndarray:
    """Inverse transform (DCT-III), exact inverse of :func:`dct2_forward`."""
    return _idct2(as_image(coeffs))


# Unchecked forms for package-internal grids that are already validated.
# With ``overwrite`` the caller gives its grid up: scipy may transform in
# that buffer, with the same bits.
def _dct2(img: np.ndarray, overwrite: bool = False) -> np.ndarray:
    from scipy import fft

    return fft.dctn(img, type=2, norm="ortho", overwrite_x=overwrite)


def _idct2(coeffs: np.ndarray, overwrite: bool = False) -> np.ndarray:
    from scipy import fft

    return fft.idctn(coeffs, type=2, norm="ortho", overwrite_x=overwrite)
