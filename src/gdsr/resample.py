"""Bicubic degradation and upsampling.

Implements the conventional antialiased-resize definition: the Keys
cubic kernel (a = -0.5), half-pixel-centered coordinate mapping
(source of output pixel k is (k + 0.5) / scale - 0.5), kernel stretched
by the scale factor on downsampling for antialiasing, out-of-range taps
clamped to the edge pixel, and each output pixel's weights renormalized
to sum to 1. Upsampling uses the same convention without antialiasing.

Each axis's dense weight matrix is built in one vectorized pass, with no
loop over output rows; its bits match the per-row tap loop kept in the
tests as the oracle. The matrices depend only on (n_in, n_out,
antialias), so each is built once and cached, read-only: building one is
cheap, but a fresh one is a fresh allocation of up to a few MB whose
pages fault in again on every resample. The cache holds the 12 matrices
of a three-scale benchmark of one shape, about 20 MB at 1024x1376. A
bench worker that asks for a matrix another worker is building waits for
it (:func:`shared_cache`), so each key is built once.

The public functions check their inputs. The bench and the fits degrade
grids that the decoder has already checked, through :func:`_degrade`,
which does not scan them again.
"""

from __future__ import annotations

import numpy as np

from .image_core import as_image, shared_cache

__all__ = [
    "SCALE_FACTORS",
    "check_scale",
    "bicubic_kernel",
    "bicubic_downsample",
    "bicubic_upsample",
    "degrade",
    "crop_to_multiple",
]

SCALE_FACTORS = (2, 4, 8, 16)

# Keys kernel support half-width.
_SUPPORT = 2.0


def check_scale(s: int) -> int:
    if s not in SCALE_FACTORS:
        raise ValueError(f"scale must be one of {SCALE_FACTORS}, got {s}")
    return int(s)


def bicubic_kernel(x) -> np.ndarray:
    """Keys cubic interpolation kernel with a = -0.5."""
    a = -0.5
    x = np.abs(np.asarray(x, dtype=np.float64))
    x2 = x * x
    x3 = x2 * x
    near = (a + 2.0) * x3 - (a + 3.0) * x2 + 1.0
    far = a * x3 - 5.0 * a * x2 + 8.0 * a * x - 4.0 * a
    out = np.where(x < 1.0, near, np.where(x < 2.0, far, 0.0))
    return out if out.ndim else float(out)


@shared_cache(maxsize=16)
def _axis_weights(n_in: int, n_out: int, antialias: bool) -> np.ndarray:
    """Dense (n_out, n_in) resampling matrix for one axis, built in one
    pass, cached and read-only.

    Row k takes the taps floor(u - half) .. floor(u + half) + 1 around its
    source position u; every row is padded on the right to the widest
    row's tap count, and the padding taps lie outside the kernel support,
    so they weigh exactly 0. Taps falling outside the signal are clamped
    onto the edge pixel, then each row is renormalized to sum to exactly 1
    so constants survive the resample bit for bit. ``np.add.at`` adds each
    row's taps in tap order, so the bits match a per-row tap loop.
    """
    scale = n_out / n_in
    kscale = min(scale, 1.0) if antialias else 1.0
    half = _SUPPORT / kscale
    u = (np.arange(n_out) + 0.5) / scale - 0.5
    lo = np.floor(u - half)
    width = int((np.floor(u + half) - lo).max()) + 2
    taps = lo[:, None].astype(np.int64) + np.arange(width)
    w = bicubic_kernel((u[:, None] - taps) * kscale) * kscale
    W = np.zeros((n_out, n_in), dtype=np.float64)
    np.add.at(W, (np.arange(n_out)[:, None], np.clip(taps, 0, n_in - 1)), w)
    W /= W.sum(axis=1, keepdims=True)
    W.setflags(write=False)
    return W


def bicubic_downsample(img, s: int, antialias: bool = True) -> np.ndarray:
    """Antialiased bicubic reduction by an integer factor.

    Dimensions must be divisible by s; output is (M/s, N/s).
    """
    img = as_image(img)
    s = check_scale(s)
    if img.shape[0] % s or img.shape[1] % s:
        raise ValueError(f"dimensions {img.shape} not divisible by scale {s}")
    M, N = img.shape
    return _resample(img, (M // s, N // s), antialias)


def bicubic_upsample(img, s: int) -> np.ndarray:
    """Bicubic interpolation by an integer factor, output (M*s, N*s)."""
    img, s = as_image(img), check_scale(s)
    return _resample(img, (img.shape[0] * s, img.shape[1] * s), False)


def _resample(img: np.ndarray, out_shape, antialias: bool) -> np.ndarray:
    """The separable resample of a checked grid to ``out_shape``, through
    each axis's cached matrix, with no scan of the grid."""
    (M, N), (m, n) = img.shape, out_shape
    return _axis_weights(M, m, antialias) @ img @ _axis_weights(N, n, antialias).T


def degrade(gt, s: int, antialias: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize the low-resolution input and its upsampled counterpart.

    ``gt`` is a depth grid with dimensions divisible by s. Returns the
    grids (lr, up) where lr = downsample(gt, s) and up = upsample(lr, s);
    up has exactly gt's dimensions. Negative bicubic overshoot is clipped
    to zero (depth is nonnegative), in place.
    """
    s = check_scale(s)
    lr = bicubic_downsample(gt, s, antialias)
    np.maximum(lr, 0.0, out=lr)
    up = bicubic_upsample(lr, s)
    np.maximum(up, 0.0, out=up)
    return lr, up


def _degrade(gt: np.ndarray, s: int, antialias: bool) -> tuple[np.ndarray, np.ndarray]:
    """:func:`degrade` of a checked grid by a checked scale that divides it:
    the same products with no scan of ``gt`` or of the reduced grid. Its
    callers pass decoded grids, whose samples lie in float32's range, so
    no product can overflow."""
    M, N = gt.shape
    lr = _resample(gt, (M // s, N // s), antialias)
    np.maximum(lr, 0.0, out=lr)
    up = _resample(lr, (M, N), False)
    np.maximum(up, 0.0, out=up)
    return lr, up


def crop_to_multiple(img, s: int) -> np.ndarray:
    """Crop from the bottom/right to the largest size divisible by s."""
    img = as_image(img)
    return _crop(img, check_scale(s))


def _crop(img: np.ndarray, s: int) -> np.ndarray:
    """:func:`crop_to_multiple` of a checked grid by a checked scale: a view."""
    M, N = img.shape
    if M < s or N < s:
        raise ValueError(f"image {img.shape} smaller than scale {s}")
    return img[: (M // s) * s, : (N // s) * s]
