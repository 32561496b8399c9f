"""Stencil filtering with half-sample symmetric boundary extension.

The extension mirrors the signal about the pixel edge and repeats the
boundary pixel (... b a | a b c ...). It is the extension under which
the orthonormal DCT-II diagonalizes flip-symmetric stencils, so every
filter in the pipeline uses it.

The output is filled in row blocks of about 256 KB, so the taps of one
block stay in cache. Each block first copies the rows it reads, with
their reflected halo, into one reused flat buffer, so no padded copy of
the whole grid is made. The block's accumulator is flat too, with the
padded row length, so every tap reads one contiguous slice of the
buffer: each multiply and add is a 1-D pass, about twice as fast as the
same pass over a 2-D view whose rows are a padded row apart. The
accumulator's last few samples of each row wrap into the next padded
row and are dropped when the block is copied out. Within a block each
nonzero tap is added in row-major order through one reused product
buffer, or directly for a tap of weight 1.0. Every pixel is therefore
0.0 plus the same products in the same order as a per-tap loop over the
padded grid, and has the same bits.
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


def _reflected(n: int, p: int) -> np.ndarray:
    """The source index of each sample of a length-n signal padded by p on
    both sides: the extension repeats with period 2n, mirrored in its
    second half (np.pad's "symmetric" mode)."""
    i = np.arange(-p, n + p) % (2 * n)
    return np.where(i < n, i, 2 * n - 1 - i)


def _correlate(img: np.ndarray, st: np.ndarray) -> np.ndarray:
    """:func:`correlate_reflect` without its checks: ``img`` a validated
    grid, ``st`` a 2-D float64 stencil with odd dimensions.

    A block of n output rows reads its n + 2ph reflected rows from one flat
    buffer of row length W = N + 2pw, and sums into a flat accumulator of
    n * W samples, so tap (u, v) is the one contiguous slice that starts at
    u * W + v. Accumulator sample i * W + j is output pixel (i, j) for
    j < N; the last 2pw samples of each row wrap into the next padded row,
    and are dropped when the block is copied out. The 2pw zeroed samples
    past the largest block's rows keep the last tap's slice in bounds.
    """
    M, N = img.shape
    ph, pw = st.shape[0] // 2, st.shape[1] // 2
    if ph == 0 and pw == 0:
        return st[0, 0] * img
    W = N + 2 * pw
    ri, ci = _reflected(M, ph), _reflected(N, pw)
    nonzero = np.flatnonzero(st)  # row-major, as the sum's order requires
    u, v = np.divmod(nonzero, st.shape[1])
    taps = list(zip((u * W + v).tolist(), st.flat[nonzero].tolist()))
    out = np.empty((M, N), dtype=np.float64)
    rows = max(1, _BLOCK_BYTES // (8 * N))
    acc_buf = np.empty(min(rows, M) * W, dtype=np.float64)
    prod_buf = np.empty_like(acc_buf)
    pad_buf = np.zeros((min(rows, M) + 2 * ph) * W + 2 * pw, dtype=np.float64)
    for r0 in range(0, M, rows):
        n = min(rows, M - r0)
        acc, prod = acc_buf[: n * W], prod_buf[: n * W]
        padded = pad_buf[: (n + 2 * ph) * W].reshape(n + 2 * ph, W)
        # the indices are in range; "clip" lets take write to out unbuffered
        np.take(img, ri[r0 : r0 + n + 2 * ph], axis=0, out=padded[:, pw : pw + N], mode="clip")
        padded[:, :pw] = padded[:, pw + ci[:pw]]
        padded[:, pw + N :] = padded[:, pw + ci[pw + N :]]
        acc.fill(0.0)
        for offset, w in taps:
            view = pad_buf[offset : offset + n * W]
            if w == 1.0:  # 1.0 * x == x, signed zeros included: no product pass
                acc += view
            else:
                np.multiply(w, view, out=prod)
                acc += prod
        out[r0 : r0 + n] = acc.reshape(n, W)[:, :N]
    return out
