"""Guide preprocessing: luminance conversion and edge attention weights.

Everything here works on the guide's 2-D luma grid: the pipeline reads
it straight from the file with :func:`gdsr.imgio.load_luminance`, which
has the bits of :func:`luminance` of the decoded (M, N, 3) array.

The weights select which guide gradients are transferred into the depth
solution. They are classical and learning-free: the Laplacian magnitude
of the guide is thresholded at a quantile, either hard (0/1 mask) or
soft (logistic ramp). Pixels with zero Laplacian magnitude are never
edges, so a featureless guide yields an all-zero hard mask rather than
an all-one one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image_core import as_image, as_stack, is_finite
from .spectral import _laplacian

__all__ = [
    "EdgeWeightConfig",
    "luminance",
    "edge_weight",
    "multichannel_edge_weight",
    "transfer_target",
]

# BT.601 luma weights, the conventional choice for 8-bit image files.
_LUMA = (0.299, 0.587, 0.114)

EDGE_MODES = ("none", "hard", "soft")


@dataclass(frozen=True)
class EdgeWeightConfig:
    """Edge weighting mode plus quantile threshold and logistic steepness."""

    mode: str = "hard"
    tau_quantile: float = 0.9
    steepness: float = 50.0

    def __post_init__(self):
        if self.mode not in EDGE_MODES:
            raise ValueError(f"mode must be one of {EDGE_MODES}, got {self.mode!r}")
        if not (0.0 < self.tau_quantile < 1.0):
            raise ValueError(f"tau_quantile must lie in (0, 1), got {self.tau_quantile}")
        if not (is_finite(self.steepness) and self.steepness > 0.0):
            raise ValueError(f"steepness must be positive, got {self.steepness}")


def luminance(rgb) -> np.ndarray:
    """BT.601 luma 0.299 R + 0.587 G + 0.114 B of an (M, N, 3) array.

    Only the shape is checked: the samples are the decoder's, which has
    already checked them.
    """
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise ValueError(f"expected an (M, N, 3) RGB array, got shape {rgb.shape}")
    r, g, b = _LUMA
    return r * rgb[..., 0] + g * rgb[..., 1] + b * rgb[..., 2]


def _nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the element at 1-based rank ceil(q * n).

    A partial sort places exactly that element; the full order is never
    needed. A C-contiguous ``values`` is partitioned in its own buffer,
    which is left reordered; any other is partitioned in a flat copy.
    """
    rank = max(1, math.ceil(q * values.size))
    flat = values.reshape(-1)
    flat.partition(rank - 1)
    return float(flat[rank - 1])


def _weights_from_laplacian(lap: np.ndarray, cfg: EdgeWeightConfig) -> np.ndarray:
    """The edge weights of a Laplacian grid, in a fresh grid the caller
    may write: the |lap| buffer, which tau is first found in by partition,
    then refilled with |lap|, so no other grid-sized copy is made."""
    if cfg.mode == "none":
        return np.ones_like(lap)
    g = np.abs(lap)
    tau = _nearest_rank_quantile(g, cfg.tau_quantile)
    np.abs(lap, out=g)
    if cfg.mode == "hard":
        # g >= tau and g > 0, one comparison: tau is a sample of g, so at
        # tau = 0 the first test holds wherever the second does, and above
        # 0 the first implies the second. Its bools go in as 1.0 and 0.0.
        return np.greater(g, 0.0, out=g) if tau == 0.0 else np.greater_equal(g, tau, out=g)
    from scipy.special import expit  # loaded on first soft use, not at import

    # steepness * (g - tau), in g: products commute bit for bit
    g -= tau
    g *= cfg.steepness
    return expit(g, out=g)


def edge_weight(guide_lum, cfg: EdgeWeightConfig) -> np.ndarray:
    """Per-pixel edge weights in [0, 1] from guide Laplacian magnitude.

    Let g = |lap(guide)| and tau the nearest-rank tau_quantile of g.
    none: all ones. hard: 1 where g >= tau and g > 0, else 0 (ties at
    the threshold count as edges; zero-magnitude pixels never do).
    soft: logistic 1 / (1 + exp(-steepness * (g - tau))).
    """
    guide_lum = as_image(guide_lum)
    if cfg.mode == "none":
        return np.ones_like(guide_lum)
    return _weights_from_laplacian(_laplacian(guide_lum), cfg)


def transfer_target(guide, cfg: EdgeWeightConfig) -> np.ndarray:
    """Gradient-transfer target T = lap(guide) * edge_weight(guide, cfg).

    The guide Laplacian is computed once and serves both factors. T is
    built in the weights' buffer; products commute bit for bit, so T has
    the bits of lap * w, signed zeros included. (Multiplying lap by the
    hard mode's bool mask directly casts it through a buffer, which is
    slower.)
    """
    return _transfer_target(as_image(guide), cfg)


def _transfer_target(guide: np.ndarray, cfg: EdgeWeightConfig) -> np.ndarray:
    """:func:`transfer_target` of a checked grid, which is not kept: a
    grid the caller passes as its last reference, such as a fresh guide
    feature, is freed once its Laplacian exists."""
    lap = _laplacian(guide)
    del guide
    w = _weights_from_laplacian(lap, cfg)
    w *= lap
    return w


def multichannel_edge_weight(phi_r, cfg: EdgeWeightConfig) -> np.ndarray:
    """Edge weights computed independently for every channel of a stack."""
    phi_r = as_stack(phi_r)
    return np.stack([edge_weight(ch, cfg) for ch in phi_r])
