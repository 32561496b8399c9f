"""Synthetic RGBD scenes for end-to-end tests.

Piecewise-smooth depth (sloped background plus rectangles and disks at
different depths) with a color guide whose intensity carries the depth
structure: per-region albedo, a consistent depth-shading component, and
weak periodic texture. Guide edges therefore co-occur with depth
discontinuities, which is the regime guided super-resolution targets.
"""

import numpy as np


def make_scene(rng, M=128, N=128, n_shapes=6):
    """An (M, N) depth grid and its (M, N, 3) color guide, both in [0, 1]."""
    yy, xx = np.mgrid[0:M, 0:N]
    gx, gy = rng.uniform(-0.1, 0.1, 2)
    depth = 0.5 + gx * (xx / N - 0.5) + gy * (yy / M - 0.5)
    albedo = np.stack([np.full((M, N), v) for v in rng.uniform(0.35, 0.65, 3)])
    for _ in range(n_shapes):
        kind = rng.choice(["rect", "disk"])
        # a side of 1 draws a shape of side 0; every larger side draws as before
        h = int(rng.integers(M // 5, max(M // 2, 1)))
        w = int(rng.integers(N // 5, max(N // 2, 1)))
        i0 = int(rng.integers(0, M - h))
        j0 = int(rng.integers(0, N - w))
        if kind == "rect":
            mask = np.zeros((M, N), bool)
            mask[i0 : i0 + h, j0 : j0 + w] = True
        else:
            r = min(h, w) / 2
            mask = (yy - (i0 + h / 2)) ** 2 + (xx - (j0 + w / 2)) ** 2 <= r * r
        sx, sy = rng.uniform(-0.15, 0.15, 2)
        d = rng.uniform(0.15, 0.85) + sx * (xx / N - 0.5) + sy * (yy / M - 0.5)
        depth = np.where(mask, d, depth)
        color = rng.uniform(0.25, 0.75, 3)
        for c in range(3):
            albedo[c] = np.where(mask, color[c], albedo[c])
    depth = np.clip(depth, 0.05, 1.0)
    shading = 0.2 + 0.7 * depth
    fx, fy = rng.uniform(0.04, 0.1, 2)
    texture = 0.02 * np.sin(2 * np.pi * (fx * xx + fy * yy))
    planes = [np.clip(0.35 * albedo[c] + 0.65 * shading + texture, 0.0, 1.0)
              for c in range(3)]
    return depth, np.stack(planes, axis=-1)


def write_scene_files(directory, scene_id, gt: np.ndarray, rgb: np.ndarray):
    """Store one scene as 16-bit PGM + 8-bit PPM; returns a manifest entry."""
    from gdsr.imgio import save_image

    depth_path = directory / f"{scene_id}_depth.pgm"
    rgb_path = directory / f"{scene_id}_rgb.ppm"
    save_image(gt, depth_path, "pgm16")
    save_image(rgb, rgb_path, "ppm8")
    return {
        "id": scene_id,
        "rgb_path": rgb_path.name,
        "depth_path": depth_path.name,
        "depth_unit_scale": 1.0,
        "split": "train",
    }
