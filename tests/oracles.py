"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (index
reflection by hand, quadruple loops, per-pixel tap enumeration, dense
matrix assembly) so the fast paths in the package are checked against
code that shares none of their machinery.

The exceptions are the pixel-domain feature pipeline and fit objective
at the end: they chain the package's public pixel-domain stages
(extraction, edge weights, channel solve, head fit, reconstruction),
each checked against its own oracle, as the references for the
prediction and the lambda search, which work on DCT coefficients
instead.
"""

import math

import numpy as np

from gdsr.feature_bank import (
    INIT_LOG_LAMBDA,
    _search_log_lambda,
    apply_head,
    channel_solve,
    extract,
    fit_head,
)
from gdsr.guidance import multichannel_edge_weight
from gdsr.spectral import FIVE_POINT, symbol_for


def reflect_index(i: int, n: int) -> int:
    """Half-sample symmetric index: ... 2 1 0 | 0 1 2 ... n-1 | n-1 n-2 ..."""
    while i < 0 or i >= n:
        if i < 0:
            i = -1 - i
        if i >= n:
            i = 2 * n - 1 - i
    return i


def brute_correlate_reflect(img, stencil) -> np.ndarray:
    """Per-pixel stencil application with explicit reflected indexing."""
    img = np.asarray(img, dtype=np.float64)
    st = np.asarray(stencil, dtype=np.float64)
    M, N = img.shape
    ch, cw = st.shape[0] // 2, st.shape[1] // 2
    out = np.zeros((M, N))
    for i in range(M):
        for j in range(N):
            acc = 0.0
            for u in range(st.shape[0]):
                for v in range(st.shape[1]):
                    ii = reflect_index(i + u - ch, M)
                    jj = reflect_index(j + v - cw, N)
                    acc += st[u, v] * img[ii, jj]
            out[i, j] = acc
    return out


def literal_dct2(img, inverse: bool = False) -> np.ndarray:
    """Orthonormal 2-D DCT-II / DCT-III straight from the defining sums."""
    img = np.asarray(img, dtype=np.float64)
    M, N = img.shape

    def scale(k, n):
        return math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)

    out = np.zeros((M, N))
    for a in range(M):
        for b in range(N):
            acc = 0.0
            for i in range(M):
                for j in range(N):
                    if not inverse:
                        acc += (img[i, j]
                                * math.cos(math.pi * (2 * i + 1) * a / (2 * M))
                                * math.cos(math.pi * (2 * j + 1) * b / (2 * N)))
                    else:
                        acc += (scale(i, M) * scale(j, N) * img[i, j]
                                * math.cos(math.pi * (2 * a + 1) * i / (2 * M))
                                * math.cos(math.pi * (2 * b + 1) * j / (2 * N)))
            if not inverse:
                acc *= scale(a, M) * scale(b, N)
            out[a, b] = acc
    return out


def screened_matrix(shape, lam, apply_laplacian) -> np.ndarray:
    """Dense matrix of H -> H + lam * lap(lap(H)), assembled column by column."""
    M, N = shape
    n = M * N
    A = np.zeros((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        img = e.reshape(M, N)
        A[:, j] = (img + lam * apply_laplacian(apply_laplacian(img))).ravel()
    return A


def dense_screened_solve(E, lam, apply_laplacian) -> np.ndarray:
    E = np.asarray(E, dtype=np.float64)
    A = screened_matrix(E.shape, lam, apply_laplacian)
    return np.linalg.solve(A, E.ravel()).reshape(E.shape)


def keys_cubic(x: float) -> float:
    a = -0.5
    x = abs(x)
    if x < 1.0:
        return (a + 2.0) * x**3 - (a + 3.0) * x**2 + 1.0
    if x < 2.0:
        return a * x**3 - 5.0 * a * x**2 + 8.0 * a * x - 4.0 * a
    return 0.0


def ref_resample_1d(signal, n_out: int, antialias: bool) -> np.ndarray:
    """Tap-enumeration bicubic resample of one row: half-pixel-centered
    coordinates, edge-clamped taps, weights renormalized to sum 1."""
    signal = np.asarray(signal, dtype=np.float64)
    n_in = signal.size
    scale = n_out / n_in
    kscale = min(scale, 1.0) if antialias else 1.0
    half = 2.0 / kscale
    out = np.zeros(n_out)
    for k in range(n_out):
        u = (k + 0.5) / scale - 0.5
        total = 0.0
        acc = 0.0
        for j in range(math.floor(u - half), math.floor(u + half) + 2):
            w = keys_cubic((u - j) * kscale) * kscale
            jj = min(max(j, 0), n_in - 1)
            acc += w * signal[jj]
            total += w
        out[k] = acc / total
    return out


def ref_resample_2d(img, out_shape, antialias: bool) -> np.ndarray:
    """Separable reference resample: rows, then columns."""
    img = np.asarray(img, dtype=np.float64)
    Mo, No = out_shape
    tmp = np.stack([ref_resample_1d(row, No, antialias) for row in img])
    return np.stack([ref_resample_1d(col, Mo, antialias) for col in tmp.T]).T


def pixel_predict(l_up, guide, bank, lambdas, head, edge_cfg, symbol_mode="derived"):
    """The feature-domain prediction on pixels, stage by stage: extract both
    sides, weight the guide channels, solve every channel, apply the head."""
    phi_l = extract(l_up, bank, "depth")
    phi_r = extract(guide, bank, "guide")
    w = multichannel_edge_weight(phi_r, edge_cfg)
    symbol = symbol_for(symbol_mode, np.shape(l_up))
    return apply_head(channel_solve(phi_l, phi_r, w, lambdas, symbol), head)


def pixel_objective(train_pairs, lambdas, gamma, symbol_mode="derived",
                    kernel=FIVE_POINT) -> float:
    """Training RMSE of the feature pipeline, computed on pixels: solve
    every channel, refit the ridge head, reconstruct, compare."""
    solved, targets = [], []
    for phi_l, phi_r, w, target in train_pairs:
        symbol = symbol_for(symbol_mode, target.shape, kernel)
        solved.append(channel_solve(phi_l, phi_r, w, lambdas, symbol, kernel))
        targets.append(target)
    head = fit_head(solved, targets, gamma)
    sse = sum(float(np.sum((apply_head(f, head) - t) ** 2)) for f, t in zip(solved, targets))
    return math.sqrt(sse / sum(t.size for t in targets))


def pixel_fit_lambda(train_pairs, gamma, grid_points, sweeps, symbol_mode="derived"):
    """The coordinate search of ``fit_lambda`` driven by :func:`pixel_objective`:
    every evaluation re-solves and refits from scratch, and a move is
    accepted when it strictly lowers the recorded best."""
    lambdas = np.full(len(train_pairs[0][0]), math.exp(INIT_LOG_LAMBDA))
    best = pixel_objective(train_pairs, lambdas, gamma, symbol_mode)
    for _ in range(sweeps):
        accepted = False
        for c in range(lambdas.size):

            def f(v):
                trial = lambdas.copy()
                trial[c] = math.exp(v)
                return pixel_objective(train_pairs, trial, gamma, symbol_mode)

            v_star, f_star = _search_log_lambda(f, grid_points)
            if f_star < best:
                lambdas[c] = math.exp(v_star)
                best = f_star
                accepted = True
        if not accepted:
            break
    return lambdas
