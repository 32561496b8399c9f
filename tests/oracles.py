"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (index
reflection by hand, quadruple loops, per-pixel tap enumeration, dense
matrix assembly) so the fast paths in the package are checked against
code that shares none of their machinery.

The exceptions build on the package's 5-point Laplacian: the energy and
the matrix-free conjugate-gradient solve, the references for the
spectral solve, and the pixel-domain feature pipeline and fit objective
at the end. Those chain the package's public pixel-domain stages
(extraction, edge weights, channel solve, head fit, reconstruction),
each checked against its own oracle, as the references for the
prediction, the lambda search and the fitted head, which all work on
DCT coefficients instead. The pixel chain is reference-only: no fit or
prediction in the package runs it.
"""

import math
from functools import lru_cache

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
from gdsr.image_core import as_image
from gdsr.resample import bicubic_kernel
from gdsr.spectral import laplacian_apply, symbol_for


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


# Guard for the O(M*N*(M+N)) naive transform.
_NAIVE_MAX_SAMPLES = 2**20


@lru_cache(maxsize=64)
def _basis(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix of order n (rows indexed by frequency)."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    C = np.cos(np.pi * (2 * m + 1) * k / (2 * n)) * np.sqrt(2.0 / n)
    C[0, :] = np.sqrt(1.0 / n)
    return C


def dct2_naive(img, direction: str) -> np.ndarray:
    """Direct-summation transform via explicit cosine basis matrices.

    Applies the separable transform rows first, then columns, with the
    orthonormal scaling of ``gdsr.dct``. Guarded against accidental use
    on huge inputs.
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


def energy(h, l_up, target_grad, lam: float) -> float:
    """Gradient-transfer energy 0.5||H - L||^2 + 0.5 lam ||lap(H) - T||^2."""
    h = as_image(h)
    l_up = as_image(l_up)
    t = as_image(target_grad)
    if not (h.shape == l_up.shape == t.shape):
        raise ValueError(
            f"dimension mismatch: {h.shape} vs {l_up.shape} vs {t.shape}"
        )
    fidelity = 0.5 * float(np.sum((h - l_up) ** 2))
    transfer = 0.5 * float(np.sum((laplacian_apply(h) - t) ** 2))
    return fidelity + lam * transfer


class ConvergenceError(RuntimeError):
    """Iterative solve did not reach the requested residual."""


def cg_solve(E, lam: float, tol: float = 1e-10, max_iter: int = 2000) -> np.ndarray:
    """Conjugate-gradient solve of (Id + lam * lap^2) H = E.

    Matrix-free: uses only applications of the screened operator, which
    is symmetric positive definite under the reflective extension. Stops
    when the residual 2-norm drops below tol * ||E||_2.
    """
    E = as_image(E)
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")

    def apply_op(x):
        return x + lam * laplacian_apply(laplacian_apply(x))

    b_norm = float(np.linalg.norm(E))
    if b_norm == 0.0:
        return np.zeros_like(E)
    x = np.zeros_like(E)
    r = E.copy()
    p = r.copy()
    rs = float(np.sum(r * r))
    for _ in range(max_iter):
        if np.sqrt(rs) <= tol * b_norm:
            return x
        Ap = apply_op(p)
        alpha = rs / float(np.sum(p * Ap))
        x = x + alpha * p
        r = r - alpha * Ap
        rs_new = float(np.sum(r * r))
        p = r + (rs_new / rs) * p
        rs = rs_new
    if np.sqrt(rs) <= tol * b_norm:
        return x
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations; residual {np.sqrt(rs):.3e} "
        f"(target {tol * b_norm:.3e})"
    )


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


def loop_axis_weights(n_in: int, n_out: int, antialias: bool) -> np.ndarray:
    """Dense (n_out, n_in) resampling matrix built row by row: each output
    row's taps are enumerated, weighed with the package's kernel, clamped
    onto the edge pixel and accumulated, then the row is renormalized."""
    scale = n_out / n_in
    kscale = min(scale, 1.0) if antialias else 1.0
    half = 2.0 / kscale
    W = np.zeros((n_out, n_in), dtype=np.float64)
    for k in range(n_out):
        u = (k + 0.5) / scale - 0.5
        lo = math.floor(u - half)
        taps = np.arange(lo, math.floor(u + half) + 2)
        w = bicubic_kernel((u - taps) * kscale) * kscale
        np.add.at(W[k], np.clip(taps, 0, n_in - 1), w)
        W[k] /= W[k].sum()
    return W


def ref_resample_2d(img, out_shape, antialias: bool) -> np.ndarray:
    """Separable reference resample: rows, then columns."""
    img = np.asarray(img, dtype=np.float64)
    Mo, No = out_shape
    tmp = np.stack([ref_resample_1d(row, No, antialias) for row in img])
    return np.stack([ref_resample_1d(col, Mo, antialias) for col in tmp.T]).T


def _pixel_features(l_up, guide, bank, lambdas, edge_cfg, symbol_mode):
    """Extract both sides, weight the guide channels, solve every channel."""
    phi_l = extract(l_up, bank, "depth")
    phi_r = extract(guide, bank, "guide")
    w = multichannel_edge_weight(phi_r, edge_cfg)
    return channel_solve(phi_l, phi_r, w, lambdas, symbol_for(symbol_mode, np.shape(l_up)))


def pixel_predict(l_up, guide, bank, lambdas, head, edge_cfg, symbol_mode="derived"):
    """The feature-domain prediction on pixels, stage by stage: extract both
    sides, weight the guide channels, solve every channel, apply the head."""
    return apply_head(_pixel_features(l_up, guide, bank, lambdas, edge_cfg, symbol_mode), head)


def pixel_head(train_triples, bank, edge_cfg, lambdas, gamma, symbol_mode="derived"):
    """The ridge head fit on pixels over (l_up, guide, target) triples;
    returns (head, solved stacks, targets)."""
    solved = [_pixel_features(l_up, guide, bank, lambdas, edge_cfg, symbol_mode)
              for l_up, guide, _ in train_triples]
    targets = [target for *_, target in train_triples]
    return fit_head(solved, targets, gamma), solved, targets


def pixel_objective(train_triples, bank, edge_cfg, lambdas, gamma, symbol_mode="derived"):
    """Training RMSE of the feature pipeline, computed on pixels: solve
    every channel, refit the ridge head, reconstruct, compare."""
    head, solved, targets = pixel_head(train_triples, bank, edge_cfg, lambdas, gamma,
                                       symbol_mode)
    sse = sum(float(np.sum((apply_head(f, head) - t) ** 2)) for f, t in zip(solved, targets))
    return math.sqrt(sse / sum(t.size for t in targets))


def pixel_fit_lambda(train_triples, bank, edge_cfg, gamma, grid_points, sweeps,
                     symbol_mode="derived"):
    """The coordinate search of ``fit_lambda`` driven by :func:`pixel_objective`:
    every evaluation re-extracts, re-solves and refits from scratch, and a
    move is accepted when it strictly lowers the recorded best."""
    lambdas = np.full(len(bank), math.exp(INIT_LOG_LAMBDA))

    def objective(trial):
        return pixel_objective(train_triples, bank, edge_cfg, trial, gamma, symbol_mode)

    best = objective(lambdas)
    for _ in range(sweeps):
        accepted = False
        for c in range(lambdas.size):

            def f(v):
                trial = lambdas.copy()
                trial[c] = math.exp(v)
                return objective(trial)

            v_star, f_star = _search_log_lambda(f, grid_points)
            if f_star < best:
                lambdas[c] = math.exp(v_star)
                best = f_star
                accepted = True
        if not accepted:
            break
    return lambdas
