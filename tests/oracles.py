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

The last, :class:`RowObjective`, shares the package's coefficient
machinery on purpose: it is the fit objective with one coefficient row
per channel, the reference that the package's shared-row layout must
match bit for bit.
"""

import math
from functools import lru_cache

import numpy as np

from gdsr.dct import _dct2
from gdsr.feature_bank import (
    INIT_LOG_LAMBDA,
    FilterBank,
    ReconstructionHead,
    _channel_coeffs,
    _check_gamma,
    _ridge_solve,
    _search_log_lambda,
    _solved_coeffs,
    apply_head,
    channel_solve,
    extract,
    fit_head,
)
from gdsr.guidance import EdgeWeightConfig, multichannel_edge_weight
from gdsr.image_core import as_image
from gdsr.resample import bicubic_kernel
from gdsr.spectral import _squared_symbol, laplacian_apply, solve_stencil, symbol_for


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


def loop_correlate(img, stencil) -> np.ndarray:
    """Whole-grid per-tap correlation: pad once, then add each nonzero tap's
    product over the full grid in (u, v) row-major order, starting from
    zeros. It sums the same products in the same order as the package's
    row-blocked kernel, so the two must agree bit for bit."""
    img = np.asarray(img, dtype=np.float64)
    st = np.asarray(stencil, dtype=np.float64)
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


def term_loop_symbol(stencil, M: int, N: int) -> np.ndarray:
    """A flip-symmetric stencil's DCT symbol as one full-grid pass per
    folded offset (du, dv), each term mult * K[cu + du, cv + dv] * ci * cj
    added to the sum in (du, dv) order: the order whose bits
    :func:`gdsr.spectral.stencil_symbol` keeps."""
    st = np.asarray(stencil, dtype=np.float64)
    cu, cv = st.shape[0] // 2, st.shape[1] // 2
    values = np.zeros((M, N))
    for du in range(cu + 1):
        ci = np.cos(np.pi * du * np.arange(M) / M)[:, None]
        for dv in range(cv + 1):
            cj = np.cos(np.pi * dv * np.arange(N) / N)[None, :]
            mult = (2.0 if du else 1.0) * (2.0 if dv else 1.0)
            values = values + mult * st[cu + du, cv + dv] * ci * cj
    return values


def cosine_sum_symbol(M: int, N: int) -> np.ndarray:
    """The closed form cos(pi i/M) + cos(pi j/N), zero-based indices, as DCT
    Poisson solvers write it: the paper symbol mode's divisor."""
    ci = np.cos(np.pi * np.arange(M) / M)[:, None]
    cj = np.cos(np.pi * np.arange(N) / N)[None, :]
    return ci + cj


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
    symbol = symbol_for(np.shape(l_up), solve_stencil(symbol_mode))
    return channel_solve(phi_l, phi_r, w, lambdas, symbol)


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


# The fit objective's earlier layout, kept as the bitwise reference for
# _LambdaObjective: one d_hat and one t_hat row per channel and both symbols
# repeated per pixel. Every evaluation has the same operands in the same order.
class RowObjective:
    """Training RMSE of the full pipeline as a function of one channel weight.

    Everything is evaluated on DCT coefficients. The transform is
    orthonormal, so Parseval gives every inner product the head fit
    needs: <H_c, H_d> = <dct H_c, dct H_d>, <H_c, y> = <dct H_c, dct y>
    and <H_c, 1> = sqrt(MN) * dct(H_c)[0, 0]. The training triples are
    validated and transformed once here, through the same
    :func:`_channel_coeffs` as prediction, into one flattened coefficient
    row per channel that spans all triples.

    The accepted state starts at lambda_c = e^0.1 for every channel and
    is the solved coefficient stack at the accepted weights plus its
    normal equations (G, b), which also give the fitted head. Moving
    channel c changes only row and column c of G and entry c of b, so one
    evaluation costs O(C * pixels): no transform, no copy, no rebuild.
    """

    def __init__(self, train_triples, bank: FilterBank, edge_cfg: EdgeWeightConfig,
                 head_gamma, symbol_mode):
        if len(train_triples) == 0:
            raise ValueError("empty training set")
        _check_gamma(head_gamma)
        self.gamma = head_gamma
        triples = [tuple(map(as_image, triple)) for triple in train_triples]
        for l_up, guide, target in triples:
            if not (l_up.shape == guide.shape == target.shape):
                raise ValueError(f"training triple shapes differ: depth {l_up.shape}, "
                                 f"guide {guide.shape}, target {target.shape}")

        # Filled in place, triple by triple: the rows are the bulk of the memory.
        C = self.channels = len(bank)
        sizes = [target.size for *_, target in triples]
        bounds = np.cumsum([0] + sizes)
        self.n_pixels = int(bounds[-1])
        self.d_hat = np.empty((C, self.n_pixels))
        self.t_hat = np.empty((C, self.n_pixels))
        self.lap_symbol = np.empty(self.n_pixels)
        self.sym_sq = np.empty(self.n_pixels)
        self.y_hat = np.empty(self.n_pixels)
        for (l_up, guide, target), lo, hi in zip(triples, bounds[:-1], bounds[1:]):
            self.sym_sq[lo:hi] = _squared_symbol(symbol_mode, target.shape).ravel()
            self.lap_symbol[lo:hi] = symbol_for(target.shape).ravel()
            self.y_hat[lo:hi] = _dct2(target).ravel()
            l_hat = _dct2(l_up)
            for c, t_hat, _ in _channel_coeffs(guide, bank, edge_cfg, range(C)):
                d_symbol = symbol_for(target.shape, bank.pairs[c].depth_filter)
                self.d_hat[c, lo:hi] = (d_symbol * l_hat).ravel()
                self.t_hat[c, lo:hi] = t_hat.ravel()
        # dct(1) = sqrt(MN) e_0: the bias column lives in each triple's DC slot
        self.dc_idx = bounds[:-1]
        self.dc_scale = np.sqrt(sizes)
        # Work rows reused by every evaluation: fresh pixel-sized temporaries
        # would cost page faults on each allocation.
        self._coeffs, self._scratch, self._resid = np.empty((3, self.n_pixels))

        self.lambdas = np.full(C, math.exp(INIT_LOG_LAMBDA))
        self.h_hat = np.empty_like(self.d_hat)
        for c in range(C):
            self.h_hat[c] = self.solve(c, self.lambdas[c])
        self.G = np.empty((C + 1, C + 1))
        self.G[:C, :C] = self.h_hat @ self.h_hat.T
        self.G[:C, C] = self.G[C, :C] = self.h_hat[:, self.dc_idx] @ self.dc_scale
        self.G[C, C] = self.n_pixels
        self.b = np.append(self.h_hat @ self.y_hat, self.y_hat[self.dc_idx] @ self.dc_scale)

    def solve(self, c: int, lam: float) -> np.ndarray:
        """Channel c's coefficients at lam; valid until the next call."""
        return _solved_coeffs(self.d_hat[c], self.t_hat[c], self.lap_symbol, self.sym_sq,
                              lam, self._coeffs, self._scratch)

    def head(self) -> ReconstructionHead:
        """The ridge head of the accepted state's normal equations."""
        coef = _ridge_solve(self.G, self.b, self.gamma)
        return ReconstructionHead(coef[:-1], float(coef[-1]), self.gamma)

    def _candidate(self, c: int, lam: float):
        """Channel c's coefficients at lam and the normal equations with them."""
        h = self.solve(c, lam)
        row = self.h_hat @ h
        row[c] = h @ h
        G = self.G.copy()
        G[c, :-1] = G[:-1, c] = row
        G[c, -1] = G[-1, c] = h[self.dc_idx] @ self.dc_scale
        b = self.b.copy()
        b[c] = h @ self.y_hat
        return h, G, b

    def evaluate(self, c: int, lam: float) -> float:
        """Training RMSE with channel c moved to lam, the others as accepted."""
        h, G, b = self._candidate(c, lam)
        coef = _ridge_solve(G, b, self.gamma)
        # Residual sum_c w_c H_c + bias - y taken directly in coefficients:
        # y'y - 2w'b + w'Gw would cancel badly near a good fit.
        weights = coef[:-1]
        w_c = weights[c]
        weights[c] = 0.0
        resid = np.dot(weights, self.h_hat, out=self._resid)
        resid += np.multiply(h, w_c, out=self._scratch)
        resid -= self.y_hat
        resid[self.dc_idx] += coef[-1] * self.dc_scale
        return math.sqrt(float(resid @ resid) / self.n_pixels)

    def accept(self, c: int, lam: float) -> None:
        h, self.G, self.b = self._candidate(c, lam)
        self.h_hat[c] = h
        self.lambdas[c] = lam
