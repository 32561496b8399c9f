"""Fixed semi-coupled filter bank, per-channel spectral solves, and the
linear reconstruction head.

The bank is the learning-free counterpart of a learned two-stream
feature extractor: shared pairs apply one stencil to both modalities,
private pairs apply a depth-side and a guide-side stencil that differ.
Channel c of the depth and guide feature stacks always comes from pair
c, and the per-channel solve couples them through the same screened
equation used in the image domain, with its own regularization weight
per channel.

Reconstruction is a ridge-regression linear head over the solved
channels plus a bias; fitting minimizes the pixelwise sum of squares.
The channel weights lambda_c are fit by derivative-free coordinate
search in log space (grid bracketing plus golden-section refinement),
accepting a move only when the training RMSE strictly decreases.

Prediction (:func:`spectral_predict`) folds the depth-side extraction,
the solves and the head into one sum over DCT frequencies, which is why
depth-side stencils must be flip-symmetric. Fitting runs on the same
channel coefficients, so fit and prediction are one model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dct import _dct2, _idct2
from .image_core import as_image, as_stack
from .filters import _correlate, _stencil, correlate_reflect
from .guidance import EdgeWeightConfig, transfer_target
from .spectral import (
    FIVE_POINT,
    _squared_symbol,
    build_rhs,
    laplacian_apply,
    solve_screened,
    symbol_for,
)

__all__ = [
    "FilterPair",
    "FilterBank",
    "default_bank",
    "gaussian_stencil",
    "log_stencil",
    "extract",
    "channel_solve",
    "ReconstructionHead",
    "fit_head",
    "apply_head",
    "spectral_predict",
    "fit_lambda",
    "LOG_LAMBDA_BOUNDS",
    "INIT_LOG_LAMBDA",
]

# Search interval for log(lambda_c) and the fixed starting point e^0.1.
LOG_LAMBDA_BOUNDS = (-4.0, 4.0)
INIT_LOG_LAMBDA = 0.1


def _frozen_stencil(values) -> np.ndarray:
    st = _stencil(values).copy()
    st.setflags(write=False)
    return st


@dataclass(frozen=True)
class FilterPair:
    """One depth-side and one guide-side stencil; shared pairs use the same."""

    depth_filter: np.ndarray
    guide_filter: np.ndarray
    shared: bool

    def __post_init__(self):
        d = _frozen_stencil(self.depth_filter)
        g = _frozen_stencil(self.guide_filter)
        if self.shared and not (d.shape == g.shape and np.array_equal(d, g)):
            raise ValueError("shared pair must carry identical stencils")
        if not (np.array_equal(d, d[::-1]) and np.array_equal(d, d[:, ::-1])):
            # the spectral prediction needs the depth stencil's DCT symbol
            raise ValueError("depth stencil must be symmetric under horizontal and vertical flips")
        object.__setattr__(self, "depth_filter", d)
        object.__setattr__(self, "guide_filter", g)


@dataclass(frozen=True)
class FilterBank:
    """Ordered filter pairs; channel c of every stack comes from pair c."""

    pairs: tuple[FilterPair, ...]
    name: str = "custom"

    def __post_init__(self):
        pairs = tuple(self.pairs)
        if len(pairs) < 1:
            raise ValueError("bank must hold at least one pair")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)


def gaussian_stencil(sigma: float, size: int) -> np.ndarray:
    """Sampled 2-D Gaussian, normalized to sum to 1."""
    if size % 2 == 0 or size < 1:
        raise ValueError(f"size must be odd and >= 1, got {size}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    r = np.arange(size) - size // 2
    g = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()


def log_stencil(sigma: float, size: int) -> np.ndarray:
    """Sampled Laplacian-of-Gaussian, mean-subtracted to sum exactly to 0."""
    if size % 2 == 0 or size < 1:
        raise ValueError(f"size must be odd and >= 1, got {size}")
    r = np.arange(size) - size // 2
    r2 = r[:, None] ** 2 + r[None, :] ** 2
    s2 = sigma * sigma
    log = (r2 - 2.0 * s2) / (s2 * s2) * np.exp(-r2 / (2.0 * s2))
    return log - log.mean()


def default_bank() -> FilterBank:
    """The stock 8-pair bank: 4 shared stencils, 4 private combinations.

    Smoothing stencils sum to 1, derivative stencils to 0.
    """
    identity = np.array([[1.0]])
    g1 = gaussian_stencil(1.0, 5)
    g2 = gaussian_stencil(2.0, 7)
    ddx = np.array([[-0.5, 0.0, 0.5]])
    ddy = ddx.T
    pairs = (
        FilterPair(identity, identity, shared=True),
        FilterPair(g1, g1, shared=True),
        FilterPair(g2, g2, shared=True),
        FilterPair(FIVE_POINT, FIVE_POINT, shared=True),
        FilterPair(g1, ddx, shared=False),
        FilterPair(g1, ddy, shared=False),
        FilterPair(identity, log_stencil(1.0, 7), shared=False),
        FilterPair(g2, identity, shared=False),
    )
    return FilterBank(pairs, name="default8")


def extract(img, bank: FilterBank, side: str) -> np.ndarray:
    """Run the side-appropriate stencil of every pair over the image.

    Returns a (C, M, N) stack, reflection-padded like every filter in
    the pipeline.
    """
    img = as_image(img)
    if side not in ("depth", "guide"):
        raise ValueError(f"side must be 'depth' or 'guide', got {side!r}")
    channels = [
        correlate_reflect(img, p.depth_filter if side == "depth" else p.guide_filter)
        for p in bank.pairs
    ]
    return np.stack(channels)


def _check_lambdas(lambdas, channels: int) -> np.ndarray:
    lam = np.asarray(lambdas, dtype=np.float64).ravel()
    if lam.size != channels:
        raise ValueError(f"expected {channels} channel weights, got {lam.size}")
    if not np.all(np.isfinite(lam)) or np.any(lam < 0.0):
        raise ValueError("channel weights must be finite and >= 0")
    return lam


def channel_solve(phi_l, phi_r, w, lambdas, symbol) -> np.ndarray:
    """Per-channel screened solve coupling depth and guide features.

    For each channel c: E_c = lam_c * lap(lap(phi_r_c) * w_c) + phi_l_c,
    then H_c solves (Id + lam_c * lap^2) H_c = E_c. Channels are fully
    independent. ``symbol`` is the (M, N) grid of the solve.
    """
    phi_l = as_stack(phi_l)
    phi_r = as_stack(phi_r)
    w = as_stack(w)
    if not (phi_l.shape == phi_r.shape == w.shape):
        raise ValueError(
            f"stack shape mismatch: {phi_l.shape} vs {phi_r.shape} vs {w.shape}"
        )
    lam = _check_lambdas(lambdas, phi_l.shape[0])
    out = np.empty_like(phi_l)
    for c in range(phi_l.shape[0]):
        target = laplacian_apply(phi_r[c]) * w[c]
        e = build_rhs(phi_l[c], target, lam[c])
        out[c] = solve_screened(e, lam[c], symbol)
    return out


@dataclass(frozen=True)
class ReconstructionHead:
    """Linear map over solved channels: sum_c w_c * H_c + bias."""

    weights: np.ndarray
    bias: float
    gamma: float = 0.0

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64).ravel()  # copy: frozen below
        if w.size < 1 or not np.all(np.isfinite(w)):
            raise ValueError("head weights must be a nonempty finite vector")
        if not np.isfinite(self.bias):
            raise ValueError("head bias must be finite")
        _check_gamma(self.gamma)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def channels(self) -> int:
        return self.weights.size


def apply_head(features, head: ReconstructionHead) -> np.ndarray:
    """Pixelwise channel combination sum_c w_c * features[c] + bias."""
    features = as_stack(features)
    if features.shape[0] != head.channels:
        raise ValueError(
            f"head expects {head.channels} channels, got {features.shape[0]}"
        )
    return np.tensordot(head.weights, features, axes=(0, 0)) + head.bias


def _channel_coeffs(l_up, guide, bank: FilterBank, edge_cfg: EdgeWeightConfig, channels):
    """Yield (c, Lambda_Kc dct(l_up), dct(T_c)) for each c in ``channels``:
    K_c is pair c's depth stencil, diagonal in the DCT, and T_c the transfer
    target of pair c's guide feature. Pairs with one guide stencil share
    one dct(T_c), which is kept only until its last pair is yielded. The
    callers validate the inputs.

    The guide side comes first and T_c is transformed in its own buffer,
    so the guide feature and its target are freed before d_hat exists;
    d_hat is not kept here past its yield.
    """
    shape = np.shape(l_up)
    l_hat = _dct2(l_up)
    # ddx and ddy have the same bytes, so the shape is part of the key
    keys = [(g.shape, g.tobytes()) for g in (bank.pairs[c].guide_filter for c in channels)]
    shared = {}
    for k, c in enumerate(channels):
        pair = bank.pairs[c]
        t_hat = shared.pop(keys[k], None)
        if t_hat is None:
            t_hat = _dct2(transfer_target(_correlate(guide, pair.guide_filter), edge_cfg),
                          overwrite=True)
        if keys[k] in keys[k + 1:]:
            shared[keys[k]] = t_hat
        yield c, symbol_for("derived", shape, pair.depth_filter) * l_hat, t_hat


def _solved_coeffs(d_hat, t_hat, lap_symbol, symbol_sq, lam: float, out=None,
                   den=None) -> np.ndarray:
    """One channel's solved coefficients (d_hat + (lam Lambda_lap) t_hat) /
    (1 + lam Lambda^2), in this operation order, which prediction's bits
    depend on; lam = 0 returns ``d_hat``. ``out`` and ``den`` are optional
    buffers shaped like ``d_hat``."""
    if lam == 0.0:
        return d_hat
    den = np.multiply(symbol_sq, lam, out=den)
    den += 1.0
    out = np.multiply(lap_symbol, lam, out=out)
    out *= t_hat
    out += d_hat
    out /= den
    return out


def spectral_predict(l_up, guide, bank: FilterBank, lambdas, head: ReconstructionHead,
                     edge_cfg: EdgeWeightConfig, symbol_mode: str = "derived") -> np.ndarray:
    """The feature-domain prediction as one sum over DCT frequencies.

    Equals ``apply_head(channel_solve(extract(l_up, bank, "depth"), phi_r,
    multichannel_edge_weight(phi_r, edge_cfg), lambdas, symbol), head)``
    with ``phi_r = extract(guide, bank, "guide")``. Every stage after the
    edge weights is linear, and the DCT diagonalizes each flip-symmetric
    depth stencil K_c, so with L^ = dct(l_up) and T^_c = dct(T_c) for the
    transfer target T_c = lap(phi_r_c) * w_c:

        dct(H) = sum_c w_c (Lambda_Kc L^ + lam_c Lambda_lap T^_c)
                           / (1 + lam_c Lambda^2)  +  bias sqrt(MN) e_0.

    Lambda_lap is the 5-point Laplacian's own symbol, since the right-hand
    side holds a pixel Laplacian of T_c; Lambda is the ``symbol_mode``
    symbol of the solve. Channels with head weight 0 add only zeros and are
    skipped; each other channel costs one guide filtering and transform.
    """
    l_up = as_image(l_up)
    guide = as_image(guide)
    if l_up.shape != guide.shape:
        raise ValueError(f"depth {l_up.shape} does not match guide {guide.shape}")
    lam = _check_lambdas(lambdas, len(bank))
    if head.channels != len(bank):
        raise ValueError(f"head expects {head.channels} channels, bank has {len(bank)}")
    shape = l_up.shape
    lap_symbol = symbol_for("derived", shape)
    mode_sq = _squared_symbol(symbol_mode, *shape)
    h_hat = np.zeros(shape)
    for c, d_hat, t_hat in _channel_coeffs(l_up, guide, bank, edge_cfg,
                                           np.flatnonzero(head.weights)):
        # a fresh grid each channel (d_hat itself when lam_c = 0), so it
        # is scaled in place
        solved = _solved_coeffs(d_hat, t_hat, lap_symbol, mode_sq, lam[c])
        solved *= head.weights[c]
        h_hat += solved
        # freed before the generator builds the next channel's guide side
        del d_hat, t_hat, solved
    h_hat[0, 0] += head.bias * math.sqrt(l_up.size)
    return _idct2(h_hat, overwrite=True)


def _normal_equations(features_list, targets_list):
    """Accumulate X^T X and X^T y over all pixels of all pairs.

    The design matrix row for a pixel is its C channel values plus a
    trailing 1 for the bias.
    """
    if len(features_list) == 0 or len(features_list) != len(targets_list):
        raise ValueError("need at least one features/target pair, one target per stack")
    channels = None
    dim = None
    G = b = None
    count = 0
    for feats, target in zip(features_list, targets_list):
        feats = as_stack(feats)
        target = as_image(target)
        if feats.shape[1:] != target.shape:
            raise ValueError(
                f"features {feats.shape[1:]} do not match target {target.shape}"
            )
        if channels is None:
            channels = feats.shape[0]
            dim = channels + 1
            G = np.zeros((dim, dim))
            b = np.zeros(dim)
        elif feats.shape[0] != channels:
            raise ValueError("all feature stacks must share one channel count")
        n = target.size
        X = np.empty((dim, n))
        X[:channels] = feats.reshape(channels, n)
        X[channels] = 1.0
        G += X @ X.T
        b += X @ target.ravel()
        count += n
    return G, b, count


def fit_head(features_list, targets_list, gamma: float) -> ReconstructionHead:
    """Closed-form ridge fit of the reconstruction head.

    Minimizes sum ||[features | 1] w - target||^2 + gamma * ||w||^2 over
    all pixels of all pairs; the bias is excluded from the penalty so
    constant depth offsets are not shrunk.
    """
    _check_gamma(gamma)
    G, b, _ = _normal_equations(features_list, targets_list)
    w = _ridge_solve(G, b, gamma)
    return ReconstructionHead(w[:-1], float(w[-1]), gamma)


def _ridge_solve(G, b, gamma: float) -> np.ndarray:
    """Solve (G + gamma * I) w = b with the trailing bias entry unpenalized."""
    A = G.copy()
    A[np.diag_indices(A.shape[0] - 1)] += gamma
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"singular normal matrix ({exc}); retry with gamma > 0"
        ) from None


class _LambdaObjective:
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
            self.sym_sq[lo:hi] = _squared_symbol(symbol_mode, *target.shape).ravel()
            self.lap_symbol[lo:hi] = symbol_for("derived", target.shape).ravel()
            self.y_hat[lo:hi] = _dct2(target).ravel()
            for c, d_hat, t_hat in _channel_coeffs(l_up, guide, bank, edge_cfg, range(C)):
                self.d_hat[c, lo:hi] = d_hat.ravel()
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


def _golden_min(f, lo: float, hi: float, tol: float = 0.02):
    """Golden-section minimum of f on [lo, hi]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc < fd else (d, fd)


def _check_gamma(gamma: float) -> None:
    if not (np.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"gamma must be >= 0, got {gamma}")


def _check_search(grid_points: int, sweeps: int = 1) -> None:
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")
    if sweeps < 1:
        raise ValueError(f"sweeps must be >= 1, got {sweeps}")


def _search_log_lambda(f, grid_points: int):
    """Minimize f over log(lambda) in LOG_LAMBDA_BOUNDS; returns (v, f(v)).

    A ``grid_points``-sample scan brackets the minimum, golden-section
    refines inside the bracket, and the best grid sample wins if the
    refinement does not beat it.
    """
    lo, hi = LOG_LAMBDA_BOUNDS
    grid = np.linspace(lo, hi, grid_points)
    grid_vals = [f(v) for v in grid]
    k = int(np.argmin(grid_vals))
    v_star, f_star = _golden_min(f, grid[max(0, k - 1)], grid[min(grid_points - 1, k + 1)])
    if grid_vals[k] < f_star:
        v_star, f_star = float(grid[k]), grid_vals[k]
    return v_star, f_star


def fit_lambda(train_triples, bank: FilterBank, edge_cfg: EdgeWeightConfig,
               head_gamma: float = 1e-6, grid_points: int = 9, sweeps: int = 2,
               symbol_mode: str = "derived"):
    """Coordinate search for the per-channel regularization weights.

    ``train_triples`` is a sequence of (l_up, guide, target_hr) grids, the
    inputs and output of :func:`spectral_predict`. Each pass visits every
    channel once and searches log(lambda_c) over LOG_LAMBDA_BOUNDS: a
    ``grid_points``-sample scan brackets the minimum, golden-section
    refines inside the bracket, and the move is accepted only if the
    training RMSE of the full pipeline (solve, head refit,
    reconstruction) strictly decreases. Starts from lambda_c = e^0.1 for
    every channel; stops after ``sweeps`` passes or one pass with no
    accepted move.

    Returns ((lambdas, head), rmse_trace): the weights, the ridge head
    accepted with them, and one trace entry for the start and one per
    accepted move.
    """
    _check_search(grid_points, sweeps)
    obj = _LambdaObjective(train_triples, bank, edge_cfg, head_gamma, symbol_mode)
    best = obj.evaluate(0, obj.lambdas[0])
    trace = [best]

    for _ in range(sweeps):
        accepted = False
        for c in range(obj.channels):
            # The incumbent goes through the same update arithmetic as the
            # candidates, so a null move cannot win on rounding alone.
            incumbent = obj.evaluate(c, obj.lambdas[c])
            v_star, f_star = _search_log_lambda(
                lambda v: obj.evaluate(c, math.exp(v)), grid_points)
            if f_star < incumbent and f_star < best:
                obj.accept(c, math.exp(v_star))
                best = f_star
                trace.append(best)
                accepted = True
        if not accepted:
            break
    return (obj.lambdas, obj.head()), trace

