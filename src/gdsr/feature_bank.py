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
import numbers
from dataclasses import dataclass

import numpy as np

from .dct import _dct2, _idct2
from .image_core import as_image, as_stack, real
from .filters import _correlate, _stencil, correlate_reflect
from .guidance import EdgeWeightConfig, _transfer_target
from .spectral import (
    DEFAULT_SYMBOL_MODE,
    FIVE_POINT,
    build_rhs,
    laplacian_apply,
    solve_screened,
    solve_stencil,
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
# Default search settings: head ridge penalty, samples per scan, most passes.
HEAD_GAMMA = 1e-6
GRID_POINTS = 9
SWEEPS = 2


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
    lam = np.ravel(lambdas).tolist()  # numpy scalars as the Python ones they hold
    if len(lam) != channels:
        raise ValueError(f"expected {channels} channel weights, got {len(lam)}")
    return np.array([real(v, "channel weights", "finite and >= 0") for v in lam])


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
        w = np.array([real(v, "head weights") for v in np.ravel(self.weights).tolist()])
        if w.size < 1:
            raise ValueError("head weights must be a nonempty vector")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", real(self.bias, "head bias"))
        object.__setattr__(self, "gamma", _check_gamma(self.gamma))

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


def _row_index(stencils) -> list[int]:
    """Each stencil's index among the distinct ones, in order of first use:
    its row in the fit objective, its shared target in :func:`_channel_coeffs`.
    ddx and ddy have the same bytes, so the shape is part of the key."""
    rows = {}
    return [rows.setdefault((st.shape, st.tobytes()), len(rows)) for st in stencils]


def _channel_coeffs(guide, bank: FilterBank, edge_cfg: EdgeWeightConfig, channels):
    """Yield (c, dct(T_c), kept) for each c in ``channels``: T_c is the
    transfer target of pair c's guide feature. Pairs with one guide stencil
    share one dct(T_c), which is kept only until its last pair is yielded;
    ``kept`` says a later pair will be yielded it too, so the caller may
    write it only when ``kept`` is False. The callers validate the inputs.

    The guide feature is freed once its Laplacian exists and T_c is
    transformed in its own buffer, so a channel's guide side holds at most
    two grids besides the kept targets; the identity stencil's feature is
    the guide itself (:func:`_guide_feature`), so its side holds one. A
    target is not kept here past its pair's yield: the next pair's lookup
    drops it before the next build.
    """
    keys = _row_index([bank.pairs[c].guide_filter for c in channels])
    shared = {}
    for k, c in enumerate(channels):
        t_hat = shared.pop(keys[k], None)
        if t_hat is None:
            t_hat = _dct2(_transfer_target(_guide_feature(guide, bank.pairs[c].guide_filter),
                                           edge_cfg), overwrite=True)
        kept = keys[k] in keys[k + 1:]
        if kept:
            shared[keys[k]] = t_hat
        yield c, t_hat, kept


def _is_identity(stencil: np.ndarray) -> bool:
    """Whether ``stencil`` is the 1x1 identity, whose filtering of x is
    1.0 * x, which has x's bits."""
    return stencil.shape == (1, 1) and stencil[0, 0] == 1.0


def _guide_feature(guide: np.ndarray, stencil: np.ndarray) -> np.ndarray:
    """The guide filtered by a guide stencil, but ``guide`` itself for the
    identity: :func:`_transfer_target` does not write its input, so no copy
    of the guide is made."""
    return guide if _is_identity(stencil) else _correlate(guide, stencil)


def _depth_symbol(shape, stencil: np.ndarray):
    """The symbol of a depth stencil on a grid of ``shape``, as
    :func:`symbol_for` gives it, but 1.0 for the identity: its symbol is
    all ones, and 1.0 * x has x's bits, so a product with L^ keeps them
    and no all-ones grid is built or cached."""
    if _is_identity(stencil):
        return 1.0
    return symbol_for(shape, stencil)


def _solved_coeffs(d_symbol, l_hat, t_hat, lap_symbol, mode_symbol, lam: float, out,
                   work=None) -> np.ndarray:
    """A channel's solved coefficients (Lambda_K L^ + (lam Lambda_lap) T^) /
    ((Lambda * Lambda) lam + 1), in ``out``, which may be ``t_hat``; lam = 0
    gives Lambda_K L^. Prediction and both fits solve every channel here,
    so this operation order fixes their bits. The grids are (M, N), or runs
    (k, M, N) over whose leading axis the (M, N) symbols broadcast;
    ``d_symbol`` may be the scalar 1.0 (:func:`_depth_symbol`). ``work``, a
    grid shaped like ``out``, is clobbered; at lam != 0 with no ``work``,
    one is made here, after the caller has built ``t_hat``."""
    if lam == 0.0:
        return np.multiply(d_symbol, l_hat, out=out)
    if work is None:
        work = np.empty(out.shape)
    grid = work[(0,) * (work.ndim - np.ndim(lap_symbol))]  # one symbol-shaped grid
    np.multiply(t_hat, np.multiply(lap_symbol, lam, out=grid), out=out)
    out += np.multiply(d_symbol, l_hat, out=work)
    np.multiply(mode_symbol, mode_symbol, out=grid)
    grid *= lam
    grid += 1.0
    out /= grid
    return out


def spectral_predict(l_up, guide, bank: FilterBank, lambdas, head: ReconstructionHead,
                     edge_cfg: EdgeWeightConfig,
                     symbol_mode: str = DEFAULT_SYMBOL_MODE) -> np.ndarray:
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
    side holds a pixel Laplacian of T_c; Lambda is the symbol of the
    ``symbol_mode`` solve's stencil. Channels with head weight 0 add only
    zeros and are skipped; each other channel costs one guide filtering
    and transform.
    """
    l_up = as_image(l_up)
    guide = as_image(guide)
    if l_up.shape != guide.shape:
        raise ValueError(f"depth {l_up.shape} does not match guide {guide.shape}")
    lam = _check_lambdas(lambdas, len(bank))
    if head.channels != len(bank):
        raise ValueError(f"head expects {head.channels} channels, bank has {len(bank)}")
    return _spectral_predict(l_up, guide, bank, lam, head, edge_cfg, symbol_mode)


def _spectral_predict(l_up: np.ndarray, guide: np.ndarray, bank: FilterBank, lam: np.ndarray,
                      head: ReconstructionHead, edge_cfg: EdgeWeightConfig,
                      symbol_mode: str, overwrite: bool = False) -> np.ndarray:
    """:func:`spectral_predict` of checked grids of one shape, one float64
    lambda per pair and a head of the bank's width. With ``overwrite`` the
    caller gives ``l_up`` up, and dct(l_up) is taken in its buffer.

    Besides its inputs it holds about five grids, four with ``overwrite``:
    the sum, dct(l_up), the target kept for a later pair, and the
    channel's guide side, then its target and the solve's work grid. Each
    channel is solved in its target's buffer (:func:`_solved_coeffs`); a
    target that a later pair reads is solved into a fresh grid instead.
    """
    shape = l_up.shape
    lap_symbol = symbol_for(shape)
    mode_symbol = symbol_for(shape, solve_stencil(symbol_mode))
    l_hat = _dct2(l_up, overwrite=overwrite)
    h_hat = np.zeros(shape)
    for c, t_hat, kept in _channel_coeffs(guide, bank, edge_cfg, np.flatnonzero(head.weights)):
        out = _solved_coeffs(_depth_symbol(shape, bank.pairs[c].depth_filter), l_hat, t_hat,
                             lap_symbol, mode_symbol, lam[c],
                             np.empty(shape) if kept else t_hat)
        out *= head.weights[c]
        h_hat += out
        # freed before the generator builds the next channel's guide side
        del t_hat, out
    h_hat[0, 0] += head.bias * math.sqrt(l_hat.size)
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
    :func:`_channel_coeffs` as prediction, into flattened coefficient rows
    that span all triples: one L^ row and one t_hat row per distinct
    guide stencil (:func:`_row_index`), with the symbols kept once per
    shape. Each solve forms Lambda_Kc L^ from the L^ row; the identity
    depth stencil's symbol is 1.0 (:func:`_depth_symbol`), so no all-ones
    grid is built.

    The accepted state starts at lambda_c = e^0.1 for every channel and
    is the solved coefficient stack at the accepted weights plus its
    normal equations (G, b), which also give the fitted head. Moving
    channel c changes only row and column c of G and entry c of b, so one
    evaluation costs O(C * pixels): no transform, no copy, no rebuild.
    The state and the two work rows are made on first use, so a caller
    that drops the triples once the objective is built never holds both.

    The default bank needs the L^ row, 7 guide rows, the target row, then
    8 solved rows and 2 work rows: 19 rows, 152 bytes per training pixel.
    Two triples of 480x640 hold 89 MB, which is also their peak once the
    triples are dropped (MB of 2^20 bytes).
    """

    # made on first use (__getattr__)
    _STATE = ("h_hat", "G", "b", "_coeffs", "_work")

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
        self.t_row = _row_index([p.guide_filter for p in bank.pairs])
        self.l_hat = np.empty(self.n_pixels)
        self.t_hat = np.empty((max(self.t_row) + 1, self.n_pixels))
        self.y_hat = np.empty(self.n_pixels)
        # (lo, hi, shape, lap_symbol, mode_symbol, depth symbols per channel)
        # per run of consecutive triples of one shape, in triple order: the
        # flat row order fixes the bits of every product over the rows, so
        # triples are never regrouped by shape.
        symbols, self._runs, last = {}, [], None
        for (l_up, guide, target), lo, hi in zip(triples, bounds[:-1], bounds[1:]):
            shape = target.shape
            if shape not in symbols:
                symbols[shape] = (symbol_for(shape), symbol_for(shape, solve_stencil(symbol_mode)),
                                  [_depth_symbol(shape, p.depth_filter) for p in bank.pairs])
            if shape == last:
                self._runs[-1][1] = hi
            else:
                self._runs.append([lo, hi, shape, *symbols[shape]])
            last = shape
            self.y_hat[lo:hi] = _dct2(target).ravel()
            self.l_hat[lo:hi] = _dct2(l_up).ravel()
            for c, t_hat, _ in _channel_coeffs(guide, bank, edge_cfg, range(C)):
                self.t_hat[self.t_row[c], lo:hi] = t_hat.ravel()
        # dct(1) = sqrt(MN) e_0: the bias column lives in each triple's DC slot
        self.dc_idx = bounds[:-1]
        self.dc_scale = np.sqrt(sizes)
        self.lambdas = np.full(C, math.exp(INIT_LOG_LAMBDA))

    def __getattr__(self, name):
        # called only for a missing attribute: the state before first use
        if name not in self._STATE:
            raise AttributeError(name)
        self._start()
        return getattr(self, name)

    def _start(self) -> None:
        """Make the accepted state at the e^0.1 start, and the work rows
        every evaluation reuses: fresh pixel-sized temporaries would cost
        page faults on each allocation."""
        C = self.channels
        self._coeffs, self._work = np.empty((2, self.n_pixels))
        self.h_hat = np.empty((C, self.n_pixels))
        for c in range(C):
            self.h_hat[c] = self.solve(c, self.lambdas[c])
        self.G = np.empty((C + 1, C + 1))
        self.G[:C, :C] = self.h_hat @ self.h_hat.T
        self.G[:C, C] = self.G[C, :C] = self.h_hat[:, self.dc_idx] @ self.dc_scale
        self.G[C, C] = self.n_pixels
        self.b = np.append(self.h_hat @ self.y_hat, self.y_hat[self.dc_idx] @ self.dc_scale)

    def solve(self, c: int, lam: float) -> np.ndarray:
        """Channel c's coefficients at lam, in the coefficient row; valid
        until the next call. Each run of one shape is solved at once
        (:func:`_solved_coeffs`), with the work row as its work grids, so a
        solve allocates nothing."""
        out, t_hat = self._coeffs, self.t_hat[self.t_row[c]]
        for lo, hi, shape, lap_symbol, mode_symbol, d_symbols in self._runs:
            run = (-1, *shape)  # the run's triples, each symbol broadcast
            _solved_coeffs(d_symbols[c], self.l_hat[lo:hi].reshape(run),
                           t_hat[lo:hi].reshape(run), lap_symbol, mode_symbol, lam,
                           out[lo:hi].reshape(run), self._work[lo:hi].reshape(run))
        return out

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
        resid = np.dot(weights, self.h_hat, out=self._work)
        resid += np.multiply(h, w_c, out=h)  # h is the coefficient row
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


def _check_gamma(gamma: float) -> float:
    return real(gamma, "gamma", "finite and >= 0")


def _check_search(grid_points: int, sweeps: int = 1) -> None:
    for name, value, least in (("grid_points", grid_points, 3), ("sweeps", sweeps, 1)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an int, got {type(value).__name__}")
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


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
               head_gamma: float = HEAD_GAMMA, grid_points: int = GRID_POINTS,
               sweeps: int = SWEEPS, symbol_mode: str = DEFAULT_SYMBOL_MODE):
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
    # The search reads the objective's rows only: triples passed as a
    # temporary die here, not after the search, and before the first
    # evaluation makes the accepted state.
    del train_triples
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

