import functools
import math
import tracemalloc
import weakref
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdsr import feature_bank, image_core
from gdsr.bench import PipelineConfig, load_params, save_params
from gdsr.dct import dct2_forward
from gdsr.feature_bank import (
    FilterBank,
    FilterPair,
    ReconstructionHead,
    apply_head,
    channel_solve,
    default_bank,
    extract,
    fit_head,
    fit_lambda,
    gaussian_stencil,
    log_stencil,
    spectral_predict,
    _LambdaObjective,
    _solved_coeffs,
)
from gdsr.filters import correlate_reflect
from gdsr.guidance import EdgeWeightConfig, edge_weight, luminance, transfer_target
from gdsr.resample import degrade
from gdsr.spectral import (
    FIVE_POINT,
    SYMBOL_MODES,
    build_rhs,
    derived_symbol,
    laplacian_apply,
    solve_screened,
    solve_stencil,
    symbol_for,
)

from oracles import (RowObjective, brute_correlate_reflect, pixel_fit_lambda, pixel_objective,
                     pixel_predict)
from scenes import make_scene


IDENTITY = np.array([[1.0]])


def identity_bank():
    return FilterBank((FilterPair(IDENTITY, IDENTITY, shared=True),), name="id1")


def test_pair_and_bank_validation():
    with pytest.raises(ValueError, match="identical"):
        FilterPair(IDENTITY, np.array([[0.5]]), shared=True)
    with pytest.raises(ValueError, match="odd"):
        FilterPair(np.ones((2, 2)) / 4, np.ones((2, 2)) / 4, shared=False)
    ddx = np.array([[-0.5, 0.0, 0.5]])
    with pytest.raises(ValueError, match="depth stencil must be symmetric"):
        FilterPair(ddx, ddx, shared=True)
    with pytest.raises(ValueError, match="depth stencil must be symmetric"):
        FilterPair(np.array([[1.0], [2.0], [3.0]]), IDENTITY, shared=False)
    FilterPair(IDENTITY, ddx, shared=False)  # the guide side may be asymmetric
    with pytest.raises(ValueError, match="at least one"):
        FilterBank(())


def test_default_bank_structure():
    bank = default_bank()
    assert len(bank) == 8
    assert bank.name == "default8"
    assert sum(p.shared for p in bank.pairs) == 4
    for p in bank.pairs:
        for st in (p.depth_filter, p.guide_filter):
            total = st.sum()
            # smoothing stencils sum to 1, derivative stencils to 0
            assert abs(total - 1.0) < 1e-12 or abs(total) < 1e-12


def test_stencil_builders():
    g = gaussian_stencil(1.0, 5)
    assert g.shape == (5, 5) and abs(g.sum() - 1.0) < 1e-15
    assert g[2, 2] == g.max()
    lg = log_stencil(1.0, 7)
    assert abs(lg.sum()) < 1e-15


def test_extract_shared_sides_agree():
    rng = np.random.default_rng(60)
    img = rng.random((12, 10))
    shared_only = FilterBank(
        tuple(p for p in default_bank().pairs if p.shared), name="shared")
    assert np.array_equal(extract(img, shared_only, "depth"),
                          extract(img, shared_only, "guide"))


def test_extract_identity_and_oracle():
    rng = np.random.default_rng(61)
    img = rng.random((9, 11))
    bank = default_bank()
    feats = extract(img, bank, "depth")
    assert feats.shape == (8, 9, 11)
    assert np.array_equal(feats[0], img)  # identity pair
    want = brute_correlate_reflect(img, gaussian_stencil(1.0, 5))
    assert np.abs(feats[1] - want).max() < 1e-12
    with pytest.raises(ValueError, match="side"):
        extract(img, bank, "rgb")


def test_semi_coupled_consistency_probe():
    rng = np.random.default_rng(62)
    probe = rng.random((16, 16))
    bank = default_bank()
    depth_side = extract(probe, bank, "depth")
    guide_side = extract(probe, bank, "guide")
    for c, pair in enumerate(bank.pairs):
        if pair.shared:
            assert np.array_equal(depth_side[c], guide_side[c])
        else:
            assert not np.allclose(depth_side[c], guide_side[c])


def test_gaussian_pair_preserves_constants():
    feats = extract(np.full((8, 8), 0.3), default_bank(), "depth")
    assert np.abs(feats[1] - 0.3).max() < 1e-12   # gaussian
    assert np.abs(feats[3]).max() < 1e-12         # laplacian annihilates constants


def test_channel_solve_degenerate_cases():
    rng = np.random.default_rng(63)
    C, M, N = 3, 10, 8
    phi_l = rng.random((C, M, N))
    phi_r = rng.random((C, M, N))
    w = rng.random((C, M, N))
    sym = derived_symbol(FIVE_POINT, M, N)
    out = channel_solve(phi_l, phi_r, w, np.zeros(C), sym)
    assert np.array_equal(out, phi_l)
    lams = np.array([0.5, 1.0, 2.0])
    out = channel_solve(phi_l, phi_r, np.zeros_like(w), lams, sym)
    for c in range(C):
        assert np.array_equal(out[c], solve_screened(phi_l[c], lams[c], sym))
    with pytest.raises(ValueError, match="mismatch"):
        channel_solve(phi_l, phi_r[:2], w, lams, sym)
    with pytest.raises(ValueError, match="channel weights"):
        channel_solve(phi_l, phi_r, w, np.ones(2), sym)


def test_single_channel_reduction_is_bitwise():
    rng = np.random.default_rng(64)
    M, N = 14, 12
    depth_up = rng.random((M, N))
    guide = rng.random((M, N))
    lam = 1.7
    cfg = EdgeWeightConfig("hard", 0.8)
    sym = derived_symbol(FIVE_POINT, M, N)

    # image-domain path
    wmask = edge_weight(guide, cfg)
    target = laplacian_apply(guide) * wmask
    h_image = solve_screened(build_rhs(depth_up, target, lam), lam, sym)

    # C=1 feature path with identity filters and passthrough head
    bank = identity_bank()
    phi_l = extract(depth_up, bank, "depth")
    phi_r = extract(guide, bank, "guide")
    w = edge_weight(phi_r[0], cfg)[None]
    phi_h = channel_solve(phi_l, phi_r, w, np.array([lam]), sym)
    h_feature = apply_head(phi_h, ReconstructionHead(np.array([1.0]), 0.0))
    assert np.abs(h_feature - h_image).max() < 1e-12


def test_apply_head_contracts():
    rng = np.random.default_rng(65)
    feats = rng.random((4, 6, 5))
    head = ReconstructionHead(np.array([1.0, 0.0, 0.0, 0.0]), 0.0)
    assert np.array_equal(apply_head(feats, head), feats[0])
    head_b = ReconstructionHead(np.zeros(4), 2.5)
    assert np.array_equal(apply_head(feats, head_b), np.full((6, 5), 2.5))
    # scalar-loop reference
    w = rng.standard_normal(4)
    head_r = ReconstructionHead(w, -0.3)
    got = apply_head(feats, head_r)
    want = np.zeros((6, 5))
    for c in range(4):
        want += w[c] * feats[c]
    want -= 0.3
    assert np.abs(got - want).max() < 1e-12
    with pytest.raises(ValueError, match="channels"):
        apply_head(feats[:2], head)


def test_fit_head_recovers_exact_channel():
    rng = np.random.default_rng(66)
    feats = rng.random((3, 8, 8))
    head = fit_head([feats], [feats[0]], gamma=0.0)
    want = np.array([1.0, 0.0, 0.0])
    assert np.abs(head.weights - want).max() < 1e-6
    assert abs(head.bias) < 1e-6


def test_fit_head_two_unknowns_by_hand():
    rng = np.random.default_rng(67)
    target = rng.random((5, 5))
    feats = (target + 5.0)[None]
    head = fit_head([feats], [target], gamma=0.0)
    assert abs(head.weights[0] - 1.0) < 1e-9
    assert abs(head.bias + 5.0) < 1e-9


def test_fit_head_large_gamma_shrinks_weights():
    rng = np.random.default_rng(68)
    feats = rng.random((2, 10, 10))
    target = rng.random((10, 10))
    head = fit_head([feats], [target], gamma=1e12)
    assert np.abs(head.weights).max() < 1e-6
    # unpenalized bias absorbs the mean
    assert abs(head.bias - target.mean()) < 1e-3


def test_fit_head_singular_reported():
    feats = np.stack([np.ones((4, 4)), np.ones((4, 4))])  # duplicated channel
    with pytest.raises(ValueError, match="singular"):
        fit_head([feats], [np.ones((4, 4))], gamma=0.0)
    fit_head([feats], [np.ones((4, 4))], gamma=1e-6)  # the documented retry


def test_fit_head_is_ridge_optimum():
    rng = np.random.default_rng(69)
    feats = [rng.random((3, 7, 7)) for _ in range(2)]
    targets = [rng.random((7, 7)) for _ in range(2)]
    gamma = 0.5
    head = fit_head(feats, targets, gamma)

    def objective(w, b):
        sse = 0.0
        for f, t in zip(feats, targets):
            pred = np.tensordot(w, f, axes=(0, 0)) + b
            sse += float(np.sum((pred - t) ** 2))
        return sse + gamma * float(np.sum(w * w))

    base = objective(head.weights, head.bias)
    for k in range(3):
        for eps in (1e-3, -1e-3):
            w = head.weights.copy()
            w[k] += eps
            assert base <= objective(w, head.bias) + 1e-9
    for eps in (1e-3, -1e-3):
        assert base <= objective(head.weights, head.bias + eps) + 1e-9


HARD = EdgeWeightConfig("hard", 0.9)


def _tiny_training_triple(seed, M=32, N=32):
    """(l_up, guide, target) from a degraded scene, for the identity bank."""
    rng = np.random.default_rng(seed)
    gt, rgb = make_scene(rng, M, N, n_shapes=3)
    from gdsr.resample import degrade

    _, up = degrade(gt, 4)
    return up, luminance(rgb), gt


def test_fit_lambda_never_regresses_and_trace_decreases():
    triple = _tiny_training_triple(70)
    (lambdas, head), trace = fit_lambda([triple], identity_bank(), HARD, head_gamma=1e-8,
                                        grid_points=5, sweeps=2)
    assert lambdas.shape == (1,) and head.channels == 1
    assert np.all(lambdas > 0.0)
    assert trace[-1] <= trace[0]
    # every accepted move strictly improves
    assert all(b < a for a, b in zip(trace, trace[1:]))


def test_fit_lambda_identity_task_no_regression():
    # HR target equals the upsampled input: nothing to gain, nothing lost
    l_up, guide, _ = _tiny_training_triple(71)
    _, trace = fit_lambda([(l_up, guide, l_up)], identity_bank(), HARD, head_gamma=1e-8,
                          grid_points=5, sweeps=1)
    assert trace[-1] <= trace[0] + 1e-15


def _random_stencil(rng, size):
    """A random size x size stencil symmetric under both flips."""
    k = rng.standard_normal((size, size))
    k = k + k[::-1]
    return k + k[:, ::-1]


@functools.lru_cache(maxsize=None)
def _random_bank_triples():
    """A bank of 8 random, distinct, flip-symmetric 5x5 depth stencils with
    random 3x3 guide stencils, and two random triples on odd grids. The
    depth stencils are independent, so the head's normal matrix stays well
    conditioned even with every lambda at 0."""
    rng = np.random.default_rng(80)
    bank = FilterBank(tuple(
        FilterPair(_random_stencil(rng, 5), rng.standard_normal((3, 3)), shared=False)
        for _ in range(8)), name="random8")
    triples = []
    for M, N in ((15, 21), (17, 11)):
        l_up, guide = rng.random((2, M, N))
        triples.append((l_up, guide, l_up + 0.1 * rng.standard_normal((M, N))))
    return bank, tuple(triples)


def _bank_triples():
    """Two default-bank training triples on different odd grids; a blurred
    copy of the ground truth stands in for the upsampled depth."""
    triples = []
    for seed, M, N in ((82, 15, 21), (83, 17, 11)):
        rng = np.random.default_rng(seed)
        gt, rgb = make_scene(rng, M, N, n_shapes=3)
        up = correlate_reflect(gt, gaussian_stencil(2.0, 7))
        triples.append((up, luminance(rgb), gt))
    return triples


_LAMBDA = st.one_of(st.just(0.0), st.floats(-4.0, 4.0).map(math.exp))


# A bank of independent depth stencils keeps the ridge solve well
# conditioned. With the default bank's repeated depth stencils and several
# channels at lambda = 0 its condition number reaches 1e9-1e10, and both
# objectives are then only accurate to about that times the float64 epsilon.
@settings(max_examples=40, deadline=None)
@given(
    lambdas=st.lists(_LAMBDA, min_size=8, max_size=8),
    moves=st.lists(st.tuples(st.integers(0, 7), _LAMBDA), min_size=1, max_size=4),
    mode=st.sampled_from(["derived", "paper"]),
    gamma=st.sampled_from([1e-8, 1e-6]),
    edge=st.sampled_from(["none", "hard", "soft"]),
)
def test_coefficient_objective_matches_pixel_oracle(lambdas, moves, mode, gamma, edge):
    bank, triples = _random_bank_triples()
    cfg = EdgeWeightConfig(edge, tau_quantile=0.8)
    obj = _LambdaObjective(triples, bank, cfg, gamma, mode)
    for c, lam in enumerate(lambdas):
        obj.accept(c, lam)
    current = np.array(lambdas)
    for c, lam in moves:
        trial = current.copy()
        trial[c] = lam
        want = pixel_objective(triples, bank, cfg, trial, gamma, mode)
        assert abs(obj.evaluate(c, lam) - want) <= 1e-10 * want
        obj.accept(c, lam)  # later moves start from row/column-updated normal equations
        current = trial
    assert np.array_equal(obj.lambdas, current)


def test_coefficient_solve_at_zero_lambda_is_bitwise():
    bank, triples = _random_bank_triples()
    obj = _LambdaObjective(triples, bank, HARD, 1e-6, "derived")
    stencil = bank.pairs[3].depth_filter
    want = np.concatenate([(symbol_for(l_up.shape, stencil)
                            * dct2_forward(l_up)).ravel() for l_up, *_ in triples])
    assert np.array_equal(obj.solve(3, 0.0), want)


# Stencils that banks are drawn from. Each pool holds two stencils with the
# same bytes and different shapes, so their rows must stay apart.
_ROW = np.array([[0.25, 0.5, 0.25]])
_DDX = np.array([[-0.5, 0.0, 0.5]])
_DEPTH_POOL = (IDENTITY, gaussian_stencil(1.0, 5), FIVE_POINT, _ROW, _ROW.T)
_GUIDE_POOL = (IDENTITY, gaussian_stencil(1.0, 5), _DDX, _DDX.T, log_stencil(1.0, 7))
_ODD = st.integers(1, 6).map(lambda k: 2 * k + 1)


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


# The one channel solve of prediction and both fits, written out as its
# docstring states it; a change of operation order moves the last bits.
@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       run=st.sampled_from([None, 1, 2, 3]), depth=st.sampled_from(_DEPTH_POOL[:3]),
       lam=_LAMBDA, mode=st.sampled_from(SYMBOL_MODES), alias=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_solved_coeffs_has_the_bits_of_its_formula(shape, run, depth, lam, mode, alias, seed):
    # a run of triples carries a leading axis that every symbol broadcasts
    # over; the identity depth stencil's symbol is the scalar 1.0
    grids = shape if run is None else (run, *shape)
    l_hat, t_hat = np.random.default_rng(seed).standard_normal((2, *grids))
    d_symbol = 1.0 if depth is IDENTITY else symbol_for(shape, depth)
    lap, mode_symbol = symbol_for(shape), symbol_for(shape, solve_stencil(mode))
    if lam == 0.0:
        want = d_symbol * l_hat
    else:
        want = (d_symbol * l_hat + (lam * lap) * t_hat) / ((mode_symbol * mode_symbol) * lam + 1.0)
    out = t_hat if alias else np.empty(grids)
    got = _solved_coeffs(d_symbol, l_hat, t_hat, lap, mode_symbol, lam, out)
    assert got is out
    _assert_same_bits(got, want)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(SYMBOL_MODES),
       edge=st.sampled_from(["none", "hard", "soft"]), gamma=st.sampled_from([1e-8, 1e-6]))
def test_shared_rows_keep_the_bits_of_one_row_per_channel(data, seed, mode, edge, gamma):
    pairs = data.draw(st.one_of(st.none(), st.lists(st.tuples(st.integers(0, 4),
                                                              st.integers(0, 4)),
                                                    min_size=1, max_size=5)))
    bank = default_bank() if pairs is None else FilterBank(tuple(
        FilterPair(_DEPTH_POOL[d], _GUIDE_POOL[g], shared=False) for d, g in pairs))
    # runs of one shape may interleave: shapes A, B, A are three runs
    shapes = data.draw(st.lists(st.tuples(_ODD, _ODD), min_size=2, max_size=3, unique=True))
    order = data.draw(st.lists(st.integers(0, len(shapes) - 1), min_size=1, max_size=4))
    rng = np.random.default_rng(seed)
    triples = []
    for k in order:
        l_up, guide = rng.random((2, *shapes[k]))
        triples.append((l_up, guide, l_up + 0.1 * rng.standard_normal(shapes[k])))
    cfg = EdgeWeightConfig(edge, tau_quantile=0.8)
    got = _LambdaObjective(triples, bank, cfg, gamma, mode)
    want = RowObjective(triples, bank, cfg, gamma, mode)
    steps = st.tuples(st.sampled_from(["evaluate", "accept", "solve"]),
                      st.integers(0, len(bank) - 1), _LAMBDA)
    for op, c, lam in data.draw(st.lists(steps, min_size=1, max_size=8)):
        if op == "accept":
            got.accept(c, lam)
            want.accept(c, lam)
        else:
            _assert_same_bits(getattr(got, op)(c, lam), getattr(want, op)(c, lam))
        for name in ("h_hat", "G", "b", "lambdas"):
            _assert_same_bits(getattr(got, name), getattr(want, name))
    # the depth rows that solve returns at lambda = 0 were never written
    for c in range(len(bank)):
        _assert_same_bits(got.solve(c, 0.0), want.solve(c, 0.0))
    head, want_head = got.head(), want.head()
    _assert_same_bits(head.weights, want_head.weights)
    _assert_same_bits([head.bias, head.gamma], [want_head.bias, want_head.gamma])


def test_objective_peaks_at_nineteen_rows_through_its_build():
    # default bank, one shape: the L^ row, 7 guide rows, the target row,
    # then 8 solved rows and 2 work rows, made at the first evaluation. The
    # triples exist before the trace, so the peak covers the rows, the
    # build's transients and one evaluation's, not the training grids. A
    # depth row per distinct depth stencil made 22 rows, and 23.1 at the
    # peak; a solve's lam Lambda_lap and divisor in fresh grids made 19.5.
    gt, rgb = make_scene(np.random.default_rng(0), 96, 128)
    _, up = degrade(gt, 8)
    triples = [(up, luminance(rgb), gt)] * 2
    # fills the symbol caches
    _LambdaObjective(triples, default_bank(), HARD, 1e-6, "derived").evaluate(3, 2.0)
    tracemalloc.start()
    try:
        obj = _LambdaObjective(triples, default_bank(), HARD, 1e-6, "derived")
        obj.evaluate(3, 2.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    row = 8 * obj.n_pixels
    # plus a little slack
    assert peak <= 19 * row + 65536, f"peak {peak / row:.2f} rows"


def test_fit_lambda_matches_pixel_oracle_search():
    triple = _tiny_training_triple(70)
    (lambdas, _), _ = fit_lambda([triple], identity_bank(), HARD, head_gamma=1e-8,
                                 grid_points=5, sweeps=2)
    assert np.array_equal(
        lambdas, pixel_fit_lambda([triple], identity_bank(), HARD, 1e-8, grid_points=5, sweeps=2))
    triples = _bank_triples()
    (lambdas, _), _ = fit_lambda(triples, default_bank(), HARD, head_gamma=1e-6,
                                 grid_points=5, sweeps=1)
    assert np.array_equal(
        lambdas, pixel_fit_lambda(triples, default_bank(), HARD, 1e-6, grid_points=5, sweeps=1))


def test_fit_lambda_trace_is_the_rmse_of_its_prediction():
    # fit and prediction are one model: the last trace value is the training
    # RMSE that spectral_predict gives with the returned lambdas and head
    triples = _bank_triples()
    bank = default_bank()
    (lambdas, head), trace = fit_lambda(triples, bank, HARD, head_gamma=1e-6, grid_points=5,
                                        sweeps=1)
    assert len(trace) > 1
    sse = sum(float(np.sum((spectral_predict(l_up, guide, bank, lambdas, head, HARD) - t) ** 2))
              for l_up, guide, t in triples)
    rmse = math.sqrt(sse / sum(t.size for *_, t in triples))
    assert abs(trace[-1] - rmse) <= 1e-12 * rmse


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.tuples(st.integers(1, 20), st.integers(1, 20)),
       lambdas=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 60.0)), min_size=8, max_size=8),
       weights=st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=8, max_size=8),
       bias=st.floats(-1.0, 1.0),
       mode=st.sampled_from(SYMBOL_MODES),
       edge=st.sampled_from(["none", "hard", "soft"]))
def test_spectral_predict_matches_pixel_oracle(seed, shape, lambdas, weights, bias, mode, edge):
    rng = np.random.default_rng(seed)
    l_up, guide = rng.random(shape), rng.random(shape)
    bank = default_bank()
    head = ReconstructionHead(weights, bias)
    cfg = EdgeWeightConfig(edge, tau_quantile=0.8)
    got = spectral_predict(l_up, guide, bank, lambdas, head, cfg, mode)
    want = pixel_predict(l_up, guide, bank, lambdas, head, cfg, mode)
    # Relative to the output, plus 1e-300: with every head weight 0 and a
    # subnormal bias, the transforms' scaling underflows (the 1x1 inverse DCT
    # maps 5e-324 to 0), and float64 has no relative precision down there.
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max() + 1e-300


def test_spectral_predict_on_scene_and_validation():
    gt, rgb = make_scene(np.random.default_rng(15), 40, 56)
    guide = luminance(rgb)
    bank = default_bank()
    lambdas = [41.3, 33.8, 26.3, 0.27, 54.6, 54.6, 54.6, 26.8]
    head = ReconstructionHead([5.67, 0.11, 0.50, -0.17, -0.07, -0.08, -0.19, -4.95], 0.01)
    cfg = EdgeWeightConfig("hard")
    got = spectral_predict(gt, guide, bank, lambdas, head, cfg)
    want = pixel_predict(gt, guide, bank, lambdas, head, cfg)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError, match="channel weights"):
        spectral_predict(gt, guide, bank, lambdas[:7], head, cfg)
    with pytest.raises(ValueError, match="head expects 1 channels"):
        spectral_predict(gt, guide, bank, lambdas, ReconstructionHead([1.0], 0.0), cfg)
    with pytest.raises(ValueError, match="does not match guide"):
        spectral_predict(gt, guide[:-1], bank, lambdas, head, cfg)


def test_spectral_predict_skips_zero_weight_channels(monkeypatch):
    rng = np.random.default_rng(66)
    l_up, guide = rng.random((2, 24, 18))
    bank = default_bank()
    lambdas = np.linspace(0.5, 4.0, 8)
    pair0 = FilterBank(bank.pairs[:1], name="pair0")
    want = spectral_predict(l_up, guide, pair0, lambdas[:1], ReconstructionHead([1.0], 0.25), HARD)
    targets = []
    monkeypatch.setattr(feature_bank, "_transfer_target",
                        lambda phi, cfg: targets.append(phi) or transfer_target(phi, cfg))
    head = ReconstructionHead([1.0] + [0.0] * 7, 0.25)
    assert np.array_equal(spectral_predict(l_up, guide, bank, lambdas, head, HARD), want)
    assert len(targets) == 1  # channels 1-7 are neither extracted nor transformed


def test_channel_coeffs_share_one_target_per_guide_stencil(monkeypatch):
    rng = np.random.default_rng(67)
    l_up, guide = rng.random((2, 24, 18))
    bank = default_bank()
    targets = []
    monkeypatch.setattr(feature_bank, "_transfer_target",
                        lambda phi, cfg: targets.append(phi) or transfer_target(phi, cfg))
    got = list(feature_bank._channel_coeffs(guide, bank, HARD, range(len(bank))))
    # pairs 0 and 7 share the identity guide stencil; ddx and ddy share
    # their bytes but not their shape
    assert len(targets) == 7
    assert got[7][1] is got[0][1] and got[5][1] is not got[4][1]
    # only pair 0's target is yielded again later, so only it is kept
    assert [kept for *_, kept in got] == [True] + [False] * 7
    for c, t_hat, _ in got:
        phi_r = correlate_reflect(guide, bank.pairs[c].guide_filter)
        want = dct2_forward(transfer_target(phi_r, HARD))
        assert np.array_equal(t_hat.view(np.uint64), want.view(np.uint64))


def test_feature_paths_cache_no_identity_symbol_and_no_squared_symbol(monkeypatch):
    # the identity depth stencil's symbol is all ones, and every channel
    # solve forms its divisor from the cached Lambda: neither is built or
    # cached, and the derived fit's Lambda is prediction's Lambda_lap entry
    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    gt, rgb = make_scene(np.random.default_rng(68), 40, 56)
    _, up = degrade(gt, 4)
    guide = luminance(rgb)
    bank = default_bank()
    head = ReconstructionHead(np.linspace(0.25, 1.0, len(bank)), 0.5)

    def kept(kind):  # the keys of one kind of operator of the entry's shape
        return [key for key in image_core._shapes[up.shape] if key[0] == kind]

    spectral_predict(up, guide, bank, np.full(len(bank), 2.0), head, HARD)
    # the five-point stencil (Lambda_lap, the derived solve's Lambda and pair
    # 3's depth side), g1 and g2
    symbols = kept("symbol")
    assert (1, 1) not in [kshape for *_, kshape in symbols] and len(symbols) == 3
    assert kept("squared_symbol") == []
    operators = list(image_core._shapes[up.shape])
    _LambdaObjective([(up, guide, gt)], bank, HARD, 1e-6, "derived").evaluate(0, 2.0)
    assert list(image_core._shapes[up.shape]) == operators


def test_spectral_predict_working_set_is_five_grids():
    # the sum, dct(l_up), the target kept for pair 7, and the channel's
    # guide side or its target and one scratch grid, plus the filters' row
    # buffers: 480x640, so that those 256 KB buffers are small next to a grid
    gt, rgb = make_scene(np.random.default_rng(0), 480, 640)
    _, up = degrade(gt, 8)
    guide = luminance(rgb)
    bank = default_bank()
    lambdas = np.full(len(bank), 2.0)
    head = ReconstructionHead(np.linspace(0.25, 1.0, len(bank)), 0.5)
    spectral_predict(up, guide, bank, lambdas, head, HARD)  # fills the symbol caches
    tracemalloc.start()
    try:
        spectral_predict(up, guide, bank, lambdas, head, HARD)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * up.nbytes, f"peak {peak / up.nbytes:.2f} grids"


def test_fit_lambda_frees_triples_passed_as_a_temporary(monkeypatch):
    refs, alive = [], []

    def triples():
        rng = np.random.default_rng(72)
        out = [tuple(rng.random((24, 32)) for _ in range(3)) for _ in range(2)]
        refs.extend(weakref.ref(grid) for triple in out for grid in triple)
        return out

    solve = _LambdaObjective.solve

    def counted(obj, c, lam):
        alive.append(sum(ref() is not None for ref in refs))
        return solve(obj, c, lam)

    monkeypatch.setattr(_LambdaObjective, "solve", counted)
    fit_lambda(triples(), default_bank(), HARD, sweeps=1)
    # the search reads the objective's rows only, and the first solve, which
    # makes the accepted state, runs once the triples are gone
    assert len(refs) == 6 and alive and alive[0] == 0


def test_fit_lambda_input_validation():
    bank = identity_bank()
    with pytest.raises(ValueError, match="empty"):
        fit_lambda([], bank, HARD, 1e-6)
    with pytest.raises(ValueError, match="grid_points"):
        fit_lambda([_tiny_training_triple(72)], bank, HARD, 1e-6, grid_points=2)
    # a float or str setting built the whole objective, then failed inside
    # numpy or range with a bare TypeError
    for setting, message in [({"grid_points": 3.5}, "grid_points must be an int, got float"),
                             ({"grid_points": "9"}, "grid_points must be an int, got str"),
                             ({"grid_points": True}, "grid_points must be an int, got bool"),
                             ({"sweeps": 1.5}, "sweeps must be an int, got float"),
                             ({"sweeps": None}, "sweeps must be an int, got NoneType")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit_lambda([_tiny_training_triple(72)], bank, HARD, 1e-6, **setting)
    l_up, guide, target = _tiny_training_triple(72)
    for bad in [(l_up, guide[:-1], target), (l_up, guide, target[:, :-1]),
                (l_up[:-1], guide, target)]:
        with pytest.raises(ValueError, match="training triple shapes differ"):
            fit_lambda([(l_up, guide, target), bad], bank, HARD, 1e-6)


def test_params_roundtrip(tmp_path):
    path = tmp_path / "params.json"
    head = ReconstructionHead(np.array([0.5, 0.5]), 0.125, 1e-6)
    save_params(path, PipelineConfig(method="feature_domain", params_path=str(path)),
                (np.array([1.0, 2.0]), head))
    params = load_params(path)
    assert params["method"] == "feature"
    assert params["lambdas"] == [1.0, 2.0]
    assert params["head_bias"] == 0.125
    with open(tmp_path / "bad.json", "w") as fh:
        fh.write("{}")
    with pytest.raises(ValueError, match="method"):
        load_params(tmp_path / "bad.json")


def test_the_identity_guide_stencil_filters_nothing(monkeypatch):
    # pairs 0 and 7 share the 1x1 identity guide stencil: its feature is the
    # guide itself, so the default bank's seven distinct guide stencils take
    # six correlations. A bank whose identity is a 3x3 stencil with a lone
    # centre tap, 0.0 + 1.0 * x, filters all seven, with the same bits on a
    # guide with no -0.0 sample.
    gt, rgb = make_scene(np.random.default_rng(27), 40, 56)
    _, up = degrade(gt, 4)
    guide = luminance(rgb)
    bank = default_bank()
    centre = np.zeros((3, 3))
    centre[1, 1] = 1.0
    padded = FilterBank(tuple(FilterPair(p.depth_filter, centre, shared=False)
                              if p.guide_filter.shape == (1, 1) else p for p in bank.pairs))
    lambdas = np.linspace(0.5, 4.0, len(bank))
    head = ReconstructionHead(np.linspace(0.25, 1.0, len(bank)), 0.5)
    calls = []

    def counted(img, stencil):
        calls.append(stencil.shape)
        return correlate(img, stencil)

    correlate = feature_bank._correlate
    monkeypatch.setattr(feature_bank, "_correlate", counted)
    got = spectral_predict(up, guide, bank, lambdas, head, HARD)
    assert len(calls) == 6 and (1, 1) not in calls
    calls.clear()
    want = spectral_predict(up, guide, padded, lambdas, head, HARD)
    assert len(calls) == 7
    assert not np.any(np.signbit(guide) & (guide == 0.0))
    assert got.tobytes() == want.tobytes()
