import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdsr.guidance import (
    EdgeWeightConfig,
    _nearest_rank_quantile,
    edge_weight,
    luminance,
    multichannel_edge_weight,
    transfer_target,
)
from gdsr.spectral import laplacian_apply

from oracles import brute_correlate_reflect


def solid(r, g, b, shape=(4, 4)):
    return np.stack([np.full(shape, r), np.full(shape, g), np.full(shape, b)], axis=-1)


def test_luminance_coefficients():
    assert np.abs(luminance(solid(1, 1, 1)) - 1.0).max() < 1e-15
    assert np.abs(luminance(solid(0, 0, 0))).max() == 0.0
    assert np.abs(luminance(solid(0, 1, 0)) - 0.587).max() < 1e-15
    assert np.abs(luminance(solid(1, 0, 0)) - 0.299).max() < 1e-15
    assert np.abs(luminance(solid(0, 0, 1)) - 0.114).max() < 1e-15


@pytest.mark.parametrize("shape", [(4, 4), (4, 4, 4), (4, 4, 1), (3,), (2, 4, 4, 3)])
def test_luminance_rejects_arrays_that_are_not_rgb(shape):
    with pytest.raises(ValueError, match=r"\(M, N, 3\) RGB array"):
        luminance(np.zeros(shape))


def test_config_validation():
    with pytest.raises(ValueError):
        EdgeWeightConfig("sharp")
    with pytest.raises(ValueError):
        EdgeWeightConfig("hard", tau_quantile=1.0)
    with pytest.raises(ValueError):
        EdgeWeightConfig("soft", steepness=0.0)


def test_constant_guide_hard_is_all_zero():
    w = edge_weight(np.full((8, 8), 0.5), EdgeWeightConfig("hard", 0.9))
    assert np.array_equal(w, np.zeros((8, 8)))


def test_constant_guide_soft_is_half():
    w = edge_weight(np.full((8, 8), 0.5), EdgeWeightConfig("soft", 0.9, 50.0))
    assert np.abs(w - 0.5).max() < 1e-15  # 1/(1+exp(alpha*tau)) with tau = 0


def test_none_mode_is_all_ones():
    rng = np.random.default_rng(40)
    w = edge_weight(rng.random((5, 6)), EdgeWeightConfig("none"))
    assert np.array_equal(w, np.ones((5, 6)))


def test_step_edge_hard_selects_adjacent_columns():
    M, N = 8, 12
    guide = np.zeros((M, N))
    guide[:, N // 2 :] = 1.0
    w = edge_weight(guide, EdgeWeightConfig("hard", 0.5))
    # the reflected 5-point Laplacian of a step is nonzero exactly on the
    # two columns flanking the step; confirm against the brute-force filter
    g = np.abs(brute_correlate_reflect(guide, np.array(
        [[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])))
    expected = (g > 0).astype(float)
    assert np.array_equal(w, expected)
    assert set(np.nonzero(w.any(axis=0))[0]) == {N // 2 - 1, N // 2}


def test_weights_always_in_unit_interval():
    rng = np.random.default_rng(41)
    for mode in ("none", "hard", "soft"):
        for _ in range(5):
            guide = rng.random((9, 7))
            w = edge_weight(guide, EdgeWeightConfig(mode, 0.8, 10.0))
            assert w.min() >= 0.0 and w.max() <= 1.0


def test_soft_monotone_in_magnitude():
    rng = np.random.default_rng(42)
    guide = rng.random((10, 10))
    cfg = EdgeWeightConfig("soft", 0.7, 25.0)
    w = edge_weight(guide, cfg)
    g = np.abs(laplacian_apply(guide))
    order = np.argsort(g, axis=None)
    assert np.all(np.diff(w.ravel()[order]) >= -1e-15)


def test_hard_weight_scale_invariant():
    rng = np.random.default_rng(43)
    guide = rng.random((12, 9))
    cfg = EdgeWeightConfig("hard", 0.85)
    w1 = edge_weight(guide, cfg)
    w2 = edge_weight(0.25 * guide, cfg)
    assert np.array_equal(w1, w2)


def test_increasing_quantile_never_adds_pixels():
    rng = np.random.default_rng(44)
    guide = rng.random((16, 16))
    counts = []
    for q in (0.5, 0.7, 0.9, 0.97):
        w = edge_weight(guide, EdgeWeightConfig("hard", q))
        counts.append(int(w.sum()))
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_multichannel_matches_per_channel():
    rng = np.random.default_rng(45)
    stack = rng.random((3, 6, 8))
    cfg = EdgeWeightConfig("soft", 0.9, 50.0)
    got = multichannel_edge_weight(stack, cfg)
    assert got.shape == stack.shape
    for c in range(3):
        assert np.array_equal(got[c], edge_weight(stack[c], cfg))


def test_multichannel_duplicated_channels():
    rng = np.random.default_rng(46)
    ch = rng.random((5, 5))
    got = multichannel_edge_weight(np.stack([ch, ch]), EdgeWeightConfig("hard", 0.6))
    assert np.array_equal(got[0], got[1])
    single = multichannel_edge_weight(ch[None], EdgeWeightConfig("hard", 0.6))
    assert np.array_equal(single[0], edge_weight(ch, EdgeWeightConfig("hard", 0.6)))


def sorted_nearest_rank(values, q):
    """The nearest-rank rule by full sort: element ceil(q * n) of the sorted values."""
    flat = np.sort(values, axis=None)
    return float(flat[max(1, math.ceil(q * flat.size)) - 1])


@st.composite
def magnitude_grids(draw):
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    n = rows * cols
    kind = draw(st.sampled_from(["ties", "constant", "spread"]))
    if kind == "constant":
        values = [draw(st.floats(0.0, 10.0))] * n
    elif kind == "ties":
        values = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=n, max_size=n))
    else:
        values = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    return np.array(values).reshape(rows, cols)


@settings(max_examples=300, deadline=None)
@given(values=magnitude_grids(),
       q=st.one_of(st.floats(1e-12, 1.0 - 1e-12),
                   st.sampled_from([1e-12, 1e-3, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-12])))
def test_nearest_rank_quantile_matches_sort_rule(values, q):
    assert _nearest_rank_quantile(values, q) == sorted_nearest_rank(values, q)


@pytest.mark.parametrize("mode", ["none", "hard", "soft"])
def test_transfer_target_is_masked_laplacian(mode):
    g = np.random.default_rng(14).random((11, 13))
    cfg = EdgeWeightConfig(mode, tau_quantile=0.7)
    want = laplacian_apply(g) * edge_weight(g, cfg)
    assert np.array_equal(transfer_target(g, cfg), want)
