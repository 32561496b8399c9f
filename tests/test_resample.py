from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdsr import image_core
from gdsr.resample import (
    SCALE_FACTORS,
    bicubic_downsample,
    bicubic_kernel,
    bicubic_upsample,
    crop_to_multiple,
    degrade,
    _axis_weights,
    _degrade,
    _resample,
)

from oracles import loop_axis_weights, ref_resample_2d
from scenes import make_scene


def test_kernel_point_values():
    assert bicubic_kernel(0.0) == 1.0
    assert bicubic_kernel(1.0) == 0.0
    assert bicubic_kernel(2.0) == 0.0
    assert abs(bicubic_kernel(0.5) - 0.5625) < 1e-15
    assert bicubic_kernel(-0.5) == bicubic_kernel(0.5)
    assert bicubic_kernel(3.0) == 0.0


def test_axis_weights_rows_sum_to_one():
    for n_in, n_out, aa in ((32, 4, True), (32, 4, False), (4, 32, False), (9, 3, True)):
        W = _axis_weights(n_in, n_out, aa)
        assert np.abs(W.sum(axis=1) - 1.0).max() < 1e-12


@settings(max_examples=120, deadline=None)
@given(n_hr=st.integers(1, 1500), s=st.sampled_from(SCALE_FACTORS), upsample=st.booleans(),
       antialias=st.booleans())
def test_axis_weights_bytes_match_loop_oracle(n_hr, s, upsample, antialias):
    # Downsampling reads n_hr samples; upsampling writes up to n_hr, so the
    # dense matrices stay small while both directions span the same lengths.
    n_lr = max(1, n_hr // s)
    n_in, n_out = (n_lr, n_lr * s) if upsample else (n_hr, n_lr)
    got = _axis_weights(n_in, n_out, antialias)
    assert got.tobytes() == loop_axis_weights(n_in, n_out, antialias).tobytes()


def _kept(shape, n_in, n_out, antialias):
    """The matrix the shape cache keeps under ``shape`` for one axis."""
    return image_core._shapes[shape][("resample", n_in, n_out, antialias)]


@pytest.mark.parametrize("first", [True, False])
def test_cached_axis_weights_are_read_only_and_keyed_by_antialias(monkeypatch, first):
    # each (n_in, n_out) downsampling matrix is kept once per antialias
    # setting, whichever is built first, under the full-resolution shape,
    # where the upsampling matrices back to it are kept too
    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    grid = np.ones((40, 40))
    for antialias in (first, not first, first):
        _resample(grid, (5, 5), antialias)
        W = _kept((40, 40), 40, 5, antialias)
        _resample(grid, (5, 5), antialias)
        assert W is _kept((40, 40), 40, 5, antialias)
        assert W.tobytes() == loop_axis_weights(40, 5, antialias).tobytes()
        assert not W.flags.writeable
        with pytest.raises(ValueError):
            W[0, 0] = 1.0
    _resample(np.ones((5, 5)), (40, 40), False)
    assert list(image_core._shapes) == [(40, 40)] and len(image_core._shapes[(40, 40)]) == 3
    assert _kept((40, 40), 5, 40, False).tobytes() == loop_axis_weights(5, 40, False).tobytes()


@pytest.mark.parametrize("s", [4, 8])
def test_degrade_bytes_match_loop_oracle_products(s):
    gt, _ = make_scene(np.random.default_rng(54), 96, 136)
    lr, up = degrade(gt, s)
    (M, N), m, n = gt.shape, gt.shape[0] // s, gt.shape[1] // s
    want_lr = np.maximum(
        loop_axis_weights(M, m, True) @ gt @ loop_axis_weights(N, n, True).T, 0.0)
    want_up = np.maximum(
        loop_axis_weights(m, M, False) @ want_lr @ loop_axis_weights(n, N, False).T, 0.0)
    assert lr.tobytes() == want_lr.tobytes()
    assert up.tobytes() == want_up.tobytes()


@pytest.mark.parametrize("antialias", [True, False])
def test_private_degrade_keeps_the_public_bits(antialias):
    # the bench passes cropped views of decoded grids, which are not contiguous
    gt, _ = make_scene(np.random.default_rng(55), 101, 139)
    for s in (4, 8):
        crop = gt[: gt.shape[0] // s * s, : gt.shape[1] // s * s]
        for got, want in zip(_degrade(crop, s, antialias), degrade(crop, s, antialias)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("s", SCALE_FACTORS)
def test_constant_preserved(s):
    img = np.full((2 * s, 3 * s), 0.6180339887)
    down = bicubic_downsample(img, s)
    assert down.shape == (2, 3)
    assert np.abs(down - 0.6180339887).max() < 1e-12
    up = bicubic_upsample(down, s)
    assert up.shape == img.shape
    assert np.abs(up - 0.6180339887).max() < 1e-12


def test_divisibility_enforced():
    with pytest.raises(ValueError, match="not divisible"):
        bicubic_downsample(np.zeros((9, 8)), 2)
    with pytest.raises(ValueError, match="scale must be one of"):
        bicubic_downsample(np.zeros((9, 9)), 3)


def test_downsample_matches_tap_oracle():
    ramp = np.outer(np.arange(8.0), np.ones(8)) + np.arange(8.0)[None, :] * 0.5
    got = bicubic_downsample(ramp, 2)
    want = ref_resample_2d(ramp, (4, 4), antialias=True)
    assert np.abs(got - want).max() < 1e-12


def test_downsample_no_antialias_matches_oracle():
    rng = np.random.default_rng(50)
    img = rng.random((16, 8))
    got = bicubic_downsample(img, 4, antialias=False)
    want = ref_resample_2d(img, (4, 2), antialias=False)
    assert np.abs(got - want).max() < 1e-12


def test_upsample_matches_tap_oracle():
    rng = np.random.default_rng(51)
    img = rng.random((4, 4))
    got = bicubic_upsample(img, 2)
    want = ref_resample_2d(img, (8, 8), antialias=False)
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("s", [2, 4, 8])
def test_random_round_trips_match_oracle(s):
    rng = np.random.default_rng(52 + s)
    img = rng.random((3 * s, 2 * s))
    down = bicubic_downsample(img, s)
    assert np.abs(down - ref_resample_2d(img, (3, 2), True)).max() < 1e-12
    up = bicubic_upsample(down, s)
    assert np.abs(up - ref_resample_2d(down, (3 * s, 2 * s), False)).max() < 1e-12


def test_degrade_contracts():
    gt = np.full((2, 2), 0.5)
    lr, up = degrade(gt, 2)
    assert lr.shape == (1, 1) and up.shape == (2, 2)
    assert np.abs(lr - 0.5).max() < 1e-12
    assert np.abs(up - 0.5).max() < 1e-12


@pytest.mark.parametrize("s", SCALE_FACTORS)
def test_degrade_sizes_exact(s):
    gt = np.random.default_rng(53).random((2 * s, 3 * s))
    lr, up = degrade(gt, s)
    assert lr.shape == (2, 3)
    assert up.shape == gt.shape


def test_degradation_is_lossy():
    yy, xx = np.mgrid[0:16, 0:16]
    gt = (xx + yy) / 32.0 + (xx > 8) * 0.25
    _, up = degrade(gt, 2)
    err = float(np.sqrt(np.mean((up - gt) ** 2)))
    assert err > 0.0


def test_degrade_clips_overshoot():
    # hard step near zero makes plain bicubic undershoot below 0
    img = np.zeros((16, 16))
    img[:, 8:] = 1.0
    lr, up = degrade(img, 4)
    assert lr.min() >= 0.0 and up.min() >= 0.0


def test_crop_to_multiple():
    img = np.arange(77.0).reshape(7, 11)
    out = crop_to_multiple(img, 2)
    assert out.shape == (6, 10)
    assert np.array_equal(out, img[:6, :10])
    with pytest.raises(ValueError, match="smaller than scale"):
        crop_to_multiple(np.zeros((3, 3)), 4)
