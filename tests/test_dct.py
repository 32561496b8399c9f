import numpy as np
import pytest

from gdsr.dct import dct2_forward, dct2_inverse, dct2_naive

from oracles import literal_dct2


def test_constant_is_dc_only():
    coeffs = dct2_forward(np.ones((4, 4)))
    assert abs(coeffs[0, 0] - 4.0) < 1e-12  # sqrt(M*N) under orthonormal scaling
    off_dc = coeffs.copy()
    off_dc[0, 0] = 0.0
    assert np.abs(off_dc).max() < 1e-12


def test_zeros_map_to_zeros():
    assert np.array_equal(dct2_forward(np.zeros((3, 5))), np.zeros((3, 5)))
    assert np.array_equal(dct2_inverse(np.zeros((3, 5))), np.zeros((3, 5)))


def test_inverse_of_dc_grid_is_constant():
    coeffs = np.zeros((4, 4))
    coeffs[0, 0] = 4.0
    assert np.abs(dct2_inverse(coeffs) - 1.0).max() < 1e-12


def test_naive_matches_literal_definition():
    rng = np.random.default_rng(10)
    x = rng.random((8, 8))
    assert np.abs(dct2_naive(x, "forward") - literal_dct2(x)).max() < 1e-12
    assert np.abs(dct2_naive(x, "inverse") - literal_dct2(x, inverse=True)).max() < 1e-12


def test_naive_linearity_both_directions():
    rng = np.random.default_rng(11)
    x, y = rng.random((2, 6, 9))
    a, b = 2.5, -1.25
    for direction in ("forward", "inverse"):
        lhs = dct2_naive(a * x + b * y, direction)
        rhs = a * dct2_naive(x, direction) + b * dct2_naive(y, direction)
        assert np.abs(lhs - rhs).max() < 1e-10


def test_fast_matches_naive_64x48():
    rng = np.random.default_rng(12)
    x = rng.random((64, 48))
    assert np.abs(dct2_forward(x) - dct2_naive(x, "forward")).max() < 1e-9
    assert np.abs(dct2_inverse(x) - dct2_naive(x, "inverse")).max() < 1e-9


@pytest.mark.parametrize("shape", [(37, 53), (2, 2), (1, 7), (128, 96), (101, 17)])
def test_round_trip_identity(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape) * 3.0
    back = dct2_inverse(dct2_forward(x))
    assert np.abs(back - x).max() < 1e-10 * max(1.0, np.abs(x).max())


def test_parseval():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((33, 21))
    coeffs = dct2_forward(x)
    e_img = float(np.sum(x * x))
    e_spec = float(np.sum(coeffs * coeffs))
    assert abs(e_img - e_spec) < 1e-10 * e_img


def test_fast_naive_equivalence_random_shapes():
    rng = np.random.default_rng(14)
    # a spread of sizes including primes and tiny edges
    shapes = [(2, 3), (5, 5), (7, 13), (31, 2), (64, 48), (97, 101), (128, 31)]
    for M, N in shapes:
        x = rng.random((M, N))
        assert np.abs(dct2_forward(x) - dct2_naive(x, "forward")).max() < 1e-9
        assert np.abs(dct2_inverse(x) - dct2_naive(x, "inverse")).max() < 1e-9


def test_naive_size_guard():
    with pytest.raises(ValueError, match="guard"):
        dct2_naive(np.zeros((1025, 1024)), "forward")


def test_naive_rejects_unknown_direction():
    with pytest.raises(ValueError, match="direction"):
        dct2_naive(np.zeros((2, 2)), "backward")
