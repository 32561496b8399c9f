"""The row-blocked correlation kernel against the whole-grid per-tap loop,
bit for bit, with blocks of every size relative to the grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdsr import filters
from gdsr.feature_bank import FilterPair
from gdsr.filters import correlate_reflect
from gdsr.spectral import stencil_symbol

from oracles import brute_correlate_reflect, loop_correlate


@st.composite
def stencils(draw):
    """Odd stencils up to 7x7, including 1 x k and k x 1, with zero and
    +-1 taps mixed among arbitrary finite ones."""
    h = draw(st.sampled_from([1, 3, 5, 7]))
    w = draw(st.sampled_from([1, 3, 5, 7]))
    tap = st.one_of(st.sampled_from([0.0, 1.0, -1.0]),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    return np.array(draw(st.lists(tap, min_size=h * w, max_size=h * w))).reshape(h, w)


@settings(max_examples=200, deadline=None)
@given(M=st.integers(1, 80), N=st.integers(1, 80), stencil=stencils(),
       block=st.sampled_from(["1", "2", "3", "M-1", "M", "M+5"]),
       seed=st.integers(0, 2**32 - 1))
def test_correlate_bytes_match_loop_oracle(M, N, stencil, block, seed):
    # a block of M - 1 rows or fewer splits the grid, the last block ragged
    rows = {"1": 1, "2": 2, "3": 3, "M-1": M - 1, "M": M, "M+5": M + 5}[block]
    img = np.random.default_rng(seed).normal(size=(M, N)) * 10.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(filters, "_BLOCK_BYTES", rows * 8 * N)
        got = correlate_reflect(img, stencil)
    assert got.tobytes() == loop_correlate(img, stencil).tobytes()


def test_correlate_bytes_match_loop_oracle_at_default_block():
    # 2000 columns take 16 KB a row, so the default block holds 16 rows
    # and 70 rows span five blocks, the last one ragged.
    assert filters._BLOCK_BYTES // (8 * 2000) < 70
    rng = np.random.default_rng(3)
    img = rng.random((70, 2000))
    stencil = rng.normal(size=(7, 5))
    stencil[2, 1] = 0.0
    got = correlate_reflect(img, stencil)
    assert got.tobytes() == loop_correlate(img, stencil).tobytes()


def test_loop_oracle_matches_explicit_reflection():
    rng = np.random.default_rng(4)
    img, stencil = rng.random((9, 6)), rng.normal(size=(5, 3))
    assert np.abs(loop_correlate(img, stencil)
                  - brute_correlate_reflect(img, stencil)).max() < 1e-12


@pytest.mark.parametrize("stencil", [[[np.nan]], [[0.0, np.inf, 0.0]], [[0.0, -np.inf, 0.0]],
                                     np.ones((4, 3)), np.ones(3)],
                         ids=["nan", "inf", "-inf", "even", "1-D"])
def test_every_stencil_entry_point_checks_the_stencil(stencil):
    match = "finite" if np.ndim(stencil) == 2 and np.shape(stencil)[0] % 2 else "odd"
    with pytest.raises(ValueError, match=match):
        correlate_reflect(np.ones((4, 4)), stencil)
    with pytest.raises(ValueError, match=match):
        stencil_symbol(stencil, 4, 4)
    with pytest.raises(ValueError, match=match):
        FilterPair(np.ones((1, 1)), stencil, shared=False)
