import threading
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from gdsr import image_core, resample, spectral
from gdsr.dct import _dct2, _idct2, dct2_forward, dct2_inverse
from gdsr.feature_bank import gaussian_stencil, log_stencil
from gdsr.filters import correlate_reflect
from gdsr.spectral import (
    CROSS,
    FIVE_POINT,
    SYMBOL_MODES,
    build_rhs,
    derived_symbol,
    laplacian_apply,
    solve_screened,
    solve_stencil,
    stencil_symbol,
    symbol_for,
    _build_denominator,
    _denominator,
    _solve,
    _squared_symbol,
)

from oracles import (ConvergenceError, brute_correlate_reflect, cg_solve, cosine_sum_symbol,
                     dense_screened_solve, energy, term_loop_symbol)


def lap2(x):
    return laplacian_apply(laplacian_apply(x))


def test_laplacian_constant_is_zero():
    out = laplacian_apply(np.full((6, 8), 3.25))
    assert np.abs(out).max() == 0.0


def test_laplacian_impulse_stencil_readback():
    img = np.zeros((7, 7))
    img[3, 3] = 1.0
    out = laplacian_apply(img)
    assert out[3, 3] == -4.0
    for i, j in ((2, 3), (4, 3), (3, 2), (3, 4)):
        assert out[i, j] == 1.0
    assert out[0, 0] == 0.0


def test_laplacian_ramp_matches_brute_force():
    ramp = np.arange(9.0)[None, :]
    got = laplacian_apply(ramp)
    want = brute_correlate_reflect(ramp, FIVE_POINT)
    assert np.array_equal(got, want)
    assert not FIVE_POINT.flags.writeable
    # interior of a linear ramp is curvature-free
    assert np.abs(got[0, 1:-1]).max() == 0.0


@pytest.mark.parametrize("shape", [(1, 5), (2, 2), (5, 9), (16, 11)])
def test_laplacian_matches_brute_force_random(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.standard_normal(shape)
    got = laplacian_apply(x)
    want = brute_correlate_reflect(x, FIVE_POINT)
    assert np.abs(got - want).max() < 1e-12


def test_derived_symbol_closed_form():
    sym = derived_symbol(FIVE_POINT, 16, 12)
    assert sym[0, 0] == 0.0
    sym2 = derived_symbol(FIVE_POINT, 2, 2)
    assert abs(sym2[1, 1] - (-4.0)) < 1e-15
    i, j = 5, 7
    want = 2 * np.cos(np.pi * i / 16) + 2 * np.cos(np.pi * j / 12) - 4
    assert abs(sym[i, j] - want) < 1e-14


def test_derived_symbol_diagonalizes():
    rng = np.random.default_rng(20)
    x = rng.random((32, 24))
    sym = derived_symbol(FIVE_POINT, 32, 24)
    lhs = dct2_forward(laplacian_apply(x))
    rhs = sym * dct2_forward(x)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_derived_symbol_general_kernel():
    kernel = np.array([[0.25, 0.5, 0.25],
                       [0.5, -3.0, 0.5],
                       [0.25, 0.5, 0.25]])
    rng = np.random.default_rng(21)
    x = rng.random((15, 22))
    sym = derived_symbol(kernel, 15, 22)
    lhs = dct2_forward(correlate_reflect(x, kernel))
    rhs = sym * dct2_forward(x)
    assert np.abs(lhs - rhs).max() < 1e-10
    with pytest.raises(ValueError, match="3x3"):
        derived_symbol(kernel[1:2], 15, 22)


@st.composite
def flip_symmetric_stencils(draw):
    """Odd stencils up to 7x7, mirrored from one quadrant of offsets."""
    hu, hv = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    quadrant = draw(arrays(np.float64, (hu + 1, hv + 1),
                           elements=st.floats(-2.0, 2.0, allow_subnormal=False)))
    rows = np.concatenate([quadrant[:0:-1], quadrant], axis=0)
    return np.concatenate([rows[:, :0:-1], rows], axis=1)


@settings(max_examples=150, deadline=None)
@given(stencil=flip_symmetric_stencils(), M=st.integers(1, 12), N=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_stencil_symbol_diagonalizes_symmetric_stencils(stencil, M, N, seed):
    # grids down to 1x1 sit inside the stencil radius, where the padding
    # reflects more than once; the identity holds there too
    x = np.random.default_rng(seed).standard_normal((M, N))
    sym = stencil_symbol(stencil, M, N)
    lhs = dct2_forward(correlate_reflect(x, stencil))
    rhs = sym * dct2_forward(x)
    # relative to ||K||_1 ||X||_2, which bounds the norm of both sides
    scale = np.abs(stencil).sum() * np.linalg.norm(x)
    assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def test_stencil_symbol_3x3_is_derived_symbol_and_rejects_asymmetry():
    kernel = np.array([[0.5, 1.0, 0.5], [2.0, -8.0, 2.0], [0.5, 1.0, 0.5]])
    assert np.array_equal(stencil_symbol(kernel, 9, 7),
                          derived_symbol(kernel, 9, 7))
    assert np.array_equal(stencil_symbol([[2.5]], 3, 4), np.full((3, 4), 2.5))
    with pytest.raises(ValueError, match="no exact spectral symbol"):
        stencil_symbol(np.array([[-0.5, 0.0, 0.5]]), 9, 7)
    with pytest.raises(ValueError, match="odd"):
        stencil_symbol(np.ones((2, 2)), 9, 7)


def test_stencil_symbol_rejects_odd_asymmetric_stencils():
    # up-down asymmetric: only the exact flip check stands between it and
    # a symbol read off one quadrant of its offsets
    with pytest.raises(ValueError, match="no exact spectral symbol"):
        stencil_symbol(np.array([[0.0, 1.0, 0.0], [0.0, -2.0, 0.0], [0.0, 2.0, 0.0]]), 9, 7)
    with pytest.raises(ValueError, match="no exact spectral symbol"):
        stencil_symbol(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0 + 1e-15]]),
                       9, 7)


def test_symbol_for_caches_general_stencils():
    g = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]) / 16.0
    sym = symbol_for((9, 7), g)
    assert symbol_for((9, 7), g.copy()) is sym
    # a row and a column with the same bytes are different stencils
    assert symbol_for((9, 7), g[1:2]) is not symbol_for((9, 7), g[:, 1:2])
    # a copy of the 5-point Laplacian shares the default stencil's entry
    five = symbol_for((9, 7))
    assert symbol_for((9, 7), np.array(FIVE_POINT)) is five


def test_symbols_are_read_only_arrays():
    # symbol_for's cache hands one array to every bench thread
    for sym in (symbol_for((9, 7)), symbol_for((9, 7), CROSS),
                stencil_symbol(FIVE_POINT, 9, 7), stencil_symbol(CROSS, 9, 7), CROSS):
        assert isinstance(sym, np.ndarray) and sym.dtype == np.float64
        assert not sym.flags.writeable
        with pytest.raises(ValueError):
            sym[0, 0] = 1.0


def test_cached_denominators_are_read_only_and_keyed_by_mode_shape_and_lambda(monkeypatch):
    # every key gets the plain formula's bits, in any order of filling
    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    keys = [(mode, M, N, lam) for mode in ("derived", "paper") for M, N in ((9, 7), (7, 9))
            for lam in (0.5, 20.0)]
    for mode, M, N, lam in keys + keys[::-1]:
        denom = _denominator(mode, (M, N), lam)
        sym = symbol_for((M, N), solve_stencil(mode))
        assert denom.tobytes() == (sym * lam * sym + 1.0).tobytes()
        assert denom is _denominator(mode, (M, N), lam)
        assert not denom.flags.writeable
        with pytest.raises(ValueError):
            denom[0, 0] = 1.0


@settings(max_examples=100, deadline=None)
@given(stencil=flip_symmetric_stencils(), M=st.integers(1, 40), N=st.integers(1, 9000))
@example(stencil=FIVE_POINT, M=480, N=640)
@example(stencil=gaussian_stencil(2.0, 7), M=480, N=640)
@example(stencil=log_stencil(1.0, 7), M=480, N=640)
def test_stencil_symbol_adds_its_terms_in_offset_order(stencil, M, N):
    # a guard on the term order, which the row blocks must keep; N past
    # 4096 puts fewer than 8 rows in a block, so grids span several, and
    # the bank's stencils span ten at 480x640
    assert stencil_symbol(stencil, M, N).tobytes() == term_loop_symbol(stencil, M, N).tobytes()


@pytest.mark.parametrize("lam", [0.3, 7.7, 20.0])
def test_denominator_row_blocks_keep_the_bits_of_the_plain_formula(lam):
    # a guard: 480x640 spans ten row blocks; Lambda * Lambda * lam has other bits
    for mode in SYMBOL_MODES:
        sym = symbol_for((480, 640), solve_stencil(mode))
        want = (sym * lam * sym + 1.0).tobytes()
        assert want != (sym * sym * lam + 1.0).tobytes()
        assert _build_denominator(mode, (480, 640), lam).tobytes() == want
        assert spectral._screened_denominator(sym, lam).tobytes() == want


@pytest.mark.parametrize("build", [
    lambda: stencil_symbol(FIVE_POINT, 480, 640),
    lambda: stencil_symbol(gaussian_stencil(2.0, 7), 480, 640),
    lambda: _build_denominator("derived", (480, 640), 20.0),
], ids=["five_point", "gaussian7", "denominator"])
def test_cold_symbol_and_divisor_builds_hold_little_more_than_their_grid(build):
    # one sum grid and a 256 KB product buffer; a full-grid product per term
    # peaked at 2.06 grids, and the divisor beside its symbol at 2.13
    grid = 480 * 640 * 8
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * grid, f"peak {peak / grid:.2f} grids"


# Each operator's lookup, and one module global its build reaches that the
# test can slow down: (lookup, module, global). The resample lookup reads
# one matrix for both axes of a square grid.
_OPERATORS = [(lambda: symbol_for((30, 40)), spectral, "stencil_symbol"),
              (lambda: _denominator("derived", (30, 40), 2.0), spectral,
               "_screened_denominator"),
              (lambda: _squared_symbol("derived", (30, 40)), spectral, "_symbol"),
              (lambda: resample._resample(np.ones((40, 40)), (5, 5), True), resample,
               "bicubic_kernel")]


@pytest.mark.parametrize("lookup, module, name", _OPERATORS,
                         ids=["symbol", "denominator", "squared_symbol", "axis_weights"])
def test_concurrent_misses_of_one_key_build_it_once(monkeypatch, lookup, module, name):
    # the build waits at a barrier for a second build: without the shape's
    # lock both threads get there, with it the second thread waits for the
    # first, whose wait times out, and then hits
    build, barrier, builds = getattr(module, name), threading.Barrier(2, timeout=0.5), []

    def slow(*args, **kwargs):
        builds.append(threading.get_ident())
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        return build(*args, **kwargs)

    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    monkeypatch.setattr(module, name, slow)
    got = [None, None]

    def ask(k):
        got[k] = lookup()

    threads = [threading.Thread(target=ask, args=(k,), daemon=True) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    (_, operators), = image_core._shapes.values()
    kept, = operators.values()
    assert len(builds) == 1 and got[0] is not None and got[1] is not None
    if module is spectral:
        assert got[0] is got[1] is kept
    else:  # a fresh grid each, made through the one kept matrix
        assert got[0].tobytes() == got[1].tobytes()


def test_no_operator_build_reads_the_shape_cache(monkeypatch):
    # a guard: each shape's lock is a plain Lock, so a build that looked up
    # an operator of its shape would wait for itself. Every kind of operator
    # of one shape is built cold on a worker, and a lookup entered from
    # inside another on that thread is recorded.
    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    lookup, inside, nested = image_core.shape_operator, threading.local(), []

    def guarded(shape, key, build):
        if getattr(inside, "key", None) is not None:
            nested.append((inside.key, key))
        inside.key = key
        try:
            return lookup(shape, key, build)
        finally:
            inside.key = None

    for module in (spectral, resample):
        monkeypatch.setattr(module, "shape_operator", guarded)
    shape, got = (16, 24), []

    def build_all():
        got.extend([symbol_for(shape), symbol_for(shape, CROSS),
                    _denominator("paper", shape, 2.0), _squared_symbol("paper", shape),
                    *resample._degrade(np.ones(shape), 4, True)])

    worker = threading.Thread(target=build_all, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive() and nested == []
    kinds = {key[0] for key in image_core._shapes[shape][1]}
    assert kinds == {"symbol", "denominator", "squared_symbol", "resample"}
    assert got[3].tobytes() == np.square(stencil_symbol(CROSS, *shape)).tobytes()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_stencil_symbol_rejects_non_finite_stencils(bad):
    # symmetric, so only the finiteness check can reject the inf stencils
    stencil = np.array([[0.0, 1.0, 0.0], [1.0, bad, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        stencil_symbol(stencil, 9, 7)


def test_paper_symbol_values():
    sym = symbol_for((4, 4), solve_stencil("paper"))
    assert sym[0, 0] == 2.0
    assert abs(sym[2, 2]) < 1e-15  # cos(pi/2) + cos(pi/2)
    K = symbol_for((9, 7), CROSS)
    for i in (1, 4):
        for j in (2, 5):
            assert abs(K[i, 0] + K[0, j] - (K[i, j] + 2.0)) < 1e-14


# The paper mode's closed form is the cross stencil's exact symbol, bit for
# bit: the fit and bench outputs of that mode rest on these bytes.
@settings(max_examples=200, deadline=None)
@given(M=st.integers(1, 64), N=st.integers(1, 64))
@example(M=480, N=640)
@example(M=1024, N=1376)
def test_cross_stencil_symbol_is_the_cosine_sum(M, N):
    assert stencil_symbol(CROSS, M, N).tobytes() == cosine_sum_symbol(M, N).tobytes()


def test_symbol_for_caches_per_mode_shape_and_kernel():
    kernel = np.array([[0.25, 0.5, 0.25],
                       [0.5, -3.0, 0.5],
                       [0.25, 0.5, 0.25]])
    sym = symbol_for((9, 7), kernel)
    assert symbol_for((9, 7), kernel) is sym
    assert np.array_equal(sym, derived_symbol(kernel, 9, 7))
    five = symbol_for((9, 7))
    assert five is not sym
    assert np.array_equal(five, derived_symbol(FIVE_POINT, 9, 7))
    # each mode names one stencil, and its symbol is that stencil's entry
    assert SYMBOL_MODES == ("derived", "paper")
    assert solve_stencil("derived") is FIVE_POINT and solve_stencil("paper") is CROSS
    assert symbol_for((9, 7), solve_stencil("derived")) is five
    paper = symbol_for((9, 7), solve_stencil("paper"))
    assert paper is symbol_for((9, 7), np.array(CROSS))
    assert paper.tobytes() == cosine_sum_symbol(9, 7).tobytes()
    with pytest.raises(ValueError, match=r"symbol mode must be one of \('derived', 'paper'\), "
                                         r"got 'exact'"):
        solve_stencil("exact")


def test_build_rhs_degenerate():
    rng = np.random.default_rng(22)
    l_up = rng.random((8, 8))
    glm = rng.random((8, 8))
    assert np.array_equal(build_rhs(l_up, glm, 0.0), l_up)
    assert np.array_equal(build_rhs(l_up, np.zeros_like(glm), 1.0), l_up)


def test_build_rhs_matches_brute_force():
    rng = np.random.default_rng(23)
    l_up = rng.random((9, 6))
    glm = rng.random((9, 6))
    got = build_rhs(l_up, glm, 1.0)
    want = brute_correlate_reflect(glm, FIVE_POINT) + l_up
    assert np.abs(got - want).max() < 1e-12
    with pytest.raises(ValueError, match="dimension mismatch"):
        build_rhs(l_up, glm.T, 1.0)


def test_solve_lambda_zero_is_identity():
    rng = np.random.default_rng(24)
    e = rng.random((10, 10))
    sym = derived_symbol(FIVE_POINT, 10, 10)
    assert np.array_equal(solve_screened(e, 0.0, sym), e)


def test_solve_preserves_constants():
    sym = derived_symbol(FIVE_POINT, 12, 9)
    for lam in (0.01, 1.0, 100.0):
        h = solve_screened(np.full((12, 9), 2.5), lam, sym)
        assert np.abs(h - 2.5).max() < 1e-12


@pytest.mark.parametrize("lam", [0.01, 1.0, 100.0])
def test_solve_matches_dense(lam):
    rng = np.random.default_rng(25)
    e = rng.random((16, 16))
    sym = derived_symbol(FIVE_POINT, 16, 16)
    h = solve_screened(e, lam, sym)
    want = dense_screened_solve(e, lam, laplacian_apply)
    rel = np.abs(h - want).max() / np.abs(want).max()
    assert rel < 1e-8


@pytest.mark.parametrize("lam", [0.05, 1.0, 30.0])
def test_solve_residual_exactness(lam):
    rng = np.random.default_rng(26)
    e = rng.standard_normal((21, 34))
    sym = derived_symbol(FIVE_POINT, 21, 34)
    h = solve_screened(e, lam, sym)
    residual = h + lam * lap2(h) - e
    assert np.abs(residual).max() < 1e-6 * np.abs(e).max()


@pytest.mark.parametrize("lam", [0.0, 1.0, 30.0])
def test_solve_never_writes_the_callers_grid_and_the_given_up_form_agrees(lam):
    rng = np.random.default_rng(27)
    e = rng.standard_normal((33, 20))
    kept = e.copy()
    sym = symbol_for(e.shape)
    h = solve_screened(e, lam, sym)
    assert np.array_equal(e, kept)
    # the in-place arithmetic keeps the bits of the plain formula
    want = e if lam == 0.0 else _idct2(_dct2(e) / (1.0 + lam * sym * sym))
    assert h.tobytes() == want.tobytes()
    denom = _denominator("derived", e.shape, lam) if lam else None
    assert _solve(e.copy(), denom).tobytes() == want.tobytes()


def test_solve_shape_guard():
    sym = derived_symbol(FIVE_POINT, 8, 8)
    with pytest.raises(ValueError, match="symbol shape"):
        solve_screened(np.zeros((8, 9)), 1.0, sym)


def test_solve_rejects_a_nan_symbol():
    # symbols are plain arrays, checked by the solve that divides by them
    sym = np.array(derived_symbol(FIVE_POINT, 8, 8))
    sym[3, 4] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        solve_screened(np.zeros((8, 8)), 1.0, sym)


def test_paper_mode_runs_but_differs():
    # the paper mode divides by the cross stencil K's symbol: it exactly
    # inverts (Id + lam K^2), not the 5-point screened operator, so its
    # solve differs from the derived one
    rng = np.random.default_rng(27)
    e = rng.random((16, 16))
    h_paper = solve_screened(e, 1.0, symbol_for(e.shape, solve_stencil("paper")))
    h_derived = solve_screened(e, 1.0, derived_symbol(FIVE_POINT, 16, 16))
    assert np.all(np.isfinite(h_paper))
    assert np.abs(h_paper - h_derived).max() > 1e-3
    for lam in (0.01, 1.0, 20.0):
        h = solve_screened(e, lam, symbol_for(e.shape, CROSS))
        want = dense_screened_solve(e, lam, lambda x: correlate_reflect(x, CROSS))
        assert np.abs(h - want).max() <= 1e-12 * np.abs(want).max()
        assert h.tobytes() == solve_screened(e, lam, cosine_sum_symbol(16, 16)).tobytes()


def test_energy_zero_at_exact_fit():
    rng = np.random.default_rng(28)
    l_up = rng.random((7, 7))
    assert energy(l_up, l_up, laplacian_apply(l_up), 2.0) == 0.0


def test_energy_fidelity_closed_form():
    l_up = np.zeros((6, 5))
    delta = 0.75
    val = energy(l_up + delta, l_up, np.zeros_like(l_up), 0.0)
    assert abs(val - 0.5 * 6 * 5 * delta**2) < 1e-12


def test_solution_is_stationary_point():
    rng = np.random.default_rng(29)
    M, N = 12, 10
    l_up = rng.random((M, N))
    t = rng.standard_normal((M, N)) * 0.2
    lam = 2.0
    e = build_rhs(l_up, t, lam)
    h = solve_screened(e, lam, derived_symbol(FIVE_POINT, M, N))
    base = energy(h, l_up, t, lam)
    for _ in range(100):
        d = rng.standard_normal((M, N))
        assert base <= energy(h + 1e-3 * d, l_up, t, lam) + 1e-9


def test_high_lambda_transfers_gradient():
    # as lam grows the solution's Laplacian approaches the target's
    # component in the range of the operator (DC removed in the spectrum)
    rng = np.random.default_rng(30)
    M, N = 16, 16
    l_up = rng.random((M, N))
    t = rng.standard_normal((M, N)) * 0.3
    sym = derived_symbol(FIVE_POINT, M, N)
    lam = 1e6
    h = solve_screened(lam * laplacian_apply(t) + l_up, lam, sym)
    t_hat = dct2_forward(t)
    t_hat[sym == 0.0] = 0.0
    projected = dct2_inverse(t_hat)
    assert np.abs(laplacian_apply(h) - projected).max() < 1e-3


def test_cg_lambda_zero_one_iteration():
    rng = np.random.default_rng(31)
    e = rng.random((9, 9))
    assert np.abs(cg_solve(e, 0.0, max_iter=1) - e).max() < 1e-14


def test_cg_matches_spectral():
    rng = np.random.default_rng(32)
    e = rng.random((32, 32))
    sym = derived_symbol(FIVE_POINT, 32, 32)
    h_spec = solve_screened(e, 1.5, sym)
    h_cg = cg_solve(e, 1.5, tol=1e-12)
    assert np.abs(h_spec - h_cg).max() < 1e-6


def test_cg_matches_dense():
    rng = np.random.default_rng(33)
    e = rng.random((12, 12))
    h_cg = cg_solve(e, 0.7, tol=1e-13)
    want = dense_screened_solve(e, 0.7, laplacian_apply)
    assert np.abs(h_cg - want).max() < 1e-8


def test_cg_reports_nonconvergence():
    rng = np.random.default_rng(34)
    e = rng.random((16, 16))
    with pytest.raises(ConvergenceError, match="residual"):
        cg_solve(e, 100.0, tol=1e-14, max_iter=2)


_GRIDS = st.tuples(st.integers(1, 24), st.integers(1, 24))
_LAMS = st.one_of(st.just(0.0), st.floats(-8.0, 4.0).map(np.exp), st.floats(0.0, np.exp(4.0)))


@settings(max_examples=80, deadline=None)
@given(shape=_GRIDS, lam=_LAMS, seed=st.integers(0, 2**32 - 1))
def test_solve_agrees_with_cg_oracle(shape, lam, seed):
    e = np.random.default_rng(seed).standard_normal(shape)
    h = solve_screened(e, lam, symbol_for(shape))
    want = cg_solve(e, lam, tol=1e-13)
    assert np.abs(h - want).max() <= 1e-11 * np.abs(e).max()


@settings(max_examples=60, deadline=None)
@given(shape=_GRIDS, seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(SYMBOL_MODES))
def test_solve_lambda_zero_is_bitwise_identity(shape, seed, mode):
    e = np.random.default_rng(seed).standard_normal(shape) * 10.0
    assert np.array_equal(solve_screened(e, 0.0, symbol_for(shape, solve_stencil(mode))), e)


@settings(max_examples=60, deadline=None)
@given(shape=_GRIDS, lam=_LAMS, value=st.floats(-1e3, 1e3))
def test_solve_preserves_constants_on_any_grid(shape, lam, value):
    h = solve_screened(np.full(shape, value), lam, symbol_for(shape))
    assert np.abs(h - value).max() <= 1e-12 * max(1.0, abs(value))
