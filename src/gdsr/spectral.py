"""Closed-form screened solve of the gradient-transfer energy.

The energy balances fidelity to an upsampled depth map L against
transferring a masked guide Laplacian T into the solution:

    F(H) = 0.5 * ||H - L||^2  +  0.5 * lam * ||lap(H) - T||^2.

Its stationarity condition is the screened fourth-order equation

    (Id + lam * lap^2) H = lam * lap(T) + L  =:  E,

with Neumann-type boundary behaviour induced by reflection padding.
Under the half-sample symmetric extension the Laplacian stencil is
diagonal in the orthonormal DCT basis, so the solve reduces to one
forward transform, a per-frequency division by (1 + lam * Lambda^2),
and one inverse transform.

Each symbol mode names the stencil whose exact symbol the solve divides
by (:func:`solve_stencil`). ``derived`` takes the 5-point stencil: the
solve exactly inverts (Id + lam * lap^2), so it minimizes F(H). ``paper``
takes the cross stencil K = [[0, 1/2, 0], [1/2, 0, 1/2], [0, 1/2, 0]],
whose symbol is the cosine sum cos(pi i/M) + cos(pi j/N) of DCT Poisson
solvers: that solve exactly inverts (Id + lam * K^2), but it does not
minimize F(H), whose right-hand side holds the 5-point lap(T).
"""

from __future__ import annotations

import numpy as np

from .dct import _dct2, _idct2
from .filters import _BLOCK_BYTES, _correlate, _stencil, correlate_reflect
from .image_core import as_image, is_finite, shape_operator

__all__ = [
    "FIVE_POINT",
    "CROSS",
    "laplacian_apply",
    "stencil_symbol",
    "derived_symbol",
    "symbol_for",
    "SYMBOL_MODES",
    "solve_stencil",
    "build_rhs",
    "solve_screened",
]

# The 5-point Laplacian: flip-symmetric, so the DCT diagonalizes it under
# the reflective extension, and zero-sum, so it annihilates constants.
FIVE_POINT = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
FIVE_POINT.setflags(write=False)

# The cross stencil, whose symbol is the cosine sum cos(pi i/M) + cos(pi j/N).
CROSS = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.0]])
CROSS.setflags(write=False)

# Each symbol mode names the stencil its solve divides by.
_SOLVE_STENCILS = {"derived": FIVE_POINT, "paper": CROSS}
SYMBOL_MODES = tuple(_SOLVE_STENCILS)
DEFAULT_SYMBOL_MODE = "derived"


def solve_stencil(mode: str) -> np.ndarray:
    """The read-only stencil whose symbol the ``mode`` solve divides by."""
    if mode not in SYMBOL_MODES:
        raise ValueError(f"symbol mode must be one of {SYMBOL_MODES}, got {mode!r}")
    return _SOLVE_STENCILS[mode]


def laplacian_apply(img) -> np.ndarray:
    """Apply the 5-point stencil with half-sample symmetric boundary extension."""
    return correlate_reflect(img, FIVE_POINT)


def _laplacian(img: np.ndarray) -> np.ndarray:
    """:func:`laplacian_apply` on an already validated grid."""
    return _correlate(img, FIVE_POINT)


def stencil_symbol(stencil, M: int, N: int) -> np.ndarray:
    """Exact eigenvalue grid of an odd, flip-symmetric stencil K, read-only.

    Under the half-sample symmetric extension the DCT-II diagonalizes
    every such stencil (Martucci, IEEE TSP 1994): with (cu, cv) the
    stencil center,

        Lambda[i, j] = sum_uv K[u, v] cos(pi i (u - cu)/M) cos(pi j (v - cv)/N).

    Flip symmetry folds the sum onto one quadrant of offsets (du, dv),
    each term weighted by its multiplicity 1, 2 or 4 and built from one
    column and one row of cosines. The terms are added in (du, dv)
    order, so a 3x3 stencil gives a + 2b cos(pi j/N) + 2c cos(pi i/M)
    + 4d cos(pi i/M) cos(pi j/N) evaluated in exactly that order; the
    order fixes the last bits of every solve that uses the symbol. The
    grid is filled in row blocks of about 256 KB: each term of a block is
    formed in one reused product buffer and added in, so a build holds
    little more than the grid it returns.

    A stencil that is not exactly equal to both of its flips is rejected:
    the formula above holds for flip-symmetric stencils only. So is one
    with a non-finite weight, whose symbol would not be finite.
    """
    if M < 1 or N < 1:
        raise ValueError(f"symbol dimensions must be >= 1, got {(M, N)}")
    st = _stencil(stencil)
    if not (np.array_equal(st, st[::-1]) and np.array_equal(st, st[:, ::-1])):
        raise ValueError(
            "stencil has no exact spectral symbol under the reflective extension"
        )
    cu, cv = st.shape[0] // 2, st.shape[1] // 2
    terms = []  # (column, row) per (du, dv): the term is their outer product
    for du in range(cu + 1):
        ci = np.cos(np.pi * du * np.arange(M) / M)[:, None]
        for dv in range(cv + 1):
            cj = np.cos(np.pi * dv * np.arange(N) / N)
            mult = (2.0 if du else 1.0) * (2.0 if dv else 1.0)
            terms.append((mult * st[cu + du, cv + dv] * ci, cj))
    values = np.zeros((M, N))
    for rows, prod in _row_blocks(M, N):
        block = values[rows]
        for column, cj in terms:
            block += np.multiply(column[rows], cj, out=prod)
    values.setflags(write=False)
    return values


def _row_blocks(M: int, N: int):
    """Yield (rows, buf) over an (M, N) grid: the slice of each row block
    of about 256 KB, and a view shaped like it of one reused buffer."""
    step = max(1, _BLOCK_BYTES // (8 * N))
    buf = np.empty((min(step, M), N))
    for r0 in range(0, M, step):
        rows = slice(r0, min(r0 + step, M))
        yield rows, buf[: rows.stop - r0]


def derived_symbol(kernel, M: int, N: int) -> np.ndarray:
    """Exact eigenvalue grid of a 3x3 stencil: its :func:`stencil_symbol`.

    For center a, horizontal neighbors b, vertical neighbors c and
    corners d:

        Lambda[i, j] = a + 2b cos(pi j/N) + 2c cos(pi i/M)
                         + 4d cos(pi i/M) cos(pi j/N).
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape != (3, 3):
        raise ValueError(f"kernel must be 3x3, got {kernel.shape}")
    return stencil_symbol(kernel, M, N)


def symbol_for(shape, stencil=FIVE_POINT) -> np.ndarray:
    """:func:`stencil_symbol` of an odd, flip-symmetric ``stencil`` on a grid
    of ``shape``, kept per stencil by :func:`shape_operator`, so one instance
    serves every caller. :func:`solve_stencil` names each mode's stencil."""
    st = np.asarray(stencil, dtype=np.float64)
    return shape_operator(shape, ("symbol", st.tobytes(), st.shape),
                          lambda: stencil_symbol(st, *shape))


def build_rhs(l_up, guide_lap_masked, lam: float) -> np.ndarray:
    """Right-hand side E = lam * lap(T) + L of the screened equation.

    ``guide_lap_masked`` is the gradient-transfer target T, i.e. the
    guide Laplacian already multiplied by the edge weights.
    """
    l_up = as_image(l_up)
    t = as_image(guide_lap_masked)
    if l_up.shape != t.shape:
        raise ValueError(f"dimension mismatch: {l_up.shape} vs {t.shape}")
    if not (is_finite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    return _rhs(l_up, _laplacian(t) if lam else None, lam)


def _rhs(l_up: np.ndarray, lap_t, lam: float) -> np.ndarray:
    """:func:`build_rhs` from checked inputs and the Laplacian ``lap_t`` of
    T, which is not read (and may be None) when lam = 0."""
    if lam == 0.0:
        return l_up.copy()
    E = np.multiply(lap_t, lam)  # one buffer: products and sums commute bit for bit
    E += l_up
    return E


def solve_screened(E, lam: float, symbol) -> np.ndarray:
    """Solve (Id + lam * lap^2) H = E by per-frequency division.

    H = idct( dct(E) / (1 + lam * Lambda^2) ), the division taken against
    the all-ones grid plus the squared symbol. With lam = 0 the solve is
    the identity and E is returned unchanged (bit for bit). ``symbol`` is
    the (M, N) grid Lambda, as :func:`symbol_for` returns it; one with a
    non-finite sample is rejected. E itself is never written.
    """
    E = as_image(E)
    if not (is_finite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    symbol = np.asarray(symbol, dtype=np.float64)
    if symbol.shape != E.shape:
        raise ValueError(f"symbol shape {symbol.shape} does not match input {E.shape}")
    if not np.all(np.isfinite(symbol)):
        raise ValueError("symbol contains non-finite (inf or NaN) samples")
    return _solve(E.copy(), symbol, lam)


def _solve(E: np.ndarray, symbol: np.ndarray, lam: float) -> np.ndarray:
    """:func:`solve_screened` of a checked E, finite symbol and lam. The
    caller gives E up: both transforms run in its buffer, and with lam = 0
    E itself is returned and the symbol is not read.

    The divisor (Lambda * lam) * Lambda + 1 is formed one row block at a
    time in a small buffer, in that order, which fixes its bits. With a
    finite Lambda and a finite lam >= 0, Lambda * lam * Lambda is >= 0 or
    +inf, so every divisor is >= 1 or +inf and needs no check.
    """
    if lam == 0.0:
        return E
    coeffs = _dct2(E, overwrite=True)
    for rows, denom in _row_blocks(*symbol.shape):
        np.multiply(symbol[rows], lam, out=denom)
        denom *= symbol[rows]
        denom += 1.0
        coeffs[rows] /= denom
    return _idct2(coeffs, overwrite=True)
