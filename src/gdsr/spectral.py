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

Two spectral symbols are available. ``derived`` is the exact eigenvalue
grid of the configured stencil (for the 5-point Laplacian:
2cos(pi i/M) + 2cos(pi j/N) - 4) and makes the solve an exact inverse of
the screened operator. ``paper`` is the plain cosine-sum variant
cos(pi i/M) + cos(pi j/N) seen with DCT Poisson solvers; it is kept as a
literal alternative but is not the symbol of the discrete stencil, so no
residual guarantee is made in that mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dct import dct2_forward, dct2_inverse
from .filters import correlate_reflect
from .image_core import as_image

__all__ = [
    "LaplacianKernel",
    "FIVE_POINT",
    "SpectralSymbol",
    "SolverOptions",
    "laplacian_apply",
    "stencil_symbol",
    "derived_symbol",
    "paper_symbol",
    "symbol_for",
    "SYMBOL_MODES",
    "build_rhs",
    "solve_screened",
    "energy",
    "cg_solve",
    "ConvergenceError",
]


class ConvergenceError(RuntimeError):
    """Iterative solve did not reach the requested residual."""


@dataclass(frozen=True)
class LaplacianKernel:
    """3x3 stencil, flip-symmetric and zero-sum.

    Flip symmetry makes the operator self-adjoint under the reflective
    extension (which the DCT diagonalization requires); the zero sum
    makes it annihilate constants.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)  # copy: frozen below
        if w.shape != (3, 3):
            raise ValueError(f"kernel must be 3x3, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("kernel weights must be finite")
        if not (np.array_equal(w, np.fliplr(w)) and np.array_equal(w, np.flipud(w))):
            raise ValueError("kernel must be symmetric under horizontal and vertical flips")
        if abs(w.sum()) > 1e-12:
            raise ValueError(f"kernel weights must sum to 0, got {w.sum()!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


FIVE_POINT = LaplacianKernel(np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]]))


@dataclass(frozen=True)
class SpectralSymbol:
    """Per-frequency eigenvalue grid of a stencil in the DCT basis."""

    values: np.ndarray
    mode: str

    def __post_init__(self):
        v = as_image(self.values).copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


SYMBOL_MODES = ("derived", "paper")


@dataclass(frozen=True)
class SolverOptions:
    """Solve configuration: regularization weight and symbol mode.

    The boundary handling is fixed half-sample reflection and not
    configurable. ``lam`` may be exactly 0, which turns the solve into
    the identity.
    """

    lam: float = 1.0
    symbol_mode: str = "derived"
    kernel: LaplacianKernel = field(default=FIVE_POINT)

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.symbol_mode not in SYMBOL_MODES:
            raise ValueError(f"symbol_mode must be one of {SYMBOL_MODES}, got {self.symbol_mode!r}")

    def symbol(self, M: int, N: int) -> SpectralSymbol:
        return symbol_for(self.symbol_mode, (M, N), self.kernel)


def laplacian_apply(img, kernel: LaplacianKernel = FIVE_POINT) -> np.ndarray:
    """Apply the stencil with half-sample symmetric boundary extension."""
    return correlate_reflect(img, kernel.weights)


def stencil_symbol(stencil, M: int, N: int) -> SpectralSymbol:
    """Exact eigenvalue grid of an odd, flip-symmetric stencil K.

    Under the half-sample symmetric extension the DCT-II diagonalizes
    every such stencil (Martucci, IEEE TSP 1994): with (cu, cv) the
    stencil center,

        Lambda[i, j] = sum_uv K[u, v] cos(pi i (u - cu)/M) cos(pi j (v - cv)/N).

    Flip symmetry folds the sum onto one quadrant of offsets (du, dv),
    each term weighted by its multiplicity 1, 2 or 4 and built from one
    column and one row of cosines. The terms are added in (du, dv)
    order, so a 3x3 stencil gives a + 2b cos(pi j/N) + 2c cos(pi i/M)
    + 4d cos(pi i/M) cos(pi j/N) evaluated in exactly that order; the
    order fixes the last bits of every solve that uses the symbol.

    A seeded probe verifies dct(correlate(X, K)) == Lambda * dct(X)
    before the symbol is returned; a failure means the stencil is not
    diagonalized by the cosine basis and is rejected.
    """
    if M < 1 or N < 1:
        raise ValueError(f"symbol dimensions must be >= 1, got {(M, N)}")
    st = np.asarray(stencil, dtype=np.float64)
    if st.ndim != 2 or st.shape[0] % 2 == 0 or st.shape[1] % 2 == 0:
        raise ValueError(f"stencil must be 2-D with odd dimensions, got {st.shape}")
    cu, cv = st.shape[0] // 2, st.shape[1] // 2
    values = np.zeros((M, N))
    for du in range(cu + 1):
        ci = np.cos(np.pi * du * np.arange(M) / M)[:, None]
        for dv in range(cv + 1):
            cj = np.cos(np.pi * dv * np.arange(N) / N)[None, :]
            mult = (2.0 if du else 1.0) * (2.0 if dv else 1.0)
            values = values + mult * st[cu + du, cv + dv] * ci * cj

    probe = np.random.default_rng(0xD1A6).random((M, N))
    lhs = dct2_forward(correlate_reflect(probe, st))
    rhs = values * dct2_forward(probe)
    scale = max(1.0, np.abs(rhs).max())
    if np.abs(lhs - rhs).max() > 1e-8 * scale:
        raise ValueError(
            "stencil has no exact spectral symbol under the reflective extension"
        )
    return SpectralSymbol(values, "derived")


def derived_symbol(kernel: LaplacianKernel, M: int, N: int) -> SpectralSymbol:
    """Exact eigenvalue grid of a Laplacian stencil: its :func:`stencil_symbol`.

    For center a, horizontal neighbors b, vertical neighbors c and
    corners d:

        Lambda[i, j] = a + 2b cos(pi j/N) + 2c cos(pi i/M)
                         + 4d cos(pi i/M) cos(pi j/N).
    """
    return stencil_symbol(kernel.weights, M, N)


def paper_symbol(M: int, N: int) -> SpectralSymbol:
    """Cosine-sum symbol cos(pi i/M) + cos(pi j/N), zero-based indices."""
    if M < 1 or N < 1:
        raise ValueError(f"symbol dimensions must be >= 1, got {(M, N)}")
    ci = np.cos(np.pi * np.arange(M) / M)[:, None]
    cj = np.cos(np.pi * np.arange(N) / N)[None, :]
    return SpectralSymbol(ci + cj, "paper")


def symbol_for(mode: str, shape, kernel=FIVE_POINT) -> SpectralSymbol:
    """The ``mode`` symbol on an (M, N) grid, cached per (mode, shape, stencil).

    ``kernel`` is a :class:`LaplacianKernel` or any odd, flip-symmetric
    stencil array; the ``paper`` symbol ignores it. Symbols are
    read-only, so one instance serves every caller; the derived symbol's
    probe then runs once per (stencil weights, shape).
    """
    if mode not in SYMBOL_MODES:
        raise ValueError(f"symbol mode must be one of {SYMBOL_MODES}, got {mode!r}")
    M, N = shape
    if isinstance(kernel, LaplacianKernel):
        kernel = kernel.weights
    st = np.asarray(kernel, dtype=np.float64)
    return _cached_symbol(mode, int(M), int(N), st.tobytes(), st.shape)


@lru_cache(maxsize=16)
def _cached_symbol(mode: str, M: int, N: int, weights: bytes, kshape) -> SpectralSymbol:
    if mode == "paper":
        return paper_symbol(M, N)
    return stencil_symbol(np.frombuffer(weights, dtype=np.float64).reshape(kshape), M, N)


def build_rhs(l_up, guide_lap_masked, lam: float, kernel: LaplacianKernel = FIVE_POINT) -> np.ndarray:
    """Right-hand side E = lam * lap(T) + L of the screened equation.

    ``guide_lap_masked`` is the gradient-transfer target T, i.e. the
    guide Laplacian already multiplied by the edge weights.
    """
    l_up = as_image(l_up)
    t = as_image(guide_lap_masked)
    if l_up.shape != t.shape:
        raise ValueError(f"dimension mismatch: {l_up.shape} vs {t.shape}")
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if lam == 0.0:
        return l_up.copy()
    return lam * laplacian_apply(t, kernel) + l_up


def solve_screened(E, lam: float, symbol: SpectralSymbol) -> np.ndarray:
    """Solve (Id + lam * lap^2) H = E by per-frequency division.

    H = idct( dct(E) / (1 + lam * Lambda^2) ), the division taken against
    the all-ones grid plus the squared symbol. With lam = 0 the solve is
    the identity and E is returned unchanged (bit for bit).
    """
    E = as_image(E)
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")
    if symbol.shape != E.shape:
        raise ValueError(f"symbol shape {symbol.shape} does not match input {E.shape}")
    if lam == 0.0:
        return E.copy()
    denom = 1.0 + lam * symbol.values * symbol.values
    if np.any(denom <= 0.0):  # impossible for real symbols and lam >= 0
        raise ValueError("non-positive sample in spectral denominator")
    return dct2_inverse(dct2_forward(E) / denom)


def energy(h, l_up, target_grad, lam: float, kernel: LaplacianKernel = FIVE_POINT) -> float:
    """Gradient-transfer energy 0.5||H - L||^2 + 0.5 lam ||lap(H) - T||^2."""
    h = as_image(h)
    l_up = as_image(l_up)
    t = as_image(target_grad)
    if not (h.shape == l_up.shape == t.shape):
        raise ValueError(
            f"dimension mismatch: {h.shape} vs {l_up.shape} vs {t.shape}"
        )
    fidelity = 0.5 * float(np.sum((h - l_up) ** 2))
    transfer = 0.5 * float(np.sum((laplacian_apply(h, kernel) - t) ** 2))
    return fidelity + lam * transfer


def cg_solve(E, lam: float, kernel: LaplacianKernel = FIVE_POINT,
             tol: float = 1e-10, max_iter: int = 2000) -> np.ndarray:
    """Conjugate-gradient solve of (Id + lam * lap^2) H = E.

    Matrix-free verification oracle for the spectral solve: uses only
    applications of the screened operator, which is symmetric positive
    definite under the reflective extension. Stops when the residual
    2-norm drops below tol * ||E||_2.
    """
    E = as_image(E)
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not (np.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lam must be finite and >= 0, got {lam}")

    def apply_op(x):
        return x + lam * laplacian_apply(laplacian_apply(x, kernel), kernel)

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
