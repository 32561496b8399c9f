"""Orthonormal 2-D cosine transform.

Forward is the separable DCT-II, inverse the DCT-III, both with the
orthonormal scaling

    C[k, n] = s_k * cos(pi * (2n + 1) * k / (2N)),
    s_0 = sqrt(1/N), s_k = sqrt(2/N) for k > 0,

so the transform matrix is orthogonal: the inverse is the transpose,
round trips are exact to rounding, and Parseval's identity holds.

Both directions run pocketfft, which handles any length, not just powers
of two, through the binding scipy ships (``scipy/fft/_pocketfft/
pypocketfft*.so``). The first transform loads that extension file on its
own, once per process, and registers it under its scipy name. Importing
``scipy.fft`` instead would also import ``scipy.special``, about 25 MB
of memory that only soft edge weights use. Each call is the one
``scipy.fft.dctn`` / ``idctn`` with ``norm="ortho"`` makes on a float64
grid, so the bits are the same. Where the file is missing or does not
load, as on a scipy with another layout, the transforms call
``scipy.fft`` itself.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading

import numpy as np

from .image_core import as_image

__all__ = ["dct2_forward", "dct2_inverse"]

_BINDING = "scipy.fft._pocketfft.pypocketfft"
# The binding's file below the scipy directory, without its extension suffix.
_BINDING_FILE = os.path.join("fft", "_pocketfft", "pypocketfft")
_load_lock = threading.Lock()
# (grid, DCT type 2 or 3, overwrite) -> coefficients; set at the first transform.
_r2r = None


def dct2_forward(img) -> np.ndarray:
    """Forward 2-D orthonormal DCT-II of a sample grid."""
    return _dct2(as_image(img))


def dct2_inverse(coeffs) -> np.ndarray:
    """Inverse transform (DCT-III), exact inverse of :func:`dct2_forward`."""
    return _idct2(as_image(coeffs))


# Unchecked forms for package-internal grids that are already validated.
# With ``overwrite`` the caller gives its grid up: pocketfft may transform
# in that buffer, with the same bits.
def _dct2(img: np.ndarray, overwrite: bool = False) -> np.ndarray:
    return (_r2r or _load())(img, 2, overwrite)


def _idct2(coeffs: np.ndarray, overwrite: bool = False) -> np.ndarray:
    return (_r2r or _load())(coeffs, 3, overwrite)


def _load():
    """Set ``_r2r`` once, under a lock: pool threads may transform first together."""
    global _r2r
    with _load_lock:
        if _r2r is None:
            pfft = _binding()
            _r2r = _scipy_fft_r2r if pfft is None else _pocketfft_r2r(pfft)
    return _r2r


def _binding():
    """scipy's pocketfft extension module, loaded from its file without
    importing scipy; None where it cannot be found or loaded."""
    if _BINDING in sys.modules:
        return sys.modules[_BINDING]
    path = _binding_path()
    if path is None:
        return None
    try:
        spec = importlib.util.spec_from_file_location(_BINDING, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        return None
    # a later `import scipy.fft` finds it here and does not load it again
    sys.modules[_BINDING] = module
    return module


def _binding_path():
    """The binding's file in the scipy directory, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    for root in spec and spec.submodule_search_locations or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, _BINDING_FILE + suffix)
            if os.path.isfile(path):
                return path
    return None


def _pocketfft_r2r(pfft):
    def r2r(x: np.ndarray, dct_type: int, overwrite: bool) -> np.ndarray:
        # scipy.fft's _r2rn on a float64 grid: both axes, inorm 1 for
        # "ortho", one worker, orthogonalize None
        return pfft.dct(x, dct_type, (0, 1), 1, x if overwrite else None, 1, None)

    return r2r


def _scipy_fft_r2r(x: np.ndarray, dct_type: int, overwrite: bool) -> np.ndarray:
    from scipy import fft

    transform = fft.dctn if dct_type == 2 else fft.idctn
    return transform(x, type=2, norm="ortho", overwrite_x=overwrite)
