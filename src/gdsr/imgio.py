"""Bit-exact image file I/O: binary Netpbm (PGM P5 / PPM P6) and PFM.

Netpbm integer samples are normalized to [0, 1] on load by the header
maxval, and quantized back on save: this module is the only place that
holds 8/16-bit integers. 16-bit samples are two bytes big-endian
(maxval > 255). A P6 guide decodes to an (M, N, 3) array, or with
:func:`load_luminance` straight to its luminance grid. PFM
floats are taken verbatim: header ``Pf`` (grayscale), a scale line whose
sign encodes endianness (negative = little-endian), rows stored bottom
to top. Writers emit deterministic bytes so identical inputs always
produce identical files.
"""

from __future__ import annotations

import re

import numpy as np

from .guidance import _LUMA
from .image_core import as_image

__all__ = ["load_image", "load_luminance", "save_image", "save_error_map", "quantize"]


class ImageFormatError(ValueError):
    """Malformed header, truncated payload, or unsupported variant."""


_DECIMAL = re.compile(rb"-?[0-9]+")


def _read_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read whitespace-separated header tokens, skipping '#' comments.

    ``data`` is the whole file. The tokens start after its two-byte magic
    number, which must be followed by whitespace or a comment; no copy of
    the file is made. Returns the tokens and the offset in ``data`` one
    byte past the single whitespace that terminates the last token.
    """
    pos = 2
    if len(data) > pos and data[pos : pos + 1] not in (b" ", b"\t", b"\r", b"\n", b"#"):
        raise ImageFormatError("magic number not followed by whitespace")
    tokens = []
    while len(tokens) < count:
        if pos >= len(data):
            raise ImageFormatError("truncated header")
        ch = data[pos : pos + 1]
        if ch in b" \t\r\n":
            pos += 1
            continue
        if ch == b"#":
            end = data.find(b"\n", pos)
            if end < 0:
                raise ImageFormatError("unterminated comment in header")
            pos = end + 1
            continue
        start = pos
        while pos < len(data) and data[pos : pos + 1] not in b" \t\r\n":
            pos += 1
        tokens.append(data[start:pos])
        if pos >= len(data):
            raise ImageFormatError("header not terminated by whitespace")
        pos += 1  # consume exactly one whitespace after the token
    return tokens, pos


def _parse_int(token: bytes, what: str) -> int:
    # decimal digits only: int() would also take a '+' sign and '_' separators
    if _DECIMAL.fullmatch(token):
        try:
            return int(token)
        except ValueError:  # beyond int()'s digit limit
            pass
    raise ImageFormatError(f"bad {what}: {token!r}")


def _payload(data: bytes, offset: int, expected: int) -> memoryview:
    """The ``expected`` payload bytes of a file from ``offset`` on, as a view
    of ``data``: slicing the bytes would copy the samples. Fewer raise."""
    payload = memoryview(data)[offset:]
    if len(payload) < expected:
        raise ImageFormatError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}"
        )
    return payload[:expected]


def _netpbm_samples(data: bytes, magic: bytes) -> tuple[np.ndarray, int, int, int]:
    """The checked integer samples of a P5 or P6 file, flat in file order,
    and its height, width and maxval. The samples are a read-only view of
    ``data``; they are scanned against maxval only when the sample type
    can hold more than maxval."""
    tokens, offset = _read_tokens(data, 3)
    width = _parse_int(tokens[0], "width")
    height = _parse_int(tokens[1], "height")
    maxval = _parse_int(tokens[2], "maxval")
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    if not (0 < maxval < 65536):
        raise ImageFormatError(f"unsupported maxval {maxval}")
    planes = 3 if magic == b"P6" else 1
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    raw = np.frombuffer(_payload(data, offset, width * height * planes * dtype.itemsize),
                        dtype=dtype)
    if maxval < np.iinfo(dtype).max and raw.max(initial=0) > maxval:
        raise ImageFormatError("sample exceeds declared maxval")
    return raw, height, width, maxval


def _load_netpbm(data: bytes, magic: bytes):
    raw, height, width, maxval = _netpbm_samples(data, magic)
    samples = raw.astype(np.float64).reshape(height, width, -1)
    samples /= maxval  # in place: no second full-size grid
    return samples if magic == b"P6" else samples[:, :, 0]


def _pfm_grid(data: bytes) -> np.ndarray:
    """Float samples of a grayscale PFM, top row first, taken verbatim."""
    tokens, offset = _read_tokens(data, 3)
    width = _parse_int(tokens[0], "width")
    height = _parse_int(tokens[1], "height")
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    try:
        scale = float(tokens[2])
    except ValueError:
        raise ImageFormatError(f"bad scale line: {tokens[2]!r}") from None
    if scale == 0.0 or not np.isfinite(scale):
        raise ImageFormatError(f"PFM scale must be finite and nonzero, got {scale!r}")
    endian = "<f4" if scale < 0 else ">f4"
    raw = np.frombuffer(_payload(data, offset, width * height * 4), dtype=endian)
    if not np.all(np.isfinite(raw)):
        raise ImageFormatError("PFM payload holds non-finite samples")
    return raw.astype(np.float64).reshape(height, width)[::-1]  # bottom-up rows


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decode(data: bytes):
    magic = data[:2]
    if magic in (b"P5", b"P6"):
        return _load_netpbm(data, magic)
    if magic == b"Pf":
        grid = _pfm_grid(data)
        if grid.min() < 0.0:
            raise ImageFormatError("PFM depth has negative samples")
        return grid
    if magic == b"PF":
        raise ImageFormatError("color PFM not supported; convert to grayscale Pf")
    raise ImageFormatError(f"unrecognized magic {magic!r}")


def load_image(path):
    """Decode a PGM/PPM/PFM file.

    P6 yields an (M, N, 3) float64 array of red, green and blue samples;
    P5 and Pf yield a 2-D float64 depth grid in stored units. Samples are
    finite and nonnegative: Netpbm samples lie in [0, 1] by the maxval
    check, PFM samples pass the checks here. Every malformed file raises
    :class:`ImageFormatError`, including a PFM with non-finite or
    negative samples.
    """
    return _decode(_read(path))


def load_luminance(path):
    """The BT.601 luminance grid of a P6 guide, with the bits of
    ``guidance.luminance(load_image(path))``; None for a well-formed P5 or
    Pf file, which is not a color image.

    Each plane is divided by maxval as :func:`load_image` divides it,
    weighted, and added in the order (r R + g G) + b B, through one plane
    buffer. So the (M, N, 3) float array is never built, and no float
    plane is read at a stride. A malformed file raises what
    :func:`load_image` raises.
    """
    data = _read(path)
    if data[:2] != b"P6":
        _decode(data)
        return None
    raw, height, width, maxval = _netpbm_samples(data, b"P6")
    rgb = raw.reshape(-1, 3)
    luma = np.divide(rgb[:, 0], maxval, dtype=np.float64)
    luma *= _LUMA[0]
    plane = np.empty_like(luma)
    for c in (1, 2):
        np.divide(rgb[:, c], maxval, out=plane, dtype=np.float64)
        plane *= _LUMA[c]
        luma += plane
    return luma.reshape(height, width)


def quantize(img, max_value: int) -> np.ndarray:
    """Map [0, 1] samples of any shape to integers in [0, max_value].

    Samples outside [0, 1] are clamped; a non-finite one raises a
    ValueError. Rounds half away from zero so the quantization rule is
    bit-exact and reproducible.
    """
    if max_value not in (255, 65535):
        raise ValueError(f"max_value must be 255 or 65535, got {max_value}")
    img = np.asarray(img, dtype=np.float64)
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite samples")
    # One working array, updated in place: a fresh temporary per step, each
    # the size of an (M, N, 3) guide, made a PPM write twice as slow.
    ints = np.clip(img, 0.0, 1.0)
    ints *= max_value
    # np.round would round halves to even; floor(x + 0.5) rounds them away
    # from zero on the nonnegative range we have here.
    ints += 0.5
    np.floor(ints, out=ints)
    np.clip(ints, 0, max_value, out=ints)
    return ints.astype(np.uint8 if max_value == 255 else np.uint16)


def save_image(img, path, fmt: str) -> None:
    """Encode to ``pgm8``/``pgm16`` (a grayscale grid), ``ppm8``/``ppm16``
    (an (M, N, 3) RGB array), or ``pfm`` (grayscale float32,
    little-endian, bottom-up rows).

    Integer formats expect samples in [0, 1] and clamp anything outside.
    """
    if fmt in ("pgm8", "pgm16", "ppm8", "ppm16"):
        if fmt.startswith("pgm"):
            data, magic = as_image(img), "P5"
        else:
            data, magic = np.asarray(img, dtype=np.float64), "P6"
            if data.ndim != 3 or data.shape[2] != 3 or data.size == 0:
                raise ValueError(f"ppm output requires an (M, N, 3) array, "
                                 f"got shape {data.shape}")
        maxval = 255 if fmt.endswith("8") else 65535
        grid = quantize(data, maxval)
        payload = grid.astype(">u2").tobytes() if maxval > 255 else grid.tobytes()
        header = f"{magic}\n{data.shape[1]} {data.shape[0]}\n{maxval}\n".encode("ascii")
        with open(path, "wb") as fh:
            fh.write(header + payload)
        return
    if fmt == "pfm":
        data = as_image(img)
        header = f"Pf\n{data.shape[1]} {data.shape[0]}\n-1.0\n".encode("ascii")
        payload = data[::-1].astype("<f4").tobytes()
        with open(path, "wb") as fh:
            fh.write(header + payload)
        return
    raise ValueError(f"unknown format {fmt!r}")


def save_error_map(pred: np.ndarray, gt: np.ndarray, path, max_err: float) -> None:
    """Write |pred - gt| / max_err, clamped to [0, 1], as 8-bit PGM.

    ``pred`` and ``gt`` are same-shaped depth grids; the difference and
    max_err are in their stored units, as :func:`gdsr.rmse` reports them.
    """
    if pred.shape != gt.shape:
        raise ValueError(f"dimension mismatch: {pred.shape} vs {gt.shape}")
    if not (np.isfinite(max_err) and max_err > 0.0):
        raise ValueError(f"max_err must be positive, got {max_err}")
    err = np.abs(pred - gt)
    save_image(np.clip(err / max_err, 0.0, 1.0), path, "pgm8")


def load_pfm_grid(path) -> np.ndarray:
    """Verbatim float grid of a PFM file (no nonnegativity check)."""
    data = _read(path)
    if data[:2] != b"Pf":
        raise ImageFormatError(f"not a grayscale PFM: magic {data[:2]!r}")
    return _pfm_grid(data)
