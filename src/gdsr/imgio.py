"""Bit-exact image file I/O: binary Netpbm (PGM P5 / PPM P6) and PFM.

Netpbm integer samples are normalized to [0, 1] on load by the header
maxval; 16-bit samples are two bytes big-endian (maxval > 255). PFM
floats are taken verbatim: header ``Pf`` (grayscale), a scale line whose
sign encodes endianness (negative = little-endian), rows stored bottom
to top. Writers emit deterministic bytes so identical inputs always
produce identical files.
"""

from __future__ import annotations

import numpy as np

from .image_core import DepthMap, RgbImage, as_image, quantize

__all__ = ["load_image", "save_image", "save_error_map"]


class ImageFormatError(ValueError):
    """Malformed header, truncated payload, or unsupported variant."""


def _read_tokens(data: bytes, count: int) -> tuple[list[bytes], int]:
    """Read whitespace-separated header tokens, skipping '#' comments.

    Returns the tokens and the offset one byte past the single
    whitespace that terminates the last token.
    """
    tokens = []
    pos = 0
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
    try:
        return int(token)
    except ValueError:
        raise ImageFormatError(f"bad {what}: {token!r}") from None


def _load_netpbm(data: bytes, magic: bytes):
    tokens, offset = _read_tokens(data[2:], 3)
    width = _parse_int(tokens[0], "width")
    height = _parse_int(tokens[1], "height")
    maxval = _parse_int(tokens[2], "maxval")
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    if not (0 < maxval < 65536):
        raise ImageFormatError(f"unsupported maxval {maxval}")
    planes = 3 if magic == b"P6" else 1
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    payload = data[2 + offset :]
    expected = width * height * planes * dtype.itemsize
    if len(payload) < expected:
        raise ImageFormatError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}"
        )
    raw = np.frombuffer(payload[:expected], dtype=dtype)
    if raw.max(initial=0) > maxval:
        raise ImageFormatError("sample exceeds declared maxval")
    samples = raw.astype(np.float64).reshape(height, width, planes) / maxval
    if magic == b"P5":
        return DepthMap(samples[:, :, 0])
    return RgbImage(samples[:, :, 0], samples[:, :, 1], samples[:, :, 2])


def _pfm_grid(data: bytes) -> np.ndarray:
    """Float samples of a grayscale PFM, top row first, taken verbatim."""
    tokens, offset = _read_tokens(data[2:], 3)
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
    payload = data[2 + offset :]
    expected = width * height * 4
    if len(payload) < expected:
        raise ImageFormatError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}"
        )
    endian = "<f4" if scale < 0 else ">f4"
    raw = np.frombuffer(payload[:expected], dtype=endian)
    return raw.astype(np.float64).reshape(height, width)[::-1]  # bottom-up rows


def load_image(path):
    """Decode a PGM/PPM/PFM file.

    P6 yields an :class:`RgbImage`; P5 and Pf yield a :class:`DepthMap`
    with unit_scale 1 (the manifest supplies the metric multiplier).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic in (b"P5", b"P6"):
        return _load_netpbm(data, magic)
    if magic == b"Pf":
        return DepthMap(_pfm_grid(data))
    if magic == b"PF":
        raise ImageFormatError("color PFM not supported; convert to grayscale Pf")
    raise ImageFormatError(f"unrecognized magic {magic!r}")


def _gray_data(img) -> np.ndarray:
    if isinstance(img, DepthMap):
        return img.data
    return as_image(img)


def save_image(img, path, fmt: str) -> None:
    """Encode to ``pgm8``/``pgm16`` (grayscale), ``ppm8``/``ppm16`` (RGB),
    or ``pfm`` (grayscale float32, little-endian, bottom-up rows).

    Integer formats expect samples in [0, 1] and clamp anything outside.
    """
    if fmt in ("pgm8", "pgm16"):
        data = _gray_data(img)
        maxval = 255 if fmt == "pgm8" else 65535
        grid = quantize(data, maxval)
        payload = grid.astype(">u2").tobytes() if maxval > 255 else grid.tobytes()
        header = f"P5\n{data.shape[1]} {data.shape[0]}\n{maxval}\n".encode("ascii")
        with open(path, "wb") as fh:
            fh.write(header + payload)
        return
    if fmt in ("ppm8", "ppm16"):
        if not isinstance(img, RgbImage):
            raise ValueError("ppm output requires an RgbImage")
        maxval = 255 if fmt == "ppm8" else 65535
        planes = [quantize(p, maxval) for p in (img.red, img.green, img.blue)]
        inter = np.stack(planes, axis=-1)
        payload = inter.astype(">u2").tobytes() if maxval > 255 else inter.tobytes()
        header = f"P6\n{img.shape[1]} {img.shape[0]}\n{maxval}\n".encode("ascii")
        with open(path, "wb") as fh:
            fh.write(header + payload)
        return
    if fmt == "pfm":
        data = _gray_data(img)
        header = f"Pf\n{data.shape[1]} {data.shape[0]}\n-1.0\n".encode("ascii")
        payload = data[::-1].astype("<f4").tobytes()
        with open(path, "wb") as fh:
            fh.write(header + payload)
        return
    raise ValueError(f"unknown format {fmt!r}")


def save_error_map(pred: DepthMap, gt: DepthMap, path, max_err: float) -> None:
    """Write |pred - gt| / max_err, clamped to [0, 1], as 8-bit PGM.

    The difference is taken in metric units (stored values times
    unit_scale), matching the RMSE convention; max_err is in the same
    units.
    """
    if pred.shape != gt.shape:
        raise ValueError(f"dimension mismatch: {pred.shape} vs {gt.shape}")
    if pred.unit_scale != gt.unit_scale:
        raise ValueError("error map requires matching unit scales")
    if not (np.isfinite(max_err) and max_err > 0.0):
        raise ValueError(f"max_err must be positive, got {max_err}")
    err = np.abs(pred.data - gt.data) * pred.unit_scale
    save_image(np.clip(err / max_err, 0.0, 1.0), path, "pgm8")


def load_pfm_grid(path) -> np.ndarray:
    """Verbatim float grid of a PFM file (no DepthMap nonnegativity check)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"Pf":
        raise ImageFormatError(f"not a grayscale PFM: magic {data[:2]!r}")
    return _pfm_grid(data)
