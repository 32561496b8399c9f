"""Benchmark harness: the JSON documents (manifests, bench configs and
parameter files), pipeline orchestration, RMSE, CSV tables.

A bench run crosses manifest entries with scale factors and pipeline
configurations, producing one record per combination plus one aggregate
(mean) record per (dataset, scale, config) group. Entries may be
processed by a worker pool, but records are always emitted in canonical
order (manifest order x scales x configs), so parallelism never changes
output bytes. Wall-clock timings are reported by default and can be
disabled to make the CSV byte-reproducible across runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .dct import dct2_forward
from .feature_bank import (
    ReconstructionHead,
    default_bank,
    fit_lambda,
    GRID_POINTS,
    HEAD_GAMMA,
    INIT_LOG_LAMBDA,
    SWEEPS,
    _LambdaObjective,
    _check_gamma,
    _check_search,
    _search_log_lambda,
    _solved_coeffs,
    _spectral_predict,
)
from .guidance import EdgeWeightConfig, _transfer_target
from .image_core import as_image, is_finite
from .imgio import load_image, load_luminance
from .resample import _crop, _degrade, check_scale
from .spectral import (DEFAULT_SYMBOL_MODE, SYMBOL_MODES, _laplacian, _rhs, _solve,
                       solve_stencil, symbol_for)

__all__ = [
    "DatasetEntry",
    "DatasetManifest",
    "load_manifest",
    "load_configs",
    "save_params",
    "load_params",
    "PipelineConfig",
    "BenchRecord",
    "rmse",
    "predict",
    "run_image",
    "run_bench",
    "write_csv",
    "fit_image_lambda",
    "fit_feature_params",
    "CSV_HEADER",
]

CSV_HEADER = "dataset,image_id,scale,method,config_hash,rmse,runtime_ms"
MEAN_ROW_ID = "__mean__"
ERROR_MARKER = "ERROR"

# CLI and bench-config method names -> PipelineConfig methods
_METHOD_ALIASES = {"bicubic": "bicubic", "image": "image_domain", "feature": "feature_domain"}
_METHODS = tuple(_METHOD_ALIASES.values())
_CSV_UNSAFE = (",", "\n", "\r")


@dataclass(frozen=True)
class DatasetEntry:
    id: str
    rgb_path: str
    depth_path: str
    depth_unit_scale: float = 1.0
    split: str = "test"

    def __post_init__(self):
        # json reads NaN and Infinity, so the manifest can carry them
        if not (math.isfinite(self.depth_unit_scale) and self.depth_unit_scale > 0):
            raise ValueError(f"depth_unit_scale must be finite and positive, "
                             f"got {self.depth_unit_scale}")
        object.__setattr__(self, "depth_unit_scale", float(self.depth_unit_scale))
        if self.split not in ("train", "val", "test"):
            raise ValueError(f"split must be train/val/test, got {self.split!r}")


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    entries: tuple[DatasetEntry, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if len(entries) == 0:
            raise ValueError("manifest has no entries")
        ids = [e.id for e in entries]
        if len(set(ids)) != len(ids):
            raise ValueError("manifest ids must be unique")
        # names become CSV fields, written unquoted one row per line
        for kind, text in [("dataset name", self.name)] + [("id", i) for i in ids]:
            if any(ch in text for ch in _CSV_UNSAFE):
                raise ValueError(f"manifest {kind} {text!r} contains a comma or line break")
        for e in entries:
            for p in (e.rgb_path, e.depth_path):
                if not Path(p).exists():
                    raise FileNotFoundError(f"manifest path does not exist: {p}")
        object.__setattr__(self, "entries", entries)

    def split(self, tag: str) -> tuple[DatasetEntry, ...]:
        return tuple(e for e in self.entries if e.split == tag)


def _read_json(path, what: str):
    """The document in the JSON file at ``path``. Bytes that are not UTF-8,
    text that is not JSON and an integer of more digits than Python converts
    raise a ValueError naming ``what`` and the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ValueError(f"{what} {path}: not valid JSON: {exc}") from None


def _object(value, what: str, path, entry: int | None = None) -> dict:
    """``value`` if it is a JSON object, else a ValueError naming the file
    and, for an element of a list, its index."""
    if not isinstance(value, dict):
        place = "expected a JSON object" if entry is None else f"entry {entry} must be an object"
        raise ValueError(f"{what} {path}: {place}, got {type(value).__name__}")
    return value


def _field(obj: dict, key: str, kinds, where: str, default=None):
    """``obj[key]`` checked against ``kinds``; ``default`` when the key is
    absent, or an error if the key is required. ``where`` names the file
    and the object in it."""
    if key not in obj:
        if default is None:
            raise ValueError(f"{where} lacks key {key!r}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"{where} key {key!r} must be {names}, got {type(value).__name__}")
    return value


def load_manifest(path) -> DatasetManifest:
    """Read a JSON manifest: {"name": ..., "entries": [{id, rgb_path,
    depth_path, depth_unit_scale, split}, ...]}. Relative paths resolve
    against the manifest's directory. Each rejected document raises a
    ValueError naming the manifest, a missing image a FileNotFoundError."""
    path = Path(path)
    doc = _object(_read_json(path, "manifest"), "manifest", path)
    raws = [_object(raw, "manifest", path, k) for k, raw in enumerate(
        _field(doc, "entries", (list,), f"manifest {path}: top level"))]
    entries = []
    try:  # so that the entries' and the manifest's own checks name the file too
        for k, raw in enumerate(raws):
            where = f"entry {k}"
            entries.append(DatasetEntry(
                id=str(_field(raw, "id", (str, int), where)),
                rgb_path=str(path.parent / _field(raw, "rgb_path", (str,), where)),
                depth_path=str(path.parent / _field(raw, "depth_path", (str,), where)),
                depth_unit_scale=_field(raw, "depth_unit_scale", (int, float), where, 1.0),
                split=_field(raw, "split", (str,), where, "test"),
            ))
        return DatasetManifest(_field(doc, "name", (str,), "top level", path.stem),
                               tuple(entries))
    except (OverflowError, ValueError) as exc:  # OverflowError: a unit scale beyond float range
        raise ValueError(f"manifest {path}: {exc}") from None


def load_configs(path) -> list[PipelineConfig]:
    """Read a JSON bench config: one object or a list of objects, each
    holding PipelineConfig fields. A method may be given by its short
    name ("image", "feature"). Errors name the file and the entry."""
    doc = _read_json(path, "config")
    configs = []
    for k, raw in enumerate(doc if isinstance(doc, list) else [doc]):
        raw = _object(raw, "config", path, k)
        method = raw.get("method", "bicubic")
        if isinstance(method, str):  # any other kind fails PipelineConfig's type check
            raw = dict(raw, method=_METHOD_ALIASES.get(method, method))
        try:  # an unknown key's TypeError names the key
            configs.append(PipelineConfig(**raw))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"config {path}: entry {k}: {exc}") from None
    return configs


def save_params(path, cfg: PipelineConfig, model) -> None:
    """Write ``model``, fitted under ``cfg``, as the parameter file that
    :func:`_model` reads back: the lambda for the image domain, or
    (lambdas, head) over :func:`default_bank` for the feature domain.

    Keys, sorted, in flat JSON text: ``method`` ("image" or "feature"),
    ``config_hash`` (``cfg``'s), and ``lambda``, or ``bank``, ``lambdas``,
    ``head_weights``, ``head_bias`` and ``head_gamma``. A bicubic ``cfg``,
    or a model that does not fit ``cfg.method``, raises before the file
    is opened.
    """
    if cfg.method == "image_domain":
        doc = {"method": "image", "lambda": float(model)}
    elif cfg.method == "feature_domain":
        lambdas, head = model
        doc = {"method": "feature", "bank": default_bank().name,
               "lambdas": np.asarray(lambdas, dtype=np.float64).tolist(),
               "head_weights": head.weights.tolist(),
               "head_bias": head.bias, "head_gamma": head.gamma}
    else:
        raise ValueError(f"method {cfg.method!r} has no parameter file")
    doc["config_hash"] = cfg.config_hash()
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def load_params(path) -> dict:
    """Read a parameter file written by :func:`save_params`. Bytes that are
    not UTF-8, invalid JSON, a document that is not an object and a
    missing or non-string 'method' key raise a ValueError naming the file."""
    params = _object(_read_json(path, "parameter file"), "parameter file", path)
    _field(params, "method", (str,), f"parameter file {path}")
    return params


# PipelineConfig field annotation -> accepted types. Numpy scalars pass;
# a bool passes only where the annotation is bool.
_FIELD_TYPES = {"str": str, "str | None": (str, type(None)), "float": numbers.Real,
                "int": numbers.Integral, "int | None": (numbers.Integral, type(None)),
                "bool": (bool, np.bool_)}


@dataclass(frozen=True)
class PipelineConfig:
    """One method configuration; hashes deterministically for the CSV.

    Each field must have its annotated type, where an int counts as a
    float and a bool counts only as a bool. Nothing is converted, so a
    config hashes the values it was given.
    """

    method: str = "bicubic"
    lam: float = 1.0
    params_path: str | None = None
    edge_mode: str = EdgeWeightConfig.mode
    tau_quantile: float = EdgeWeightConfig.tau_quantile
    steepness: float = EdgeWeightConfig.steepness
    symbol_mode: str = DEFAULT_SYMBOL_MODE
    scale: int | None = None
    crop_border: int = 0
    antialias: bool = True

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _FIELD_TYPES[f.type])
                    or isinstance(value, bool) and f.type != "bool"):
                raise ValueError(f"{f.name} must be {f.type}, got {type(value).__name__}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not (is_finite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if self.crop_border < 0:
            raise ValueError(f"crop_border must be >= 0, got {self.crop_border}")
        if self.symbol_mode not in SYMBOL_MODES:
            raise ValueError(f"symbol_mode must be one of {SYMBOL_MODES}, got {self.symbol_mode!r}")
        if self.scale is not None:
            check_scale(self.scale)
        # Validate edge fields eagerly.
        self.edge_config()

    def edge_config(self) -> EdgeWeightConfig:
        return EdgeWeightConfig(self.edge_mode, self.tau_quantile, self.steepness)

    def with_scale(self, s: int) -> "PipelineConfig":
        return self if self.scale == s else replace(self, scale=s)

    def config_hash(self) -> str:
        # numpy scalars hash as the Python values they hold
        values = {k: v.item() if isinstance(v, np.generic) else v
                  for k, v in asdict(self).items()}
        canonical = json.dumps(values, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()[:12]


@dataclass(frozen=True)
class BenchRecord:
    """One evaluation result; rmse is None when the entry failed.

    ``error`` holds the cause of a failed entry. It is not a CSV column.
    """

    dataset: str
    image_id: str
    scale: int
    method: str
    config_hash: str
    rmse: float | None
    runtime_ms: float
    error: str | None = None

    def __post_init__(self):
        if self.rmse is not None and not (np.isfinite(self.rmse) and self.rmse >= 0):
            raise ValueError(f"rmse must be finite and >= 0, got {self.rmse}")
        if not (np.isfinite(self.runtime_ms) and self.runtime_ms >= 0):
            raise ValueError(f"runtime_ms must be finite and >= 0, got {self.runtime_ms}")


def rmse(pred: np.ndarray, gt: np.ndarray, crop_border: int = 0) -> float:
    """Root-mean-square error of two depth grids over the border-cropped
    region, in their stored units. The bench multiplies it by the entry's
    unit scale to report metric units."""
    if pred.shape != gt.shape:
        raise ValueError(f"dimension mismatch: {pred.shape} vs {gt.shape}")
    b = _border(gt.shape, crop_border)
    M, N = gt.shape
    return _root_mean_square(pred[b : M - b, b : N - b] - gt[b : M - b, b : N - b])


def _border(shape, crop_border: int) -> int:
    """``crop_border`` as an int, checked to leave part of a grid of ``shape``."""
    b = int(crop_border)
    if b < 0 or 2 * b >= min(shape):
        raise ValueError(f"crop border {b} too large for {shape}")
    return b


def _root_mean_square(diff: np.ndarray) -> float:
    """sqrt(mean(diff^2)) of a C-contiguous grid, squared in place."""
    diff *= diff
    return float(np.sqrt(np.mean(diff)))


def _rmse_into(pred: np.ndarray, gt: np.ndarray, crop_border: int) -> float:
    """:func:`rmse` of a prediction of gt's shape, taken in pred's own
    buffer, which it overwrites. With a border, the cropped difference is
    packed row by row at the start of the buffer; row i lands before the
    first sample of source row i + b, so nothing is overwritten unread. The
    mean then sums a C-contiguous grid of the same shape and samples as
    rmse's fresh difference, so the result has its bits."""
    b = _border(gt.shape, crop_border)
    if b == 0:
        return _root_mean_square(np.subtract(pred, gt, out=pred))
    M, N = gt.shape
    diff = pred.reshape(-1)[: (M - 2 * b) * (N - 2 * b)].reshape(M - 2 * b, N - 2 * b)
    for i, row in enumerate(diff):
        np.subtract(pred[b + i, b : N - b], gt[b + i, b : N - b], out=row)
    return _root_mean_square(diff)


def _number(obj: dict, key: str, where: str, default=None, nonnegative: bool = False,
            length: int | None = None):
    """``obj[key]``, an int or float as a float, or with ``length`` a list
    of that many as a float64 vector. Each must be finite and, with
    ``nonnegative``, >= 0, else a ValueError naming the file and the key:
    json reads NaN, Infinity and integers too large for a float."""
    if length is None:
        values = [_field(obj, key, (int, float), where, default)]
    else:
        values = _field(obj, key, (list,), where)
        for value in values:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{where} key {key!r} must hold ints or floats, "
                                 f"got {type(value).__name__}")
        if len(values) != length:
            raise ValueError(f"{where} key {key!r} must hold {length} values, got {len(values)}")
    rule = "finite and >= 0" if nonnegative else "finite"
    try:
        floats = np.array(values, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{where} key {key!r} must be {rule}, "
                         f"got an integer too large for a float") from None
    for value in floats:
        if not (math.isfinite(value) and (value >= 0.0 or not nonnegative)):
            raise ValueError(f"{where} key {key!r} must be {rule}, got {value}")
    return float(floats[0]) if length is None else floats


def _model(cfg: PipelineConfig):
    """What ``cfg``'s method needs besides the grids, with its parameter
    file read and checked: None for bicubic, the lambda for the image
    domain, (bank, lambdas, head) for the feature domain. With no
    parameter file the lambda is ``cfg.lam``, and the feature domain
    passes channel 0 through, at lambda_c = e^0.1."""
    if cfg.method == "bicubic":
        return None
    params = None if cfg.params_path is None else load_params(cfg.params_path)
    where = f"parameter file {cfg.params_path}"
    if cfg.method == "image_domain":
        if params is None:
            return cfg.lam
        if params["method"] != "image":
            raise ValueError(f"{where} is not an image-domain fit")
        return _number(params, "lambda", where, nonnegative=True)
    bank = default_bank()
    if params is None:
        weights = np.zeros(len(bank))
        weights[0] = 1.0
        lambdas = np.full(len(bank), math.exp(INIT_LOG_LAMBDA))
        return bank, lambdas, ReconstructionHead(weights, 0.0)
    if params["method"] != "feature":
        raise ValueError(f"{where} is not a feature fit")
    fit_bank = _field(params, "bank", (str,), where)
    if fit_bank != bank.name:
        raise ValueError(f"{where} was fit with bank {fit_bank!r}, "
                         f"but the pipeline uses bank {bank.name!r}")
    lambdas = _number(params, "lambdas", where, nonnegative=True, length=len(bank))
    return bank, lambdas, ReconstructionHead(
        _number(params, "head_weights", where, length=len(bank)),
        _number(params, "head_bias", where),
        _number(params, "head_gamma", where, 0.0, nonnegative=True),
    )


def predict(up: np.ndarray, guide, cfg: PipelineConfig) -> np.ndarray:
    """Super-resolve an upsampled depth grid under one configuration.

    ``guide`` is the guide's luminance grid, as :func:`luminance` returns
    it; ``up`` must already have its dimensions. Returns the predicted
    depth grid, in ``up``'s units.
    """
    if up.shape != np.shape(guide):
        raise ValueError(f"depth {up.shape} does not match guide {np.shape(guide)}")
    if cfg.method == "bicubic":
        return up
    return _predict(as_image(up), as_image(guide), cfg, _model(cfg))


def _guide_side(guide: np.ndarray, edge_cfg: EdgeWeightConfig) -> np.ndarray:
    """The image-domain guide side lap(T) of a checked guide grid."""
    return _laplacian(_transfer_target(guide, edge_cfg))


def _predict(up: np.ndarray, guide, cfg: PipelineConfig, model, side=None,
             overwrite: bool = False) -> np.ndarray:
    """:func:`predict` of checked grids under ``cfg`` and its :func:`_model`.

    ``side`` is the image-domain guide side lap(T) of ``guide`` under
    cfg's edge config, built here when it is None. The bench builds it
    once per entry, cropped shape and edge config, and then may pass no
    guide: an image-domain prediction reads none but through its side.
    With ``overwrite`` the caller gives ``up`` up, and a feature-domain
    prediction transforms it in place; the other methods never write it.
    """
    if cfg.method == "bicubic":
        return up
    if cfg.method == "image_domain":
        lam = model
        if lam and side is None:  # lam = 0 reads no guide side
            side = _guide_side(guide, cfg.edge_config())
        symbol = symbol_for(up.shape, solve_stencil(cfg.symbol_mode)) if lam else None
        h = _solve(_rhs(up, side, lam), symbol, lam)
    else:
        bank, lambdas, head = model
        h = _spectral_predict(up, guide, bank, lambdas, head, cfg.edge_config(),
                              cfg.symbol_mode, overwrite)
    return np.maximum(h, 0.0, out=h)


def _load_entry(entry: DatasetEntry) -> tuple[np.ndarray, np.ndarray]:
    """Load and check one entry: its depth grid, in stored units, and its
    guide's luminance grid, of the same size."""
    guide = load_luminance(entry.rgb_path)
    depth = load_image(entry.depth_path)
    if guide is None:
        raise ValueError(f"rgb_path is not a color image: {entry.rgb_path}")
    if depth.ndim == 3:
        raise ValueError(f"depth_path is not a grayscale image: {entry.depth_path}")
    if depth.shape != guide.shape:
        raise ValueError(f"depth {depth.shape} and rgb {guide.shape} differ")
    return depth, guide


def _crop_and_degrade(depth: np.ndarray, s: int, antialias: bool) -> tuple[np.ndarray, np.ndarray]:
    """The grids (gt, up) of a loaded depth grid at a checked scale ``s``:
    the depth cropped bottom/right to a multiple of the scale, and its
    degraded-then-upsampled grid. Neither the crop nor the resamples
    rescan the grid, which the decoder has checked."""
    gt = _crop(depth, s)
    _, up = _degrade(gt, s, antialias)
    return gt, up


def _prepare(entry: DatasetEntry, s: int,
             antialias: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load, check, crop and degrade one entry: the grids (gt, up, guide),
    the guide's luminance cropped as the depth is."""
    depth, guide = _load_entry(entry)
    return (*_crop_and_degrade(depth, s, antialias), _crop(guide, s))


def _scale(cfg: PipelineConfig) -> int:
    """``cfg.scale``; a config with no scale raises a ValueError."""
    if cfg.scale is None:
        raise ValueError("config carries no scale; use cfg.with_scale(s)")
    return cfg.scale


def _cause(exc: Exception) -> str:
    """The text of a failure: its exception's type and message."""
    return f"{type(exc).__name__}: {exc}"


def _entry_error(entry: DatasetEntry, cause: str) -> str:
    """The error of a record of ``entry`` that failed with ``cause``."""
    return f"entry {entry.id!r}: {cause}"


def run_image(entry: DatasetEntry, cfg: PipelineConfig,
              dataset: str = "") -> tuple[np.ndarray, BenchRecord]:
    """Degrade one manifest entry, super-resolve it, and measure RMSE.

    The ground truth is cropped bottom/right to a multiple of the scale
    before degradation and the RMSE is evaluated on the cropped grid.
    Runtime covers the reconstruction only, not file I/O or degradation.
    A failure raises a RuntimeError naming the entry and the cause.
    """
    s = _scale(cfg)
    try:
        gt, up, guide = _prepare(entry, s, cfg.antialias)
        model = _model(cfg)
        t0 = time.perf_counter()
        pred = _predict(up, guide, cfg, model)
        runtime_ms = (time.perf_counter() - t0) * 1e3
        value = rmse(pred, gt, cfg.crop_border) * entry.depth_unit_scale
        return pred, BenchRecord(dataset, entry.id, s, cfg.method, cfg.config_hash(), value,
                                 runtime_ms)
    except Exception as exc:
        raise RuntimeError(_entry_error(entry, _cause(exc))) from exc


def _side_keys(guide: np.ndarray, grid) -> list[list]:
    """Per scale of ``grid``, the image-domain guide sides that its configs
    with lambda > 0 read, as (cropped shape, edge config) keys in canonical
    order. A scale the grid is too small for reads none; its crop fails its
    records."""
    keys = []
    for s, row in grid:
        try:
            shape = _crop(guide, s).shape
        except ValueError:
            shape = None
        keys.append(list(dict.fromkeys(
            (shape, cfg.edge_config()) for cfg, _, model, _ in row
            if shape and cfg.method == "image_domain" and model)))  # model: lambda > 0
    return keys


def _guide_sides(guide, keys, sides: dict) -> None:
    """Add to ``sides`` each of ``keys`` it lacks, built from one entry's
    luminance grid in order: key -> [lap(T), or the cause of its failed
    build, the ms its build took]."""
    for key in keys:
        if key not in sides:
            (M, N), edge_cfg = key
            t0 = time.perf_counter()
            try:
                side = _guide_side(guide[:M, :N], edge_cfg)
            except Exception as exc:
                side = _cause(exc)
            sides[key] = [side, (time.perf_counter() - t0) * 1e3]


def _record(entry: DatasetEntry, dataset: str, prepared, cfg: PipelineConfig, key: str, model,
            side, build_ms: float, last: bool) -> BenchRecord:
    """The bench record of one prepared entry, (gt, up, guide), under
    ``cfg``, whose hash is ``key``, and its :func:`_model`: ``side`` is its
    prebuilt image-domain guide side or None, and ``build_ms`` the build
    time it still has to count. ``last`` says no record scored later reads
    ``up``, so this one may write it: a feature prediction transforms it
    in place. The error is taken in the prediction's own buffer, which
    nothing keeps. A bicubic prediction is ``up`` itself, so its error
    takes a fresh grid unless the record is ``last``."""
    gt, up, guide = prepared
    t0 = time.perf_counter()
    pred = _predict(up, guide, cfg, model, side, last)
    runtime_ms = (time.perf_counter() - t0) * 1e3 + build_ms
    error = (rmse if pred is up and not last else _rmse_into)(pred, gt, cfg.crop_border)
    return BenchRecord(dataset, entry.id, cfg.scale, cfg.method, key,
                       error * entry.depth_unit_scale, runtime_ms)


def _entry_records(entry: DatasetEntry, dataset: str, grid) -> list[BenchRecord]:
    """Records of one entry at every scale and config of ``grid``, in
    canonical order; ``grid`` pairs each scale with one (scaled config,
    hash, :func:`_model`, cause the model could not be read) per config.

    The entry is loaded once. Each image-domain guide side is built at the
    first scale that reads it, before that scale's degrades
    (:func:`_guide_sides`), and dropped after the last; the luminance grid
    is dropped once the last side is built, unless a feature-domain config
    reads it. Each build's time counts toward the first record that reads
    it. A failed load fails every record, a failed crop those of its
    scale, an unreadable parameter file those of its config, and a failed
    guide side those that read it. Causes are kept as text: a kept
    exception's traceback would hold this task's grids. A scale's grids
    die before the next scale's are made, and each record's error is
    taken in its own prediction, so an image-domain entry at one cropped
    shape holds about four grids at once: depth, guide side, up and
    prediction; at three cropped shapes, five, the guide too while a
    later side is to be built. A scale is scored group by group, one per
    antialias value, each group's writer last (:func:`_scale_records`),
    so a [bicubic, feature] entry in either order, or with mixed antialias
    values, holds about seven grids, not eight.
    """
    try:
        depth, guide = _load_entry(entry)
    except Exception as exc:
        error = _entry_error(entry, _cause(exc))
        return [BenchRecord(dataset, entry.id, s, cfg.method, key, None, 0.0, error)
                for s, row in grid for cfg, key, *_ in row]
    keys = _side_keys(guide, grid)
    feature = any(cfg.method == "feature_domain" and cause is None
                  for _, row in grid for cfg, _, _, cause in row)
    sides, records = {}, []
    for k, (s, row) in enumerate(grid):
        later = {key for read in keys[k:] for key in read}
        sides = {key: built for key, built in sides.items() if key in later}
        _guide_sides(guide, keys[k], sides)
        if not feature and later <= sides.keys():  # no side is left to build
            guide = None
        records += _scale_records(entry, dataset, depth, guide, s, row, sides)
    return records


def _scale_records(entry: DatasetEntry, dataset: str, depth: np.ndarray, guide, s: int, row,
                   sides: dict) -> list[BenchRecord]:
    """:func:`_entry_records` at one scale ``s``, whose configs ``row``
    gives, from the loaded depth, the luminance grid or None, and the
    built guide sides. Each antialias group of ``row``, in order of first
    appearance, is scored in one pass over its grids (gt, up, guide),
    which die before the next group's are made. Its writer may write
    ``up`` (:func:`_record`): its last feature config whose parameter file
    was read, which takes dct(up) in up's buffer, else its last readable
    config. The writer is scored after the rest of its group, which keep
    canonical order, as the records do."""
    scored = {}  # config index -> its record
    for aa in dict.fromkeys(cfg.antialias for cfg, *_ in row):
        group = [k for k, (cfg, *_) in enumerate(row) if cfg.antialias == aa]
        readable = [k for k in group if row[k][3] is None]
        writer = ([k for k in readable if row[k][0].method == "feature_domain"]
                  or readable or [None])[-1]
        try:  # a group with nothing to score is only cropped: a crop failure outranks its errors
            prepared = _crop(depth, s) if writer is None else (
                *_crop_and_degrade(depth, s, aa), None if guide is None else _crop(guide, s))
        except Exception as exc:
            prepared = _cause(exc)
        for k in sorted(group, key=lambda k: k == writer):
            cfg, key, model, cause = row[k]
            if isinstance(prepared, str):
                cause = prepared
            side, build_ms = None, 0.0
            if cause is None and cfg.method == "image_domain" and model:
                built = sides[(prepared[0].shape, cfg.edge_config())]
                side, build_ms = built
                built[1] = 0.0
                if isinstance(side, str):
                    cause = side
            if cause is None:
                try:
                    scored[k] = _record(entry, dataset, prepared, cfg, key, model, side,
                                        build_ms, k == writer)
                    continue
                except Exception as exc:
                    cause = _cause(exc)
            scored[k] = BenchRecord(dataset, entry.id, s, cfg.method, key, None, 0.0,
                                    _entry_error(entry, cause))
        del prepared
    return [scored[k] for k in range(len(row))]


def run_bench(manifest: DatasetManifest, scales, configs, out_csv=None,
              threads: int | None = None, timing: bool = True) -> list[BenchRecord]:
    """Evaluate every (entry, scale, config) combination.

    Each entry is one task on a pool of ``threads`` workers (default:
    the logical core count), never more workers than entries; one worker
    runs every entry on the calling thread. A scale given twice, or two
    configs that are equal once scaled, raise a ValueError before anything
    is read, as their rows would repeat. Per-entry failures never abort
    the run; they become records with rmse None, written with an error
    marker, that keep the cause in ``error``. Detail records come first
    in canonical order, followed by one mean record per (scale, config)
    group. With ``timing`` off, runtimes are reported as 0 so repeated
    runs emit identical bytes.
    """
    scales = [check_scale(s) for s in scales]
    if not scales:
        raise ValueError("no scale factors given")
    for k, s in enumerate(scales):
        if s in scales[:k]:
            raise ValueError(f"scale {s} is given twice")
    configs = list(configs)
    if not configs:
        raise ValueError("no pipeline configs given")
    keys = [cfg.with_scale(scales[0]).config_hash() for cfg in configs]
    for k, key in enumerate(keys):
        if key in keys[:k]:
            raise ValueError(f"config {k} repeats config {keys.index(key)} [{key}]")
    workers = (os.cpu_count() or 1) if threads is None else int(threads)
    if workers < 1:
        raise ValueError(f"thread count must be >= 1, got {workers}")
    models = []  # per config, (its _model, None) or (None, why it could not be read)
    for cfg in configs:
        try:
            models.append((_model(cfg), None))
        except Exception as exc:
            models.append((None, _cause(exc)))
    grid = []
    for s in scales:
        scaled = [cfg.with_scale(s) for cfg in configs]
        grid.append((s, [(cfg, cfg.config_hash(), *m) for cfg, m in zip(scaled, models)]))

    entries = manifest.entries
    workers = min(workers, len(entries))
    run = lambda e: _entry_records(e, manifest.name, grid)
    if workers == 1:  # no pool thread, whose own malloc arena would grow the heap
        groups = list(map(run, entries))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(run, entries))
    records = [r for group in groups for r in group]
    if not timing:
        records = [replace(r, runtime_ms=0.0) for r in records]

    means = []
    for s, row in grid:
        for cfg, key, *_ in row:
            ok = [r for r in records
                  if r.scale == s and r.config_hash == key and r.rmse is not None]
            means.append(BenchRecord(manifest.name, MEAN_ROW_ID, s, cfg.method, key,
                                     float(np.mean([r.rmse for r in ok])) if ok else None,
                                     float(np.mean([r.runtime_ms for r in ok])) if ok else 0.0))
    records += means
    if out_csv is not None:
        write_csv(records, out_csv)
    return records


def _fmt_float(x: float) -> str:
    return repr(float(x))  # shortest round-trip decimal, deterministic


def write_csv(records, path) -> None:
    lines = [CSV_HEADER]
    for r in records:
        value = ERROR_MARKER if r.rmse is None else _fmt_float(r.rmse)
        lines.append(
            f"{r.dataset},{r.image_id},{r.scale},{r.method},"
            f"{r.config_hash},{value},{r.runtime_ms:.3f}"
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _train_grids(manifest: DatasetManifest, cfg: PipelineConfig):
    """Yield each train entry of ``manifest`` (all, if none is) with its
    grids (gt, up, guide) at ``cfg.scale``, which must be set. A ValueError
    from an entry's load, crop or degrade is raised again, naming it."""
    s = _scale(cfg)
    for entry in manifest.split("train") or manifest.entries:
        try:
            grids = _prepare(entry, s, cfg.antialias)
        except ValueError as exc:
            raise ValueError(_entry_error(entry, _cause(exc))) from exc
        yield entry, grids


def fit_image_lambda(manifest: DatasetManifest, cfg: PipelineConfig,
                     grid_points: int = GRID_POINTS) -> float:
    """Fit the single image-domain lambda on the train split at ``cfg.scale``.

    Same derivative-free search as the channel fit (log-grid bracket plus
    golden-section refinement, accept only strict improvements from the
    e^0.1 start), with lambda = 0 included among the candidates so the
    fitted value can never lose to the unguided baseline on the fitting
    set. The objective is the pooled RMSE of the fixed-head prediction,
    evaluated on DCT coefficients (Parseval): each entry is transformed
    once, and every lambda costs one per-frequency division, taken in two
    work grids per distinct shape that every evaluation reuses.
    """
    _check_search(grid_points)
    edge_cfg = cfg.edge_config()
    prepared, shaped = [], {}  # shape -> its two symbols and two work grids
    for entry, (gt, up, guide) in _train_grids(manifest, cfg):
        target = _transfer_target(guide, edge_cfg)
        if gt.shape not in shaped:
            shaped[gt.shape] = (symbol_for(gt.shape),
                                symbol_for(gt.shape, solve_stencil(cfg.symbol_mode)),
                                np.empty((2, *gt.shape)))
        prepared.append((dct2_forward(up), dct2_forward(target), dct2_forward(gt),
                         entry.depth_unit_scale**2, *shaped[gt.shape]))
    n_pixels = sum(y_hat.size for _, _, y_hat, *_ in prepared)

    def objective(lam: float) -> float:
        sse = 0.0
        for u_hat, t_hat, y_hat, unit_sq, lap_symbol, mode_symbol, (out, work) in prepared:
            resid = _solved_coeffs(1.0, u_hat, t_hat, lap_symbol, mode_symbol, lam, out, work)
            resid -= y_hat
            resid *= resid
            sse += float(np.sum(resid)) * unit_sq
        return math.sqrt(sse / n_pixels)

    best_lam = math.exp(INIT_LOG_LAMBDA)
    best = objective(best_lam)
    v_star, f_star = _search_log_lambda(lambda v: objective(math.exp(v)), grid_points)
    candidates = [(math.exp(v_star), f_star), (0.0, objective(0.0))]
    for lam, val in candidates:
        if val < best:
            best_lam, best = lam, val
    return best_lam


def fit_feature_params(manifest: DatasetManifest, cfg: PipelineConfig,
                       head_gamma: float = HEAD_GAMMA, grid_points: int = GRID_POINTS,
                       sweeps: int = SWEEPS, fit_lambdas: bool = True):
    """Fit channel lambdas and/or the head on the train split at ``cfg.scale``.

    Returns (lambdas, head, rmse_trace); the head solves the lambda
    search's own normal equations. With ``fit_lambdas`` off, the lambdas
    stay at the e^0.1 start and the trace is empty. The bank is
    :func:`default_bank`, the one prediction uses.
    """
    _check_search(grid_points, sweeps)
    _check_gamma(head_gamma)
    bank = default_bank()
    edge_cfg = cfg.edge_config()

    def triples():
        # passed as a temporary, so the grids die once the objective holds
        # their coefficients, before the lambda search
        return [(up, guide, gt) for _, (gt, up, guide) in _train_grids(manifest, cfg)]

    if fit_lambdas:
        (lambdas, head), trace = fit_lambda(triples(), bank, edge_cfg, head_gamma, grid_points,
                                            sweeps, cfg.symbol_mode)
        return lambdas, head, trace
    obj = _LambdaObjective(triples(), bank, edge_cfg, head_gamma, cfg.symbol_mode)
    return obj.lambdas, obj.head(), []
