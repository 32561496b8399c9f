"""Benchmark harness: manifests, pipeline orchestration, RMSE, CSV tables.

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
    FilterBank,
    ReconstructionHead,
    default_bank,
    fit_lambda,
    load_params,
    spectral_predict,
    INIT_LOG_LAMBDA,
    _LambdaObjective,
    _check_grid_points,
    _search_log_lambda,
    _solved_coeffs,
)
from .guidance import EdgeWeightConfig, luminance, transfer_target
from .imgio import load_image
from .resample import check_scale, crop_to_multiple, degrade
from .spectral import SYMBOL_MODES, build_rhs, solve_screened, symbol_for

__all__ = [
    "DatasetEntry",
    "DatasetManifest",
    "load_manifest",
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

_METHODS = ("bicubic", "image_domain", "feature_domain")
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


def _manifest_field(obj: dict, key: str, kinds, where: str, path, default=None):
    """``obj[key]`` checked against ``kinds``; ``default`` when the key is
    absent, or an error naming the manifest if the key is required."""
    if key not in obj:
        if default is None:
            raise ValueError(f"manifest {path}: {where} lacks key {key!r}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"manifest {path}: {where} key {key!r} must be {names}, "
                         f"got {type(value).__name__}")
    return value


def load_manifest(path) -> DatasetManifest:
    """Read a JSON manifest: {"name": ..., "entries": [{id, rgb_path,
    depth_path, depth_unit_scale, split}, ...]}. Relative paths resolve
    against the manifest's directory. A missing key or a value of the
    wrong type raises a ValueError naming the manifest."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"manifest {path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"manifest {path}: expected a JSON object, got {type(doc).__name__}")
    base = path.parent
    entries = []
    for k, raw in enumerate(_manifest_field(doc, "entries", (list,), "top level", path)):
        where = f"entry {k}"
        if not isinstance(raw, dict):
            raise ValueError(f"manifest {path}: {where} must be an object, "
                             f"got {type(raw).__name__}")
        entries.append(DatasetEntry(
            id=str(_manifest_field(raw, "id", (str, int), where, path)),
            rgb_path=str(base / _manifest_field(raw, "rgb_path", (str,), where, path)),
            depth_path=str(base / _manifest_field(raw, "depth_path", (str,), where, path)),
            depth_unit_scale=float(_manifest_field(raw, "depth_unit_scale", (int, float),
                                                   where, path, 1.0)),
            split=_manifest_field(raw, "split", (str,), where, path, "test"),
        ))
    name = _manifest_field(doc, "name", (str,), "top level", path, path.stem)
    return DatasetManifest(name, tuple(entries))


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
    edge_mode: str = "hard"
    tau_quantile: float = 0.9
    steepness: float = 50.0
    symbol_mode: str = "derived"
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
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
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
        if self.scale == s:
            return self
        d = asdict(self)
        d["scale"] = s
        return PipelineConfig(**d)

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
    b = int(crop_border)
    M, N = gt.shape
    if b < 0 or 2 * b >= min(M, N):
        raise ValueError(f"crop border {b} too large for {gt.shape}")
    diff = pred[b : M - b, b : N - b] - gt[b : M - b, b : N - b]
    diff *= diff  # in place: no second cropped-grid temporary
    return float(np.sqrt(np.mean(diff)))


def _load_feature_params(cfg: PipelineConfig, bank: FilterBank):
    """Fitted lambdas and head for the feature pipeline, or passthrough
    defaults (lambda_c = e^0.1, head = channel 0 verbatim) when no
    parameter file is configured."""
    if cfg.params_path is not None:
        params = load_params(cfg.params_path)
        if params.get("method") != "feature":
            raise ValueError(f"parameter file {cfg.params_path} is not a feature fit")
        if params.get("bank") != bank.name:
            raise ValueError(
                f"parameter file {cfg.params_path} was fit with bank "
                f"{params.get('bank')!r}, but the pipeline uses bank {bank.name!r}"
            )
        lambdas = np.asarray(_param(params, "lambdas", cfg), dtype=np.float64)
        head = ReconstructionHead(
            np.asarray(_param(params, "head_weights", cfg), dtype=np.float64),
            float(_param(params, "head_bias", cfg)),
            float(params.get("head_gamma", 0.0)),
        )
        return lambdas, head
    weights = np.zeros(len(bank))
    weights[0] = 1.0
    return np.full(len(bank), math.exp(INIT_LOG_LAMBDA)), ReconstructionHead(weights, 0.0)


def _image_lambda(cfg: PipelineConfig) -> float:
    if cfg.params_path is not None:
        params = load_params(cfg.params_path)
        if params.get("method") != "image":
            raise ValueError(f"parameter file {cfg.params_path} is not an image-domain fit")
        return float(_param(params, "lambda", cfg))
    return cfg.lam


def _param(params: dict, key: str, cfg: PipelineConfig):
    """``params[key]``, or an error naming the parameter file and the key."""
    if key not in params:
        raise ValueError(f"parameter file {cfg.params_path} lacks key {key!r}")
    return params[key]


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
    edge_cfg = cfg.edge_config()
    if cfg.method == "image_domain":
        lam = _image_lambda(cfg)
        e = build_rhs(up, transfer_target(guide, edge_cfg), lam)
        h = solve_screened(e, lam, symbol_for(cfg.symbol_mode, up.shape))
    else:
        bank = default_bank()
        lambdas, head = _load_feature_params(cfg, bank)
        h = spectral_predict(up, guide, bank, lambdas, head, edge_cfg, cfg.symbol_mode)
    return np.maximum(h, 0.0)


def _load_entry(entry: DatasetEntry) -> tuple[np.ndarray, np.ndarray]:
    """Load and check one entry: its depth grid, in stored units, and its
    guide's luminance grid, of the same size."""
    rgb = load_image(entry.rgb_path)
    depth = load_image(entry.depth_path)
    if rgb.ndim != 3:
        raise ValueError(f"rgb_path is not a color image: {entry.rgb_path}")
    if depth.ndim == 3:
        raise ValueError(f"depth_path is not a grayscale image: {entry.depth_path}")
    if depth.shape != rgb.shape[:2]:
        raise ValueError(f"depth {depth.shape} and rgb {rgb.shape[:2]} differ")
    return depth, luminance(rgb)


def _crop_and_degrade(depth: np.ndarray, guide: np.ndarray, s: int,
                      antialias: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grids (gt, up, guide) of one loaded entry at scale ``s``: depth
    and luminance cropped bottom/right to a multiple of the scale, and the
    degraded-then-upsampled depth on that grid."""
    gt = crop_to_multiple(depth, s)
    _, up = degrade(gt, s, antialias)
    return gt, up, crop_to_multiple(guide, s)


def _prepare(entry: DatasetEntry, s: int,
             antialias: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load, check, crop and degrade one entry: the grids (gt, up, guide)."""
    return _crop_and_degrade(*_load_entry(entry), s, antialias)


def _entry_error(entry: DatasetEntry, exc: Exception) -> RuntimeError:
    return RuntimeError(f"entry {entry.id!r}: {type(exc).__name__}: {exc}")


def _evaluate(entry: DatasetEntry, prepared, cfg: PipelineConfig,
              dataset: str) -> tuple[np.ndarray, BenchRecord]:
    """Super-resolve one prepared entry under ``cfg`` and score it in
    metric units."""
    gt, up, guide = prepared
    try:
        t0 = time.perf_counter()
        pred = predict(up, guide, cfg)
        runtime_ms = (time.perf_counter() - t0) * 1e3
        value = rmse(pred, gt, cfg.crop_border) * entry.depth_unit_scale
    except Exception as exc:
        raise _entry_error(entry, exc) from exc
    rec = BenchRecord(dataset, entry.id, cfg.scale, cfg.method, cfg.config_hash(), value,
                      runtime_ms)
    return pred, rec


def run_image(entry: DatasetEntry, cfg: PipelineConfig,
              dataset: str = "") -> tuple[np.ndarray, BenchRecord]:
    """Degrade one manifest entry, super-resolve it, and measure RMSE.

    The ground truth is cropped bottom/right to a multiple of the scale
    before degradation and the RMSE is evaluated on the cropped grid.
    Runtime covers the reconstruction only, not file I/O or degradation.
    """
    if cfg.scale is None:
        raise ValueError("config carries no scale; use cfg.with_scale(s)")
    try:
        prepared = _prepare(entry, cfg.scale, cfg.antialias)
    except Exception as exc:
        raise _entry_error(entry, exc) from exc
    return _evaluate(entry, prepared, cfg, dataset)


def _worker_count(threads: int | None) -> int:
    if threads is not None:
        n = int(threads)
    else:
        env = os.environ.get("GDSR_THREADS", "")
        n = int(env) if env else (os.cpu_count() or 1)
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    return n


def run_bench(manifest: DatasetManifest, scales, configs, out_csv=None,
              threads: int | None = None, timing: bool = True) -> list[BenchRecord]:
    """Evaluate every (entry, scale, config) combination.

    Per-entry failures never abort the run; they become records with
    rmse None, written with an error marker, that keep the cause in
    ``error``. Detail records come first in canonical order, followed
    by one mean record per (scale, config) group. With ``timing`` off,
    runtimes are reported as 0 so repeated runs emit identical bytes.
    """
    scales = [check_scale(s) for s in scales]
    configs = list(configs)
    if not configs:
        raise ValueError("no pipeline configs given")
    settings = dict.fromkeys(cfg.antialias for cfg in configs)

    def one(entry):
        """Records of every scale and config on one entry, in canonical order.

        The entry is loaded once, then cropped and degraded once per
        (scale, antialias). A failed step fails every record that needs
        it, with its cause: a failed load fails the whole entry, a failed
        crop only that scale.
        """
        try:
            loaded = _load_entry(entry)
        except Exception as exc:
            loaded = _entry_error(entry, exc)
        return [r for s in scales for r in scale_records(entry, loaded, s)]

    def scale_records(entry, loaded, s):
        """Records of every config at one scale; its grids die on return."""
        prepared = {}  # antialias -> (gt, up, guide), or the error preparing raised
        for antialias in settings:
            if isinstance(loaded, Exception):
                prepared[antialias] = loaded
                continue
            try:
                prepared[antialias] = _crop_and_degrade(*loaded, s, antialias)
            except Exception as exc:
                prepared[antialias] = _entry_error(entry, exc)
        records = []
        for cfg in configs:
            cfg = cfg.with_scale(s)
            inputs = prepared[cfg.antialias]
            try:
                if isinstance(inputs, Exception):
                    raise inputs
                records.append(_evaluate(entry, inputs, cfg, manifest.name)[1])
            except Exception as exc:
                records.append(BenchRecord(manifest.name, entry.id, s, cfg.method,
                                           cfg.config_hash(), None, 0.0, str(exc)))
        return records

    entries = manifest.entries
    workers = min(_worker_count(threads), len(entries))
    if workers == 1:
        groups = [one(e) for e in entries]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            groups = list(pool.map(one, entries))
    records = [r for group in groups for r in group]

    if not timing:
        records = [replace(r, runtime_ms=0.0) for r in records]

    aggregates = []
    for s in scales:
        for cfg in configs:
            eff = cfg.with_scale(s)
            group = [r for r in records
                     if r.scale == s and r.config_hash == eff.config_hash()]
            ok = [r for r in group if r.rmse is not None]
            mean_rmse = float(np.mean([r.rmse for r in ok])) if ok else None
            mean_rt = float(np.mean([r.runtime_ms for r in ok])) if ok else 0.0
            aggregates.append(BenchRecord(manifest.name, MEAN_ROW_ID, s, eff.method,
                                          eff.config_hash(), mean_rmse, mean_rt))
    records = records + aggregates
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


def fit_image_lambda(manifest: DatasetManifest, cfg: PipelineConfig, s: int,
                     grid_points: int = 17) -> float:
    """Fit the single image-domain lambda on the manifest's train split.

    Same derivative-free search as the channel fit (log-grid bracket plus
    golden-section refinement, accept only strict improvements from the
    e^0.1 start), with lambda = 0 included among the candidates so the
    fitted value can never lose to the unguided baseline on the fitting
    set. The objective is the pooled RMSE of the fixed-head prediction,
    evaluated on DCT coefficients (Parseval): each entry is transformed
    once, and every lambda costs one per-frequency division.
    """
    s = check_scale(s)
    _check_grid_points(grid_points)
    edge_cfg = cfg.edge_config()
    prepared = []
    for entry in manifest.split("train") or manifest.entries:
        gt, up, guide = _prepare(entry, s, cfg.antialias)
        target = transfer_target(guide, edge_cfg)
        symbol = symbol_for(cfg.symbol_mode, gt.shape)
        prepared.append((dct2_forward(up), dct2_forward(target),
                         symbol_for("derived", gt.shape), symbol * symbol,
                         dct2_forward(gt), entry.depth_unit_scale**2))
    n_pixels = sum(y_hat.size for *_, y_hat, _ in prepared)

    def objective(lam: float) -> float:
        sse = 0.0
        for u_hat, t_hat, lap_symbol, sym_sq, y_hat, unit_sq in prepared:
            resid = _solved_coeffs(u_hat, t_hat, lap_symbol, sym_sq, lam) - y_hat
            sse += float(np.sum(resid * resid)) * unit_sq
        return math.sqrt(sse / n_pixels)

    best_lam = math.exp(INIT_LOG_LAMBDA)
    best = objective(best_lam)
    v_star, f_star = _search_log_lambda(lambda v: objective(math.exp(v)), grid_points)
    candidates = [(math.exp(v_star), f_star), (0.0, objective(0.0))]
    for lam, val in candidates:
        if val < best:
            best_lam, best = lam, val
    return best_lam


def fit_feature_params(manifest: DatasetManifest, cfg: PipelineConfig, s: int,
                       head_gamma: float = 1e-6, grid_points: int = 9,
                       sweeps: int = 2, fit_lambdas: bool = True):
    """Fit channel lambdas and/or the reconstruction head on the train split.

    Returns (lambdas, head, rmse_trace); the head solves the lambda
    search's own normal equations. With ``fit_lambdas`` off, the lambdas
    stay at the e^0.1 start and the trace is empty. The bank is
    :func:`default_bank`, the one prediction uses.
    """
    s = check_scale(s)
    bank = default_bank()
    edge_cfg = cfg.edge_config()
    triples = []
    for entry in manifest.split("train") or manifest.entries:
        gt, up, guide = _prepare(entry, s, cfg.antialias)
        triples.append((up, guide, gt))

    if fit_lambdas:
        (lambdas, head), trace = fit_lambda(triples, bank, edge_cfg, head_gamma, grid_points,
                                            sweeps, cfg.symbol_mode)
        return lambdas, head, trace
    obj = _LambdaObjective(triples, bank, edge_cfg, head_gamma, cfg.symbol_mode)
    return obj.lambdas, obj.head(), []
