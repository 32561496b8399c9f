import dataclasses
import json
import math
import re
import threading
import time
import tracemalloc
import weakref
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gdsr import bench, cli, dct, feature_bank, filters, guidance, image_core, resample, spectral
from gdsr.bench import (
    BenchRecord,
    DatasetEntry,
    DatasetManifest,
    PipelineConfig,
    fit_feature_params,
    fit_image_lambda,
    load_configs,
    load_manifest,
    predict,
    rmse,
    run_bench,
    run_image,
    save_params,
    write_csv,
    CSV_HEADER,
    MEAN_ROW_ID,
    ERROR_MARKER,
)
from gdsr.feature_bank import INIT_LOG_LAMBDA, ReconstructionHead, default_bank, spectral_predict
from gdsr.guidance import EdgeWeightConfig, luminance
from gdsr.imgio import load_image, load_luminance, save_image
from gdsr.resample import degrade

from oracles import pixel_head
from scenes import make_scene, write_scene_files


def build_manifest(tmp_path, n=2, seed=90, M=64, N=64, name="synth"):
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n):
        gt, rgb = make_scene(rng, M, N, n_shapes=3)
        entries.append(write_scene_files(tmp_path, f"img{i:02d}", gt, rgb))
    doc = {"name": name, "entries": entries}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    return load_manifest(path)


def test_rmse_basics():
    gt = np.zeros((2, 2))
    assert rmse(gt, gt) == 0.0
    pred = np.full((2, 2), 2.0)
    assert rmse(pred, gt) == 2.0
    spike = np.array([[3.0, 0.0], [0.0, 0.0]])
    assert rmse(spike, gt) == 1.5  # sqrt(9/4)


def test_rmse_units_and_border():
    gt = np.zeros((6, 6))
    pred = np.zeros((6, 6))
    pred[0, 0] = 1.0
    full = rmse(pred, gt)
    assert abs(full - np.sqrt(1 / 36)) < 1e-12  # stored units
    assert rmse(pred, gt, crop_border=1) == 0.0  # corner excluded
    with pytest.raises(ValueError, match="border"):
        rmse(pred, gt, crop_border=3)


def test_bench_rmse_applies_the_entry_unit_scale(tmp_path):
    # one scene listed twice, in stored units and at 100 units per stored unit
    gt, rgb = make_scene(np.random.default_rng(94), 64, 64, n_shapes=3)
    entry = write_scene_files(tmp_path, "s", gt, rgb)
    entries = [dict(entry, id="x1"), dict(entry, id="x100", depth_unit_scale=100)]
    manifest = load_manifest(_write_manifest(tmp_path, {"name": "u", "entries": entries}))
    assert [e.depth_unit_scale for e in manifest.entries] == [1.0, 100.0]
    configs = [PipelineConfig(method="bicubic"), PipelineConfig(method="image_domain")]
    records = run_bench(manifest, [4], configs, threads=1, timing=False)
    by_id = {(r.image_id, r.method): r.rmse for r in records}
    gt_c, _, _ = bench._prepare(manifest.entries[0], 4, True)
    for cfg in configs:
        pred, _ = run_image(manifest.entries[0], cfg.with_scale(4), "u")
        stored = rmse(pred, gt_c)
        assert by_id["x1", cfg.method] == stored
        assert by_id["x100", cfg.method] == stored * 100.0


def test_manifest_validation(tmp_path):
    manifest = build_manifest(tmp_path)
    assert len(manifest.entries) == 2
    assert manifest.split("train") == manifest.entries
    with pytest.raises(FileNotFoundError):
        DatasetManifest("x", (DatasetEntry("a", "missing.ppm", "missing.pgm"),))
    e = manifest.entries[0]
    with pytest.raises(ValueError, match="unique"):
        DatasetManifest("x", (e, e))
    with pytest.raises(ValueError, match="split"):
        DatasetEntry("a", e.rgb_path, e.depth_path, split="holdout")


@pytest.mark.parametrize("bad", ["a,b", "a\nb", "a\rb"])
def test_manifest_rejects_csv_breaking_names(tmp_path, bad):
    e = build_manifest(tmp_path, n=1).entries[0]
    with pytest.raises(ValueError, match=re.escape(f"id {bad!r}")):
        DatasetManifest("synth", (dataclasses.replace(e, id=bad),))
    with pytest.raises(ValueError, match=re.escape(f"dataset name {bad!r}")):
        DatasetManifest(bad, (e,))


def test_config_hash_deterministic_and_sensitive():
    a = PipelineConfig(method="image_domain", lam=2.0, scale=4)
    b = PipelineConfig(method="image_domain", lam=2.0, scale=4)
    c = PipelineConfig(method="image_domain", lam=2.5, scale=4)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert a.with_scale(8).config_hash() != a.config_hash()
    with pytest.raises(ValueError):
        PipelineConfig(method="magic")


def test_run_image_constant_depth_is_exact(tmp_path):
    from gdsr.imgio import save_image

    depth = np.full((32, 32), 0.5)
    save_image(depth, tmp_path / "d.pgm", "pgm16")
    save_image(np.full((32, 32, 3), 0.25), tmp_path / "r.ppm", "ppm8")
    entry = DatasetEntry("const", str(tmp_path / "r.ppm"), str(tmp_path / "d.pgm"))
    for method in ("bicubic", "image_domain", "feature_domain"):
        cfg = PipelineConfig(method=method, lam=1.0, scale=4)
        _, rec = run_image(entry, cfg, "t")
        assert rec.rmse <= 1e-12  # zero at double precision


def test_image_domain_lambda_zero_equals_bicubic(tmp_path):
    manifest = build_manifest(tmp_path)
    entry = manifest.entries[0]
    pred_b, rec_b = run_image(entry, PipelineConfig(method="bicubic", scale=4), "t")
    pred_i, rec_i = run_image(entry, PipelineConfig(method="image_domain", lam=0.0, scale=4), "t")
    assert np.array_equal(pred_b, pred_i)
    assert rec_b.rmse == rec_i.rmse


def test_feature_identity_params_reduce_to_image_domain(tmp_path):
    # a fitted-parameter file pinning lambda_0 to the image-domain lambda
    # and a passthrough head makes the C=1 slice of the feature pipeline
    # coincide with the image-domain pipeline
    manifest = build_manifest(tmp_path, n=1)
    entry = manifest.entries[0]
    lam = 1.3
    params = tmp_path / "p.json"
    cfg_f = PipelineConfig(method="feature_domain", params_path=str(params), scale=4)
    save_params(params, cfg_f, ([lam] + [0.0] * 7, ReconstructionHead([1.0] + [0.0] * 7, 0.0)))
    cfg_i = PipelineConfig(method="image_domain", lam=lam, scale=4)
    pred_f, rec_f = run_image(entry, cfg_f, "t")
    pred_i, rec_i = run_image(entry, cfg_i, "t")
    assert np.abs(pred_f - pred_i).max() < 1e-10
    assert abs(rec_f.rmse - rec_i.rmse) < 1e-10


def test_feature_params_bank_must_match(tmp_path):
    params = tmp_path / "p.json"
    params.write_text(json.dumps({
        "method": "feature",
        "bank": "id1",
        "lambdas": [1.0] * 8,
        "head_weights": [1.0] + [0.0] * 7,
        "head_bias": 0.0,
        "head_gamma": 0.0,
        "config_hash": "manual",
    }))
    gt, rgb = make_scene(np.random.default_rng(92), 16, 16)
    cfg = PipelineConfig(method="feature_domain", params_path=str(params))
    with pytest.raises(ValueError, match="bank 'id1'.*bank 'default8'"):
        predict(gt, luminance(rgb), cfg)


_FEATURE_PARAMS = {"method": "feature", "bank": "default8", "lambdas": [1.0] * 8,
                   "head_weights": [1.0] + [0.0] * 7, "head_bias": 0.0}


@pytest.mark.parametrize("method, text, cause", [
    ("feature_domain", '{"method": "feature"', "not valid JSON"),
    ("feature_domain", '[{"method": "feature"}]', "expected a JSON object, got list"),
    ("feature_domain", json.dumps({k: v for k, v in _FEATURE_PARAMS.items()
                                   if k != "lambdas"}), "lacks key 'lambdas'"),
    ("feature_domain", json.dumps({k: v for k, v in _FEATURE_PARAMS.items()
                                   if k != "head_bias"}), "lacks key 'head_bias'"),
    ("image_domain", '{"method": "image"}', "lacks key 'lambda'"),
    ("feature_domain", b'{"method": "feature", "bank": "d\xe9fault8"}', "not valid JSON"),
    ("image_domain", '{"method": "image", "lambda": "20"}',
     "key 'lambda' must be int or float, got str"),
    ("image_domain", '{"method": "image", "lambda": -1}',
     "key 'lambda' must be finite and >= 0, got -1.0"),
    ("feature_domain", json.dumps(dict(_FEATURE_PARAMS, lambdas=["x"] + [1.0] * 7)),
     "key 'lambdas' must hold ints or floats, got str"),
    ("feature_domain", json.dumps(dict(_FEATURE_PARAMS, lambdas=[1.0] * 3)),
     "key 'lambdas' must hold 8 values, got 3"),
    ("feature_domain", json.dumps(dict(_FEATURE_PARAMS, head_weights=[True] + [0.0] * 7)),
     "key 'head_weights' must hold ints or floats, got bool"),
    ("feature_domain", json.dumps(dict(_FEATURE_PARAMS, lambdas=[1.0] * 7 + [math.nan])),
     "key 'lambdas' must be finite and >= 0, got nan"),
    ("feature_domain", json.dumps(dict(_FEATURE_PARAMS, lambdas=[1.0, -0.5] + [1.0] * 6)),
     "key 'lambdas' must be finite and >= 0, got -0.5"),
    ("feature_domain", json.dumps(dict(_FEATURE_PARAMS, head_weights=[1, -math.inf] + [0] * 6)),
     "key 'head_weights' must be finite, got -inf"),
    ("feature_domain", json.dumps(dict(_FEATURE_PARAMS, head_bias=math.nan)),
     "key 'head_bias' must be finite, got nan"),
    ("feature_domain", json.dumps(dict(_FEATURE_PARAMS, head_gamma=-1)),
     "key 'head_gamma' must be finite and >= 0, got -1.0"),
    ("image_domain", '{"method": "image", "lambda": 1%s}' % ("0" * 399),
     "key 'lambda' must be finite and >= 0, got an integer too large for a float"),
    ("feature_domain", json.dumps(dict(_FEATURE_PARAMS, head_bias=-10**399)),
     "key 'head_bias' must be finite, got an integer too large for a float"),
    ("feature_domain", json.dumps(dict(_FEATURE_PARAMS, lambdas=[1.0] * 7 + [10**399])),
     "key 'lambdas' must be finite and >= 0, got an integer too large for a float"),
    ("image_domain", '{"method": "image", "lambda": 1%s}' % ("0" * 5000), "not valid JSON"),
], ids=["invalid-json", "list", "no-lambdas", "no-head-bias", "no-lambda", "non-utf8",
        "lambda-str", "lambda-negative", "lambdas-str", "lambdas-short", "head-weights-bool",
        "lambdas-nan", "lambdas-negative", "head-weights-inf", "head-bias-nan",
        "head-gamma-negative", "lambda-huge", "head-bias-huge", "lambdas-huge",
        "lambda-too-many-digits"])
def test_params_file_errors_name_the_file_and_key(tmp_path, method, text, cause):
    manifest = build_manifest(tmp_path, n=1)
    params = tmp_path / "bad.params.json"
    params.write_bytes(text if isinstance(text, bytes) else text.encode())
    cfg = PipelineConfig(method=method, params_path=str(params))
    records = run_bench(manifest, [8], [cfg], threads=1, timing=False)
    assert records[0].rmse is None
    assert f"parameter file {params}" in records[0].error
    assert cause in records[0].error


_EDGE_FLOATS = [0.0, -0.0, 5e-324, 1.7976931348623157e308]
_NONNEGATIVE = st.sampled_from(_EDGE_FLOATS) | st.floats(min_value=0.0, allow_infinity=False)
_FINITE = _NONNEGATIVE | st.floats(allow_nan=False, allow_infinity=False)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(lam=_NONNEGATIVE, lambdas=st.lists(_NONNEGATIVE, min_size=8, max_size=8),
       weights=st.lists(_FINITE, min_size=8, max_size=8), bias=_FINITE, gamma=_NONNEGATIVE)
@example(lam=-0.0, lambdas=_EDGE_FLOATS * 2, weights=[-w for w in _EDGE_FLOATS] * 2,
         bias=-0.0, gamma=5e-324)
@example(lam=1.7976931348623157e308, lambdas=_EDGE_FLOATS[::-1] * 2, weights=_EDGE_FLOATS * 2,
         bias=-1.7976931348623157e308, gamma=1.7976931348623157e308)
def test_save_params_is_the_inverse_of_model(tmp_path_factory, lam, lambdas, weights, bias,
                                             gamma):
    path = str(tmp_path_factory.mktemp("params") / "p.json")
    image = PipelineConfig(method="image_domain")
    save_params(path, image, lam)
    assert np.array_equal(_bits(bench._model(dataclasses.replace(image, params_path=path))),
                          _bits(lam))
    feature = PipelineConfig(method="feature_domain")
    save_params(path, feature, (lambdas, ReconstructionHead(weights, bias, gamma)))
    bank, got, head = bench._model(dataclasses.replace(feature, params_path=path))
    assert bank.name == default_bank().name
    assert np.array_equal(_bits(got), _bits(lambdas))
    assert np.array_equal(_bits(head.weights), _bits(weights))
    assert np.array_equal(_bits([head.bias, head.gamma]), _bits([bias, gamma]))


@pytest.mark.parametrize("method, model, error", [
    ("bicubic", 1.0, ValueError),
    ("image_domain", ([1.0] * 8, ReconstructionHead([1.0] * 8, 0.0)), TypeError),
    ("feature_domain", 1.0, TypeError),
], ids=["bicubic", "image-given-feature", "feature-given-image"])
def test_save_params_rejects_a_model_that_does_not_fit_the_config(tmp_path, method, model,
                                                                 error):
    path = tmp_path / "p.json"
    with pytest.raises(error):
        save_params(path, PipelineConfig(method=method), model)
    assert not path.exists()


def test_run_bench_reads_each_params_file_once(tmp_path, monkeypatch):
    manifest = build_manifest(tmp_path, n=4, M=32, N=32)
    feature, image = tmp_path / "feature.json", tmp_path / "image.json"
    configs = [PipelineConfig(method="feature_domain", params_path=str(feature)),
               PipelineConfig(method="image_domain", params_path=str(image))]
    feature.write_text(json.dumps(_FEATURE_PARAMS))
    save_params(image, configs[1], 2.0)
    reads = []
    load_params = bench.load_params
    monkeypatch.setattr(bench, "load_params", lambda p: reads.append(p) or load_params(p))
    records = run_bench(manifest, [2, 4], configs, threads=2, timing=False)
    assert all(r.rmse is not None for r in records)
    assert sorted(reads) == sorted([str(feature), str(image)])


def test_symbol_mode_validated_by_config():
    with pytest.raises(ValueError, match="symbol_mode"):
        PipelineConfig(symbol_mode="exact")


def test_an_unknown_symbol_mode_keeps_each_boundarys_error():
    modes = re.escape(str(spectral.SYMBOL_MODES))
    with pytest.raises(ValueError, match=rf"^symbol mode must be one of {modes}, got 'exact'$"):
        spectral.solve_stencil("exact")
    with pytest.raises(ValueError, match=rf"^symbol_mode must be one of {modes}, got 'exact'$"):
        PipelineConfig(symbol_mode="exact")
    grid = np.ones((8, 8))
    with pytest.raises(ValueError, match=rf"^symbol mode must be one of {modes}, got 'exact'$"):
        feature_bank.spectral_predict(grid, grid, default_bank(), np.ones(8),
                                      ReconstructionHead(np.ones(8), 0.0),
                                      PipelineConfig().edge_config(), "exact")


def test_run_image_requires_scale(tmp_path, monkeypatch):
    manifest = build_manifest(tmp_path, n=1)
    monkeypatch.setattr(bench, "_prepare", lambda *a: pytest.fail("entry prepared"))
    with pytest.raises(ValueError, match="config carries no scale"):
        run_image(manifest.entries[0], PipelineConfig(method="bicubic"), "t")
    # the fits take their scale from the config too
    with pytest.raises(ValueError, match="config carries no scale"):
        fit_image_lambda(manifest, PipelineConfig(method="image_domain"))
    with pytest.raises(ValueError, match="config carries no scale"):
        fit_feature_params(manifest, PipelineConfig(method="feature_domain"))


def test_run_bench_counting_and_aggregates(tmp_path):
    manifest = build_manifest(tmp_path, n=1)
    configs = [PipelineConfig(method="bicubic"),
               PipelineConfig(method="image_domain", lam=1.0)]
    records = run_bench(manifest, [4], configs, threads=1, timing=False)
    details = [r for r in records if r.image_id != MEAN_ROW_ID]
    means = [r for r in records if r.image_id == MEAN_ROW_ID]
    assert len(details) == 2 and len(means) == 2
    for mean in means:
        group = [r.rmse for r in details if r.config_hash == mean.config_hash]
        assert mean.rmse == float(np.mean(group))


def test_run_bench_deterministic_csv(tmp_path):
    manifest = build_manifest(tmp_path, n=2)
    configs = [PipelineConfig(method="image_domain", lam=2.0)]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_bench(manifest, [2, 4], configs, out1, threads=2, timing=False)
    run_bench(manifest, [2, 4], configs, out2, threads=2, timing=False)
    blob1, blob2 = out1.read_bytes(), out2.read_bytes()
    assert blob1 == blob2
    lines = blob1.decode().strip().split("\n")
    assert lines[0] == CSV_HEADER
    # 2 entries x 2 scales x 1 config details + 2 aggregates
    assert len(lines) == 1 + 4 + 2


def test_run_bench_thread_count_does_not_change_results(tmp_path):
    manifest = build_manifest(tmp_path, n=2)
    configs = [PipelineConfig(method="image_domain", lam=1.0)]
    r1 = run_bench(manifest, [4], configs, threads=1, timing=False)
    r4 = run_bench(manifest, [4], configs, threads=4, timing=False)
    assert [(r.image_id, r.rmse) for r in r1] == [(r.image_id, r.rmse) for r in r4]


def test_one_worker_bench_runs_on_the_calling_thread(tmp_path, monkeypatch):
    # a pool thread would run the entries in its own malloc arena
    manifest = build_manifest(tmp_path, n=2)
    configs = [PipelineConfig(method="bicubic"), PipelineConfig(method="image_domain", lam=1.0)]
    pooled = tmp_path / "pooled.csv"
    run_bench(manifest, [4], configs, pooled, threads=2, timing=False)
    threads = []
    entry_records = bench._entry_records
    monkeypatch.setattr(bench, "_entry_records", lambda *a: (
        threads.append(threading.get_ident()) or entry_records(*a)))
    alone = tmp_path / "alone.csv"
    run_bench(manifest, [4], configs, alone, threads=1, timing=False)
    assert threads == [threading.get_ident()] * 2
    assert alone.read_bytes() == pooled.read_bytes()


def _counted_axis_weights(monkeypatch, delay=0.0):
    """Record the arguments of every resample matrix build in the returned
    list, each build first sleeping ``delay`` seconds."""
    weights, built = resample._axis_weights, []
    monkeypatch.setattr(resample, "_axis_weights", lambda *args: (
        built.append(args) or time.sleep(delay) or weights(*args)))
    return built


def test_an_image_lambda_sweep_caches_one_symbol_per_solve_stencil(tmp_path, monkeypatch):
    # a guard: nothing the cache keeps depends on lambda, so a sweep over
    # lambdas keeps one symbol per solve stencil and no grid per lambda
    manifest = build_manifest(tmp_path, n=1)
    configs = [PipelineConfig(method="image_domain", lam=lam, symbol_mode=mode)
               for lam in (1, 2, 5, 10, 20, 50) for mode in spectral.SYMBOL_MODES]
    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    records = run_bench(manifest, [4], configs, threads=2, timing=False)
    assert all(r.error is None for r in records)
    operators, = image_core._shapes.values()
    stencils = [spectral.solve_stencil(mode) for mode in spectral.SYMBOL_MODES]
    assert sorted(key for key in operators if key[0] != "resample") == sorted(
        ("symbol", stencil.tobytes(), stencil.shape) for stencil in stencils)


@pytest.mark.parametrize("make, key", [
    (lambda: PipelineConfig(method="image_domain", lam=10**400), "lam"),
    (lambda: PipelineConfig(steepness=10**400), "steepness"),
    (lambda: EdgeWeightConfig("soft", 0.9, 10**400), "steepness"),
    (lambda: spectral.build_rhs(np.ones((4, 4)), np.ones((4, 4)), 10**400), "lam"),
    (lambda: spectral.solve_screened(np.ones((4, 4)), 10**400, np.ones((4, 4))), "lam"),
], ids=["config_lam", "config_steepness", "edge_steepness", "build_rhs", "solve_screened"])
def test_a_number_too_large_for_a_float_is_named_as_its_field(make, key):
    # numpy's isfinite raised a bare TypeError for such an integer
    with pytest.raises(ValueError, match=f"^{key} must be"):
        make()


def test_two_workers_build_each_resample_matrix_once(tmp_path, monkeypatch):
    # both workers degrade a 64x72 entry at x4 at once, and each matrix
    # build is slowed down so that they overlap: a worker that misses a
    # matrix the other is building waits for it instead of building it too
    manifest = build_manifest(tmp_path, n=2, M=64, N=72)
    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    built = _counted_axis_weights(monkeypatch, delay=0.05)
    run_bench(manifest, [4], [PipelineConfig(method="bicubic")], threads=2, timing=False)
    assert len(set(built)) == 4 and len(built) == 4


def test_a_warm_three_scale_bench_with_both_antialias_values_builds_no_matrix(tmp_path,
                                                                            monkeypatch):
    # one 64x96 shape at x4, x8 and x16 with and without antialias reads 18
    # matrices; a cache of single matrices that held fewer rebuilt 36 of
    # them on the second run
    manifest = build_manifest(tmp_path, n=3, M=64, N=96)
    configs = [PipelineConfig(method="bicubic"), PipelineConfig(method="bicubic", antialias=False)]
    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    built = _counted_axis_weights(monkeypatch)
    cold = run_bench(manifest, [4, 8, 16], configs, threads=1, timing=False)
    assert len(built) == len(set(built)) == 18
    built.clear()
    assert run_bench(manifest, [4, 8, 16], configs, threads=1, timing=False) == cold
    assert built == []


def test_run_bench_error_rows_do_not_abort(tmp_path):
    manifest = build_manifest(tmp_path, n=2)
    bad = PipelineConfig(method="feature_domain", params_path=str(tmp_path / "nope.json"))
    good = PipelineConfig(method="bicubic")
    out = tmp_path / "err.csv"
    records = run_bench(manifest, [4], [bad, good], out, threads=1, timing=False)
    details = [r for r in records if r.image_id != MEAN_ROW_ID]
    assert sum(r.rmse is None for r in details) == 2
    assert sum(r.rmse is not None for r in details) == 2
    text = out.read_text()
    assert ERROR_MARKER in text
    # aggregate over an all-failed group carries the marker too
    mean_rows = [ln for ln in text.strip().split("\n")[1:] if f",{MEAN_ROW_ID}," in ln]
    assert any(ERROR_MARKER in ln for ln in mean_rows)


def test_csv_roundtrip_mean_exact(tmp_path):
    manifest = build_manifest(tmp_path, n=3)
    out = tmp_path / "table.csv"
    run_bench(manifest, [4], [PipelineConfig(method="image_domain", lam=3.0)],
              out, threads=1, timing=False)
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    details = [float(r[5]) for r in rows if r[1] != MEAN_ROW_ID]
    mean = [float(r[5]) for r in rows if r[1] == MEAN_ROW_ID]
    assert len(details) == 3 and len(mean) == 1
    assert abs(np.mean(details) - mean[0]) < 1e-12


def test_fit_image_lambda_never_worse_than_unguided(tmp_path):
    manifest = build_manifest(tmp_path, n=3, M=64, N=64, seed=91)
    cfg = PipelineConfig(method="image_domain", scale=8)
    lam = fit_image_lambda(manifest, cfg)

    def pooled(lam_value):
        cfg_l = PipelineConfig(method="image_domain", lam=lam_value, scale=8)
        recs = [run_image(e, cfg_l, "t")[1].rmse for e in manifest.entries]
        return float(np.sqrt(np.mean(np.square(recs))))

    assert pooled(lam) <= pooled(0.0) + 1e-12


def test_fit_image_lambda_evaluates_in_two_reused_grids_per_shape(tmp_path, monkeypatch):
    # entries of two crop shapes; every evaluation solves into its shape's
    # two work grids, and no evaluation writes an entry's u_hat
    rng = np.random.default_rng(92)
    entries = [write_scene_files(tmp_path, f"e{k}", *make_scene(rng, M, N, n_shapes=3))
               for k, (M, N) in enumerate([(64, 64)] * 3 + [(48, 80)])]
    manifest = load_manifest(_write_manifest(tmp_path, {"name": "fit", "entries": entries}))
    cfg = PipelineConfig(method="image_domain", scale=8)
    want = fit_image_lambda(manifest, cfg)
    solved = bench._solved_coeffs
    buffers, inputs = {}, {}

    def spy(d_symbol, l_hat, t_hat, lap_symbol, mode_symbol, lam, out, work=None):
        assert work is not None
        buffers.setdefault(l_hat.shape, set()).add((out.ctypes.data, work.ctypes.data))
        inputs.setdefault(id(l_hat), (l_hat, l_hat.copy()))
        return solved(d_symbol, l_hat, t_hat, lap_symbol, mode_symbol, lam, out, work)

    monkeypatch.setattr(bench, "_solved_coeffs", spy)
    assert fit_image_lambda(manifest, cfg).hex() == want.hex()
    assert {shape: len(ids) for shape, ids in buffers.items()} == {(64, 64): 1, (48, 80): 1}
    assert len(inputs) == 4 and all(np.array_equal(d, copy) for d, copy in inputs.values())


def test_bench_record_validation():
    with pytest.raises(ValueError):
        BenchRecord("d", "i", 4, "bicubic", "h", -1.0, 0.0)
    with pytest.raises(ValueError):
        BenchRecord("d", "i", 4, "bicubic", "h", 1.0, -5.0)


def test_failed_record_keeps_its_cause_out_of_the_csv(tmp_path):
    manifest = build_manifest(tmp_path, n=2)
    bad = manifest.entries[1]
    blob = open(bad.depth_path, "rb").read()
    with open(bad.depth_path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])  # truncated PGM payload
    cfg = PipelineConfig(method="bicubic")
    out = tmp_path / "t.csv"
    records = run_bench(manifest, [4, 8], [cfg], out, threads=1, timing=False)
    failed = [r for r in records if r.image_id == bad.id]
    # the entry is loaded once, and every scale's record carries the cause
    assert [r.scale for r in failed] == [4, 8]
    assert all(r.rmse is None for r in failed)
    assert failed[0].error == failed[1].error
    assert failed[0].error.startswith(f"entry {bad.id!r}: ImageFormatError: ")
    assert all(r.error is None for r in records if r.image_id != bad.id)
    # the cause is not a CSV column: the bytes equal those of cause-free records
    bare = tmp_path / "bare.csv"
    write_csv([dataclasses.replace(r, error=None) for r in records], bare)
    assert out.read_bytes() == bare.read_bytes()
    for s in (4, 8):
        h = cfg.with_scale(s).config_hash()
        assert f"synth,{bad.id},{s},bicubic,{h},ERROR,0.000\n" in out.read_text()


def _mismatched_manifest(tmp_path, case):
    """One-entry manifest whose files fail the entry checks: a grayscale
    guide, a 64x64 guide over a 64x48 depth map, or a 128x128 guide over
    a 129x131 depth map, which both crop to 128x128 at x8."""
    size = 128 if case == "crop-shape" else 64
    gt, rgb = make_scene(np.random.default_rng(93), size, size, n_shapes=3)
    entry = write_scene_files(tmp_path, "bad", gt, rgb)
    if case == "gray-guide":
        entry["rgb_path"] = entry["depth_path"]
    elif case == "shape":
        save_image(gt[:, :48], tmp_path / entry["depth_path"], "pgm16")
    else:
        save_image(np.pad(gt, ((0, 1), (0, 3)), mode="edge"), tmp_path / entry["depth_path"],
                   "pgm16")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"name": "bad", "entries": [entry]}))
    return load_manifest(path)


@pytest.mark.parametrize("case, match", [
    ("gray-guide", "rgb_path is not a color image"),
    ("shape", r"depth \(64, 48\) and rgb \(64, 64\) differ"),
    ("crop-shape", r"depth \(129, 131\) and rgb \(128, 128\) differ"),
])
def test_fits_and_run_image_share_the_entry_checks(tmp_path, case, match):
    manifest = _mismatched_manifest(tmp_path, case)
    cfg = PipelineConfig(method="image_domain", scale=8)
    match = f"^entry 'bad': ValueError: {match}"  # the text of the bench's ERROR rows
    for fit in (lambda: fit_image_lambda(manifest, cfg, grid_points=3),
                lambda: fit_feature_params(manifest, cfg, grid_points=3, sweeps=1)):
        with pytest.raises(ValueError, match=match) as info:
            fit()
        assert isinstance(info.value.__cause__, ValueError)
    with pytest.raises(RuntimeError, match=match) as info:
        run_image(manifest.entries[0], cfg, "t")
    assert isinstance(info.value.__cause__, ValueError)


def test_fit_feature_params_frees_the_training_grids_before_the_search(tmp_path,
                                                                       monkeypatch):
    manifest = build_manifest(tmp_path, n=2, M=32, N=32)
    refs, alive = [], []
    train_grids = bench._train_grids

    def recorded(manifest, cfg):
        for entry, grids in train_grids(manifest, cfg):
            for grid in grids:  # each grid and the arrays it views
                while isinstance(grid, np.ndarray):
                    refs.append(weakref.ref(grid))
                    grid = grid.base
            yield entry, grids

    evaluate = bench._LambdaObjective.evaluate

    def counted(obj, c, lam):
        alive.append(sum(ref() is not None for ref in refs))
        return evaluate(obj, c, lam)

    monkeypatch.setattr(bench, "_train_grids", recorded)
    monkeypatch.setattr(bench._LambdaObjective, "evaluate", counted)
    fit_feature_params(manifest, PipelineConfig(method="feature_domain", scale=4), sweeps=1)
    assert len(refs) >= 6 and alive and alive[0] == 0


def test_head_only_fit_matches_pixel_head(tmp_path):
    # --mode head: the head solved from the search objective's normal
    # equations at the e^0.1 start equals the pixel-domain ridge fit
    manifest = build_manifest(tmp_path, n=2)
    cfg = PipelineConfig(method="feature_domain", scale=8)
    lambdas, head, trace = fit_feature_params(manifest, cfg, fit_lambdas=False)
    assert trace == [] and np.all(lambdas == math.exp(INIT_LOG_LAMBDA))
    triples = []
    for entry in manifest.entries:
        gt, up, guide = bench._prepare(entry, 8, True)
        triples.append((up, guide, gt))
    want, _, _ = pixel_head(triples, default_bank(), cfg.edge_config(), lambdas, 1e-6)
    scale = np.abs(want.weights).max()
    assert np.abs(head.weights - want.weights).max() <= 1e-8 * scale
    assert abs(head.bias - want.bias) <= 1e-8 * scale
    assert head.gamma == want.gamma


def test_prepare_guide_is_luminance_of_the_cropped_planes(tmp_path):
    manifest = build_manifest(tmp_path, n=1, M=70, N=53)
    entry = manifest.entries[0]
    gt, up, guide = bench._prepare(entry, 8, True)
    rgb = load_image(entry.rgb_path)
    want = luminance(rgb[:64, :48])
    assert gt.shape == up.shape == guide.shape == (64, 48)
    assert guide.dtype == want.dtype and guide.tobytes() == want.tobytes()


def test_run_bench_prepares_each_entry_once_per_scale_and_antialias(tmp_path, monkeypatch):
    manifest = build_manifest(tmp_path, n=2)
    configs = [PipelineConfig(method="bicubic"),
               PipelineConfig(method="image_domain", lam=2.0),
               PipelineConfig(method="image_domain", lam=2.0, antialias=False)]
    loads, degrades = [], []
    monkeypatch.setattr(bench, "load_image", lambda p: loads.append(p) or load_image(p))
    monkeypatch.setattr(bench, "load_luminance",
                        lambda p: loads.append(p) or load_luminance(p))
    monkeypatch.setattr(bench, "_degrade",
                        lambda gt, s, aa: degrades.append((s, aa)) or degrade(gt, s, aa))
    records = run_bench(manifest, [2, 4], configs, threads=2, timing=False)
    # two files per entry, loaded once for both scales
    assert sorted(loads) == sorted(p for e in manifest.entries
                                   for p in (e.rgb_path, e.depth_path))
    # one degrade per (entry, scale, antialias): 2 entries x 2 scales x 2 settings
    assert sorted(degrades) == sorted([(s, aa) for s in (2, 4) for aa in (True, False)] * 2)
    # the records, in canonical order, are those run_image gives one by one
    details = [r for r in records if r.image_id != MEAN_ROW_ID]
    want = [run_image(e, cfg.with_scale(s), "synth")[1]
            for e in manifest.entries for s in (2, 4) for cfg in configs]
    assert details == [dataclasses.replace(r, runtime_ms=0.0) for r in want]


def test_run_bench_builds_each_guide_side_once_per_shape_and_edge_config(tmp_path,
                                                                         monkeypatch):
    # img00 crops to 64x64 at x4 and x8; img01 to 64x68 at x4 and to img00's
    # 64x64 at x8, so a memo shared across entries would mix their guides.
    rng = np.random.default_rng(93)
    entries = [write_scene_files(tmp_path, name, *make_scene(rng, M, N, n_shapes=3))
               for name, M, N in [("img00", 64, 64), ("img01", 67, 70)]]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"name": "synth", "entries": entries}))
    manifest = load_manifest(path)
    configs = [PipelineConfig(method="image_domain", lam=2.0),
               PipelineConfig(method="image_domain", lam=2.0, antialias=False),
               PipelineConfig(method="image_domain", lam=2.0, tau_quantile=0.8)]
    want = [run_image(e, cfg.with_scale(s), "synth")
            for e in manifest.entries for s in (4, 8) for cfg in configs]
    targets, preds = [], []
    transfer_target, predict_ = bench._transfer_target, bench._predict
    monkeypatch.setattr(bench, "_transfer_target", lambda guide, edge_cfg: (
        targets.append((guide.shape, edge_cfg.tau_quantile)) or transfer_target(guide, edge_cfg)))

    def spy(up, guide, cfg, model, side=None, overwrite=False):
        pred = predict_(up, guide, cfg, model, side, overwrite)
        # image records score their prediction in its own buffer: copy it first
        preds.append(((cfg.scale, cfg.config_hash()), pred.copy()))
        return pred

    monkeypatch.setattr(bench, "_predict", spy)
    records = run_bench(manifest, [4, 8], configs, threads=1, timing=False)
    # one call per (entry, cropped shape, edge config), in canonical order
    assert targets == [((64, 64), 0.9), ((64, 64), 0.8),
                       ((64, 68), 0.9), ((64, 68), 0.8), ((64, 64), 0.9), ((64, 64), 0.8)]
    details = [r for r in records if r.image_id != MEAN_ROW_ID]
    assert details == [dataclasses.replace(rec, runtime_ms=0.0) for _, rec in want]
    # one worker scores the entries one after another, each in its own order
    per_entry = len(want) // len(manifest.entries)
    assert len(preds) == len(want)
    for k in range(0, len(want), per_entry):
        got = dict(preds[k:k + per_entry])
        assert len(got) == per_entry
        for want_pred, rec in want[k:k + per_entry]:
            assert got[(rec.scale, rec.config_hash)].tobytes() == want_pred.tobytes()


def test_a_failed_guide_side_fails_only_the_records_that_read_it(tmp_path, monkeypatch):
    manifest = build_manifest(tmp_path, n=2)
    configs = [PipelineConfig(method="bicubic"),
               PipelineConfig(method="image_domain", lam=2.0),
               PipelineConfig(method="image_domain", lam=2.0, tau_quantile=0.8),
               PipelineConfig(method="image_domain", lam=0.0, tau_quantile=0.8)]
    want = [run_image(e, cfg.with_scale(s), "synth")[1]
            for e in manifest.entries for s in (2, 4) for cfg in configs]
    transfer_target = bench._transfer_target

    def failing(guide, edge_cfg):
        if edge_cfg.tau_quantile == 0.8:
            raise FloatingPointError("no threshold")
        return transfer_target(guide, edge_cfg)

    monkeypatch.setattr(bench, "_transfer_target", failing)
    out = tmp_path / "bench.csv"
    records = run_bench(manifest, [2, 4], configs, out, threads=2, timing=False)
    details = [r for r in records if r.image_id != MEAN_ROW_ID]
    assert len(details) == len(want)
    for got, rec in zip(details, want):
        if got.config_hash == configs[2].with_scale(got.scale).config_hash():
            # lambda > 0 reads the failed side; lambda = 0 (configs[3]) reads none
            assert got.rmse is None
            assert got.error == f"entry {got.image_id!r}: FloatingPointError: no threshold"
        else:
            assert got == dataclasses.replace(rec, runtime_ms=0.0)
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert len(rows) == len(records)
    assert [r[5] == ERROR_MARKER for r in rows] == [r.rmse is None for r in records]


def test_run_bench_scans_no_grid_the_decoder_checked(tmp_path, monkeypatch):
    # the decoder checks every sample; the bench's image and feature paths
    # go through the unchecked forms, while the public ones keep their checks
    manifest = build_manifest(tmp_path, n=1)
    configs = [PipelineConfig(method="bicubic"), PipelineConfig(method="image_domain", lam=2.0),
               PipelineConfig(method="feature_domain")]
    want = run_bench(manifest, [4], configs, threads=1, timing=False)
    for module in (bench, feature_bank, guidance, spectral, filters, dct, resample):
        if hasattr(module, "as_image"):
            monkeypatch.setattr(module, "as_image", lambda *a: pytest.fail("grid scanned"))
    assert run_bench(manifest, [4], configs, threads=1, timing=False) == want


def test_entry_records_hold_about_four_grids(tmp_path):
    # bicubic and image lambda = 20 at x4, x8 and x16, which crop 512x704 to one
    # shape: the depth, the guide side, up and the prediction, plus the filters'
    # row buffers. Building the side after the first degrade, keeping the
    # guide and a fresh error grid made six.
    M, N = 512, 704
    gt, rgb = make_scene(np.random.default_rng(96), M, N)
    doc = {"name": "big", "entries": [write_scene_files(tmp_path, "big", gt, rgb)]}
    entry = load_manifest(_write_manifest(tmp_path, doc)).entries[0]
    configs = [PipelineConfig(method="bicubic"), PipelineConfig(method="image_domain", lam=20.0)]
    grid = [(s, [(c.with_scale(s), c.with_scale(s).config_hash(), bench._model(c), None)
                 for c in configs]) for s in (4, 8, 16)]
    first = bench._entry_records(entry, "big", grid)  # fills the resample and divisor caches
    tracemalloc.start()
    try:
        records = bench._entry_records(entry, "big", grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.error is None for r in records) and records == [
        dataclasses.replace(r, runtime_ms=q.runtime_ms) for r, q in zip(first, records)]
    assert peak <= 4.4 * gt.nbytes, f"peak {peak / gt.nbytes:.2f} grids"


def test_entry_records_at_three_cropped_shapes_hold_about_five_grids(tmp_path):
    # 1020x1370 crops to 1020x1368, 1016x1368 and 1008x1360 at x4, x8 and
    # x16: each guide side lives from the first scale that reads it to the
    # last, beside the depth, the guide until the last side is built, up
    # and the prediction. Building every side before the first degrade
    # held all three for the entry's life: 6.05 grids.
    gt, rgb = make_scene(np.random.default_rng(98), 1020, 1370)
    doc = {"name": "big", "entries": [write_scene_files(tmp_path, "big", gt, rgb)]}
    entry = load_manifest(_write_manifest(tmp_path, doc)).entries[0]
    configs = [PipelineConfig(method="bicubic"), PipelineConfig(method="image_domain", lam=20.0)]
    grid = [(s, [(c.with_scale(s), c.with_scale(s).config_hash(), bench._model(c), None)
                 for c in configs]) for s in (4, 8, 16)]
    bench._entry_records(entry, "big", grid)  # fills the resample and divisor caches
    tracemalloc.start()
    try:
        records = bench._entry_records(entry, "big", grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.error is None for r in records) and [r.rmse for r in records] == [
        run_image(entry, c.with_scale(s), "big")[1].rmse for s in (4, 8, 16) for c in configs]
    assert peak <= 5.4 * gt.nbytes, f"peak {peak / gt.nbytes:.2f} grids"


def _feature_params(path, seed):
    """A feature parameter file whose head reads every channel, at lambdas
    that include 0, written by save_params; returns its path as text."""
    rng = np.random.default_rng(seed)
    lambdas = np.append(rng.uniform(0.5, 4.0, 7), 0.0)
    head = ReconstructionHead(rng.uniform(0.25, 1.0, 8), rng.uniform(-0.1, 0.1))
    save_params(path, PipelineConfig(method="feature_domain"), (lambdas, head))
    return str(path)


_BICUBIC = PipelineConfig(method="bicubic")
_FEATURE = PipelineConfig(method="feature_domain")


def _feature_entry(tmp_path, configs, scales=(8,)):
    """A 480x640 entry, its depth grid and the ``_entry_records`` grid of
    ``configs`` at ``scales``, each feature config given one parameter
    file whose head reads every channel; and those configs."""
    gt, rgb = make_scene(np.random.default_rng(97), 480, 640)
    doc = {"name": "big", "entries": [write_scene_files(tmp_path, "big", gt, rgb)]}
    entry = load_manifest(_write_manifest(tmp_path, doc)).entries[0]
    params = _feature_params(tmp_path / "p.json", 97)
    configs = [dataclasses.replace(c, params_path=params) if c.method == "feature_domain" else c
               for c in configs]
    grid = [(s, [(c.with_scale(s), c.with_scale(s).config_hash(), bench._model(c), None)
                 for c in configs]) for s in scales]
    return entry, gt, grid, configs


def _feature_entry_peak(tmp_path, configs, scales=(8,)) -> float:
    """The traced peak, in grids, of one warm ``_entry_records`` call on
    :func:`_feature_entry`'s entry; its records are checked too."""
    entry, gt, grid, configs = _feature_entry(tmp_path, configs, scales)
    first = bench._entry_records(entry, "big", grid)  # fills the resample and symbol caches
    tracemalloc.start()
    try:
        records = bench._entry_records(entry, "big", grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.error is None for r in records) and records == [
        dataclasses.replace(r, runtime_ms=q.runtime_ms) for r, q in zip(first, records)]
    assert [r.method for r in records] == [c.method for c in configs] * len(scales)
    return peak / gt.nbytes


def test_entry_records_hold_about_seven_grids_with_a_feature_config(tmp_path):
    # bicubic, then the feature config: the feature record is the last
    # reader of up and takes dct(up) in its buffer. Keeping up beside
    # dct(up) made 8.33 grids.
    peak = _feature_entry_peak(tmp_path, [_BICUBIC, _FEATURE])
    assert peak <= 7.5, f"peak {peak:.2f} grids"


def test_entry_records_hold_about_seven_grids_with_the_feature_config_first(tmp_path):
    # the bicubic record is scored first, so the feature record still reads
    # up last; scoring in canonical order kept up beside dct(up): 8.33 grids
    peak = _feature_entry_peak(tmp_path, [_FEATURE, _BICUBIC])
    assert peak <= 7.5, f"peak {peak:.2f} grids"


def test_one_shape_holds_the_bytes_stated_for_the_bench_feature_set(tmp_path, monkeypatch):
    # bicubic and feature configs at x8, built cold on one 480x640 entry:
    # the three symbols and four resample matrices of the operator cache's
    # docstring, and next to nothing else kept
    held = 8_652_800
    assert f"{held:,} bytes for bench-feature's set at 480x640" in " ".join(
        image_core.shape_operator.__doc__.split())
    entry, _, grid, _ = _feature_entry(tmp_path, [_BICUBIC, _FEATURE])
    bench._entry_records(entry, "big", grid)  # loads what the first call loads once
    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        records = bench._entry_records(entry, "big", grid)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    operators, = image_core._shapes.values()
    assert all(r.error is None for r in records) and len(operators) == 7
    assert sum(op.nbytes for op in operators.values()) == held
    assert abs(after - before - held) <= 64 * 1024, f"held {after - before} bytes"


def test_a_warm_three_scale_entry_with_both_antialias_values_holds_about_seven_grids(
        tmp_path):
    # the entry's 18 resample matrices stay cached between calls; a cache of
    # 16 single matrices rebuilt them and peaked at 9.03 grids
    configs = [_FEATURE, dataclasses.replace(_BICUBIC, antialias=False)]
    peak = _feature_entry_peak(tmp_path, configs, scales=(4, 8, 16))
    assert peak <= 7.5, f"peak {peak:.2f} grids"


@pytest.mark.parametrize("configs", [
    [_FEATURE, dataclasses.replace(_FEATURE, antialias=False)],
    [dataclasses.replace(_BICUBIC, antialias=False), _FEATURE, _BICUBIC],
], ids=["feature-feature_noaa", "bicubic_noaa-feature-bicubic"])
def test_a_row_that_mixes_antialias_values_holds_about_seven_grids(tmp_path, configs):
    # each antialias group's grids die before the next group's are made;
    # keeping every group's gt, up and guide crop to the end of the scale
    # made 8.44 grids
    peak = _feature_entry_peak(tmp_path, configs)
    assert peak <= 7.5, f"peak {peak:.2f} grids"


@pytest.mark.parametrize("antialias", [True, False])
def test_the_last_reader_of_up_writes_it_and_every_row_keeps_its_bytes(tmp_path, monkeypatch,
                                                                      antialias):
    # 67x70 crops to 64x68 at x4 and to 64x64 at x8
    manifest = build_manifest(tmp_path, n=2, M=67, N=70)
    bicubic = PipelineConfig(method="bicubic", crop_border=1, antialias=antialias)
    feature = PipelineConfig(method="feature_domain", crop_border=2, antialias=antialias,
                             params_path=_feature_params(tmp_path / "a.json", 1))
    feature2 = PipelineConfig(method="feature_domain", antialias=antialias,
                              params_path=_feature_params(tmp_path / "b.json", 2))
    other = dataclasses.replace(bicubic, antialias=not antialias)
    # per config order, the (index, writes up) of each record in scoring
    # order: a group's writer is its last feature record, else its last
    # record, and the group's later records are scored before it
    scoring = {(bicubic, feature): [(0, False), (1, True)],
               (feature, bicubic): [(1, False), (0, True)],
               (bicubic, feature, feature2): [(0, False), (1, False), (2, True)],
               (feature, feature2, bicubic): [(0, False), (2, False), (1, True)],
               (feature, other): [(0, True), (1, True)],
               (feature, other, bicubic): [(2, False), (0, True), (1, True)]}
    orders = [list(order) for order in scoring]
    scales = (4, 8)
    want = {(e.id, s, cfg): dataclasses.replace(run_image(e, cfg.with_scale(s), "synth")[1],
                                                runtime_ms=0.0)
            for e in manifest.entries for s in scales for cfg in set().union(*orders)}
    predict_ = bench._predict
    for order in orders:
        writers = []

        def spy(up, guide, cfg, model, side=None, overwrite=False):
            writers.append((cfg.scale, cfg.config_hash(), overwrite))
            return predict_(up, guide, cfg, model, side, overwrite)

        monkeypatch.setattr(bench, "_predict", spy)
        records = run_bench(manifest, scales, order, threads=1, timing=False)
        details = [r for r in records if r.image_id != MEAN_ROW_ID]
        assert details == [want[(e.id, s, cfg)]
                           for e in manifest.entries for s in scales for cfg in order]
        assert writers == [(s, order[k].with_scale(s).config_hash(), writes)
                           for _ in manifest.entries for s in scales
                           for k, writes in scoring[tuple(order)]]


# A config is (method, lam, params, antialias, crop_border, edge_mode,
# symbol_mode); a feature config's params are None, the seed of a random
# model written by save_params, or "unreadable".
_CONFIG_SPECS = st.one_of(
    st.tuples(st.just("bicubic"), st.just(1.0), st.none()),
    st.tuples(st.just("image_domain"), st.one_of(st.just(0.0), st.floats(0.5, 40.0)), st.none()),
    st.tuples(st.just("feature_domain"), st.just(1.0),
              st.one_of(st.none(), st.integers(0, 2**16), st.just("unreadable"))),
).flatmap(lambda head: st.tuples(
    st.just(head), st.booleans(), st.integers(0, 3), st.sampled_from(guidance.EDGE_MODES),
    st.sampled_from(spectral.SYMBOL_MODES)).map(lambda t: (*t[0], *t[1:])))
# entries of odd sizes, each with a depth unit scale; a side of 7 is too
# small for x8, so that scale's crop fails
_SCHEDULES = st.fixed_dictionaries({
    "entries": st.lists(st.tuples(st.integers(3, 23).map(lambda m: 2 * m + 1),
                                  st.integers(3, 31).map(lambda n: 2 * n + 1),
                                  st.sampled_from([1.0, 0.001, 3.5])), min_size=1, max_size=2),
    "scales": st.lists(st.sampled_from([2, 4, 8]), min_size=1, max_size=3, unique=True),
    "configs": st.lists(_CONFIG_SPECS, min_size=1, max_size=4, unique=True),
    "threads": st.sampled_from([1, 2]),
})


@settings(max_examples=100, deadline=None)
@given(schedule=_SCHEDULES)
@example(schedule={  # two readers of up in each group; x8 too large for the 7x9 entry
    "entries": [(7, 9, 1.0), (33, 47, 0.001)], "scales": [8, 2],
    "configs": [("feature_domain", 1.0, 1, True, 0, "hard", "derived"),
                ("bicubic", 1.0, None, False, 1, "hard", "derived"),
                ("feature_domain", 1.0, 2, True, 2, "soft", "paper"),
                ("image_domain", 5.0, None, False, 0, "none", "derived")],
    "threads": 2})
@example(schedule={
    "entries": [(21, 17, 3.5)], "scales": [4],
    "configs": [("feature_domain", 1.0, "unreadable", True, 0, "hard", "derived"),
                ("image_domain", 0.0, None, True, 0, "hard", "paper"),
                ("feature_domain", 1.0, None, True, 1, "hard", "derived"),
                ("bicubic", 1.0, None, True, 0, "hard", "derived")],
    "threads": 1})
def test_run_bench_schedules_every_record_as_run_image_computes_it(tmp_path_factory,
                                                                 schedule):
    # The bench shares each entry's loads, crops, degrades and guide sides
    # across records, and lets one record per (scale, antialias) group write
    # its up. Whatever the draw, each record must be run_image's, a failure
    # its RuntimeError's text, and each group's writer the rule's config,
    # scored after the rest of its group.
    tmp = tmp_path_factory.mktemp("schedule")
    rng = np.random.default_rng(99)
    doc = {"name": "synth", "entries": [
        dict(write_scene_files(tmp, f"img{i}", *make_scene(rng, M, N, n_shapes=2)),
             depth_unit_scale=unit) for i, (M, N, unit) in enumerate(schedule["entries"])]}
    manifest = load_manifest(_write_manifest(tmp, doc))
    configs = []
    for k, (method, lam, params, *rest) in enumerate(schedule["configs"]):
        if params == "unreadable":
            (tmp / f"p{k}.json").write_text('{"method": "feature"')
        elif params is not None:
            _feature_params(tmp / f"p{k}.json", params)
        configs.append(PipelineConfig(
            method, lam, None if params is None else str(tmp / f"p{k}.json"),
            **dict(zip(["antialias", "crop_border", "edge_mode", "symbol_mode"], rest))))
    scales = schedule["scales"]
    want = []
    for e in manifest.entries:
        for s in scales:
            for cfg in configs:
                try:
                    rec = dataclasses.replace(run_image(e, cfg.with_scale(s), "synth")[1],
                                              runtime_ms=0.0)
                except RuntimeError as exc:
                    rec = BenchRecord("synth", e.id, s, cfg.method,
                                      cfg.with_scale(s).config_hash(), None, 0.0, str(exc))
                want.append(rec)
    scored = {}  # (entry id, scale, antialias) -> [(config hash, writes up)] in scoring order
    record = bench._record

    def spy(entry, dataset, prepared, cfg, key, model, side, build_ms, last):
        scored.setdefault((entry.id, cfg.scale, cfg.antialias), []).append((key, last))
        return record(entry, dataset, prepared, cfg, key, model, side, build_ms, last)

    out = tmp / "bench.csv"
    bench._record = spy  # a function-scoped monkeypatch would outlive the draw
    try:
        records = run_bench(manifest, scales, configs, out, threads=schedule["threads"],
                            timing=False)
    finally:
        bench._record = record
    assert [r for r in records if r.image_id != MEAN_ROW_ID] == want
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    assert [row[5] == ERROR_MARKER for row in rows] == [r.rmse is None for r in records]
    # a group's writer is its last feature config whose parameter file was
    # read, else its last readable config. Any writer scored last gives
    # run_image's records, so the rule shows only in the _record calls.
    readable = [cfg for cfg, spec in zip(configs, schedule["configs"]) if spec[2] != "unreadable"]
    for (image_id, s, aa), order in scored.items():
        group = [cfg for cfg in readable if cfg.antialias == aa]
        writer = ([cfg for cfg in group if cfg.method == "feature_domain"] or group)[-1]
        key = writer.with_scale(s).config_hash()
        writes = [h for h, last in order if last]
        assert writes in ([], [key]) and (not writes or order[-1] == (key, True))
        assert writes or not any(r.image_id == image_id and r.scale == s and r.config_hash == key
                                 and r.rmse is not None for r in want)


def test_predict_never_writes_up_or_the_guide(tmp_path):
    gt, rgb = make_scene(np.random.default_rng(98), 48, 64)
    _, up = degrade(gt, 4)
    guide = luminance(rgb)
    before = [up.tobytes(), guide.tobytes()]
    params = _feature_params(tmp_path / "p.json", 98)
    for cfg in [PipelineConfig(method="bicubic"), PipelineConfig(method="image_domain", lam=2.0),
                PipelineConfig(method="feature_domain", params_path=params)]:
        predict(up, guide, cfg)
        assert [up.tobytes(), guide.tobytes()] == before
    bank, lambdas, head = bench._model(PipelineConfig(method="feature_domain",
                                                      params_path=params))
    spectral_predict(up, guide, bank, lambdas, head, EdgeWeightConfig())
    assert [up.tobytes(), guide.tobytes()] == before


# numpy sums a cropped view and a C-contiguous grid in different orders
# once they hold more than 8192 samples, so the grids reach past that.
@settings(max_examples=40, deadline=None)
@given(M=st.integers(1, 160), N=st.integers(1, 240), border=st.integers(0, 20),
       seed=st.integers(0, 2**32 - 1))
@example(M=150, N=230, border=3, seed=0)
def test_rmse_into_has_the_bits_of_rmse(M, N, border, seed):
    rng = np.random.default_rng(seed)
    pred, gt = rng.random((2, M, N)) * rng.choice([1e-3, 1.0, 1e4])
    if 2 * border >= min(M, N):
        with pytest.raises(ValueError, match="border"):
            bench._rmse_into(pred.copy(), gt, border)
        return
    want = rmse(pred, gt, border)
    got = bench._rmse_into(pred, gt, border)
    assert got.hex() == want.hex()


def test_entry_smaller_than_a_scale_fails_only_that_scale(tmp_path):
    manifest = build_manifest(tmp_path, n=1, M=12, N=12)
    entry = manifest.entries[0]
    configs = [PipelineConfig(method="bicubic"), PipelineConfig(method="image_domain")]
    records = run_bench(manifest, [4, 16], configs, threads=1, timing=False)
    details = [r for r in records if r.image_id != MEAN_ROW_ID]
    assert [(r.scale, r.method) for r in details] == [
        (s, cfg.method) for s in (4, 16) for cfg in configs]
    for r in details:
        if r.scale == 4:
            assert r.error is None and r.rmse is not None
        else:
            assert r.rmse is None
            assert r.error == (f"entry {entry.id!r}: ValueError: "
                               f"image (12, 12) smaller than scale 16")
    means = {r.scale: r.rmse for r in records if r.image_id == MEAN_ROW_ID}
    assert means[4] is not None and means[16] is None


def test_load_and_crop_failures_outrank_an_unreadable_params_file(tmp_path, monkeypatch):
    manifest = build_manifest(tmp_path, n=2, M=12, N=12)
    good, bad = manifest.entries
    blob = open(bad.depth_path, "rb").read()
    with open(bad.depth_path, "wb") as fh:
        fh.write(blob[: len(blob) // 2])  # truncated PGM payload
    params = tmp_path / "bad.params.json"
    params.write_text('{"method": "feature"')
    # the antialias=False group holds only the unreadable config
    configs = [PipelineConfig(method="feature_domain", params_path=str(params)),
               PipelineConfig(method="bicubic"),
               PipelineConfig(method="feature_domain", params_path=str(params), antialias=False)]
    degrades = []
    monkeypatch.setattr(bench, "_degrade",
                        lambda gt, s, aa: degrades.append((s, aa)) or degrade(gt, s, aa))
    records = run_bench(manifest, [4, 16], configs, threads=1, timing=False)
    errors = {}  # (id, scale) -> each config's error, in config order
    for r in records:
        if r.image_id != MEAN_ROW_ID:
            errors.setdefault((r.image_id, r.scale), []).append(r.error)
    # the load failure fails every record of its entry
    load_error = errors[(bad.id, 4)][0]
    assert load_error.startswith(f"entry {bad.id!r}: ImageFormatError: ")
    assert errors[(bad.id, 4)] == errors[(bad.id, 16)] == [load_error] * 3
    # the crop failure fails every record of its scale, the group with
    # nothing to score included
    crop_error = f"entry {good.id!r}: ValueError: image (12, 12) smaller than scale 16"
    assert errors[(good.id, 16)] == [crop_error] * 3
    # only where the entry is loaded and cropped does the params file fail a record
    params_error, bicubic_error, group_error = errors[(good.id, 4)]
    assert params_error.startswith(
        f"entry {good.id!r}: ValueError: parameter file {params}: not valid JSON")
    assert bicubic_error is None and group_error == params_error
    # and a group with nothing to score is not degraded
    assert degrades == [(4, True)]


@pytest.mark.parametrize("threads", [0, -2])
def test_run_bench_rejects_a_thread_count_below_one_before_loading(tmp_path, monkeypatch,
                                                                   threads):
    manifest = build_manifest(tmp_path, n=1)
    loads = []
    monkeypatch.setattr(bench, "load_image", lambda p: loads.append(p) or load_image(p))
    with pytest.raises(ValueError, match=f"thread count must be >= 1, got {threads}"):
        run_bench(manifest, [4], [PipelineConfig()], threads=threads)
    assert loads == []


@pytest.mark.parametrize("scales, configs, match", [
    ([], [PipelineConfig()], "no scale factors given"),
    ([4], [], "no pipeline configs given"),
], ids=["no-scales", "no-configs"])
def test_run_bench_rejects_an_empty_grid_before_loading(tmp_path, monkeypatch, scales, configs,
                                                        match):
    manifest = build_manifest(tmp_path, n=1)
    loads = []
    monkeypatch.setattr(bench, "load_image", lambda p: loads.append(p) or load_image(p))
    out = tmp_path / "r.csv"
    with pytest.raises(ValueError, match=match):
        run_bench(manifest, scales, configs, out, threads=1)
    assert loads == [] and not out.exists()


@pytest.mark.parametrize("scales, configs, match", [
    ([4, 4], [PipelineConfig()], "scale 4 is given twice"),
    ([4, 8, 16, 8], [PipelineConfig()], "scale 8 is given twice"),
    ([4], [PipelineConfig(), PipelineConfig(method="image_domain"), PipelineConfig()],
     r"config 2 repeats config 0 \[[0-9a-f]{12}\]"),
    ([4, 8], [PipelineConfig(scale=4), PipelineConfig(scale=8)],
     r"config 1 repeats config 0 \[[0-9a-f]{12}\]"),
], ids=["scale", "scale-later", "config", "config-once-scaled"])
def test_run_bench_rejects_a_repeated_scale_or_config_before_loading(tmp_path, monkeypatch,
                                                                     scales, configs, match):
    # a repeat would write every row of its group twice
    manifest = build_manifest(tmp_path, n=1)
    loads = []
    monkeypatch.setattr(bench, "load_image", lambda p: loads.append(p) or load_image(p))
    monkeypatch.setattr(bench, "load_luminance", lambda p: loads.append(p) or load_luminance(p))
    out = tmp_path / "r.csv"
    with pytest.raises(ValueError, match=match):
        run_bench(manifest, scales, configs, out, threads=1)
    assert loads == [] and not out.exists()


def _write_manifest(tmp_path, doc):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("doc, match", [
    ([], "expected a JSON object, got list"),
    ({"name": "x"}, "top level lacks key 'entries'"),
    ({"entries": {"id": "a"}}, "top level key 'entries' must be list, got dict"),
    ({"entries": ["a"]}, "entry 0 must be an object, got str"),
    ({"entries": [{"id": "a", "depth_path": "d.pgm"}]}, "entry 0 lacks key 'rgb_path'"),
    ({"entries": [{"rgb_path": "r.ppm", "depth_path": "d.pgm"}]}, "entry 0 lacks key 'id'"),
    ({"entries": [{"id": "a", "rgb_path": 5, "depth_path": "d.pgm"}]},
     "entry 0 key 'rgb_path' must be str, got int"),
    ({"entries": [{"id": "a", "rgb_path": "r.ppm", "depth_path": "d.pgm",
                   "depth_unit_scale": "cm"}]},
     "entry 0 key 'depth_unit_scale' must be int or float, got str"),
    ({"name": 3, "entries": []}, "top level key 'name' must be str, got int"),
], ids=["list", "no-entries", "entries-dict", "entry-str", "no-rgb", "no-id", "rgb-int",
        "unit-str", "name-int"])
def test_load_manifest_names_file_and_key(tmp_path, doc, match):
    path = _write_manifest(tmp_path, doc)
    with pytest.raises(ValueError, match=re.escape(f"manifest {path}: ") + match):
        load_manifest(path)


@pytest.mark.parametrize("scale", [math.nan, math.inf, 0, -1])
def test_load_manifest_rejects_bad_unit_scales(tmp_path, scale):
    entry = {"id": "a", "rgb_path": "r.ppm", "depth_path": "d.pgm", "depth_unit_scale": scale}
    path = _write_manifest(tmp_path, {"entries": [entry]})
    with pytest.raises(ValueError, match="depth_unit_scale must be finite and positive"):
        load_manifest(path)


def test_config_fields_are_type_checked_without_conversion():
    cfg = PipelineConfig(method="image_domain", lam=np.float64(2.0), scale=np.int64(8),
                         crop_border=np.int64(1), antialias=np.bool_(False))
    assert type(cfg.lam) is np.float64 and type(cfg.antialias) is np.bool_
    # each numpy-typed config hashes as its Python-typed twin
    for key, value in [("lam", np.float64(2.0)), ("lam", np.float32(0.5)),
                       ("tau_quantile", np.float32(0.75)), ("scale", np.int64(8)),
                       ("scale", np.int32(4)), ("crop_border", np.int64(1)),
                       ("antialias", np.bool_(False))]:
        cfg = PipelineConfig(**{key: value})
        assert type(getattr(cfg, key)) is type(value)
        assert cfg.config_hash() == PipelineConfig(**{key: value.item()}).config_hash()
    for key, value in [("scale", 8.0), ("lam", True), ("crop_border", 1.0),
                       ("antialias", 1), ("params_path", 3), ("edge_mode", None)]:
        with pytest.raises(ValueError, match=f"^{key} must be "):
            PipelineConfig(**{key: value})


def test_load_manifest_rejects_invalid_json(tmp_path):
    path = tmp_path / "m.json"
    for data in (b'{"entries": [', b'{"name": "caf\xe9", "entries": []}'):
        path.write_bytes(data)
        with pytest.raises(ValueError, match=re.escape(f"manifest {path}: not valid JSON")):
            load_manifest(path)


# Documents near each JSON reader's schema. Each key maps to a (good, bad)
# pair of strategies and holds a good value 8 times in 10, else a bad one:
# wrong kinds, NaN, Infinity, integers too large for a float, nested JSON.
# Optional keys may be missing, and now and then the whole document is any
# JSON value. A manifest's paths are files that exist or no string at all,
# so every image is found.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, -10**400]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
_GOOD_NUMBER = st.floats(0.0, 1e3) | st.integers(0, 1000)
_BAD_NUMBER = st.floats() | st.integers() | st.sampled_from([10**400, -10**400]) | _JSON


def _near(required: dict, optional: dict):
    def value(good, bad):
        return st.sampled_from([good] * 8 + [bad] * 2).flatmap(lambda drawn: drawn)

    obj = st.fixed_dictionaries({k: value(*v) for k, v in required.items()},
                                optional={k: value(*v) for k, v in optional.items()})
    return st.one_of(obj, obj, _JSON)


def _choice(good, bad):
    return st.sampled_from(good), st.sampled_from(bad) | _JSON


def _path(name, other):
    return st.just(name), st.just(other) | _JSON.filter(lambda v: not isinstance(v, str))


_ENTRY = _near({"id": (st.text("abc", min_size=1, max_size=2),
                       st.integers() | st.text(",\n") | _JSON),
                "rgb_path": _path("s_rgb.ppm", "s_depth.pgm"),
                "depth_path": _path("s_depth.pgm", "s_rgb.ppm")},
               {"depth_unit_scale": (_GOOD_NUMBER.filter(bool), _BAD_NUMBER),
                "split": _choice(["train", "val", "test"], ["dev", ""])})
_MANIFESTS = _near({"entries": (st.lists(_ENTRY, min_size=1, max_size=3), st.just([]) | _JSON)},
                   {"name": (st.text("xyz", max_size=3), st.text(",\r\n", min_size=1) | _JSON)})
_CONFIG = _near({}, {
    "method": _choice(["bicubic", "image", "feature", "image_domain"], ["spectral", ""]),
    "lam": (_GOOD_NUMBER, _BAD_NUMBER), "params_path": _choice([None, "params.json"], [""]),
    "edge_mode": _choice(guidance.EDGE_MODES, ["sharp"]),
    "tau_quantile": (st.floats(0.01, 0.99), _BAD_NUMBER),
    "steepness": (st.floats(0.1, 100.0), _BAD_NUMBER),
    "symbol_mode": _choice(spectral.SYMBOL_MODES, ["dense"]),
    "scale": _choice([None, 2, 4, 8, 16], [3, 0, 8.0]),
    "crop_border": (st.integers(0, 4), st.integers() | st.floats() | _JSON),
    "antialias": (st.booleans(), st.integers(0, 1) | _JSON), "lamda": (st.just(2.0), _JSON)})
_VECTOR = (st.lists(_GOOD_NUMBER, min_size=8, max_size=8),
           st.lists(_BAD_NUMBER, min_size=7, max_size=9) | _JSON)
_PARAMS = _near({"method": _choice(["image", "feature"], ["bicubic"]),
                 "lambda": (_GOOD_NUMBER, _BAD_NUMBER), "bank": _choice(["default8"], ["d4"]),
                 "lambdas": _VECTOR, "head_weights": _VECTOR,
                 "head_bias": (_GOOD_NUMBER, _BAD_NUMBER)},
                {"head_gamma": (_GOOD_NUMBER, _BAD_NUMBER)})


@pytest.fixture(scope="module")
def reader_files(tmp_path_factory):
    """A 32x32 scene, its 8x8 LR depth at x4, and a manifest listing it."""
    root = tmp_path_factory.mktemp("readers")
    gt, rgb = make_scene(np.random.default_rng(7), 32, 32, n_shapes=2)
    entry = write_scene_files(root, "s", gt, rgb)
    save_image(np.maximum(resample.bicubic_downsample(gt, 4), 0.0), root / "s_lr.pgm", "pgm16")
    (root / "manifest.json").write_text(json.dumps({"entries": [entry]}))
    return root


def _loads_or_names_the_file(read, path, doc, name) -> ValueError | None:
    """None when ``read(path)`` loads ``doc``, written to ``path``; else its
    ValueError, whose text must hold ``name``: anything else fails."""
    path.write_text(json.dumps(doc))
    try:
        read(path)
    except ValueError as exc:
        assert name in str(exc)
        return exc
    return None


@settings(max_examples=60, deadline=None)
@given(doc=_MANIFESTS)
@example(doc={"entries": [{"id": "a", "rgb_path": "s_rgb.ppm", "depth_path": "s_depth.pgm",
                           "depth_unit_scale": 10**400}]})
@example(doc={"name": "a,b", "entries": []})
def test_load_manifest_loads_or_names_the_file(reader_files, doc):
    path = reader_files / "drawn_manifest.json"
    _loads_or_names_the_file(load_manifest, path, doc, f"manifest {path}: ")


@settings(max_examples=60, deadline=None)
@given(doc=st.one_of(_CONFIG, st.lists(_CONFIG, max_size=3)), key=st.none())
@example(doc={"method": []}, key="method")
@example(doc=[{"method": "image"}, {"method": {"name": "image"}}], key="method")
@example(doc={"method": "image", "lam": 10**400}, key="lam")
@example(doc={"steepness": 10**400}, key="steepness")
def test_load_configs_loads_or_names_the_file(reader_files, doc, key):
    # ``key``, when given, is the field the error must name
    path, out = reader_files / "config.json", reader_files / "bench.csv"
    exc = _loads_or_names_the_file(load_configs, path, doc, f"config {path}: ")
    if key is not None:
        assert exc is not None and f": {key} must be" in str(exc)
    if exc is not None:  # the command fails alike, and writes nothing
        with pytest.raises(ValueError) as failed:
            cli.main(["bench", "--manifest", str(reader_files / "manifest.json"), "--scales",
                      "4", "--config", str(path), "--out", str(out)])
        assert str(failed.value) == str(exc) and not out.exists()


@settings(max_examples=60, deadline=None)
@given(doc=_PARAMS, method=st.sampled_from(["image", "feature"]))
@example(doc={"method": "image", "lambda": 10**400}, method="image")
@example(doc=dict(_FEATURE_PARAMS, head_weights=[[1.0]] * 8), method="feature")
def test_model_loads_or_names_the_parameter_file(reader_files, doc, method):
    path, out = reader_files / "params.json", reader_files / "pred.pgm"
    cfg = PipelineConfig(method=bench._METHOD_ALIASES[method], params_path=str(path))
    exc = _loads_or_names_the_file(lambda p: bench._model(cfg), path, doc,
                                   f"parameter file {path}")
    if exc is not None:  # the command fails alike, and writes nothing
        with pytest.raises(ValueError) as failed:
            cli.main(["sr", "--depth", str(reader_files / "s_lr.pgm"), "--rgb",
                      str(reader_files / "s_rgb.ppm"), "--scale", "4", "--method", method,
                      "--params", str(path), "--out", str(out)])
        assert str(failed.value) == str(exc) and not out.exists()
