import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gdsr import bench, cli
from gdsr.bench import PipelineConfig, fit_feature_params, fit_image_lambda, load_params
from gdsr.cli import build_parser, main
from gdsr.feature_bank import ReconstructionHead
from gdsr.imgio import load_image, load_pfm_grid, save_image
from gdsr.resample import bicubic_downsample

from scenes import make_scene, write_scene_files

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def scene_files(tmp_path):
    rng = np.random.default_rng(100)
    gt, rgb = make_scene(rng, 64, 64, n_shapes=4)
    write_scene_files(tmp_path, "scene", gt, rgb)
    # quantized ground truth as the CLI will see it
    gt_q = load_image(tmp_path / "scene_depth.pgm")
    lr = np.maximum(bicubic_downsample(gt_q, 4), 0.0)
    save_image(lr, tmp_path / "scene_lr.pgm", "pgm16")
    return tmp_path


def test_sr_command_writes_prediction_and_errmap(scene_files, capsys):
    out = scene_files / "pred.pgm"
    errmap = scene_files / "err.pgm"
    rc = main([
        "sr",
        "--depth", str(scene_files / "scene_lr.pgm"),
        "--rgb", str(scene_files / "scene_rgb.ppm"),
        "--scale", "4",
        "--method", "image",
        "--lambda", "5.0",
        "--out", str(out),
        "--gt", str(scene_files / "scene_depth.pgm"),
        "--errmap", str(errmap),
        "--max-err", "0.2",
    ])
    assert rc == 0
    assert out.exists() and errmap.exists()
    pred = load_image(out)
    assert pred.shape == (64, 64)
    printed = capsys.readouterr().out
    assert printed.startswith("rmse ")
    assert float(printed.split()[1]) >= 0.0


def test_sr_errmap_without_gt_exits_before_writing(scene_files):
    out = scene_files / "pred.pgm"
    with pytest.raises(SystemExit, match="--errmap requires --gt"):
        main([
            "sr",
            "--depth", str(scene_files / "scene_lr.pgm"),
            "--rgb", str(scene_files / "scene_rgb.ppm"),
            "--scale", "4",
            "--out", str(out),
            "--errmap", str(scene_files / "err.pgm"),
        ])
    assert not out.exists()


@pytest.mark.parametrize("gt_file, match", [
    ("scene_rgb.ppm", "--gt must be a grayscale depth file"),
    ("scene_lr.pgm", r"--gt \(16, 16\) does not match the guide \(64, 64\)"),
], ids=["color", "size"])
def test_sr_checks_gt_before_writing(scene_files, gt_file, match):
    out, errmap = scene_files / "pred.pgm", scene_files / "err.pgm"
    with pytest.raises(SystemExit, match=match):
        main([
            "sr",
            "--depth", str(scene_files / "scene_lr.pgm"),
            "--rgb", str(scene_files / "scene_rgb.ppm"),
            "--scale", "4",
            "--out", str(out),
            "--gt", str(scene_files / gt_file),
            "--errmap", str(errmap),
        ])
    assert not out.exists() and not errmap.exists()


@pytest.mark.parametrize("flags, match", [
    (["--crop-border", "32"], r"--crop-border must be in \[0, 31\] for the guide \(64, 64\), got 32"),
    (["--crop-border", "-1"], r"--crop-border must be in \[0, 31\] .* got -1"),
    (["--errmap", "err.pgm", "--max-err", "0"], "--max-err must be finite and positive, got 0.0"),
    (["--errmap", "err.pgm", "--max-err", "nan"], "--max-err must be finite and positive"),
], ids=["border", "negative-border", "max-err-zero", "max-err-nan"])
def test_sr_checks_scoring_flags_before_writing(scene_files, flags, match):
    out = scene_files / "pred.pgm"
    flags = [str(scene_files / f) if f.endswith(".pgm") else f for f in flags]
    with pytest.raises(SystemExit, match=match):
        main([
            "sr",
            "--depth", str(scene_files / "scene_lr.pgm"),
            "--rgb", str(scene_files / "scene_rgb.ppm"),
            "--scale", "4",
            "--out", str(out),
            "--gt", str(scene_files / "scene_depth.pgm"),
            *flags,
        ])
    assert not out.exists() and not (scene_files / "err.pgm").exists()


def test_sr_validates_guide_size(scene_files):
    with pytest.raises(SystemExit, match="scale"):
        main([
            "sr",
            "--depth", str(scene_files / "scene_lr.pgm"),
            "--rgb", str(scene_files / "scene_rgb.ppm"),
            "--scale", "8",
            "--out", str(scene_files / "x.pgm"),
        ])


def test_dct_command_roundtrip(scene_files):
    fwd = scene_files / "coeffs.pfm"
    back = scene_files / "back.pfm"
    assert main(["dct", "--in", str(scene_files / "scene_depth.pgm"),
                 "--out", str(fwd)]) == 0
    assert main(["dct", "--in", str(fwd), "--out", str(back), "--inverse"]) == 0
    original = load_image(scene_files / "scene_depth.pgm")
    recovered = load_pfm_grid(back)
    # float32 storage bounds the round trip
    assert np.abs(recovered - original).max() < 1e-5


def make_manifest(tmp_path, n=2, seed=101):
    rng = np.random.default_rng(seed)
    entries = [
        write_scene_files(tmp_path, f"m{i}", *make_scene(rng, 64, 64, n_shapes=3))
        for i in range(n)
    ]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"name": "clitest", "entries": entries}))
    return path


def test_fit_image_then_sr_with_params(tmp_path, capsys):
    manifest = make_manifest(tmp_path)
    params = tmp_path / "image.params.json"
    rc = main(["fit", "--manifest", str(manifest), "--scale", "4",
               "--method", "image", "--grid-points", "5", "--out", str(params)])
    assert rc == 0
    fitted = load_params(params)
    assert fitted["method"] == "image"
    assert fitted["lambda"] >= 0.0
    assert "fitted lambda" in capsys.readouterr().out

    gt = load_image(tmp_path / "m0_depth.pgm")
    lr = np.maximum(bicubic_downsample(gt, 4), 0.0)
    save_image(lr, tmp_path / "m0_lr.pgm", "pgm16")
    out = tmp_path / "m0_pred.pgm"
    rc = main(["sr", "--depth", str(tmp_path / "m0_lr.pgm"),
               "--rgb", str(tmp_path / "m0_rgb.ppm"), "--scale", "4",
               "--method", "image", "--params", str(params), "--out", str(out)])
    assert rc == 0 and out.exists()


def test_sr_bad_params_file_names_it_and_writes_nothing(scene_files):
    params = scene_files / "bad.params.json"
    params.write_text('{"method": "feature", "bank": "default8"')
    out = scene_files / "pred.pgm"
    with pytest.raises(ValueError, match=f"parameter file {re.escape(str(params))}: "
                                         "not valid JSON"):
        main(["sr", "--depth", str(scene_files / "scene_lr.pgm"),
              "--rgb", str(scene_files / "scene_rgb.ppm"), "--scale", "4",
              "--method", "feature", "--params", str(params), "--out", str(out)])
    assert not out.exists()


def test_fit_image_checks_grid_points_before_preparing(tmp_path, monkeypatch):
    manifest = make_manifest(tmp_path, n=1)
    monkeypatch.setattr(bench, "_prepare", lambda *a: pytest.fail("entry prepared"))
    out = tmp_path / "image.params.json"
    with pytest.raises(ValueError, match="grid_points must be >= 3, got 0"):
        main(["fit", "--manifest", str(manifest), "--scale", "4", "--method", "image",
              "--grid-points", "0", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("flags, match", [
    (["--grid-points", "0"], "grid_points must be >= 3, got 0"),
    (["--sweeps", "0"], "sweeps must be >= 1, got 0"),
    (["--gamma", "-1"], "gamma must be >= 0, got -1.0"),
    (["--mode", "head", "--sweeps", "0"], "sweeps must be >= 1, got 0"),
], ids=["grid-points", "sweeps", "gamma", "head-sweeps"])
def test_fit_feature_checks_settings_before_preparing(tmp_path, monkeypatch, flags, match):
    manifest = make_manifest(tmp_path, n=1)
    prepared, prepare = [], bench._prepare
    monkeypatch.setattr(bench, "_prepare", lambda *a: prepared.append(a) or prepare(*a))
    out = tmp_path / "feature.params.json"
    with pytest.raises(ValueError, match=match):
        main(["fit", "--manifest", str(manifest), "--scale", "4", "--method", "feature",
              *flags, "--out", str(out)])
    assert len(prepared) == 0
    assert not out.exists()


def test_parser_defaults_are_the_package_defaults():
    parser = build_parser()
    sr = parser.parse_args(["sr", "--depth", "d", "--rgb", "r", "--scale", "4", "--out", "o"])
    fit = parser.parse_args(["fit", "--manifest", "m", "--scale", "4", "--out", "o"])
    defaults = {f.name: f.default for f in dataclasses.fields(PipelineConfig)}
    flags = ["edge_mode", "tau_quantile", "steepness", "symbol_mode", "antialias"]
    want = PipelineConfig(method="image_domain", scale=4)
    for args, names in [(sr, flags + ["lam", "params_path", "crop_border"]), (fit, flags)]:
        for name in names:
            assert getattr(args, name) == defaults[name], name
        # the fields a subcommand has no flag for keep the config's defaults
        assert cli._config_from_args(args, "image_domain", 4) == want
    for fit_fn in (fit_feature_params, fit_image_lambda):
        for name, param in inspect.signature(fit_fn).parameters.items():
            flag = {"head_gamma": "gamma"}.get(name, name)
            if flag in ("gamma", "grid_points", "sweeps"):
                assert getattr(fit, flag) == param.default, (fit_fn.__name__, name)


def test_fit_feature_params_file(tmp_path, capsys):
    manifest = make_manifest(tmp_path, n=1)
    params = tmp_path / "feature.params.json"
    rc = main(["fit", "--manifest", str(manifest), "--scale", "4",
               "--method", "feature", "--mode", "head", "--out", str(params)])
    assert rc == 0
    fitted = load_params(params)
    assert fitted["method"] == "feature"
    assert fitted["bank"] == "default8"
    assert len(fitted["lambdas"]) == 8
    assert len(fitted["head_weights"]) == 8


def test_fit_feature_calls_fit_feature_params_once_and_reports_its_trace(
        tmp_path, capsys, monkeypatch):
    # the benchmark's fit workload wraps gdsr.cli.fit_feature_params and
    # reads the rmse trace from index 2 of its result
    manifest = make_manifest(tmp_path, n=1)
    lambdas, head = np.linspace(0.5, 4.0, 8), ReconstructionHead(np.linspace(-1, 1, 8), 0.25)
    calls = []

    def fake(*args, **kwargs):
        calls.append(args)
        return lambdas, head, [0.5, 0.375, 0.25]

    monkeypatch.setattr(cli, "fit_feature_params", fake)
    params = tmp_path / "feature.params.json"
    rc = main(["fit", "--manifest", str(manifest), "--scale", "8", "--method", "feature",
               "--mode", "both", "--out", str(params)])
    assert rc == 0
    assert len(calls) == 1
    assert "fit rmse 0.5 -> 0.25 over 2 accepted moves" in capsys.readouterr().out
    fitted = load_params(params)
    assert fitted["lambdas"] == lambdas.tolist()
    assert fitted["head_weights"] == head.weights.tolist()


def test_bench_command_deterministic(tmp_path, capsys):
    manifest = make_manifest(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps([
        {"method": "bicubic"},
        {"method": "image", "lam": 2.0},
    ]))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    for out in (out1, out2):
        rc = main(["bench", "--manifest", str(manifest), "--scales", "2,4",
                   "--config", str(config), "--out", str(out),
                   "--threads", "2", "--no-timing"])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    stdout = capsys.readouterr().out
    assert "mean rmse" in stdout
    lines = out1.read_text().strip().split("\n")
    # header + 2 entries x 2 scales x 2 configs + 4 aggregates
    assert len(lines) == 1 + 8 + 4


def test_bench_command_reports_failed_entries_on_stderr(tmp_path, capsys):
    manifest = make_manifest(tmp_path)
    depth = tmp_path / "m1_depth.pgm"
    depth.write_bytes(depth.read_bytes()[:40])  # truncated PGM payload
    config = tmp_path / "config.json"
    config.write_text(json.dumps([{"method": "bicubic"}, {"method": "image", "lam": 2.0}]))
    rc = main(["bench", "--manifest", str(manifest), "--scales", "4",
               "--config", str(config), "--out", str(tmp_path / "r.csv"),
               "--threads", "1", "--no-timing"])
    assert rc == 0
    err_lines = capsys.readouterr().err.strip().split("\n")
    # one line per failed record: the m1 entry under both configs
    assert len(err_lines) == 2
    for line in err_lines:
        assert line.startswith("clitest m1 x4 ")
        assert "entry 'm1'" in line and "ImageFormatError" in line


def test_bench_command_rejects_zero_threads_before_loading(tmp_path, monkeypatch):
    manifest = make_manifest(tmp_path, n=1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": "bicubic"}))
    out = tmp_path / "r.csv"
    loads = []
    monkeypatch.setattr(bench, "load_image", lambda p: loads.append(p) or load_image(p))
    with pytest.raises(ValueError, match="thread count must be >= 1, got 0"):
        main(["bench", "--manifest", str(manifest), "--scales", "4",
              "--config", str(config), "--out", str(out), "--threads", "0"])
    assert loads == [] and not out.exists()


@pytest.mark.parametrize("scales, error, match", [
    ("", ValueError, "no scale factors given"),
    (",", ValueError, "no scale factors given"),
    ("4,x", SystemExit, "--scales must be comma-separated integers, got '4,x'"),
], ids=["empty", "comma", "not-int"])
def test_bench_command_rejects_a_bad_scale_list(tmp_path, scales, error, match):
    manifest = make_manifest(tmp_path, n=1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"method": "bicubic"}))
    out = tmp_path / "r.csv"
    with pytest.raises(error, match=match):
        main(["bench", "--manifest", str(manifest), "--scales", scales,
              "--config", str(config), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("scales, configs, match", [
    ("4,4", [{"method": "bicubic"}], "scale 4 is given twice"),
    ("4", [{"method": "bicubic"}, {"method": "bicubic"}], "config 1 repeats config 0"),
], ids=["scale", "config"])
def test_bench_command_rejects_a_repeated_scale_or_config(tmp_path, scales, configs, match):
    manifest = make_manifest(tmp_path, n=1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(configs))
    out = tmp_path / "r.csv"
    argv = ["bench", "--manifest", str(manifest), "--scales", scales,
            "--config", str(config), "--out", str(out)]
    with pytest.raises(ValueError, match=match):
        main(argv)
    assert not out.exists()
    # run as a command, it ends with the error's text on stderr
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "gdsr.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1 and proc.stdout == ""
    assert re.search(f"ValueError: {match}", proc.stderr.splitlines()[-1])
    assert not out.exists()


@pytest.mark.parametrize("text, where", [
    ('[{"method": "bicubic"}, {"method": "bicubic", "lamda": 2}]', "entry 1: .*'lamda'"),
    ('[{"method": "bicubic"}, "bicubic"]', "entry 1 must be an object, got str"),
    ('[{"method": "bicubic"', "not valid JSON"),
    (b'[{"method": "bicubic", "edge_mode": "h\xe9rd"}]', "not valid JSON"),
])
def test_bench_config_errors_name_file_entry_and_key(tmp_path, text, where):
    manifest = make_manifest(tmp_path)
    config = tmp_path / "config.json"
    config.write_bytes(text if isinstance(text, bytes) else text.encode())
    out = tmp_path / "r.csv"
    with pytest.raises(ValueError, match=f"config {re.escape(str(config))}: {where}"):
        main(["bench", "--manifest", str(manifest), "--scales", "4",
              "--config", str(config), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("entry, key, got", [
    ({"antialias": "no"}, "antialias", "str"),
    ({"scale": 8.0}, "scale", "float"),
    ({"method": "image", "lam": True}, "lam", "bool"),
    ({"method": "image", "lam": "x"}, "lam", "str"),
    ({"crop_border": "2"}, "crop_border", "str"),
    ({"tau_quantile": None}, "tau_quantile", "NoneType"),
], ids=["antialias-str", "scale-float", "lam-bool", "lam-str", "crop-str", "tau-null"])
def test_bench_config_fields_are_type_checked(tmp_path, entry, key, got):
    manifest = make_manifest(tmp_path, n=1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps([{"method": "bicubic"}, entry]))
    out = tmp_path / "r.csv"
    where = f"config {re.escape(str(config))}: entry 1: {key} must be .*, got {got}$"
    with pytest.raises(ValueError, match=where):
        main(["bench", "--manifest", str(manifest), "--scales", "8",
              "--config", str(config), "--out", str(out)])
    assert not out.exists()


def test_fit_mode_choices_are_head_and_both(capsys):
    parser = build_parser()
    for mode in ("head", "both"):
        args = parser.parse_args(["fit", "--manifest", "m.json", "--scale", "8",
                                  "--mode", mode, "--out", "p.json"])
        assert args.mode == mode
    with pytest.raises(SystemExit):
        parser.parse_args(["fit", "--manifest", "m.json", "--scale", "8",
                           "--mode", "lambda", "--out", "p.json"])
    assert "invalid choice: 'lambda'" in capsys.readouterr().err
