import json

import numpy as np
import pytest

from gdsr.cli import main
from gdsr.feature_bank import load_params
from gdsr.imgio import load_image, load_pfm_grid, save_image
from gdsr.image_core import DepthMap
from gdsr.resample import bicubic_downsample

from scenes import make_scene, write_scene_files


@pytest.fixture()
def scene_files(tmp_path):
    rng = np.random.default_rng(100)
    gt, rgb = make_scene(rng, 64, 64, n_shapes=4)
    write_scene_files(tmp_path, "scene", gt, rgb)
    # quantized ground truth as the CLI will see it
    gt_q = load_image(tmp_path / "scene_depth.pgm")
    lr = DepthMap(np.maximum(bicubic_downsample(gt_q.data, 4), 0.0))
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
    original = load_image(scene_files / "scene_depth.pgm").data
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
    lr = DepthMap(np.maximum(bicubic_downsample(gt.data, 4), 0.0))
    save_image(lr, tmp_path / "m0_lr.pgm", "pgm16")
    out = tmp_path / "m0_pred.pgm"
    rc = main(["sr", "--depth", str(tmp_path / "m0_lr.pgm"),
               "--rgb", str(tmp_path / "m0_rgb.ppm"), "--scale", "4",
               "--method", "image", "--params", str(params), "--out", str(out)])
    assert rc == 0 and out.exists()


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
