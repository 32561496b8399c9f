"""Golden outputs: run fixed `gdsr` commands on seeded scenes and hash what they write.

    python scripts/golden.py            # list the outputs that moved from tests/golden.json
    python scripts/golden.py --write    # regenerate tests/golden.json

Five `tests.scenes.make_scene` scenes are written to a temporary
directory: three of 96x128 (the train split), one odd-sized grid of
101x139, for the crop paths, and one of 320x1104, wide enough to span
several of `filters`' row blocks. Every command runs in process through
`gdsr.cli.main`, from that directory and with relative paths, so no
config hash or printed line holds a temporary path:

- `bench --no-timing` with bicubic, image lambda = 20 and feature with
  the committed `perfbench/feature_params.json`, at x4 and x8, with
  `--threads` 1 and 2;
- `fit --method feature --mode both` and `fit --method image`;
- `sr --method image --gt --errmap`, and `sr --method feature --params`
  in PGM16 and PFM.

Each case records its printed lines and the sha256 of every file it
wrote. The hashes depend on the numpy and scipy builds, so the file also
records their versions. They depend on OpenBLAS's thread count too:
tests/golden.json holds the default threading of a 2-core machine. Under
OPENBLAS_NUM_THREADS=1 the wide scene's `degrade` outputs (the
low-resolution grid and the upsample, at x4 and x8) move in the last
bits, and with them its image rows at x4 and x8, its feature row at x4
and the x4 image and feature mean rows of both bench CSVs, and the
feature fit's params file and final RMSE.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from gdsr.cli import main  # noqa: E402
from gdsr.imgio import load_image, save_image  # noqa: E402
from gdsr.resample import bicubic_downsample  # noqa: E402
from tests.scenes import make_scene, write_scene_files  # noqa: E402

GOLDEN = ROOT / "tests" / "golden.json"
PARAMS = ROOT / "perfbench" / "feature_params.json"

# (id, rows, columns, split)
SCENES = (("s0", 96, 128, "train"), ("s1", 96, 128, "train"), ("s2", 96, 128, "train"),
          ("odd", 101, 139, "test"), ("wide", 320, 1104, "test"))
CONFIGS = [{"method": "bicubic"}, {"method": "image", "lam": 20.0},
           {"method": "feature", "params_path": "feature_params.json"}]
SR_INPUTS = ["--depth", "s0_lr.pgm", "--rgb", "s0_rgb.ppm", "--scale", "4"]
CASES = {
    "bench_threads1": ["bench", "--manifest", "manifest.json", "--scales", "4,8",
                       "--config", "config.json", "--out", "bench_threads1.csv",
                       "--threads", "1", "--no-timing"],
    "bench_threads2": ["bench", "--manifest", "manifest.json", "--scales", "4,8",
                       "--config", "config.json", "--out", "bench_threads2.csv",
                       "--threads", "2", "--no-timing"],
    "fit_feature": ["fit", "--manifest", "manifest.json", "--scale", "8",
                    "--method", "feature", "--mode", "both", "--out", "fit_feature.json"],
    "fit_image": ["fit", "--manifest", "manifest.json", "--scale", "8",
                  "--method", "image", "--out", "fit_image.json"],
    "sr_image": ["sr", *SR_INPUTS, "--method", "image", "--lambda", "20",
                 "--gt", "s0_depth.pgm", "--errmap", "sr_image_err.pgm",
                 "--out", "sr_image.pgm"],
    "sr_feature_pgm16": ["sr", *SR_INPUTS, "--method", "feature",
                         "--params", "feature_params.json", "--format", "pgm16",
                         "--out", "sr_feature.pgm"],
    "sr_feature_pfm": ["sr", *SR_INPUTS, "--method", "feature",
                       "--params", "feature_params.json", "--format", "pfm",
                       "--out", "sr_feature.pfm"],
}


def versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def write_inputs(directory: Path) -> None:
    """The scenes, their manifest, the bench config, the committed feature
    parameters, and a x4 low-resolution copy of scene s0 for `sr`."""
    entries = []
    for k, (scene_id, M, N, split) in enumerate(SCENES):
        gt, rgb = make_scene(np.random.default_rng(k), M, N)
        entries.append(dict(write_scene_files(directory, scene_id, gt, rgb), split=split))
    (directory / "manifest.json").write_text(
        json.dumps({"name": "golden", "entries": entries}), encoding="utf-8")
    (directory / "config.json").write_text(json.dumps(CONFIGS), encoding="utf-8")
    shutil.copyfile(PARAMS, directory / "feature_params.json")
    lr = np.maximum(bicubic_downsample(load_image(directory / "s0_depth.pgm"), 4), 0.0)
    save_image(lr, directory / "s0_lr.pgm", "pgm16")


def outputs(directory: Path) -> dict:
    """Case name -> {"stdout": printed lines, "files": {name: sha256}}."""
    directory = Path(directory)
    write_inputs(directory)
    result = {}
    with contextlib.chdir(directory):
        for name, argv in CASES.items():
            before = set(directory.iterdir())
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                main(argv)
            written = sorted(set(directory.iterdir()) - before)
            result[name] = {
                "stdout": printed.getvalue().splitlines(),
                "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written},
            }
    return result


def main_script() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"regenerate {GOLDEN.name}")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        current = outputs(Path(tmp))
    if args.write:
        doc = {"versions": versions(), "outputs": current}
        GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["versions"] != versions():
        print(f"versions: {golden['versions']} -> {versions()}")
    moved = 0
    for name in sorted(set(golden["outputs"]) | set(current)):
        old, new = golden["outputs"].get(name), current.get(name)
        if old != new:
            moved += 1
            print(f"{name}: {json.dumps(old)} -> {json.dumps(new)}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main_script())
