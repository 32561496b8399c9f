"""What a fresh interpreter loads: `import gdsr` brings numpy and the
standard library only. The first transform loads scipy's pocketfft
binding alone, not scipy.fft or scipy.special, and the first soft edge
weight imports scipy.special. The test process already holds scipy, so
each check runs `gdsr.cli.main` in a new interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from gdsr.bench import ERROR_MARKER
from gdsr.cli import main
from gdsr.imgio import load_image, save_image
from gdsr.resample import bicubic_downsample

from scenes import make_scene, write_scene_files

ROOT = Path(__file__).resolve().parent.parent
PARAMS = ROOT / "perfbench" / "feature_params.json"
BINDING = "scipy.fft._pocketfft.pypocketfft"

# Runs each argv of the JSON list in argv[1] through gdsr.cli.main and
# prints one JSON line before the first and after each: the error it
# raised, if any, the scipy.fft / scipy.special modules then loaded, and
# how often the pocketfft binding's extension file has been loaded so far.
RUNNER = """
import contextlib, importlib.machinery, json, sys
import gdsr, gdsr.cli

loads = []
create_module = importlib.machinery.ExtensionFileLoader.create_module

def counted(self, spec):
    if spec.name == "scipy.fft._pocketfft.pypocketfft":
        loads.append(spec.origin)
    return create_module(self, spec)

importlib.machinery.ExtensionFileLoader.create_module = counted

def state(error):
    scipy = sorted(m for m in sys.modules if m.startswith(("scipy.fft", "scipy.special")))
    return json.dumps({"error": error, "scipy": scipy, "binding_loads": len(loads)})

print(state(None), flush=True)
for argv in json.loads(sys.argv[1]):
    error = None
    try:
        with contextlib.redirect_stdout(sys.stderr):
            gdsr.cli.main(argv)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    print(state(error), flush=True)
"""


def run_fresh(commands):
    """The runner's lines for these commands, in a new interpreter."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def write_manifest(tmp_path, n):
    rng = np.random.default_rng(7)
    entries = [write_scene_files(tmp_path, f"s{i}", *make_scene(rng, 64, 64, n_shapes=3))
               for i in range(n)]
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"name": "startup", "entries": entries}))
    return path


def write_config(path, configs):
    path.write_text(json.dumps(configs))
    return str(path)


def test_import_and_untransformed_commands_load_no_scipy(tmp_path):
    manifest = write_manifest(tmp_path, 1)
    lr = tmp_path / "lr.pgm"
    save_image(np.maximum(bicubic_downsample(load_image(tmp_path / "s0_depth.pgm"), 4), 0.0),
               lr, "pgm16")
    bicubic = write_config(tmp_path / "bicubic.json", {"method": "bicubic"})
    bench = ["bench", "--manifest", str(manifest), "--scales", "4", "--config", bicubic,
             "--out", str(tmp_path / "r.csv")]
    sr = ["sr", "--depth", str(lr), "--rgb", str(tmp_path / "s0_rgb.ppm"), "--scale", "4",
          "--out", str(tmp_path / "pred.pgm")]
    feature = ["--method", "feature", "--params", str(PARAMS)]
    lines = run_fresh([bench + ["--no-timing"], sr + ["--method", "bicubic"],
                       bench + ["--threads", "0"], sr + ["--method", "image"], sr + feature,
                       sr + feature + ["--edge", "none"],
                       sr + ["--method", "image", "--edge", "soft"]])
    (imported, bench_done, sr_done, zero_threads,
     image_done, feature_done, none_done, soft_done) = lines
    for line in (imported, bench_done, sr_done, zero_threads):
        assert line["scipy"] == [] and line["binding_loads"] == 0
    assert bench_done["error"] is sr_done["error"] is None
    assert zero_threads["error"] == "ValueError: thread count must be >= 1, got 0"
    # the first transform loads scipy's pocketfft binding and nothing else of
    # scipy.fft or scipy.special, so the checks above are not vacuous
    for line in (image_done, feature_done, none_done):
        assert line["error"] is None
        assert line["scipy"] == [BINDING] and line["binding_loads"] == 1
    # a soft edge weight imports scipy.special for expit, and still no scipy.fft
    assert soft_done["error"] is None and "scipy.special" in soft_done["scipy"]
    assert [m for m in soft_done["scipy"] if m.startswith("scipy.fft")] == [BINDING]


def test_first_scipy_import_on_two_pool_threads_gives_the_same_csv(tmp_path):
    import scipy.fft  # noqa: F401  (the in-process run imports nothing)
    import scipy.special  # noqa: F401

    manifest = write_manifest(tmp_path, 4)
    config = write_config(tmp_path / "config.json", [
        {"method": "bicubic"},
        {"method": "image", "lam": 5.0, "edge_mode": "soft"},
        {"method": "feature", "params_path": str(PARAMS), "edge_mode": "soft"},
        {"method": "feature", "params_path": str(PARAMS), "edge_mode": "hard"},
    ])
    fresh, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
    bench = ["bench", "--manifest", str(manifest), "--scales", "4", "--config", config,
             "--threads", "2", "--no-timing", "--out"]
    imported, done = run_fresh([bench + [str(fresh)]])
    assert imported["scipy"] == [] and done["error"] is None
    # both workers transform first together, and the binding is loaded once
    assert done["binding_loads"] == 1
    assert {BINDING, "scipy.special"} <= set(done["scipy"]) and "scipy.fft" not in done["scipy"]
    assert main(bench + [str(here)]) == 0
    assert fresh.read_bytes() == here.read_bytes()
    assert ERROR_MARKER not in here.read_text()
