"""Time gdsr's stages one by one and its verbs end to end at fixed sizes; write JSON.

    python scripts/bench_stages.py --out BENCH.json --label change

Each stage runs once untimed, then REPEATS times, on one seeded
`tests.scenes.make_scene` scene at x8, at 480x640 and 1024x1376, with
BLAS pinned to one thread. The verb_* stages run one `gdsr` command end
to end, in process through `gdsr.cli.main`, on that scene written to a
temporary directory: `sr --method image`, `sr --method feature
--params`, one `bench` of bicubic, image lambda = 20 and feature
configs, one `bench` of the bicubic and feature configs alone, as
perfbench's bench-feature runs them (`verb_bench_feature`), one `bench
--scales 4,8,16` of the bicubic and image configs, and `fit --method
feature`, at 480x640 only. The load stage
decodes the scene's 16-bit PGM depth and 8-bit PPM guide, written once
to a temporary directory, with `load_image`; the load_entry stage reads
the same files as the bench does: the depth grid and the guide's
luminance, checked against each other. Stages marked cold go through no
cache: the resample matrices are built by `_axis_weights`,
`stencil_symbol` is called directly, below `symbol_for`'s lookup in the
per-shape operator cache, and `denominator_cold` is
`_build_denominator`, the image-domain divisor at lambda = 20; none of
the three reads or fills that cache.
`lambda_objective_evaluate` is one fit-objective evaluation and
`lambda_objective_build` the whole objective on two triples of the
scene: its construction and its first evaluation, which makes its
accepted state. Both run at 480x640 only: the objective holds 152 bytes
per training pixel, about 204 MB for one 1024x1376 triple, and two
480x640 triples peak at 89 MB. The result for --label is stored under that key of --out, next
to any other labels already in the file, so runs of two checkouts can
share one file:

    stage -> {"median_ms", "iqr_ms", "n"}, per size,

plus the commit, the numpy and scipy versions and os.cpu_count(). A
"startup" block, recorded once per run rather than per size, holds
`import_gdsr`: the wall time of a fresh `python -c "import gdsr"` with
the same BLAS pinning and PYTHONPATH=src, in the same median/IQR form,
and `first_transform`: the same for a fresh interpreter that imports gdsr
and runs one 480x640 `dct2_forward`, which loads the transform's
library. Both also record "maxrss_mb", the median of the children's own
peak resident set (ru_maxrss), in MB of 2^20 bytes. The
MEMORY_STAGES, six stages and the three `bench` verbs, also
record "peak_mb": the tracemalloc peak of one more
call, untimed and after the timed ones, in MB of 2^20 bytes. It counts
what the call allocates and holds at once, caches filled beforehand.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from gdsr.bench import DatasetEntry, PipelineConfig, _load_entry, _model, predict  # noqa: E402
from gdsr.cli import main as gdsr_main  # noqa: E402
from gdsr.dct import dct2_forward, dct2_inverse  # noqa: E402
from gdsr.feature_bank import (HEAD_GAMMA, _LambdaObjective, gaussian_stencil,  # noqa: E402
                               spectral_predict)
from gdsr.filters import correlate_reflect  # noqa: E402
from gdsr.guidance import EdgeWeightConfig, luminance, transfer_target  # noqa: E402
from gdsr.imgio import load_image, save_image  # noqa: E402
from gdsr.resample import _axis_weights, bicubic_downsample, degrade  # noqa: E402
from gdsr.spectral import (DEFAULT_SYMBOL_MODE, FIVE_POINT, _build_denominator,  # noqa: E402
                           stencil_symbol)
from tests.scenes import make_scene, write_scene_files  # noqa: E402

SIZES = ((480, 640), (1024, 1376))
SCALE = 8
REPEATS = 7
PARAMS = ROOT / "perfbench" / "feature_params.json"
# Largest grid the fit-objective stage and the fit verb run at.
OBJECTIVE_MAX_PIXELS = 480 * 640
# Grid of the startup block's first transform.
FIRST_TRANSFORM_SIZE = (480, 640)
# Stages and verbs whose working set is recorded too.
MEMORY_STAGES = ("stencil_symbol_7x7_cold", "stencil_symbol_3x3_cold", "denominator_cold",
                 "transfer_target_hard", "spectral_predict", "lambda_objective_build",
                 "verb_bench", "verb_bench_feature", "verb_bench_scales")


def load_stages(gt, rgb) -> dict:
    """The load stages: ``load_image`` of the scene's depth and guide files,
    and the bench's ``_load_entry`` of the same files.

    They are written once to a temporary directory, which is removed when
    the returned callables are dropped.
    """
    scratch = tempfile.TemporaryDirectory()
    root = Path(scratch.name)
    files = write_scene_files(root, "scene", gt, rgb)
    paths = [root / files[key] for key in ("depth_path", "rgb_path")]
    entry = DatasetEntry("scene", str(root / files["rgb_path"]), str(root / files["depth_path"]))

    def load():
        return [load_image(p) for p in paths]

    def load_entry():
        return _load_entry(entry)

    load.scratch = load_entry.scratch = scratch
    return {"load": load, "load_entry": load_entry}


def stages(M: int, N: int) -> dict:
    """Stage name -> zero-argument callable, on one scene of M x N."""
    gt, rgb = make_scene(np.random.default_rng(0), M, N)
    _, up = degrade(gt, SCALE)
    guide = luminance(rgb)
    coeffs = dct2_forward(up)
    bank, lambdas, head = _model(PipelineConfig("feature_domain", params_path=str(PARAMS)))
    edge = EdgeWeightConfig()
    g1, g2 = gaussian_stencil(1.0, 5), gaussian_stencil(2.0, 7)
    m, n = M // SCALE, N // SCALE
    image_cfg = PipelineConfig("image_domain", lam=20.0, scale=SCALE)
    timed = {
        **load_stages(gt, rgb),
        "degrade": lambda: degrade(gt, SCALE),
        "axis_weights_cold": lambda: (_axis_weights(M, m, True), _axis_weights(N, n, True),
                                      _axis_weights(m, M, False), _axis_weights(n, N, False)),
        "stencil_symbol_7x7_cold": lambda: stencil_symbol(g2, M, N),
        "stencil_symbol_3x3_cold": lambda: stencil_symbol(FIVE_POINT, M, N),
        "denominator_cold": lambda: _build_denominator(DEFAULT_SYMBOL_MODE, (M, N), 20.0),
        "luminance": lambda: luminance(rgb),
        "dct2_forward": lambda: dct2_forward(up),
        "dct2_inverse": lambda: dct2_inverse(coeffs),
        "correlate_reflect_7x7": lambda: correlate_reflect(guide, g2),
        "correlate_reflect_5x5": lambda: correlate_reflect(guide, g1),
        "correlate_reflect_3x3": lambda: correlate_reflect(guide, FIVE_POINT),
        "transfer_target_hard": lambda: transfer_target(guide, edge),
        "spectral_predict": lambda: spectral_predict(up, guide, bank, lambdas, head, edge),
        "predict_image_lam20": lambda: predict(up, guide, image_cfg),
    }
    if M * N <= OBJECTIVE_MAX_PIXELS:
        # one candidate move of channel 3 against the e^0.1 start
        objective = _LambdaObjective([(up, guide, gt)], bank, edge, HEAD_GAMMA,
                                     DEFAULT_SYMBOL_MODE)
        timed["lambda_objective_evaluate"] = lambda: objective.evaluate(3, 2.0)
        timed["lambda_objective_build"] = lambda: _LambdaObjective(
            [(up, guide, gt)] * 2, bank, edge, HEAD_GAMMA, DEFAULT_SYMBOL_MODE).evaluate(3, 2.0)
    return timed


def verbs(M: int, N: int) -> dict:
    """Verb stage name -> zero-argument callable running one `gdsr` command
    on one scene of M x N. Its files are written once to a temporary
    directory, which is removed when the returned callables are dropped."""
    scratch = tempfile.TemporaryDirectory()
    root = Path(scratch.name)
    gt, rgb = make_scene(np.random.default_rng(0), M, N)
    entry = write_scene_files(root, "scene", gt, rgb)
    lr = np.maximum(bicubic_downsample(load_image(root / entry["depth_path"]), SCALE), 0.0)
    save_image(lr, root / "lr.pgm", "pgm16")
    manifest, config = root / "manifest.json", root / "config.json"
    manifest.write_text(json.dumps({"name": "stages", "entries": [entry]}), encoding="utf-8")
    bicubic, image = {"method": "bicubic"}, {"method": "image", "lam": 20.0}
    feature = {"method": "feature", "params_path": str(PARAMS)}
    config.write_text(json.dumps([bicubic, image, feature]), encoding="utf-8")
    image_config = root / "image_config.json"
    image_config.write_text(json.dumps([bicubic, image]), encoding="utf-8")
    feature_config = root / "feature_config.json"
    feature_config.write_text(json.dumps([bicubic, feature]), encoding="utf-8")
    sr = ["sr", "--depth", str(root / "lr.pgm"), "--rgb", str(root / entry["rgb_path"]),
          "--scale", str(SCALE), "--out", str(root / "pred.pgm")]
    commands = {
        "verb_sr_image": sr + ["--method", "image", "--lambda", "20"],
        "verb_sr_feature": sr + ["--method", "feature", "--params", str(PARAMS)],
        "verb_bench": ["bench", "--manifest", str(manifest), "--scales", str(SCALE),
                       "--config", str(config), "--out", str(root / "bench.csv")],
        "verb_bench_feature": ["bench", "--manifest", str(manifest), "--scales", str(SCALE),
                               "--config", str(feature_config),
                               "--out", str(root / "bench_feature.csv")],
        "verb_bench_scales": ["bench", "--manifest", str(manifest), "--scales", "4,8,16",
                              "--config", str(image_config),
                              "--out", str(root / "bench_scales.csv")],
    }
    if M * N <= OBJECTIVE_MAX_PIXELS:
        commands["verb_fit_feature"] = ["fit", "--manifest", str(manifest),
                                        "--scale", str(SCALE), "--method", "feature",
                                        "--out", str(root / "fit.json")]

    def verb(argv):
        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                gdsr_main(argv)

        run.scratch = scratch
        return run

    return {name: verb(argv) for name, argv in commands.items()}


def peak_mb(fn) -> float:
    """The tracemalloc peak of one call of fn, in MB of 2^20 bytes."""
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
    finally:
        tracemalloc.stop()


def time_stage(fn) -> dict:
    fn()
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_ms": round(float(med), 3), "iqr_ms": round(float(q3 - q1), 3),
            "n": REPEATS}


def time_fresh(code: str) -> dict:
    """time_stage of a fresh interpreter running code, plus "maxrss_mb":
    the median of the timed children's own ru_maxrss, in MB of 2^20 bytes."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    report = "; import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    maxrss_kb = []

    def run():
        out = subprocess.run([sys.executable, "-c", code + report], env=env, check=True,
                             capture_output=True, text=True)
        maxrss_kb.append(int(out.stdout))

    timed = time_stage(run)
    timed["maxrss_mb"] = round(float(np.median(maxrss_kb[1:])) / 1024, 3)
    return timed


def startup() -> dict:
    """The startup block: fresh interpreters importing the package, and
    importing it and running one FIRST_TRANSFORM_SIZE forward transform."""
    M, N = FIRST_TRANSFORM_SIZE
    return {"import_gdsr": time_fresh("import gdsr"),
            "first_transform": time_fresh(f"import gdsr, numpy; "
                                          f"gdsr.dct2_forward(numpy.zeros(({M}, {N})))")}


def commit() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                             cwd=ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write or extend")
    ap.add_argument("--label", required=True, help="key of this run in the file")
    args = ap.parse_args()
    result = {"commit": commit(), "numpy": np.__version__, "scipy": scipy.__version__,
              "cpu_count": os.cpu_count(), "scale": SCALE, "startup": startup(), "stages": {}}
    print(f"startup: {result['startup']}", flush=True)
    for M, N in SIZES:
        size = f"{M}x{N}"
        result["stages"][size] = {}
        for name, fn in {**stages(M, N), **verbs(M, N)}.items():
            result["stages"][size][name] = time_stage(fn)
            if name in MEMORY_STAGES:
                result["stages"][size][name]["peak_mb"] = peak_mb(fn)
            print(f"{size} {name}: {result['stages'][size][name]}", flush=True)
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc[args.label] = result
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
