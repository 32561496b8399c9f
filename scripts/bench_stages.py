"""Time gdsr's pipeline stages one by one at fixed sizes and write JSON.

    python scripts/bench_stages.py --out BENCH.json --label change

Each stage runs once untimed, then REPEATS times, on one seeded
`tests.scenes.make_scene` scene at x8, at 480x640 and 1024x1376, with
BLAS pinned to one thread. Stages marked cold go through no cache: the
resample matrices are built from scratch and `stencil_symbol` is called
directly, below `symbol_for`'s cache. The result for --label is stored
under that key of --out, next to any other labels already in the file,
so runs of two checkouts can share one file:

    stage -> {"median_ms", "iqr_ms", "n"}, per size,

plus the commit, the numpy and scipy versions and os.cpu_count().
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from gdsr.bench import PipelineConfig, predict  # noqa: E402
from gdsr.dct import dct2_forward, dct2_inverse  # noqa: E402
from gdsr.feature_bank import (  # noqa: E402
    ReconstructionHead,
    default_bank,
    gaussian_stencil,
    load_params,
    spectral_predict,
)
from gdsr.filters import correlate_reflect  # noqa: E402
from gdsr.guidance import EdgeWeightConfig, luminance, transfer_target  # noqa: E402
from gdsr.resample import _axis_weights, degrade  # noqa: E402
from gdsr.spectral import FIVE_POINT, stencil_symbol  # noqa: E402
from tests.scenes import make_scene  # noqa: E402

SIZES = ((480, 640), (1024, 1376))
SCALE = 8
REPEATS = 7
PARAMS = ROOT / "perfbench" / "feature_params.json"


def stages(M: int, N: int) -> dict:
    """Stage name -> zero-argument callable, on one scene of M x N."""
    gt, rgb = make_scene(np.random.default_rng(0), M, N)
    _, up = degrade(gt, SCALE)
    guide = luminance(rgb)
    coeffs = dct2_forward(up.data)
    bank = default_bank()
    params = load_params(PARAMS)
    lambdas = np.asarray(params["lambdas"])
    head = ReconstructionHead(params["head_weights"], params["head_bias"], params["head_gamma"])
    edge = EdgeWeightConfig()
    g1, g2 = gaussian_stencil(1.0, 5), gaussian_stencil(2.0, 7)
    m, n = M // SCALE, N // SCALE
    image_cfg = PipelineConfig("image_domain", lam=20.0, scale=SCALE)
    return {
        "degrade": lambda: degrade(gt, SCALE),
        "axis_weights_cold": lambda: (_axis_weights(M, m, True), _axis_weights(N, n, True),
                                      _axis_weights(m, M, False), _axis_weights(n, N, False)),
        "stencil_symbol_7x7_cold": lambda: stencil_symbol(g2, M, N),
        "stencil_symbol_3x3_cold": lambda: stencil_symbol(FIVE_POINT, M, N),
        "dct2_forward": lambda: dct2_forward(up.data),
        "dct2_inverse": lambda: dct2_inverse(coeffs),
        "correlate_reflect_7x7": lambda: correlate_reflect(guide, g2),
        "correlate_reflect_5x5": lambda: correlate_reflect(guide, g1),
        "correlate_reflect_3x3": lambda: correlate_reflect(guide, FIVE_POINT),
        "transfer_target_hard": lambda: transfer_target(guide, edge),
        "spectral_predict": lambda: spectral_predict(up.data, guide, bank, lambdas, head, edge),
        "predict_image_lam20": lambda: predict(up, rgb, image_cfg),
    }


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
              "cpu_count": os.cpu_count(), "scale": SCALE, "stages": {}}
    for M, N in SIZES:
        size = f"{M}x{N}"
        result["stages"][size] = {}
        for name, fn in stages(M, N).items():
            result["stages"][size][name] = time_stage(fn)
            print(f"{size} {name}: {result['stages'][size][name]}", flush=True)
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc[args.label] = result
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
