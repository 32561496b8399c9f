"""Seeded benchmark inputs: synthetic RGBD scenes, manifest and configs.

Run as a script it builds one workload's inputs in a fresh interpreter,
which is how the benchmark times set-up from interpreter start:

    python3 perfbench/inputs.py --workload bench-image --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# Committed fit (`gdsr fit --method feature --mode both --scale 8` on the
# fit-feature inputs of seed 0), so bench-feature solves with fitted
# lambdas and head instead of the channel-0 passthrough.
FEATURE_PARAMS = "perfbench/feature_params.json"

# name -> scene count, how many of them are in the train split, HR grid,
# bench scales, bench configs. fit-feature fits on its 5 train scenes;
# the 27 held-out ones only join the load-back bench, so its accuracy
# figure averages over enough scenes to be steady from seed to seed.
WORKLOADS = {
    "bench-image": dict(scenes=4, train=0, shape=(1024, 1376), scales=(4, 8, 16),
                        configs=[{"method": "bicubic"}, {"method": "image", "lam": 20.0}]),
    "bench-feature": dict(scenes=12, train=0, shape=(480, 640), scales=(8,),
                          configs=[{"method": "bicubic"},
                                   {"method": "feature", "params_path": FEATURE_PARAMS}]),
    "fit-feature": dict(scenes=32, train=5, shape=(128, 128), scales=(8,), configs=None),
}


def pin_blas_threads() -> None:
    """Pin BLAS/OpenMP pools to one thread; must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_paths() -> None:
    """Make ``gdsr`` (src/) and ``tests.scenes`` importable from a checkout."""
    if not (ROOT / "src" / "gdsr" / "__init__.py").is_file():
        raise SystemExit(f"gdsr sources not found under {ROOT / 'src'}")
    if not (ROOT / "tests" / "scenes.py").is_file():
        raise SystemExit(f"scene generator not found: {ROOT / 'tests' / 'scenes.py'}")
    for p in (str(ROOT / "src"), str(ROOT)):
        if p not in sys.path:
            sys.path.insert(0, p)


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Synthesize the workload's scenes from ``seed`` into ``out``.

    Writes 16-bit PGM depth and 8-bit PPM guides, ``manifest.json``, and
    for bench workloads ``config.json``. Train scenes come first, so a
    workload's train scenes do not depend on how many held-out ones follow.
    """
    import numpy as np
    from tests.scenes import make_scene, write_scene_files

    spec = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    M, N = spec["shape"]
    entries = []
    for i in range(spec["scenes"]):
        gt, rgb = make_scene(rng, M, N)
        entry = write_scene_files(out, f"s{i}", gt, rgb)
        entry["split"] = "train" if i < spec["train"] else "test"
        entries.append(entry)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump({"name": workload, "entries": entries}, fh, indent=1)
    if spec["configs"] is not None:
        with open(out / "config.json", "w", encoding="utf-8") as fh:
            json.dump(spec["configs"], fh, indent=1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    pin_blas_threads()
    import_paths()
    import gdsr  # noqa: F401  (set-up covers the package import)

    write_inputs(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
