"""Time gdsr's stages one by one and its verbs end to end at fixed sizes,
paired with another checkout; write JSON.

    python scripts/bench_stages.py --out BENCH.json --against PARENT_CHECKOUT
    python scripts/bench_stages.py --out BENCH.json --against .

The second command pairs this checkout with itself: its k/n and ratios
show what the pairing reads when nothing changed.

Each stage runs on one seeded `tests.scenes.make_scene` scene at x8, at
480x640 and 1024x1376, with BLAS pinned to one thread. The verb_* stages
run one `gdsr` command end to end, in process through `gdsr.cli.main`,
on that scene written to a temporary directory: `sr --method image`, `sr
--method feature --params`, one `bench` of bicubic, image lambda = 20 and
feature configs, one `bench` of the bicubic and feature configs alone,
as perfbench's bench-feature runs them (`verb_bench_feature`), one
`bench --scales 4,8,16` of the bicubic and image configs, and `fit
--method feature`, at 480x640 only. The load stage
decodes the scene's 16-bit PGM depth and 8-bit PPM guide, written once
to a temporary directory, with `load_image`; the load_entry stage reads
the same files as the bench does: the depth grid and the guide's
luminance, checked against each other. Stages marked cold go through no
cache: the resample matrices are built by `_axis_weights`,
`stencil_symbol` is called directly, below `symbol_for`'s lookup in the
per-shape operator cache; neither reads or fills that cache.
The correlate_reflect stages filter the guide luminance with the bank's
7x7 Gaussian (`7x7`), its 7x7 Laplacian-of-Gaussian guide stencil, whose
49 taps are all nonzero (`7x7_log`), its 5x5 Gaussian and the 5-point
Laplacian. `guide_side_bank` is the guide side of the committed feature
model: `_channel_coeffs` over the channels its head weighs, that is each
distinct guide stencil's filtering, Laplacian, edge weights and DCT.
`solved_coeffs` is one channel solve, `_solved_coeffs` at lambda = 20
with the 5x5 Gaussian's depth symbol, into a reused output grid.
`lambda_objective_evaluate` is one fit-objective evaluation and
`lambda_objective_build` the whole objective on two triples of the
scene: its construction and its first evaluation, which makes its
accepted state. Both run at 480x640 only: the objective holds 152 bytes
per training pixel, about 204 MB for one 1024x1376 triple, and two
480x640 triples peak at 89 MB.

The stages of this checkout ("change") and of the checkout --against
names ("parent") run in two worker processes, each with BLAS pinned to
one thread, on the same seeded scene; a worker imports gdsr from its
checkout's src, then runs this script's stages. A process carries its
own bias of a few percent on some stages, so each size runs in ROUNDS
rounds, each on a fresh pair of workers, started change first in even
rounds and parent first in odd ones. In each round, each stage runs once
untimed on both sides, and then the sides alternate sample by sample in
ABBA order, led by the side started first, REPEATS samples each. The
first round's untimed calls are digested: sha256 of the arrays and bytes
a stage returns, or of its `output` attribute's, which does the same
work and returns what the timed call drops. The file holds "parent" and
"change", each with the commit, the numpy and scipy versions,
os.cpu_count(), the scale, a "startup" block and

    "stages": size -> stage -> {"median_ms", "iqr_ms", "n"},

a stage's samples pooled over the rounds (n = ROUNDS x REPEATS), and a
"pairs" block:

    size -> stage -> {"change_won", "n", "ratio", "bit_equal"}.

"change_won" is how many of the n pairs of samples the change took less
time in, and "ratio" the median over rounds of the round's median
change sample over its median parent sample. Drift between rounds
cancels inside a round's ratio, but moves the pooled medians, so cite
the ratio with the k/n. A stage whose digests differ has "bit_equal"
false and is printed as DIGESTS DIFFER; a stage that fails on a side, or
that only one side has, gets that side's "error" in its place in
"pairs".

Each side's "startup" block holds `import_gdsr`: the wall time of a
fresh `python -c "import gdsr"` on that checkout's package with the same
BLAS pinning, in the same median/IQR form, and `first_transform`: the
same for a fresh interpreter that imports gdsr and runs one 480x640
`dct2_forward`, which loads the transform's library. Both also record
"maxrss_mb", the median of the children's own peak resident set
(ru_maxrss), in MB of 2^20 bytes. The MEMORY_STAGES, five stages and the
three `bench` verbs, also record "peak_mb" in the last round: the
tracemalloc peak of one more call, untimed and after the timed ones, in
MB of 2^20 bytes. It counts what the call allocates and holds at once,
caches filled beforehand.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
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
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # a worker has imported its gdsr already

from gdsr.bench import DatasetEntry, PipelineConfig, _load_entry, _model, predict  # noqa: E402
from gdsr.cli import main as gdsr_main  # noqa: E402
from gdsr.dct import dct2_forward, dct2_inverse  # noqa: E402
from gdsr.feature_bank import (HEAD_GAMMA, _channel_coeffs, _LambdaObjective,  # noqa: E402
                               _solved_coeffs, gaussian_stencil, log_stencil, spectral_predict)
from gdsr.filters import correlate_reflect  # noqa: E402
from gdsr.guidance import EdgeWeightConfig, luminance, transfer_target  # noqa: E402
from gdsr.imgio import load_image, save_image  # noqa: E402
from gdsr.resample import _axis_weights, bicubic_downsample, degrade  # noqa: E402
from gdsr.spectral import (DEFAULT_SYMBOL_MODE, FIVE_POINT, solve_stencil,  # noqa: E402
                           stencil_symbol, symbol_for)
from tests.scenes import make_scene, write_scene_files  # noqa: E402

SIZES = ((480, 640), (1024, 1376))
SCALE = 8
REPEATS = 7
# Rounds of a run, each on a fresh pair of workers.
ROUNDS = 3
PARAMS = ROOT / "perfbench" / "feature_params.json"
# Largest grid the fit-objective stage and the fit verb run at.
OBJECTIVE_MAX_PIXELS = 480 * 640
# Grid of the startup block's first transform.
FIRST_TRANSFORM_SIZE = (480, 640)
# Stages and verbs whose working set is recorded too.
MEMORY_STAGES = ("stencil_symbol_7x7_cold", "stencil_symbol_3x3_cold", "transfer_target_hard",
                 "spectral_predict", "lambda_objective_build", "verb_bench",
                 "verb_bench_feature", "verb_bench_scales")


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
    g1, g2, log7 = gaussian_stencil(1.0, 5), gaussian_stencil(2.0, 7), log_stencil(1.0, 7)
    m, n = M // SCALE, N // SCALE
    image_cfg = PipelineConfig("image_domain", lam=20.0, scale=SCALE)

    def guide_side_bank():
        for _ in _channel_coeffs(guide, bank, edge, np.flatnonzero(head.weights)):
            pass

    guide_side_bank.output = lambda: [t_hat for _, t_hat, _ in _channel_coeffs(
        guide, bank, edge, np.flatnonzero(head.weights))]
    shape, t_hat, solved = (M, N), dct2_forward(transfer_target(guide, edge)), np.empty((M, N))
    solve_symbols = (symbol_for(shape, g1), coeffs, t_hat, symbol_for(shape),
                     symbol_for(shape, solve_stencil(DEFAULT_SYMBOL_MODE)), 20.0, solved)

    timed = {
        **load_stages(gt, rgb),
        "degrade": lambda: degrade(gt, SCALE),
        "axis_weights_cold": lambda: (_axis_weights(M, m, True), _axis_weights(N, n, True),
                                      _axis_weights(m, M, False), _axis_weights(n, N, False)),
        "stencil_symbol_7x7_cold": lambda: stencil_symbol(g2, M, N),
        "stencil_symbol_3x3_cold": lambda: stencil_symbol(FIVE_POINT, M, N),
        "luminance": lambda: luminance(rgb),
        "dct2_forward": lambda: dct2_forward(up),
        "dct2_inverse": lambda: dct2_inverse(coeffs),
        "correlate_reflect_7x7": lambda: correlate_reflect(guide, g2),
        "correlate_reflect_7x7_log": lambda: correlate_reflect(guide, log7),
        "correlate_reflect_5x5": lambda: correlate_reflect(guide, g1),
        "correlate_reflect_3x3": lambda: correlate_reflect(guide, FIVE_POINT),
        "transfer_target_hard": lambda: transfer_target(guide, edge),
        "guide_side_bank": guide_side_bank,
        "solved_coeffs": lambda: _solved_coeffs(*solve_symbols),
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

        def output():  # the written file, less a bench table's runtime column
            run()
            text = Path(argv[argv.index("--out") + 1]).read_bytes()
            if argv[0] != "bench":
                return text
            return b"\n".join(line.rsplit(b",", 1)[0] for line in text.splitlines())

        run.scratch, run.output = scratch, output
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


def sample_ms(fn) -> float:
    """The wall time of one call of fn, in ms."""
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def summary(samples) -> dict:
    q1, med, q3 = np.percentile(samples, [25, 50, 75])
    return {"median_ms": round(float(med), 3), "iqr_ms": round(float(q3 - q1), 3),
            "n": len(samples)}


def digest(value) -> str:
    """sha256 of the arrays, bytes and scalars in a stage's result, in order."""
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, (tuple, list)):
            for item in v:
                feed(item)
        elif isinstance(v, np.ndarray):
            h.update(repr((v.dtype.str, v.shape)).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, bytes):
            h.update(v)
        elif v is not None:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()


def time_fresh(code: str, checkout: Path) -> dict:
    """The summary of REPEATS fresh interpreters, after an untimed one,
    running code on ``checkout``'s package, plus "maxrss_mb": the median
    of the timed children's own ru_maxrss, in MB of 2^20 bytes."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    report = "; import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    maxrss_kb = []

    def run():
        out = subprocess.run([sys.executable, "-c", code + report], env=env, check=True,
                             capture_output=True, text=True)
        maxrss_kb.append(int(out.stdout))

    run()
    timed = summary([sample_ms(run) for _ in range(REPEATS)])
    timed["maxrss_mb"] = round(float(np.median(maxrss_kb[1:])) / 1024, 3)
    return timed


def startup(checkout: Path = ROOT) -> dict:
    """The startup block of ``checkout``: fresh interpreters importing its
    package, and importing it and running one FIRST_TRANSFORM_SIZE forward
    transform."""
    M, N = FIRST_TRANSFORM_SIZE
    return {"import_gdsr": time_fresh("import gdsr", checkout),
            "first_transform": time_fresh(f"import gdsr, numpy; "
                                          f"gdsr.dct2_forward(numpy.zeros(({M}, {N})))",
                                          checkout)}


def commit(checkout: Path) -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                             cwd=checkout, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def info(checkout: Path) -> dict:
    """A run's header for ``checkout``: versions, commit, cores, scale and
    startup block."""
    return {"commit": commit(checkout), "numpy": np.__version__, "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(), "scale": SCALE, "startup": startup(checkout)}


def serve() -> None:
    """A worker: answer one JSON request per stdin line with one JSON line
    on the real stdout; what the stages print goes to stderr. Requests:
    {"op": "size", "M", "N"} (build that size's stages, answer their
    names), {"op": "run", "name", "digest"} (one call: its ms, or the
    digest of its result) and {"op": "peak", "name"}. A failing request
    answers {"error": cause}."""
    reply, sys.stdout = sys.stdout, sys.stderr
    built = {}
    for line in sys.stdin:
        req = json.loads(line)
        try:
            if req["op"] == "size":
                built = {}  # the last size's scenes die first
                built = {**stages(req["M"], req["N"]), **verbs(req["M"], req["N"])}
                answer = list(built)
            elif req["op"] == "run" and req["digest"]:
                fn = built[req["name"]]
                answer = {"sha256": digest(getattr(fn, "output", fn)())}
            elif req["op"] == "run":
                answer = {"ms": sample_ms(built[req["name"]])}
            else:
                answer = {"peak_mb": peak_mb(built[req["name"]])}
        except Exception as exc:
            answer = {"error": f"{type(exc).__name__}: {exc}"}
        reply.write(json.dumps(answer) + "\n")
        reply.flush()


class Worker:
    """One worker process on a checkout, asked one request at a time."""

    def __init__(self, checkout: Path):
        start = (f"import runpy, sys; sys.path.insert(0, {str(checkout / 'src')!r}); "
                 f"import gdsr; runpy.run_path({str(Path(__file__).resolve())!r}, "
                 f"run_name='__worker__')")
        self.proc = subprocess.Popen([sys.executable, "-c", start],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def ask(self, **req) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def paired_round(workers: dict, name: str, digest_first: bool) -> tuple[dict, dict]:
    """One round of one stage on a fresh pair of workers, the first-started
    first in ``workers``: each side's untimed first answer (its digest when
    ``digest_first``), and the REPEATS samples of each side whose first
    call did not fail, ABBA-paired and led by the first-started side."""
    first = {label: w.ask(op="run", name=name, digest=digest_first)
             for label, w in workers.items()}
    samples = {label: [] for label, answer in first.items() if "error" not in answer}
    sides = list(samples)
    for k in range(REPEATS):
        for label in sides[:: 1 if k % 2 == 0 else -1]:
            samples[label].append(workers[label].ask(op="run", name=name, digest=False)["ms"])
    return first, samples


def aggregate(rounds: list[dict]) -> tuple[dict, dict]:
    """One stage's rounds, each {side: its samples}, as each side's summary
    of its samples pooled over the rounds, and the pair over the rounds
    that both sides ran (empty when there is none): "change_won" of "n"
    pairs of samples, and "ratio", the median over those rounds of the
    round's median change sample over its median parent sample."""
    pooled = {}
    for samples in rounds:
        for label, ms in samples.items():
            pooled.setdefault(label, []).extend(ms)
    timed = {label: summary(ms) for label, ms in pooled.items()}
    paired = [samples for samples in rounds if len(samples) == 2]
    if not paired:
        return timed, {}
    ratios = [np.median(samples["change"]) / np.median(samples["parent"]) for samples in paired]
    return timed, {
        "change_won": sum(c < p for samples in paired
                          for c, p in zip(samples["change"], samples["parent"])),
        "n": sum(len(samples["change"]) for samples in paired),
        "ratio": round(float(np.median(ratios)), 4)}


def against(parent: Path) -> dict:
    """The run of this checkout against ``parent``: the file's "parent",
    "change" and "pairs" blocks. Each size runs in ROUNDS rounds, each on
    a fresh pair of workers started change first in even rounds and parent
    first in odd ones, so that a worker's own bias falls on both sides.
    Digests come from the first round and traced peaks from the last."""
    checkouts = {"change": ROOT, "parent": parent}
    doc = {label: {**info(checkout), "stages": {}} for label, checkout in checkouts.items()}
    doc["pairs"] = {}
    for M, N in SIZES:
        size = f"{M}x{N}"
        firsts, rounds, peaks = {}, {}, {}  # per stage name
        for r in range(ROUNDS):
            labels = ("change", "parent")[:: 1 if r % 2 == 0 else -1]
            workers = {}
            try:
                for label in labels:
                    workers[label] = Worker(checkouts[label])
                names = [w.ask(op="size", M=M, N=N) for w in workers.values()]
                for name in dict.fromkeys(names[0] + names[1]):
                    first, samples = paired_round(workers, name, r == 0)
                    firsts.setdefault(name, first)
                    rounds.setdefault(name, []).append(samples)
                    if r == ROUNDS - 1 and name in MEMORY_STAGES:
                        peaks[name] = {label: workers[label].ask(op="peak", name=name)["peak_mb"]
                                       for label in samples}
            finally:
                for w in workers.values():
                    w.close()
            print(f"{size} round {r + 1}/{ROUNDS} done", flush=True)
        for label in checkouts:
            doc[label]["stages"][size] = {}
        doc["pairs"][size] = {}
        for name, first in firsts.items():
            timed, pair = aggregate(rounds[name])
            for label, peak in peaks.get(name, {}).items():
                timed[label]["peak_mb"] = peak
            for label, result in timed.items():
                doc[label]["stages"][size][name] = result
            errors = {label: answer["error"] for label, answer in first.items()
                      if "error" in answer}
            pair = errors or {
                **pair, "bit_equal": first["change"]["sha256"] == first["parent"]["sha256"]}
            doc["pairs"][size][name] = pair
            marks = "" if pair.get("bit_equal", True) else "  DIGESTS DIFFER"
            print(f"{size} {name}: {timed} {pair}{marks}", flush=True)
    return doc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--against", required=True, metavar="DIR",
                    help="checkout to pair this one with; . pairs it with itself")
    args = ap.parse_args(argv)
    doc = against(Path(args.against).resolve())
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
if __name__ == "__worker__":  # started by Worker
    serve()
