"""Benchmark for gdsr: one closed-loop caller issuing `gdsr` verbs in-process.

    python3 perfbench/run.py --workload bench-image --seed 0 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each exists):
  bench-image    `gdsr bench` on 4 scenes of 1024x1376 at x4,8,16, [bicubic, image lam=20]
  bench-feature  `gdsr bench` on 12 scenes of 480x640 at x8, [bicubic, feature + fitted params]
  fit-feature    `gdsr fit --method feature --mode both --scale 8` on 5 scenes of 128x128,
                 then `gdsr bench` with the fitted params on those and 27 held-out scenes

Inputs are synthesized from --seed. After one untimed warm-up call, the
verb is called back to back until --seconds have passed (at least
twice). With --trace 0 the last stdout line holds the end-to-end
metrics; with --trace 1 it holds per-layer metrics from runs with every
traced gdsr function wrapped. Every run applies the correctness gate and
writes a result file with provenance under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from inputs import BENCH_DIR, FEATURE_PARAMS, ROOT, WORKLOADS, import_paths, pin_blas_threads

pin_blas_threads()

from tracer import COUNTERS, TRACED, Tracer, self_test  # noqa: E402  (numpy after the pin)

OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
MIN_CALLS = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def setup_inputs(workload: str, seed: int, directory: Path) -> list[float]:
    """Build the inputs SETUP_REPEATS times, each in a fresh interpreter.

    Returns the wall seconds of each build: interpreter start, importing
    gdsr, synthesizing scenes and writing files and the manifest.
    """
    times = []
    cmd = [sys.executable, str(BENCH_DIR / "inputs.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(directory)]
    for _ in range(SETUP_REPEATS):
        if directory.exists():
            shutil.rmtree(directory)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd)
        # A blocking wait: Popen.wait(timeout) polls every 50 ms, which
        # would round setup_s to that step. The timer kills a hung build.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def provenance(workload: str, seed: int, params_path) -> dict:
    import numpy
    import scipy
    import gdsr

    commit = None
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "gdsr").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    scipy_blas = scipy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "gdsr_version": gdsr.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas['name']} {blas['version']}",
        "scipy_blas": f"{scipy_blas['name']} {scipy_blas['version']}",
        "nproc": nproc(),
        "workers": nproc() if workload != "fit-feature" else 1,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": workload,
        "seed": seed,
        "params_sha256": sha256_file(params_path) if params_path else None,
    }


def call_verb(argv) -> tuple[float, str | None]:
    """Run `gdsr <argv>` in-process, its stdout discarded; returns (wall_s, error)."""
    from gdsr.cli import main

    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        error = None if code == 0 else f"exit code {code}"
    except SystemExit as exc:
        error = f"SystemExit({exc.code})"
    except Exception as exc:  # a failed verb is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, error


def read_csv(path) -> list[dict]:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def check_records(detail) -> tuple[list[float], list[str]]:
    """Correctness gate on the detail rows of one bench CSV.

    Returns the guided-over-bicubic RMSE ratio of every guided record
    (same entry and scale) and the failures: every ERROR row, and a
    mean ratio that is not below 1 (guidance no better than bicubic).
    Single records may lose to bicubic: with a fixed lambda the image
    domain transfers guide texture at x4 on some scenes.
    """
    failures = [f"ERROR row: {r['image_id']} x{r['scale']} {r['method']}"
                for r in detail if r["rmse"] == "ERROR"]
    ok = [r for r in detail if r["rmse"] != "ERROR"]
    bicubic = {(r["image_id"], r["scale"]): float(r["rmse"]) for r in ok
               if r["method"] == "bicubic"}
    ratios = [float(r["rmse"]) / bicubic[(r["image_id"], r["scale"])] for r in ok
              if r["method"] != "bicubic" and (r["image_id"], r["scale"]) in bicubic]
    if not ratios:
        failures.append("no guided record with a bicubic counterpart")
    elif not statistics.fmean(ratios) < 1.0:
        failures.append(f"mean guided/bicubic rmse ratio {statistics.fmean(ratios)!r} >= 1")
    return ratios, failures


def bench_argv(manifest, config, scales, csv, timing: bool, threads: int) -> list[str]:
    argv = ["bench", "--manifest", str(manifest), "--config", str(config),
            "--scales", ",".join(str(s) for s in scales), "--out", str(csv),
            "--threads", str(threads)]
    return argv if timing else argv + ["--no-timing"]


class Run:
    """Calls, failures and samples of one benchmark process."""

    def __init__(self, workload: str):
        self.spec = WORKLOADS[workload]
        self.attempted = 0
        self.failures: list[str] = []
        self.calls: list[dict] = []
        self.predict_ms: list[float] = []
        self.ratios: list[float] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"gate: {message}", file=sys.stderr)

    def run_bench(self, argv, csv: Path, pixels_per_record: dict) -> dict:
        """One `gdsr bench` call plus its gate; returns the call record."""
        if csv.exists():
            csv.unlink()
        wall, error = call_verb(argv)
        self.attempted += 1
        call = {"verb": "bench", "wall_s": wall, "error": error}
        if error is not None:
            self.fail(f"bench failed: {error}")
            return call
        rows = read_csv(csv)
        detail = [r for r in rows if r["image_id"] != "__mean__"]
        ratios, failures = check_records(detail)
        self.attempted += len(detail)
        for f in failures:
            self.fail(f)
        self.ratios += ratios
        self.predict_ms += [float(r["runtime_ms"]) for r in detail
                            if r["method"] != "bicubic" and r["rmse"] != "ERROR"]
        call["guided_worse_than_bicubic"] = sum(x >= 1.0 for x in ratios)
        # Identical calls must give identical outputs: the whole file under
        # --no-timing (traced or not), else the file without its runtime column.
        if "--no-timing" in argv:
            call["output_sha256"] = sha256_file(csv)
        else:
            call["output_sha256"] = hashlib.sha256("\n".join(
                line.rsplit(",", 1)[0] for line in csv.read_text("ascii").splitlines()
            ).encode()).hexdigest()
        call["mpix"] = sum(pixels_per_record[int(r["scale"])] for r in detail) / 1e6
        return call

    def run_fit(self, manifest, out: Path) -> dict:
        """One `gdsr fit` call; the rmse trace it returns is captured."""
        import gdsr.cli

        captured = []
        inner = gdsr.cli.fit_feature_params

        def capture(*args, **kwargs):
            result = inner(*args, **kwargs)
            captured.append(list(result[2]))
            return result

        argv = ["fit", "--manifest", str(manifest), "--method", "feature", "--mode", "both",
                "--scale", "8", "--out", str(out)]
        if out.exists():
            out.unlink()
        gdsr.cli.fit_feature_params = capture
        try:
            wall, error = call_verb(argv)
        finally:
            gdsr.cli.fit_feature_params = inner
        self.attempted += 1
        call = {"verb": "fit", "wall_s": wall, "error": error}
        if error is not None:
            self.fail(f"fit failed: {error}")
            return call
        rmse_trace = captured[0]
        if any(b > a for a, b in zip(rmse_trace, rmse_trace[1:])):
            self.fail(f"fit rmse trace increases: {rmse_trace}")
        call["fit_rmse_trace"] = rmse_trace
        call["params_path"] = str(out)
        call["output_sha256"] = sha256_file(out)
        M, N = self.spec["shape"]
        call["mpix"] = self.spec["train"] * M * N / 1e6  # HR training grid
        return call


def end_to_end(run: Run, ok_calls, setup_times) -> dict:
    med = statistics.median
    values = {
        "mpix_per_s": (med(c["mpix"] / c["wall_s"] for c in ok_calls), "Mpx/s"),
        "call_s": (med(c["wall_s"] for c in ok_calls), "s"),
        "predict_ms_p50": (med(run.predict_ms), "ms"),
        "rmse_ratio": (statistics.fmean(run.ratios), "ratio"),
        "success_rate": (1.0 - len(run.failures) / run.attempted, "ratio"),
        "setup_s": (med(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(run: Run, snapshots) -> tuple[dict, list[dict]]:
    """Per-layer metrics and the (function, shape) side table.

    Counts come from the first traced call and must repeat exactly in
    every other traced call; times are medians over traced calls.
    """
    med = statistics.median
    signatures = [({k: v[0] for k, v in spans.items()}, counters)
                  for spans, counters, _ in snapshots]
    for k, sig in enumerate(signatures[1:], 1):
        if sig != signatures[0]:
            run.fail(f"traced call {k} counts differ from traced call 0")
    run.attempted += len(signatures) - 1
    values = {}
    for module, functions in TRACED.items():
        for fn, _ in functions:
            name = f"{module}.{fn}"
            rows = [spans.get(name, [0, 0.0, 0.0]) for spans, _, _ in snapshots]
            values[f"{name}.calls"] = (rows[0][0], "count")
            values[f"{name}.self_ms"] = (med(r[1] for r in rows) * 1e3, "ms")
            values[f"{name}.total_ms"] = (med(r[2] for r in rows) * 1e3, "ms")
    counters = snapshots[0][1]
    for name, unit in COUNTERS.items():
        values[name] = (counters[name], unit)
    evals = counters["feature_bank.objective_evals"]
    values["feature_bank.accept_ratio"] = (
        counters["feature_bank.accepted_moves"] / evals if evals else 0.0, "ratio")
    walls = {t: [c["wall_s"] for c in run.calls if c["traced"] == t and c["error"] is None]
             for t in (True, False)}
    values["trace_overhead"] = (med(walls[True]) / med(walls[False]) - 1.0, "ratio")
    side = [{"function": name, "shape": list(shape), "args": list(extra), "calls": calls,
             "mean_ms": total / calls * 1e3}
            for (name, shape, extra), (calls, total) in sorted(snapshots[-1][2].items(),
                                                               key=lambda kv: str(kv[0]))]
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, side


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    import_paths()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT_DIR / name
    inputs = work / "inputs"
    setup_times = setup_inputs(args.workload, args.seed, inputs)

    import gdsr.cli  # noqa: F401  (loads every gdsr module before wrapping)
    run = Run(args.workload)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        run.attempted += 1
        for error in self_test():
            run.fail(f"tracer self-test: {error}")

    spec = run.spec
    manifest = inputs / "manifest.json"
    M, N = spec["shape"]
    pixels = {s: (M // s * s) * (N // s * s) for s in spec["scales"]}
    if args.workload == "fit-feature":
        # Every fit writes the same path, so every load-back has the same
        # config (its hash is in the CSV) and identical output.
        params = work / "params.json"
        loadback_config = work / "loadback.json"
        with open(loadback_config, "w", encoding="utf-8") as fh:
            json.dump([{"method": "bicubic"},
                       {"method": "feature", "params_path": str(params)}], fh)

        def one_call(i):
            return run.run_fit(manifest, params)

        def load_back(i):
            """`gdsr bench` on all scenes with the params file of fit call i.

            The file must load, and the records give fit-feature's
            predict_ms_p50 and rmse_ratio. One worker, so runtime_ms holds
            no wait for another worker's share of the interpreter lock.
            """
            csv = work / f"loadback{i}.csv"
            return run.run_bench(bench_argv(manifest, loadback_config, spec["scales"], csv,
                                            timing=True, threads=1), csv, pixels)
    else:
        def one_call(i):
            csv = work / f"call{i}.csv"
            argv = bench_argv(manifest, inputs / "config.json", spec["scales"], csv,
                              timing=not args.trace, threads=nproc())
            return run.run_bench(argv, csv, pixels)

    # One untimed call first: the first call in a process can pay for lazy
    # imports and first-touch allocations. Its outputs still go through
    # the gate.
    warmup = one_call("warmup")
    run.predict_ms.clear()

    # Traced runs interleave untraced and traced calls (U T T U T U T ...)
    # so trace_overhead compares calls made under the same conditions.
    snapshots = []
    loadbacks = []
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and (i % 2 == 1 or i == 2)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            call = one_call(i)
        finally:
            if traced:
                tracer.uninstall()
        call["traced"] = traced
        run.calls.append(call)
        if traced:
            snapshots.append((tracer.spans(), tracer.counters(), tracer.by_shape()))
        elif args.workload == "fit-feature" and call["error"] is None:
            # A load-back after every untraced fit, so the prediction
            # samples span the run like the fits do.
            loadbacks.append(load_back(i))
        i += 1
        n_traced = sum(c["traced"] for c in run.calls)
        if (time.perf_counter() - start >= args.seconds and i >= MIN_CALLS
                and (tracer is None or (n_traced >= 2 and i - n_traced >= 1))):
            break

    ok_calls = [c for c in run.calls if c["error"] is None]
    for calls in (ok_calls + [warmup], loadbacks):
        digests = {c["output_sha256"] for c in calls if c["error"] is None}
        if len(digests) > 1:
            run.fail(f"{len(digests)} different outputs from identical calls")
    # A failed last fit leaves no params file behind: each fit removes it first.
    fitted = (run.calls[-1]["params_path"]
              if args.workload == "fit-feature" and run.calls[-1]["error"] is None else None)
    params_file = ROOT / FEATURE_PARAMS if args.workload == "bench-feature" else fitted
    prov = provenance(args.workload, args.seed, params_file)
    print(json.dumps({"provenance": prov}, sort_keys=True))

    if not ok_calls:
        print("no verb call succeeded; nothing to report", file=sys.stderr)
        return 1
    result = {"provenance": prov, "seconds": args.seconds, "setup_s": setup_times,
              "warmup_call": warmup, "calls": run.calls, "loadback_calls": loadbacks,
              "failures": run.failures,
              "predict_ms_samples": len(run.predict_ms)}
    if tracer is None:
        metrics = end_to_end(run, ok_calls, setup_times)
    else:
        metrics, side = per_layer(run, snapshots)
        result["mean_ms_by_shape"] = side
    result["metrics"] = metrics
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    shutil.rmtree(work)
    failed = len(run.failures)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
