"""Span tracer that wraps gdsr's public functions from outside the package.

``Tracer.install`` replaces every module-level binding of each listed
function object in the loaded ``gdsr.*`` modules with a wrapper, so call
sites that did ``from .x import f`` are traced too; ``uninstall`` puts
the original objects back. Nothing under ``src/`` changes.

Each wrapper records, per thread, the call count, total time and self
time of its span. Self time is the span's duration minus the durations
of the spans directly nested in it on the same thread. Spans opened on
pool threads are roots on those threads, so a parent waiting on a pool
counts the wait as its own time. Derived counts (bytes read, transform
bytes, multiply-adds, fit evaluations) are recorded at the same
boundaries by per-function hooks.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time

import numpy as np


def _scalar(value):
    if isinstance(value, (str, int)):
        return value
    method = getattr(value, "method", None)  # a bench.PipelineConfig
    return method if isinstance(method, str) else None


def _call_key(name, args, result):
    """(name, grid shape, scalar arguments) for the per-shape side table.

    The shape is that of the first positional argument that has one,
    else of the result. The str/int/bool positional arguments after that
    argument (scale factor, extraction side), and the method of a
    pipeline config among them, are kept with it.
    """
    for k, a in enumerate(args):
        shape = getattr(a, "shape", None)
        if shape is not None:
            extra = tuple(v for v in map(_scalar, args[k + 1:]) if v is not None)
            return name, tuple(shape), extra
    return name, tuple(getattr(result, "shape", ())), ()


def _bytes_read(counters, stack, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["imgio.bytes_read"] += os.path.getsize(path)


def _dct_bytes(counters, stack, args, kwargs, result):
    # One float64 grid read and one written per transform.
    counters["dct.bytes_computed"] += 16 * result.size


def _correlate_macs(counters, stack, args, kwargs, result):
    stencil = args[1] if len(args) > 1 else kwargs["stencil"]
    counters["filters.correlate_reflect.macs"] += (
        int(np.count_nonzero(np.asarray(stencil))) * result.size
    )


def _objective_eval(counters, stack, args, kwargs, result):
    # Each fit objective evaluation refits the head exactly once; the final
    # head fit in fit_feature_params runs outside fit_lambda and is no
    # evaluation.
    if any(frame[1] == "feature_bank.fit_lambda" for frame in stack):
        counters["feature_bank.objective_evals"] += 1


def _accepted_moves(counters, stack, args, kwargs, result):
    _, rmse_trace = result
    counters["feature_bank.accepted_moves"] += len(rmse_trace) - 1


# module -> [(function, count hook or None)]; the functions the benchmark
# reports, named "<module>.<function>" in its output.
TRACED = {
    "imgio": [("load_image", _bytes_read)],
    "resample": [("degrade", None), ("bicubic_downsample", None),
                 ("bicubic_upsample", None)],
    "image_core": [("as_image", None), ("as_stack", None)],
    "filters": [("correlate_reflect", _correlate_macs)],
    "dct": [("dct2_forward", _dct_bytes), ("dct2_inverse", _dct_bytes)],
    "spectral": [("derived_symbol", None), ("laplacian_apply", None),
                 ("build_rhs", None), ("solve_screened", None)],
    "guidance": [("luminance", None), ("edge_weight", None),
                 ("multichannel_edge_weight", None)],
    "feature_bank": [("extract", None), ("channel_solve", None),
                     ("apply_head", None), ("fit_head", _objective_eval),
                     ("fit_lambda", _accepted_moves)],
    "bench": [("run_bench", None), ("run_image", None), ("predict", None),
              ("rmse", None), ("write_csv", None), ("fit_feature_params", None)],
    "cli": [("main", None)],
}

# Derived counts recorded by the hooks above, with their units.
COUNTERS = {
    "imgio.bytes_read": "B",
    "dct.bytes_computed": "B",
    "filters.correlate_reflect.macs": "count",
    "feature_bank.objective_evals": "count",
    "feature_bank.accepted_moves": "count",
}


class Tracer:
    """Per-thread span statistics for wrapped functions.

    ``clock`` returns seconds; the self-test passes a fake clock.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []  # one (spans, shapes, counters) triple per thread
        self._patched = []  # (module, attribute, original)

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = ({}, {}, dict.fromkeys(COUNTERS, 0))
            self._local.state = state
            self._local.stack = []
            with self._lock:
                self._threads.append(state)
        return state

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` wrapped in a span named ``name``."""
        clock = self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, shapes, counters = self._state()
            stack = self._local.stack
            frame = [0.0, name]  # time covered by child spans, span name
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                entry = spans.get(name)
                if entry is None:
                    entry = spans[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame[0]
                entry[2] += duration
            key = _call_key(name, args, result)
            by_shape = shapes.get(key)
            if by_shape is None:
                by_shape = shapes[key] = [0, 0.0]
            by_shape[0] += 1
            by_shape[1] += duration
            if hook is not None:
                hook(counters, stack, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every function in TRACED at each of its gdsr bindings."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gdsr" or n.startswith("gdsr."))]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"gdsr.{module_name}"]
            for fn_name, hook in functions:
                original = getattr(module, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def reset(self):
        with self._lock:
            for spans, shapes, counters in self._threads:
                spans.clear()
                shapes.clear()
                counters.update(dict.fromkeys(COUNTERS, 0))

    def spans(self):
        """{name: [calls, self_s, total_s]} summed over threads."""
        out = {}
        with self._lock:
            for spans, _, _ in self._threads:
                for name, (calls, self_s, total_s) in spans.items():
                    acc = out.setdefault(name, [0, 0.0, 0.0])
                    acc[0] += calls
                    acc[1] += self_s
                    acc[2] += total_s
        return out

    def counters(self):
        out = dict.fromkeys(COUNTERS, 0)
        with self._lock:
            for _, _, counters in self._threads:
                for name, value in counters.items():
                    out[name] += value
        return out

    def by_shape(self):
        """{(name, shape, scalar args): [calls, total_s]} summed over threads."""
        out = {}
        with self._lock:
            for _, shapes, _ in self._threads:
                for key, (calls, total_s) in shapes.items():
                    acc = out.setdefault(key, [0, 0.0])
                    acc[0] += calls
                    acc[1] += total_s
        return out


def self_test() -> list[str]:
    """Check the self-time arithmetic on a synthetic call tree.

    Two threads each run root -> mid -> 2 x leaf against per-thread fake
    clocks, meeting at a barrier inside the leaves so their spans are
    open at the same time. Returns the list of mismatches (empty when
    the arithmetic holds).
    """
    local = threading.local()
    barrier = threading.Barrier(2, timeout=10)

    def clock():
        return getattr(local, "t", 0.0)

    def tick(dt):
        local.t = clock() + dt

    tracer = Tracer(clock)

    def _leaf():
        barrier.wait()
        tick(3.0)

    leaf = tracer.wrap("t.leaf", _leaf)

    def _mid():
        tick(1.0)
        leaf()
        leaf()
        tick(2.0)

    mid = tracer.wrap("t.mid", _mid)

    def _root():
        tick(0.5)
        mid()
        tick(0.25)

    root = tracer.wrap("t.root", _root)
    errors = []

    def run():
        try:
            root()
        except threading.BrokenBarrierError as exc:
            errors.append(f"barrier: {exc!r}")

    threads = [threading.Thread(target=run) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=20)
        if t.is_alive():
            errors.append("self-test thread did not finish")
    expected = {
        "t.leaf": [4, 12.0, 12.0],
        "t.mid": [2, 6.0, 18.0],
        "t.root": [2, 1.5, 19.5],
    }
    got = tracer.spans()
    for name, want in expected.items():
        if got.get(name) != want:
            errors.append(f"{name}: expected {want}, got {got.get(name)}")
    return errors
