"""The benchmark's tracer wraps gdsr functions by name; every name it
lists must resolve, or traced benchmark runs break."""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    """Execute the tracer's source in a fresh module, writing no bytecode
    cache next to it."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_function_resolves_in_gdsr():
    traced = _load_tracer().TRACED
    assert traced
    missing = []
    for module_name, functions in traced.items():
        module = importlib.import_module(f"gdsr.{module_name}")
        for fn_name, _ in functions:
            if not callable(getattr(module, fn_name, None)):
                missing.append(f"gdsr.{module_name}.{fn_name}")
    assert missing == []
