"""Every output of the fixed commands in scripts/golden.py must keep the
bytes recorded in tests/golden.json. The file is regenerated only by
`python scripts/golden.py --write`, by a change that moves output bits
on purpose and lists every moved hash.

The hashes also depend on OpenBLAS's thread count: the file matches the
default threading on a 2-core machine, while under OPENBLAS_NUM_THREADS=1
(which the stage script sets) both bench CSVs and the feature fit move.
A mismatch message names the variable's value."""

import json
import os
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "golden.py"
GOLDEN = ROOT / "tests" / "golden.json"


@pytest.fixture()
def golden_script():
    """The script as a fresh module; the sys.path entries it adds at
    import are removed afterwards."""
    path = list(sys.path)
    module = types.ModuleType("golden")
    module.__file__ = str(SCRIPT)
    try:
        exec(compile(SCRIPT.read_text(encoding="utf-8"), str(SCRIPT), "exec"), module.__dict__)
        yield module
    finally:
        sys.path[:] = path


def test_outputs_match_golden(golden_script, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    made_with, running = golden["versions"], golden_script.versions()
    assert running == made_with, (
        f"{GOLDEN.name} was made with {made_with}, but this run has {running}; "
        f"the hashes depend on those builds")
    current = golden_script.outputs(tmp_path)
    assert sorted(current) == sorted(golden["outputs"])
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    for name, expected in golden["outputs"].items():
        assert current[name] == expected, f"{name} (OPENBLAS_NUM_THREADS={threads})"
