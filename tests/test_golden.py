"""Every output of the fixed commands in scripts/golden.py must keep the
bytes recorded in tests/golden.json. The file is regenerated only by
`python scripts/golden.py --write`, by a change that moves output bits
on purpose and lists every moved hash."""

import json
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
    for name, expected in golden["outputs"].items():
        assert current[name] == expected, name
