"""The stage script runs outside the suite, so a change to an API it
calls would go unseen; this loads it and runs each of its stages and
verbs once at a small size."""

import math
import os
import sys
import types
from pathlib import Path

# Imported before the script pins OPENBLAS_NUM_THREADS=1, so that OpenBLAS
# starts with the default threading that tests/golden.json was made with
# even when this module is the first in the run to load numpy.
import numpy
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_stages.py"


@pytest.fixture()
def stage_script():
    """The script as a fresh module; it pins the BLAS thread variables and
    extends sys.path at import, and both are restored afterwards."""
    env, path = dict(os.environ), list(sys.path)
    module = types.ModuleType("bench_stages")
    module.__file__ = str(SCRIPT)
    try:
        exec(compile(SCRIPT.read_text(encoding="utf-8"), str(SCRIPT), "exec"), module.__dict__)
        yield module
    finally:
        os.environ.clear()
        os.environ.update(env)
        sys.path[:] = path


def test_every_stage_runs_once(stage_script):
    stages = stage_script.stages(64, 64)
    assert {"load", "load_entry", "luminance", "predict_image_lam20", "axis_weights_cold",
            "lambda_objective_evaluate", "correlate_reflect_7x7_log",
            "guide_side_bank", "solved_coeffs"} <= set(stages)
    for fn in stages.values():
        fn()


def test_every_verb_runs_once(stage_script):
    verbs = stage_script.verbs(64, 64)
    assert set(verbs) == {"verb_sr_image", "verb_sr_feature", "verb_bench", "verb_bench_feature",
                          "verb_bench_scales", "verb_fit_feature"}
    for fn in verbs.values():
        fn()


def test_memory_stages_have_a_traced_peak(stage_script):
    stages = {**stage_script.stages(64, 64), **stage_script.verbs(64, 64)}
    for name in stage_script.MEMORY_STAGES:
        # one 64x64 grid is 1/32 MB, and every memory stage holds more than one
        assert stage_script.peak_mb(stages[name]) > 1 / 32


def test_startup_times_a_fresh_import(stage_script):
    stage_script.REPEATS = 1
    timed = stage_script.startup()["import_gdsr"]
    assert timed["n"] == 1 and timed["median_ms"] > 0


def test_startup_times_a_fresh_first_transform(stage_script):
    stage_script.REPEATS = 1
    stage_script.FIRST_TRANSFORM_SIZE = (8, 8)
    startup = stage_script.startup()
    timed = startup["first_transform"]
    assert timed["n"] == 1 and timed["median_ms"] > 0
    # the child holds at least the interpreter and numpy
    assert startup["import_gdsr"]["maxrss_mb"] > 1
    assert timed["maxrss_mb"] >= startup["import_gdsr"]["maxrss_mb"] - 1


def test_against_pairs_every_stage_of_the_repo_with_itself(stage_script):
    # ROUNDS fresh pairs of workers on this checkout: every stage and verb
    # runs on both sides, ABBA-paired, its samples pooled over the rounds,
    # and returns the same bytes on both, with a per-round ratio
    stage_script.REPEATS = 2
    n = stage_script.ROUNDS * 2
    stage_script.SIZES = ((64, 64),)
    stage_script.FIRST_TRANSFORM_SIZE = (8, 8)
    doc = stage_script.against(SCRIPT.parent.parent)
    pairs = doc["pairs"]["64x64"]
    assert {"solved_coeffs", "spectral_predict", "verb_fit_feature"} <= set(pairs)
    for label in ("change", "parent"):
        timed = doc[label]["stages"]["64x64"]
        assert set(timed) == set(pairs) and all(t["n"] == n for t in timed.values())
        assert all("peak_mb" in timed[name] for name in stage_script.MEMORY_STAGES)
        assert doc[label]["startup"]["import_gdsr"]["n"] == 2
    for name, pair in pairs.items():
        assert pair["bit_equal"] is True and pair["n"] == n and 0 <= pair["change_won"] <= n, name
        assert math.isfinite(pair["ratio"]) and pair["ratio"] > 0, name


def test_a_round_that_favours_one_side_moves_the_pooled_medians_but_not_the_ratio(stage_script):
    # the machine drifts from round to round (levels 100, 110, 120 ms), and
    # in the middle round the parent's worker is 20 % slow: pooled, the
    # parent reads 120.36 ms against the change's 110.33, a median of each
    # side's round medians reads the same, and the per-round ratio reads 1
    def round_(level, parent_bias=1.0):
        ms = [level * (1 + 0.001 * k) for k in range(7)]
        return {"change": ms, "parent": [x * parent_bias for x in ms]}

    timed, pair = stage_script.aggregate([round_(100.0), round_(110.0, 1.2), round_(120.0)])
    assert timed["change"]["median_ms"] == 110.33 and timed["parent"]["median_ms"] == 120.36
    assert timed["change"]["n"] == timed["parent"]["n"] == 21
    assert pair == {"change_won": 7, "n": 21, "ratio": 1.0}


def test_a_round_that_one_side_failed_is_left_out_of_the_pair(stage_script):
    rounds = [{"change": [2.0, 2.0], "parent": [1.0, 1.0]}, {"parent": [1.0, 1.0]}]
    timed, pair = stage_script.aggregate(rounds)
    assert timed["change"]["n"] == 2 and timed["parent"]["n"] == 4
    assert pair == {"change_won": 0, "n": 2, "ratio": 2.0}
    assert stage_script.aggregate([{"parent": [1.0]}])[1] == {}


@pytest.mark.parametrize("argv", [[], ["--label", "mine"]], ids=["no-against", "label"])
def test_a_run_without_against_is_a_usage_error(stage_script, tmp_path, capsys, argv):
    out = tmp_path / "stages.json"
    with pytest.raises(SystemExit) as exc:
        stage_script.main(["--out", str(out), *argv])
    assert exc.value.code == 2 and "--against" in capsys.readouterr().err
    assert not out.exists()


def test_digest_tells_the_last_bit_apart(stage_script):
    x = numpy.linspace(0.0, 1.0, 12).reshape(3, 4)
    y = x.copy()
    y.view(numpy.uint64)[1, 2] ^= 1
    assert stage_script.digest([x, b"csv"]) == stage_script.digest([x.copy(), b"csv"])
    assert stage_script.digest([x, b"csv"]) != stage_script.digest([y, b"csv"])
    assert stage_script.digest(x) != stage_script.digest(x.reshape(4, 3))
