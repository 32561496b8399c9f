import sys
import threading
from collections import Counter, OrderedDict

import numpy as np
import pytest

from gdsr import quantize
from gdsr import image_core
from gdsr.image_core import as_image, shape_operator


def test_as_image_rejects_bad_inputs():
    with pytest.raises(ValueError):
        as_image(np.zeros(3))
    with pytest.raises(ValueError):
        as_image(np.zeros((0, 4)))
    with pytest.raises(ValueError):
        as_image(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        as_image(np.array([[np.inf, 1.0]]))


@pytest.mark.parametrize("value,maxval,expected", [
    (0.0, 65535, 0),
    (1.0, 65535, 65535),
    (0.5, 255, 128),   # 127.5 rounds half away from zero
])
def test_quantize_points(value, maxval, expected):
    grid = quantize(np.full((2, 2), value), maxval)
    assert grid.dtype == (np.uint8 if maxval == 255 else np.uint16)
    assert np.all(grid == expected)


def test_quantize_clamps_out_of_range_samples():
    img = np.array([[1.5, 0.5]])
    assert np.array_equal(quantize(img, 255), np.array([[255, 128]], dtype=np.uint8))



def test_shape_operator_builds_each_key_once_under_contention(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows:
    # a build that two threads run at once would count a key twice
    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    builds = Counter()

    def build(key):
        builds[key] += 1
        for _ in range(5000):  # bytecode the interpreter may switch threads in
            pass
        return np.empty(0)

    def lookup(key):  # 16 keys over as many shapes as the cache keeps
        shape = (1 + key % image_core._SHAPES_KEPT, 3)
        return shape_operator(shape, key, lambda: build(key))

    got = [[] for _ in range(6)]
    start = threading.Barrier(6, timeout=30)

    def ask(k):
        start.wait()
        got[k] = [lookup(key) for key in range(16) for _ in range(4)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(k,), daemon=True) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    kept = sum(len(operators) for _, operators in image_core._shapes.values())
    assert builds == Counter(range(16)) and kept == 16
    assert all(a is b for values in got for a, b in zip(values, got[0], strict=True))


def _counted(builds):
    """A lookup of (shape, key) that records each build in ``builds``; its
    operator is a fresh writable grid of the shape, filled with its key."""
    def lookup(shape, key=1.0):
        return shape_operator(shape, key,
                              lambda: builds.append((shape, key)) or np.full(shape, key))

    return lookup


def test_one_shape_past_the_cache_evicts_the_least_recently_used_one(monkeypatch):
    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    builds = []
    lookup = _counted(builds)
    shapes = [(k + 1, 2) for k in range(image_core._SHAPES_KEPT + 1)]
    oldest = [lookup(shapes[0]), lookup(shapes[0], 2.0)]
    for shape in shapes[1:]:
        lookup(shape)
    builds.clear()
    for shape in shapes[1:]:  # kept: hits
        lookup(shape)
    assert builds == []
    # the first shape went with both of its operators, and is rebuilt
    assert lookup(shapes[0]) is not oldest[0] and lookup(shapes[0], 2.0) is not oldest[1]
    assert builds == [(shapes[0], 1.0), (shapes[0], 2.0)]
    assert list(image_core._shapes) == shapes[2:] + shapes[:1]


def test_a_hit_refreshes_its_shapes_recency(monkeypatch):
    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    builds = []
    lookup = _counted(builds)
    shapes = [(k + 1, 2) for k in range(image_core._SHAPES_KEPT + 1)]
    for shape in shapes[:-1]:
        lookup(shape)
    first = lookup(shapes[0])  # a hit: the second shape is now the oldest
    lookup(shapes[-1])
    builds.clear()
    assert lookup(shapes[0]) is first and builds == []
    lookup(shapes[1])
    assert builds == [(shapes[1], 1.0)]


def test_operators_are_read_only_and_outlive_their_shape(monkeypatch):
    monkeypatch.setattr(image_core, "_shapes", OrderedDict())
    lookup = _counted([])
    handed = lookup((3, 4), 7.0)
    for k in range(image_core._SHAPES_KEPT):
        lookup((5 + k, 2))
    assert (3, 4) not in image_core._shapes
    assert handed.shape == (3, 4) and np.all(handed == 7.0)
    assert not handed.flags.writeable
    with pytest.raises(ValueError):
        handed[0, 0] = 1.0
