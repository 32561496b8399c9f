import sys
import threading
from collections import Counter

import numpy as np
import pytest

from gdsr import quantize
from gdsr.image_core import as_image, shared_cache


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



def test_shared_cache_builds_each_key_once_under_contention():
    # more threads than cores, switching as often as the interpreter allows:
    # a build that two threads run at once would count a key twice
    builds = Counter()

    @shared_cache(maxsize=32)
    def build(key):
        builds[key] += 1
        for _ in range(5000):  # bytecode the interpreter may switch threads in
            pass
        return object()

    got = [[] for _ in range(6)]
    start = threading.Barrier(6, timeout=30)

    def ask(k):
        start.wait()
        got[k] = [build(key) for key in range(16) for _ in range(4)]

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
    assert builds == Counter(range(16)) and build.cache_info().misses == 16
    assert all(values == got[0] for values in got)
