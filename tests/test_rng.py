import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stratcub import rng as rngmod

PATHS = [(), (rngmod.BOOT,), (rngmod.VERIFY, 4096), (rngmod.VERIFY, 4096, 17, 1),
         (rngmod.WCE_Y, 3, 2**40, 0), (rngmod.GAMMA, 0, 5, 2**63, 7)]


def _reference(seed, *path):
    """The stream as numpy's own Philox key argument opens it."""
    key = np.array([seed & rngmod._MASK64, rngmod.path_key(*path)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draws(g):
    return (g.random(1000), g.integers(0, 2**40, 100), g.integers(0, 7, 101),
            g.standard_normal(100))


@pytest.mark.parametrize("seed", [0, 5, -1, 2**63 + 1])
@pytest.mark.parametrize("path", PATHS, ids=lambda p: f"len{len(p)}")
def test_substream_matches_philox_key_argument(seed, path):
    for a, b in zip(_draws(rngmod.substream(seed, *path)), _draws(_reference(seed, *path))):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("start", [*range(10), 1023, 10**6])
@pytest.mark.parametrize("seed", [0, -1, 2**63 + 1])
def test_window_matches_substream_prefix(seed, start):
    path = (rngmod.VERIFY, 4096, 1)
    stream = rngmod.substream(seed, *path).random(start + 64)
    for n in (1, 3, 64):
        assert np.array_equal(rngmod.window(seed, *path, start=start, shape=n),
                              stream[start:start + n])
    for shape in [(4, 16), (2, 3), (8, 2, 2)]:
        n = math.prod(shape)
        assert np.array_equal(rngmod.window(seed, *path, start=start, shape=shape),
                              stream[start:start + n].reshape(shape))


def test_window_at_zero_matches_uniforms_rows():
    # window at start 0 is each per-id stream's first uniforms, row by row
    ids = np.arange(5, 30)
    for j in ids:
        expect = rngmod.substream(7, rngmod.VERIFY, 512, int(j), 0).random((3, 4))
        assert np.array_equal(rngmod.window(7, rngmod.VERIFY, 512, int(j), 0, start=0,
                                            shape=(3, 4)), expect)


def test_window_threads_match_serial():
    starts = [0, 1, 2, 3, 5, 1023, 4097, 10**5] * 2
    serial = [rngmod.window(3, rngmod.VERIFY, 64, 1, start=s, shape=(32, 7)) for s in starts]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(
            lambda s: rngmod.window(3, rngmod.VERIFY, 64, 1, start=s, shape=(32, 7)), starts))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_window_rejects_negative_start():
    with pytest.raises(ValueError, match="start"):
        rngmod.window(0, rngmod.VERIFY, start=-1, shape=3)
