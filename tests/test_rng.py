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


@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
def test_path_key_array_part_matches_scalar_keys(dtype):
    ids = np.concatenate([np.arange(50), [2**31, 2**40, 2**62]]).astype(dtype)
    keys = rngmod.path_key(rngmod.VERIFY, 4096, ids, 1)
    assert keys.dtype == np.uint64 and keys.shape == ids.shape
    assert [int(k) for k in keys] == [rngmod.path_key(rngmod.VERIFY, 4096, int(j), 1)
                                      for j in ids]
    first = rngmod.path_key(ids)
    assert [int(k) for k in first] == [rngmod.path_key(int(j)) for j in ids]


@pytest.mark.parametrize("seed", [0, -1, 2**63 + 1])
def test_substreams_match_substream(seed):
    ids = np.arange(3, 40)
    gens = rngmod.substreams(seed, rngmod.VERIFY, 256, ids, 0)
    assert len(gens) == len(ids)
    for g, j in zip(gens, ids):
        for a, b in zip(_draws(g), _draws(rngmod.substream(seed, rngmod.VERIFY, 256, int(j), 0))):
            assert np.array_equal(a, b)


def test_substreams_share_no_state():
    a, b = rngmod.substreams(3, rngmod.VERIFY, np.array([1, 1]))
    first = a.random(64)
    # drawing from one generator leaves the other at the start of the stream
    assert np.array_equal(b.random(64), first)
    assert not np.array_equal(a.random(64), first)
