"""Counter-keyed random streams for reproducible, parallel-safe Monte Carlo.

Every random quantity in the package is drawn from a Philox generator whose
key encodes ``(seed, path)``: the path is a tuple of small integers naming
the consumer (context tag, draw index, cell index, replica, ...).  Streams
are therefore independent of call order and of how work is split across
workers, which is what makes experiment output byte-stable.

The 128-bit Philox key is ``[seed mod 2^64, path_key(*path)]`` and the
counter starts at zero.  The key reaches Philox through ``_Key``, a seed
sequence that hands back exactly those two words when Philox asks for its
key.  Passing the key as Philox's ``key`` argument gives the same stream,
but numpy then first builds a seed sequence from OS entropy and discards
it, which took more than half the time of opening a stream.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1

# Context tags used to derive streams.  Values are part of the
# reproducibility contract: changing them changes all sampled numbers.
NODES = 1
SPACE = 2
WCE_Y = 3
WCE_Z = 4
AN = 5
DELTA = 6
GAMMA = 7
PROBE = 8
MZ = 9
BOOT = 10
VERIFY = 11
BOUNDS = 12
POINCARE = 13
SELFTEST = 14
WITNESS = 15
WCE_OP = 16


class _Key(ISeedSequence):
    """A fixed Philox key posing as a seed sequence: Philox asks it for
    two uint64 words and uses them as its key."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _mix(h, v):
    """One splitmix64 absorption step (Python ints or uint64 arrays)."""
    h = (h ^ (v & _MASK64)) & _MASK64
    h = (h * 0xBF58476D1CE4E5B9) & _MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK64
    h ^= h >> 31
    return h


def path_key(*path):
    """Collapse an integer path into a 64-bit key (order and length sensitive).

    One part may be an array of non-negative integers; the key is then a
    uint64 array holding the key of each element's path.
    """
    h = 0x9E3779B97F4A7C15
    h = _mix(h, len(path))
    for part in path:
        h = _mix(h, part.astype(np.uint64) if isinstance(part, np.ndarray) else int(part))
    return h


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the stream addressed by ``(seed, *path)``.

    The same address always yields an identical stream, regardless of call
    site, call order, or worker count.
    """
    key = np.array([int(seed) & _MASK64, path_key(*path)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(key)))


def substreams(seed: int, *path) -> list[np.random.Generator]:
    """``substream`` for each element of the one array part of ``path``.

    ``substreams(seed, a, ids, b)[i]`` draws what
    ``substream(seed, a, ids[i], b)`` draws; the keys are hashed in one
    array pass.
    """
    keys = path_key(*path)
    table = np.empty((len(keys), 2), dtype=np.uint64)
    table[:, 0] = int(seed) & _MASK64
    table[:, 1] = keys
    return [np.random.Generator(np.random.Philox(_Key(key))) for key in table]
