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

Callers that need a few uniforms for each of many consumers (one per cell
or per draw) give each consumer its own run of one stream: ``window``
returns any run of a stream directly, since Philox word i is word ``i % 4``
of the stream's block ``i // 4``.  Philox is a keyed function of its
counter (Salmon et al., *Parallel random numbers: as easy as 1, 2, 3*,
SC'11), so disjoint runs of one stream are as independent as separate
keys, and a block of consumers needs one Philox, not one per consumer.
``partition.stream_points`` reads such runs: draw k of a fixed-function
estimator (``cubature.estimate_BN``, ``mz.mz_pair``) is run k of the stream
``(seed, NODES)`` or ``(seed, MZ)``, cell j of the Monte Carlo cell means
run j of ``(seed, MZ, 1)``, and cell j of ``partition.verify_partition``'s
size samples run j of ``(seed, VERIFY, N, 1)``.  Work with at least a
fraction of a millisecond of numerics per stream (``cubature.draw_nodes``,
the wce draws) opens a stream of its own.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK64 = (1 << 64) - 1

# Context tags used to derive streams.  Values are part of the
# reproducibility contract: changing them changes all sampled numbers.
# The gaps (2, 15) are tags that were removed unused.
NODES = 1
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
WCE_OP = 16


class _Key(ISeedSequence):
    """A fixed Philox key posing as a seed sequence: Philox asks it for
    two uint64 words and uses them as its key."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _mix(h: int, v: int) -> int:
    """One splitmix64 absorption step."""
    h = (h ^ (v & _MASK64)) & _MASK64
    h = (h * 0xBF58476D1CE4E5B9) & _MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & _MASK64
    h ^= h >> 31
    return h


def path_key(*path: int) -> int:
    """Collapse an integer path into a 64-bit key (order and length sensitive)."""
    h = 0x9E3779B97F4A7C15
    h = _mix(h, len(path))
    for part in path:
        h = _mix(h, int(part))
    return h


def _state(seed: int, key: int, block: int) -> dict:
    """The Philox state of the stream ``(seed, key)`` just before it draws
    its block ``block``: counter ``block`` and an empty buffer, since numpy
    steps the counter before it refills an empty buffer.  Block 0 gives a
    newly opened stream.  The setter reads Python ints about three times
    faster than arrays."""
    return {"bit_generator": "Philox",
            "state": {"counter": [block, 0, 0, 0], "key": [int(seed) & _MASK64, key]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the stream addressed by ``(seed, *path)``.

    The same address always yields an identical stream, regardless of call
    site, call order, or worker count.
    """
    key = np.array([int(seed) & _MASK64, path_key(*path)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_Key(key)))


def window(seed: int, *path: int, start: int, shape) -> np.ndarray:
    """Uniforms ``start`` .. ``start + n - 1`` of the stream ``(seed, *path)``,
    n = prod(shape), in the given shape.

    Equals ``substream(seed, *path).random(start + n)[start:]`` bit for bit
    without drawing the first ``start``: uniform i is Philox word i, which
    is word ``i % 4`` of the stream's block ``i // 4``.
    """
    if start < 0:
        raise ValueError(f"window start must be >= 0, got {start}")
    block, skip = divmod(int(start), 4)
    bitgen = np.random.Philox(_Key(np.zeros(2, dtype=np.uint64)))
    bitgen.state = _state(seed, path_key(*path), block)
    if skip:
        bitgen.random_raw(skip)
    return np.random.Generator(bitgen).random(shape)
