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

Callers that need uniforms from many streams at once (one per cell or per
draw) use ``uniforms``, which opens one Philox per call and re-keys it
before each stream's row.  A Philox stream is a pure function of its key,
its counter and its output buffer; setting all of them, through the public
``state`` setter, to the key with counter zero and an empty buffer is the
state a newly opened stream starts in, so each row is bit-identical to
``substream(...).random``.  Re-keying costs about a sixth of opening a
Philox.  No generator leaves the call, so concurrent calls share nothing.

Callers that need a few uniforms for each of many consumers can instead
give each consumer its own run of one stream: ``window`` returns any run of
a stream directly, since Philox word i is word ``i % 4`` of the stream's
block ``i // 4``.  ``partition.verify_partition`` draws its size samples
that way, one ``window`` per block of cells.
"""

from __future__ import annotations

import math

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


def _state(seed: int, key: int, block: int = 0) -> dict:
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


def uniforms(seed: int, *path, shape) -> np.ndarray:
    """Uniforms on [0, 1) from one stream per element of the array part of
    ``path``; returns (K, *shape).

    ``uniforms(seed, a, ids, b, shape=s)[i]`` equals
    ``substream(seed, a, ids[i], b).random(s)`` bit for bit.  ``path`` must
    hold exactly one 1-D integer array; its keys are hashed in one pass.
    """
    arrays = [part for part in path if isinstance(part, np.ndarray)]
    if len(arrays) != 1 or arrays[0].ndim != 1:
        raise ValueError("uniforms needs exactly one 1-D array of ids in path, got "
                         f"{[a.shape for a in arrays] or 'none'}")
    keys = path_key(*path)
    out = np.empty((len(keys),) + shape)
    bitgen = np.random.Philox(_Key(np.zeros(2, dtype=np.uint64)))
    gen = np.random.Generator(bitgen)
    state = _state(seed, 0)
    key = state["state"]["key"]
    for k, row in zip(keys.tolist(), out.reshape(len(keys), math.prod(shape))):
        key[1] = k
        bitgen.state = state
        gen.random(out=row)
    return out


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
