"""One unit at a time: the reference for the counter-addressed node and
cell streams that ``partition.stream_points`` reads a block at a time."""

import math

from stratcub import rng as rngmod


class StreamRun:
    """Run ``k`` of the stream ``(seed, *path)``, posing as a generator:
    ``random(shape)`` returns uniforms ``[k n, (k + 1) n)``, n = prod(shape),
    read with ``rng.window``.  ``partition.cell_points`` and ``cell_sample``
    draw once, so given one they place unit k's points."""

    def __init__(self, seed: int, *path: int, k: int):
        self.seed, self.path, self.k = seed, path, k

    def random(self, shape):
        n = math.prod(shape)
        return rngmod.window(self.seed, *self.path, start=self.k * n, shape=shape)
