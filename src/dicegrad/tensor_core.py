"""The deterministic random number source.

Tensors are plain C-contiguous ``numpy`` arrays of ``float64``, rank-4
``(batch, channel, height, width)`` for image data.  `Rng` is the
splittable seeded stream every random draw in the project comes from.
"""

from __future__ import annotations

import numpy as np

Tensor = np.ndarray


class Rng:
    """Splittable deterministic random stream.

    A stream is identified by a 64-bit seed plus a tuple of integer stream
    indices; `child(i, ...)` derives an independent stream by extending the
    tuple.  Streams are backed by numpy's PCG64 keyed via SeedSequence, so
    the same (seed, path, draw sequence) reproduces identical values on any
    platform.  An Rng instance is a value object: never share one across
    threads, split children instead.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=self.path))
        )

    def child(self, *indices: int) -> "Rng":
        return Rng(self.seed, self.path + tuple(indices))

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0) -> Tensor:
        # mean + std * z rather than Generator.normal(mean, std) so that
        # std=0 is exact and never rejected.
        if std < 0:
            raise ValueError(f"std must be >= 0, got {std}")
        return mean + std * self._gen.standard_normal(size=shape)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> Tensor:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=shape)

    def random(self) -> float:
        return float(self._gen.random())

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, path={self.path})"
