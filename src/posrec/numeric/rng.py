"""Counter-based random streams.

Philox keyed by (seed, stream): the same pair always replays the same draw
sequence, on any platform, so sweep workers and resumed runs agree bit for
bit. Child streams are derived as stream * 1_000_003 + k + 1: while every id
k is below 1_000_002, different paths of ids from one Rng give different
streams at any depth, until a stream reaches 2^64.  The key holds it mod 2^64
(_MASK64), so larger streams wrap and may meet.  The dropout streams nest five
deep (run -> dropout -> epoch -> batch -> block -> sublayer) and pass 2^64:
Rng(0).child(3).child(200).child(1024).child(3).child(1).stream has 82 bits.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


class Rng:
    """One (seed, stream) draw sequence; each draw continues where the last ended."""

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, k: int) -> "Rng":
        return Rng(self.seed, self.stream * 1_000_003 + int(k) + 1)

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def normal(self, shape=None, loc: float = 0.0, scale: float = 1.0) -> np.ndarray:
        return self._gen.normal(loc, scale, size=shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, pool, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(pool, size=size, replace=replace)

    def __repr__(self):
        return f"Rng(philox4x64, seed={self.seed}, stream={self.stream})"
