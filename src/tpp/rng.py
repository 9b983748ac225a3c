"""Deterministic random streams.

One master seed drives everything. Sub-streams are derived by hashing a
slash-separated label path (SHA-256 of ``"{seed}:{path}"``) into a 128-bit
key for the Philox 4x64 counter-based generator, so independently labeled
consumers (init / masking / augmentation / data order) never interact and
any stream can be re-created from (seed, path) alone. Identical seed and
call sequence gives an identical stream on every platform.
"""

from __future__ import annotations

import hashlib

import numpy as np


class SeededRng:
    """A labeled, reproducible random stream.

    ``child(label)`` derives an independent stream; derivation is pure in
    (seed, path), so ``SeededRng(7).child("a").child("b")`` is the same
    stream in every process that constructs it.
    """

    def __init__(self, seed: int, path: str = ""):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.path = path
        digest = hashlib.sha256(f"{self.seed}:{path}".encode()).digest()
        key = np.frombuffer(digest[:16], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def child(self, label: str) -> "SeededRng":
        sep = "/" if self.path else ""
        return SeededRng(self.seed, f"{self.path}{sep}{label}")

    # thin wrappers so callers never touch the Generator API directly

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.standard_normal(shape) * std

    def trunc_normal(self, shape, std: float = 0.02) -> np.ndarray:
        """Normal(0, std) resampled until within +-2 std (ViT init convention)."""
        out = self._gen.standard_normal(shape)
        bad = np.abs(out) > 2.0
        while bad.any():
            out[bad] = self._gen.standard_normal(int(bad.sum()))
            bad = np.abs(out) > 2.0
        return out * std

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0):
        return self._gen.uniform(low, high, shape)

    def integers(self, low: int, high: int, shape=None):
        return self._gen.integers(low, high, shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def random(self) -> float:
        return float(self._gen.random())
