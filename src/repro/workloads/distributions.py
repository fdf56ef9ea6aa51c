"""Deterministic access-skew distributions.

Both pickers are seeded and pure-Python so workloads replay identically
across runs and platforms — a requirement for crash-point reproducibility
in the recovery experiments.
"""

from __future__ import annotations

import bisect
import random


class UniformPicker:
    """Uniform choice over ``range(n)``."""

    def __init__(self, n: int, seed: int = 0):
        if n <= 0:
            raise ValueError("n must be positive")
        self.n = n
        self._rng = random.Random(seed)

    def pick(self) -> int:
        return self._rng.randrange(self.n)


class ZipfPicker:
    """Zipf-distributed choice over ``range(n)``.

    ``theta`` is the skew exponent: 0 is uniform, ~0.99 is the classic
    TPC-C-style skew where a few hot items absorb most accesses.  Sampling
    is by inverse CDF over the precomputed harmonic weights, O(log n) per
    pick.
    """

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0):
        if n <= 0:
            raise ValueError("n must be positive")
        if theta < 0:
            raise ValueError("theta cannot be negative")
        self.n = n
        self.theta = theta
        self._rng = random.Random(seed)
        cdf = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / (rank**theta)
            cdf.append(total)
        self._cdf = [value / total for value in cdf]

    def pick(self) -> int:
        point = self._rng.random()
        return bisect.bisect_left(self._cdf, point)
