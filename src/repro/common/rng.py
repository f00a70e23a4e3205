"""Deterministic random number generation for workloads and simulations.

Every stochastic component (ntuple generator, workload mixes, simulated
network jitter) draws from a :class:`DeterministicRNG` seeded from a
name, so two runs with the same configuration produce identical data and
identical simulated timings — a requirement for reproducible benchmark
tables.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _seed_from(name: str, seed: int) -> int:
    digest = hashlib.sha256(f"{name}:{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class DeterministicRNG:
    """A named, forkable wrapper around :class:`numpy.random.Generator`.

    ``fork(child)`` derives an independent stream keyed by the child
    name, so adding a new consumer never perturbs existing streams —
    the classic parallel-RNG discipline from HPC codes.
    """

    def __init__(self, name: str = "root", seed: int = 20050615):
        self.name = name
        self.seed = seed
        self._gen = np.random.default_rng(_seed_from(name, seed))

    def fork(self, child: str) -> "DeterministicRNG":
        """Derive an independent, reproducible child stream."""
        return DeterministicRNG(f"{self.name}/{child}", self.seed)

    # Thin passthroughs (typed for the subset we use) -------------------------

    def integers(self, low: int, high: int | None = None):
        """A uniform integer in [low, high)."""
        return self._gen.integers(low, high)

    def normal(self, loc: float = 0.0, scale: float = 1.0, size=None):
        """Gaussian samples."""
        return self._gen.normal(loc, scale, size=size)

    def exponential(self, scale: float = 1.0, size=None):
        """Exponential samples."""
        return self._gen.exponential(scale, size=size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        """Uniform floats in [low, high)."""
        return self._gen.uniform(low, high, size=size)

    def choice(self, seq, p=None):
        """One sample from a sequence (optionally weighted)."""
        return self._gen.choice(seq, p=p)

    def random(self, size=None):
        """Uniform floats in [0, 1)."""
        return self._gen.random(size)
