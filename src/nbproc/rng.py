"""Seeded random sources with deterministic child derivation.

Every stochastic routine in this package draws through a
:class:`RandomSource`.  The source wraps numpy's counter-based Philox
bit generator keyed by ``(seed, *path)`` via ``SeedSequence``, so a
given ``(seed, path)`` pair reproduces the same variate stream on any
platform running the same numpy version.  Child sources derived with
:meth:`RandomSource.child` are statistically independent and themselves
a pure function of ``(seed, index path)``.

A chain draws from one source's Philox stream in a fixed order.  The one
exception is a large gamma array (``nbproc.models.BLOCKED_CELLS`` cells or
more): it is drawn in fixed row blocks, each from an SFC64 generator keyed
by one draw from the chain's stream, so its bits are still a pure function
of the chain's state and the shape of the draw.
"""

from __future__ import annotations

import numpy as np

_SEED_LIMIT = 2**64


class RandomSource:
    """A single-owner stream of random variates.

    Do not share one source between concurrent consumers; derive a child
    per consumer instead.  Moving a source between threads of control is
    safe as long as only one of them draws from it.
    """

    __slots__ = ("seed", "path", "generator")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < _SEED_LIMIT:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
        self.seed = seed
        self.path = tuple(int(i) for i in path)
        if any(i < 0 for i in self.path):
            raise ValueError(f"child indices must be non-negative, got path {self.path}")
        entropy = (self.seed, *self.path)
        self.generator = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))

    def child(self, index: int) -> "RandomSource":
        """Derive the independent source identified by ``index``."""
        return RandomSource(self.seed, self.path + (int(index),))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, path={self.path})"
