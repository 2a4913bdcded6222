"""Reproducible random streams keyed by (master seed, stream index).

Each replicate gets its own counter-based Philox stream, so a path is a
pure function of its own stream.
"""

from __future__ import annotations

import numpy as np

_U64 = (1 << 64) - 1

# Experiments separate their legs (grid points, estimators) by giving each
# leg the streams from j * STREAM_BLOCK on; a leg must use fewer streams
# than this, or it would reuse the streams of the next leg.
STREAM_BLOCK = 10_000_000


def philox_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for the given (seed, stream) pair."""
    key = np.array([seed & _U64, stream & _U64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class BlockUniforms:
    """Per-replicate uniforms, drawn in blocks, in a fixed per-stream order."""

    BLOCK = 64  # uniforms drawn from each replicate's stream at a time

    def __init__(self, seed: int, stream0: int, count: int):
        self.gens = [philox_rng(seed, stream0 + i) for i in range(count)]
        self._buf = np.empty((count, 0))
        self._used = 0

    def next_column(self) -> np.ndarray:
        """One fresh uniform per replicate.

        Every replicate's stream advances in lockstep, so which replicates
        are still running never affects the numbers another replicate sees.
        """
        if self._used >= self._buf.shape[1]:
            self._buf = np.empty((len(self.gens), self.BLOCK))
            for i, g in enumerate(self.gens):
                self._buf[i] = g.random(self.BLOCK)
            self._used = 0
        col = self._buf[:, self._used]
        self._used += 1
        return col

