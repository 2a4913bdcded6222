"""Reproducible random streams keyed by (master seed, stream index).

Each replicate gets its own Philox stream, so a path is a pure function
of its own stream.  Philox is counter-based: each counter value under key
(seed, stream) gives four 64-bit words, one double each, and a stream's
first draw is counter 1.  So ``BlockUniforms`` reaches any block of any
stream by setting one bit generator's key and counter, with no generator
object per stream.
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
    """Per-replicate uniforms, drawn in blocks, in a fixed per-stream order.

    Row i holds the draws of ``philox_rng(seed, stream0 + i)``: refill r
    is its draws 64r ... 64r+63, that is Philox counters 16r+1 ... 16r+16
    under key (seed, stream0 + i), reached by setting the state of one
    bit generator.  A refill skips the rows its caller marks dead, so a
    replicate's numbers still depend only on its own (seed, stream) pair.
    """

    BLOCK = 64  # uniforms drawn from each replicate's stream at a time

    def __init__(self, seed: int, stream0: int, count: int):
        self._seed = seed & _U64
        self._stream0 = stream0
        self._bits = np.random.Philox(key=np.array([self._seed, stream0 & _U64],
                                                   dtype=np.uint64))
        self._gen = np.random.Generator(self._bits)
        self._buf = np.empty((count, self.BLOCK))
        self._block = -1
        self._used = self.BLOCK

    def next_column(self, live: np.ndarray) -> np.ndarray:
        """One fresh uniform per replicate; only rows where ``live`` holds are valid.

        Every replicate's stream advances in lockstep, so which replicates
        are still running never affects the numbers another replicate sees.
        """
        if self._used == self.BLOCK:
            self._block += 1
            self._refill(np.flatnonzero(live).tolist())
            self._used = 0
        col = self._buf[:, self._used]
        self._used += 1
        return col

    def _refill(self, rows: list[int]):
        # the state setter reads plain sequences; buffer_pos 4 marks the
        # buffer spent, so the first draw advances the counter to 16r + 1
        key = [self._seed, 0]
        state = {"bit_generator": "Philox",
                 "state": {"counter": [self.BLOCK // 4 * self._block, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for i in rows:
            key[1] = (self._stream0 + i) & _U64
            self._bits.state = state
            self._gen.random(self.BLOCK, out=self._buf[i])
