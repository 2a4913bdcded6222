"""Reproducible random streams keyed by (master seed, stream index).

Each replicate gets its own Philox stream, so a path is a pure function
of its own stream.  Philox is counter-based: each counter value under key
(seed, stream) gives four 64-bit words, one double each, and a stream's
first draw is counter 1.  So ``BlockUniforms`` reaches any block of any
stream by setting one bit generator's key and counter, with no generator
object per stream.  ``philox_rng`` sets a fresh bit generator's key the
same way, so making a generator reads no OS entropy.
"""

from __future__ import annotations

import numpy as np

_U64 = (1 << 64) - 1

# Experiments separate their legs (grid points, estimators) by giving each
# leg the streams from j * STREAM_BLOCK on; a leg must use fewer streams
# than this, or it would reuse the streams of the next leg.
STREAM_BLOCK = 10_000_000


class _ZeroSeed(np.random.bit_generator.ISeedSequence):
    """Seeds a bit generator whose key is set right after.

    ``Philox(key=...)`` would make a SeedSequence from fresh OS entropy and
    then ignore it; a real SeedSequence would hash a key that the state
    setter then overwrites.  This one hands out zeros.
    """

    def generate_state(self, n_words, dtype=np.uint32):
        return np.zeros(n_words, dtype=dtype)


_ZERO_SEED = _ZeroSeed()


def philox_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for the given (seed, stream) pair.

    Its draws are those of ``Generator(Philox(key=[seed, stream]))``, with
    both words taken mod 2**64: the key and a zero counter are set through
    the state setter, with the buffer marked spent as the constructor does.
    """
    bits = np.random.Philox(_ZERO_SEED)
    bits.state = {"bit_generator": "Philox",
                  "state": {"counter": [0, 0, 0, 0], "key": [seed & _U64, stream & _U64]},
                  "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


class BlockUniforms:
    """Per-replicate uniforms, drawn in blocks, in a fixed per-stream order.

    Row i holds the draws of ``philox_rng(seed, stream0 + i)``: block r
    is its draws 64r ... 64r+63, that is Philox counters 16r+1 ... 16r+16
    under key (seed, stream0 + i), reached by setting the state of one bit
    generator.  Each row keeps the block it holds and refills only itself,
    so the lockstep sampler (every replicate at the same draw) and the
    state sweep (each at its own) read draw k of a replicate's own stream
    alike, and a replicate's numbers depend only on its (seed, stream) pair.
    """

    BLOCK = 64  # uniforms drawn from each replicate's stream at a time

    def __init__(self, seed: int, stream0: int, count: int):
        self._seed = seed & _U64
        self._stream0 = stream0
        self._gen = philox_rng(seed, stream0)
        self._bits = self._gen.bit_generator
        self._buf = np.empty((count, self.BLOCK))
        self._block = np.full(count, -1, dtype=np.int64)

    def draws(self, rows: np.ndarray, k) -> np.ndarray:
        """Draw k[j] (counted from 0) of the stream of each distinct row rows[j].

        k is an integer array shaped like rows, or one count for every row.
        """
        block, col = np.divmod(k, self.BLOCK)
        stale = self._block[rows] != block
        if stale.any():
            self._refill(rows[stale], np.broadcast_to(block, rows.shape)[stale])
        return self._buf[rows, col]

    def _refill(self, rows: np.ndarray, blocks: np.ndarray):
        # the state setter reads plain sequences; buffer_pos 4 marks the
        # buffer spent, so the first draw advances the counter to 16r + 1
        self._block[rows] = blocks
        key = [self._seed, 0]
        counter = [0, 0, 0, 0]
        state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        for i, r in zip(rows.tolist(), blocks.tolist()):
            key[1] = (self._stream0 + i) & _U64
            counter[0] = self.BLOCK // 4 * r
            self._bits.state = state
            self._gen.random(self.BLOCK, out=self._buf[i])
