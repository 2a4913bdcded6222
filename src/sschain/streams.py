"""Reproducible random streams keyed by (master seed, stream index).

Each replicate gets its own counter-based Philox stream, so results are
independent of scheduling and identical across thread counts; a path is a
pure function of its own stream.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

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

    def __init__(self, seed: int, stream0: int, count: int, block: int = 64):
        self.gens = [philox_rng(seed, stream0 + i) for i in range(count)]
        self.block = block
        self._buf = np.empty((count, 0))
        self._used = 0

    def next_column(self, active: np.ndarray) -> np.ndarray:
        """One fresh uniform per active replicate (inactive entries unspecified).

        Every replicate's stream advances in lockstep, so which replicates
        are active never affects the numbers another replicate sees.
        """
        if self._used >= self._buf.shape[1]:
            self._buf = np.empty((len(self.gens), self.block))
            for i, g in enumerate(self.gens):
                self._buf[i] = g.random(self.block)
            self._used = 0
        col = self._buf[:, self._used]
        self._used += 1
        return col


def parallel_blocks(fn, total: int, threads: int = 1, block: int | None = None,
                    concat=None):
    """Run fn(offset, count) over a partition of range(total), in fixed order.

    Work items are independent because every replicate owns its stream,
    so the reduction is a plain ordered concatenation: results are
    bit-identical for any thread count.
    """
    if concat is None:
        concat = lambda parts: np.concatenate(parts, axis=0)
    if threads <= 1:
        return fn(0, total)
    if block is None:
        block = max(64, -(-total // (4 * threads)))
    offsets = [(o, min(block, total - o)) for o in range(0, total, block)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        futures = [ex.submit(fn, o, c) for o, c in offsets]
        parts = [f.result() for f in futures]
    return concat(parts)
