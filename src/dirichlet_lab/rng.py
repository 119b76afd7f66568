"""Deterministic random streams and worker-count-independent batching.

Every stochastic routine in this package draws from streams keyed by
``(seed, tag, block_index)``.  Work is cut into fixed-size blocks, each
block gets its own independent generator, and block outputs are merged
in block order.  Worker count therefore never changes which stream
produced which sample: running with 1 worker or 8 gives bit-identical
results.  A block's rows do not depend on how many of them are drawn, so
any window of a stream can be drawn on its own and equals the same slice
of a longer run; rejection-style sampling draws each pass as its own
window and filters in stream order, so the accepted subsequence is
reproducible.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

from .errors import ParameterError

# Fixed once and for all: changing it changes every sampled stream.
BLOCK = 4096

_T = TypeVar("_T")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ParameterError("seed must be nonnegative, got %r" % (seed,))


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ParameterError("workers must be >= 1, got %r" % (workers,))


def stream(seed: int, block_index: int = 0, tag: int = 0) -> np.random.Generator:
    """Independent generator for one block of one logical stream."""
    _check_seed(seed)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, block_index))
    return np.random.Generator(np.random.PCG64(ss))


def map_blocks(
    fn: Callable[[int], _T],
    n_blocks: int,
    workers: int = 1,
) -> list[_T]:
    """Apply ``fn`` to block indices 0..n_blocks-1, merged in block order.

    ``fn`` must be a pure function of its block index (all randomness
    keyed through :func:`stream`).  Threads are enough here: the heavy
    per-block work is vectorized numpy which releases the GIL.
    """
    _check_workers(workers)
    if workers == 1 or n_blocks <= 1:
        return [fn(b) for b in range(n_blocks)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_blocks)))


def sample_batched(
    draw: Callable[[np.random.Generator, int], np.ndarray],
    total: int,
    seed: int,
    tag: int = 0,
    workers: int = 1,
    start: int = 0,
) -> np.ndarray:
    """Stream positions ``start .. start + total - 1``, concatenated.

    ``draw(rng, count)`` returns an array whose first axis has length
    ``count`` and whose rows do not depend on ``count``.  Position ``i``
    lives in block ``i // BLOCK``; only the blocks that overlap the window
    are drawn, each up to the window's end, and sliced from its start.
    """
    if total < 0:
        raise ParameterError("total must be nonnegative")
    if start < 0:
        raise ParameterError("start must be nonnegative")
    if total == 0:
        return draw(stream(seed, 0, tag), 0)
    stop = start + total
    first = start // BLOCK

    def one(i: int) -> np.ndarray:
        lo = (first + i) * BLOCK
        rows = draw(stream(seed, first + i, tag), min(lo + BLOCK, stop) - lo)
        return rows[max(start - lo, 0):]

    parts = map_blocks(one, (stop - 1) // BLOCK + 1 - first, workers=workers)
    return np.concatenate(parts, axis=0)
