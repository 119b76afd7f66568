"""Deterministic random streams and worker-count-independent batching.

Every stochastic routine in this package draws from streams keyed by
``(seed, tag, block_index)``.  Work is cut into fixed-size blocks, each
block gets its own independent generator, and block outputs are merged
in block order.  Worker count therefore never changes which stream
produced which sample: running with 1 worker or 8 gives bit-identical
results.  A block's rows do not depend on how many of them are drawn, so
any window of a stream can be drawn on its own and equals the same slice
of a longer run.  Rejection sampling (:func:`first_kept`) draws each pass
as a window of whole blocks, each block once, and filters in stream
order, so the accepted subsequence is reproducible whatever the pass sizes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

import numpy as np

from .errors import EmptySupportError, ParameterError

# Fixed once and for all: changing it changes every sampled stream.
BLOCK = 4096
# a rejection sampler gives up after this many draws per row it must keep
_MAX_DRAWS_PER_ROW = 1000
# most rows of one rejection pass sized by the observed rate (unless the
# missing rows alone need more): a low rate then asks for 2 MB of doubles
# per coordinate at a time, not for its whole estimate at once
_PASS_CAP = 2 ** 18

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


def first_kept(
    window: Callable[[int, int], np.ndarray],
    keep: Callable[[np.ndarray], np.ndarray],
    count: int,
) -> np.ndarray:
    """The first ``count`` rows of a stream that ``keep`` accepts, in stream order.

    ``window(start, size)`` returns stream positions ``start .. start + size
    - 1`` and ``keep(rows)`` a boolean mask over them.  Each pass draws the
    whole blocks after the last one drawn, so no block is drawn twice.  The
    first pass draws as many as the missing rows would fill if every row
    were kept; a later one as many as they need at the rate kept so far, or
    twice the pass before while nothing is kept, at most max(the first
    rule, _PASS_CAP rows).  No pass draws past ceil(_MAX_DRAWS_PER_ROW
    count / BLOCK) blocks: fewer than ``count`` kept rows in that many
    blocks raise EmptySupportError.  Pass sizes change no kept row.
    """
    budget = -(-_MAX_DRAWS_PER_ROW * count // BLOCK) * BLOCK
    kept = []
    have = drawn = size = 0
    while have < count:
        if drawn >= budget:
            raise EmptySupportError("kept %d of %d needed samples after %d draws"
                                    % (have, count, drawn))
        least = -(-(count - have) // BLOCK) * BLOCK
        if drawn == 0:
            want = least
        elif have == 0:
            want = 2 * size
        else:
            want = -(-(count - have) * drawn // have)
        size = min(-(-want // BLOCK) * BLOCK, max(least, _PASS_CAP), budget - drawn)
        rows = window(drawn, size)
        drawn += size
        kept.append(rows[keep(rows)])
        have += kept[-1].shape[0]
    return np.concatenate(kept, axis=0)[:count]
