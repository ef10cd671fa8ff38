"""Deterministic counter-based random streams.

Every random draw in the package is derived from a 64-bit master seed plus
an explicit integer path, so results never depend on evaluation order,
worker count, or scheduling.  Large sample requests are partitioned into
fixed-size chunks; chunk j always uses the substream (seed, *path, j),
which makes parallel sampling bit-identical to sequential sampling.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Fixed chunk size for partitioned sampling.  Must never change between
# runs of the same artifact version: it is part of the determinism contract.
CHUNK = 1 << 16


def seed_sequence(seed: int, *path: int) -> np.random.SeedSequence:
    """SeedSequence for the substream identified by an integer path."""
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def substream(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for the given (seed, path) substream."""
    return np.random.Generator(np.random.Philox(seed_sequence(seed, *path)))


def map_chunks(fn, count: int, threads: int = 1) -> list:
    """[fn(j, lo, hi) for each CHUNK piece j = [lo, hi) of range(count)], in
    order, computed on a pool of ``threads`` worker threads."""
    jobs = [(j, lo, min(lo + CHUNK, count)) for j, lo in enumerate(range(0, count, CHUNK))]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, *zip(*jobs)))
