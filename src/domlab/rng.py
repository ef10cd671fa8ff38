"""Deterministic counter-based random streams.

Every random draw in the package is derived from a 64-bit master seed plus
an explicit integer path, so results never depend on evaluation order,
worker count, or scheduling.  Large sample requests are partitioned into
fixed-size chunks; chunk j always uses the substream (seed, *path, j),
which makes parallel sampling bit-identical to sequential sampling.
"""

from __future__ import annotations

import math
import threading
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


class Workspace:
    """Float arrays that one worker reuses from chunk to chunk: array(key, shape)
    returns the same memory for a key whenever the shape fits in it, so a
    worker allocates each of its chunk-sized arrays once."""

    def __init__(self):
        self._buffers = {}

    def array(self, key, shape, order: str = "C") -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size)
        return buf[:size].reshape(shape, order=order)


_worker = threading.local()
_idle = []  # the Workspaces of finished map_chunks calls, for the next calls
_idle_lock = threading.Lock()


def workspace() -> Workspace:
    """The Workspace of the calling map_chunks worker, kept for the length of
    that call; a new one on any other thread."""
    return getattr(_worker, "workspace", None) or Workspace()


def map_chunks(fn, count: int, threads: int = 1) -> list:
    """[fn(j, lo, hi) for each CHUNK piece j = [lo, hi) of range(count)], in
    order, computed on a pool of ``threads`` worker threads.

    Each worker has one Workspace for the length of the call, which fn
    reaches through workspace(); what fn returns must not be a view of it.
    A finished call hands its workspaces on to later calls, so their pages
    are touched once per process, not once per call.  They are never freed:
    as many workspaces as workers have ever run at once stay allocated for
    the life of the process, each at the largest sizes it was asked for (a
    tail table in dimension d asks for up to four CHUNK x d arrays, "sum",
    "part", "running" and "normal", and three CHUNK-long ones, "sign",
    "exponential" and "stable"; in d = 1 it overwrites "sum" with |S|).
    """
    jobs = [(j, lo, min(lo + CHUNK, count)) for j, lo in enumerate(range(0, count, CHUNK))]
    taken = []

    def start_worker():
        with _idle_lock:
            _worker.workspace = _idle.pop() if _idle else Workspace()
            taken.append(_worker.workspace)

    try:
        with ThreadPoolExecutor(max_workers=threads, initializer=start_worker) as ex:
            return list(ex.map(fn, *zip(*jobs)))
    finally:
        with _idle_lock:
            _idle.extend(taken)
