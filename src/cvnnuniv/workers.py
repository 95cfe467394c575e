"""The package's one thread pool: network row blocks, lattice mollification sums and invariant trials run on it.

Work goes to the pool only from a thread outside it; a call made inside a
worker runs serially, so that no worker waits on the pool it belongs to.
Callers give the pool only work whose bits do not depend on the thread that
does it, so results do not depend on the number of workers.
"""

from __future__ import annotations

import os
import threading

# entries of one block of work: 1 MB per complex array, so a block stays in cache
CHUNK_ENTRIES = 1 << 16
# one worker thread per CPU this process may use
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None
_pool_lock = threading.Lock()
_in_worker = threading.local()


def _mark_worker():
    _in_worker.active = True


def pooled():
    """Whether work handed over now goes to the pool: it has several workers and this thread is none of them."""
    return _WORKERS > 1 and not getattr(_in_worker, "active", False)


def pool():
    """The thread pool of ``_WORKERS`` workers, started on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported on first use: concurrent.futures pulls in logging, which would lengthen every start-up
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_WORKERS, thread_name_prefix="cvnnuniv-worker", initializer=_mark_worker)
        return _pool


class _Done:
    """The result of work done on the calling thread, read like a future's."""

    def __init__(self, value):
        self.value = value

    def result(self):
        return self.value


def submit(fn, *args):
    """``fn(*args)`` on the pool when :func:`pooled`, else at once; either way an object whose ``result()`` is its value."""
    if pooled():
        return pool().submit(fn, *args)
    return _Done(fn(*args))


def map(fn, items):
    """``[fn(item) for item in items]``, on the pool when :func:`pooled`, else serially.

    Results come back in the order of ``items``, so the first failing item
    raises, as in the serial loop.
    """
    if pooled():
        return list(pool().map(fn, items))
    return [fn(item) for item in items]


def _forget_pool():
    """In a forked child, which has none of the parent's workers: the next hand-over starts a pool of its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)
