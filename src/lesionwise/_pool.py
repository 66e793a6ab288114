"""The package's one worker pool and its one size rule.

``eval``'s cases and the loss slabs run through ``run_all`` on
``worker_count()`` workers: ``LESIONWISE_THREADS`` if set, else the usable
CPUs. One call runs inline without reading the count; the count is read
on every run of two or more calls, each count gets its own pool on first
use, and one worker needs none. Work started from a pool worker runs
inline, so no worker waits on a pool and sharing one cannot deadlock. A
forked child (a data loader's worker, say) makes pools of its own.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_POOLS: dict[int, ThreadPoolExecutor] = {}
_LOCK = threading.Lock()
_LOCAL = threading.local()  # ``worker`` is set on the pools' threads


def worker_count() -> int:
    """``LESIONWISE_THREADS``, validated, else the usable CPU count."""
    raw = os.environ.get("LESIONWISE_THREADS")
    if raw is None:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        return cpus or os.cpu_count() or 1
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise ValueError(f"LESIONWISE_THREADS must be an integer >= 1, got {raw!r}")
    return int(raw)


def _mark_worker() -> None:
    _LOCAL.worker = True


def _executor(workers: int) -> ThreadPoolExecutor:
    with _LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ThreadPoolExecutor(
                workers, thread_name_prefix="lesionwise", initializer=_mark_worker)
        return pool


def _forget_pools() -> None:
    # A forked child has only the forking thread: the parent's workers, and
    # whoever held the lock, are not there.
    global _POOLS, _LOCK
    _POOLS, _LOCK = {}, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pools)


def run_all(calls: list) -> list:
    """Run each call and return their results in order.

    On the pool, each call runs in its own copy of the caller's context,
    which carries numpy's error state (``np.errstate``). No call is still
    running when this returns or raises; the first failed call, in order,
    raises. Run inline, a failed call ends the run before the next starts.
    """
    if len(calls) < 2 or (workers := worker_count()) == 1 or getattr(_LOCAL, "worker", False):
        return [call() for call in calls]
    pool = _executor(workers)
    futures = [pool.submit(contextvars.copy_context().run, call) for call in calls]
    wait(futures)
    return [f.result() for f in futures]
