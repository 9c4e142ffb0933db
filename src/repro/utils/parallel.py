"""Simple parallel/serial map helper for embarrassingly parallel sweeps.

Parameter sweeps in the benchmark harness (pulse-duration sweeps, RB seeds,
drift-study days) are embarrassingly parallel.  :func:`parallel_map` provides
a single entry point that runs serially by default (deterministic, easy to
profile) and can fan out to a process pool when ``num_workers > 1``.

The serial path is the default because the individual tasks in this library
are NumPy-heavy (they already use multi-threaded BLAS) and typically complete
in milliseconds to seconds; process-pool pickling overhead only pays off for
long-running independent tasks such as full IRB experiments.

The pool is **persistent**: repeated ``parallel_map`` calls with the same
worker count reuse one module-level :class:`ProcessPoolExecutor` instead of
re-spawning workers per call.  Worker startup (fork + interpreter/numpy
warm-up) costs tens to hundreds of milliseconds, which used to dominate
sub-second RB workloads; with reuse it is paid once per session.  Workers
also keep their process-local caches — notably the memory-mapped channel
tables of :mod:`repro.store.channels` — warm across calls.  Call
:func:`shutdown_pool` to reclaim the workers explicitly (an ``atexit`` hook
does it at interpreter exit).

**Start methods.**  The pool honours the multiprocessing *start method*
selected by ``$REPRO_MP_START`` (``fork`` | ``spawn`` | ``forkserver``; the
platform default when unset).  ``fork`` is fastest but Linux-only in
practice; ``spawn`` — the only method on Windows and the default on macOS —
re-imports the worker interpreter from scratch, so workers receive no
forked module state.  Everything the RB engine ships to workers is
picklable by construction (module-level functions, frozen dataclass
contexts, :class:`~repro.store.channels.ChannelTableHandle` instead of
live memory maps), and a spawn-context **initializer** re-applies the
parent's ``REPRO_*`` environment knobs (store directory, smoke flags) in
each fresh worker so path resolution matches the parent.  CI runs a matrix
leg with ``REPRO_MP_START=spawn`` to keep this path green.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

__all__ = [
    "parallel_map",
    "available_workers",
    "auto_chunksize",
    "shutdown_pool",
    "pool_start_method",
]

T = TypeVar("T")
R = TypeVar("R")

_START_METHODS = ("fork", "spawn", "forkserver")

#: The persistent executor and the (worker count, start method) it was
#: created with — a changed count *or* a changed ``$REPRO_MP_START`` rolls
#: the pool.
_POOL: ProcessPoolExecutor | None = None
_POOL_KEY: tuple[int, str] | None = None


def pool_start_method() -> str:
    """The multiprocessing start method the pool will use.

    ``$REPRO_MP_START`` when set (``fork`` | ``spawn`` | ``forkserver``),
    else the platform default (``fork`` on Linux, ``spawn`` on macOS and
    Windows).

    Raises
    ------
    ValueError
        If ``$REPRO_MP_START`` names an unknown or unavailable method.
    """
    env = os.environ.get("REPRO_MP_START")
    if not env:
        return mp.get_start_method()
    method = env.strip().lower()
    if method not in _START_METHODS:
        raise ValueError(
            f"REPRO_MP_START must be one of {_START_METHODS}, got {env!r}"
        )
    if method not in mp.get_all_start_methods():
        raise ValueError(
            f"start method {method!r} is not available on this platform "
            f"(available: {mp.get_all_start_methods()})"
        )
    return method


def _propagated_environment() -> dict[str, str]:
    """The ``REPRO_*`` knobs a spawned worker must see (snapshot)."""
    return {key: value for key, value in os.environ.items() if key.startswith("REPRO_")}


def _worker_init(environment: dict[str, str]) -> None:
    """Default pool initializer: re-apply the parent's ``REPRO_*`` knobs.

    Under ``fork`` the child inherits the environment anyway and this is a
    no-op rewrite; under ``spawn``/``forkserver`` it guarantees the worker
    resolves the same store directory, smoke flags and optimizer caps as
    the parent even when those were set *after* interpreter startup via
    ``os.environ`` assignment (which ``spawn`` does not replay).
    """
    for key in [k for k in os.environ if k.startswith("REPRO_") and k not in environment]:
        del os.environ[key]
    os.environ.update(environment)


def _make_pool(num_workers: int, start_method: str) -> ProcessPoolExecutor:
    """Create an executor bound to an explicit start-method context."""
    return ProcessPoolExecutor(
        max_workers=num_workers,
        mp_context=mp.get_context(start_method),
        initializer=_worker_init,
        initargs=(_propagated_environment(),),
    )


def _get_pool(num_workers: int) -> ProcessPoolExecutor:
    """The persistent executor, (re)created when count or method changes."""
    global _POOL, _POOL_KEY
    key = (num_workers, pool_start_method())
    if _POOL is None or _POOL_KEY != key:
        shutdown_pool()
        _POOL = _make_pool(*key)
        _POOL_KEY = key
    return _POOL


def shutdown_pool() -> None:
    """Shut down the persistent worker pool (no-op when none is running).

    Safe to call at any time; the next ``parallel_map`` with
    ``num_workers > 1`` transparently starts a fresh pool.
    """
    global _POOL, _POOL_KEY
    if _POOL is not None:
        _POOL.shutdown(wait=False, cancel_futures=True)
        _POOL = None
        _POOL_KEY = None


atexit.register(shutdown_pool)


def available_workers() -> int:
    """Return the number of usable CPU workers (at least 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))  # respects cgroup/affinity limits
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def auto_chunksize(n_items: int, num_workers: int) -> int:
    """Heuristic pool chunk size: ~4 chunks per worker, at least 1.

    Small chunks keep the pool load-balanced when task durations vary (long
    RB sequences take longer than short ones); one-item chunks pay pickling
    overhead per item.  Four chunks per worker is the standard compromise
    (it is also what ``multiprocessing.Pool.map`` defaults to).
    """
    if num_workers <= 1:
        return 1
    return max(1, n_items // (4 * num_workers))


def parallel_map(
    func: Callable[[T], R],
    items: Iterable[T],
    num_workers: int = 1,
    chunksize: int | None = None,
    reuse_pool: bool = True,
) -> list[R]:
    """Map ``func`` over ``items``, optionally using a process pool.

    Parameters
    ----------
    func:
        Callable applied to each item.  Must be picklable when
        ``num_workers > 1`` — under the ``spawn`` start method that means a
        module-level function (lambdas and closures only survive ``fork``).
    items:
        Iterable of inputs.
    num_workers:
        ``1`` (default) runs serially in-process; ``>1`` uses a
        ``ProcessPoolExecutor`` with that many workers; ``0`` or negative
        values select :func:`available_workers` — the convention the RB
        executor exposes as ``num_workers=0`` ("use every CPU").
    chunksize:
        Chunk size forwarded to the executor map (ignored serially).
        ``None`` (default) picks :func:`auto_chunksize`.
    reuse_pool:
        Reuse the persistent module-level pool across calls (default) so
        repeated maps do not pay worker startup each time.  ``False``
        creates and tears down a dedicated pool for this call only.

    Returns
    -------
    list
        Results in the same order as ``items``.

    Notes
    -----
    The pool's start method follows ``$REPRO_MP_START`` (see
    :func:`pool_start_method`); changing it between calls transparently
    rolls the persistent pool.  Every worker runs the default initializer,
    which re-applies the parent's ``REPRO_*`` environment so spawned
    workers resolve the same persistent-store root as the parent.
    """
    items = list(items)
    if num_workers is None:
        num_workers = 1
    if num_workers <= 0:
        num_workers = available_workers()
    if num_workers == 1 or len(items) <= 1:
        return [func(item) for item in items]
    if chunksize is None:
        chunksize = auto_chunksize(len(items), num_workers)
    chunksize = max(1, chunksize)
    if not reuse_pool:
        with _make_pool(num_workers, pool_start_method()) as pool:
            return list(pool.map(func, items, chunksize=chunksize))
    try:
        return list(_get_pool(num_workers).map(func, items, chunksize=chunksize))
    except BrokenProcessPool:
        # a worker died (OOM-kill, crash); replace the pool and retry once
        shutdown_pool()
        return list(_get_pool(num_workers).map(func, items, chunksize=chunksize))
