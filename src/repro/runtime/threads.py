"""Intra-process slab parallelism: the shared :class:`SlabPool`.

The compiled hot path is one fused NumPy pass per field; every large
ufunc in it releases the GIL, so slab-level *threads* can saturate the
cores while still emitting the identical single-stream FZMD container —
unlike the sharded engine, which pays per-shard container framing for
its parallelism.  This module provides the three pieces the compiled
plans need:

* :func:`resolve_threads` — one place that turns ``threads=`` / the
  ``FZMOD_THREADS`` environment variable / "auto" into a worker count;
* :class:`SlabPool` and :func:`shared_pool` — a lazily-created,
  persistent process-wide thread pool (warm calls pay zero pool
  spin-up) with ordered fan-out/fan-in and an inline guard so slab
  tasks that themselves reach the pool never deadlock;
* :func:`thread_arena` — a per-thread :class:`~repro.runtime.memory.
  BufferPool` with a private allocator and metrics registry, so slab
  workers acquire scratch without contending on the global pool's lock
  (or racing the unlocked global :class:`Allocator` counters).

Determinism contract (enforced by fzlint FZL020 and the byte-identity
tests): work scheduled onto the pool must not mutate module-level or
plan-shared state, and results must be merged in slab order —
:meth:`SlabPool.run_ordered` returns results *by submission index*, and
raises the lowest-indexed failure, so ``threads=N`` output is
byte-identical to ``threads=1`` for every ``N``.

The thread *budget* travels via a context variable
(:func:`thread_budget` / :func:`active_threads`) so kernels called
through module interfaces with no ``threads`` parameter (the Huffman
chunk codec) can discover how wide the enclosing plan is running.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterator, Sequence, TypeVar

from ..obs.metrics import MetricsRegistry
from .memory import HOST_SPACE, Allocator, BufferPool, MemorySpace

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["AUTO_MIN_BYTES", "MAX_THREADS", "SlabPool", "active_threads",
           "resolve_threads", "run_slabs", "shared_pool", "slab_ranges",
           "thread_arena", "thread_budget"]

#: below this input size "auto" stays single-threaded: slab fan-out
#: costs a few hundred microseconds of submission + join, which only
#: pays for itself once each slab holds several MB of ufunc work
AUTO_MIN_BYTES = 8 << 20

#: hard ceiling on the pool width (runaway FZMOD_THREADS guard)
MAX_THREADS = 64

_ACTIVE: contextvars.ContextVar[int] = contextvars.ContextVar(
    "fzmod_active_threads", default=0)


def active_threads() -> int:
    """The thread budget installed by the innermost :func:`thread_budget`.

    ``0`` means no compiled plan has declared a budget on this call path
    (kernels then treat it as "run serial").
    """
    return _ACTIVE.get()


@contextlib.contextmanager
def thread_budget(n: int) -> Iterator[int]:
    """Declare the slab-thread budget for the enclosed call tree."""
    n = max(1, int(n))
    token = _ACTIVE.set(n)
    try:
        yield n
    finally:
        _ACTIVE.reset(token)


def resolve_threads(threads: int | None = None, *,
                    nbytes: int | None = None) -> int:
    """Turn a ``threads=`` argument into a concrete worker count.

    Resolution order: an explicit ``threads`` wins; else a set
    ``FZMOD_THREADS`` environment variable; else "auto" — the CPU count
    when the input is big enough to amortise slab fan-out
    (``nbytes >= AUTO_MIN_BYTES``), one otherwise (``nbytes=None``
    means "size unknown, assume large").  Always ``>= 1`` and capped at
    :data:`MAX_THREADS`.
    """
    if threads is not None:
        n = int(threads)
        if n < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        return min(n, MAX_THREADS)
    env = os.environ.get("FZMOD_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValueError(
                f"FZMOD_THREADS must be an integer, got {env!r}") from None
        return min(max(1, n), MAX_THREADS)
    cores = os.cpu_count() or 1
    if nbytes is not None and nbytes < AUTO_MIN_BYTES:
        return 1
    return min(cores, MAX_THREADS)


def slab_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Partition ``range(n)`` into ``<= parts`` contiguous, balanced slabs.

    Deterministic for a given ``(n, parts)``: sizes differ by at most
    one, larger slabs first.  Fewer than ``parts`` ranges come back when
    ``n < parts``; empty list when ``n == 0``.
    """
    n = int(n)
    if n <= 0:
        return []
    parts = max(1, min(int(parts), n))
    base, extra = divmod(n, parts)
    ranges: list[tuple[int, int]] = []
    start = 0
    for k in range(parts):
        stop = start + base + (1 if k < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


class SlabPool:
    """A persistent thread pool with ordered, deadlock-safe fan-out.

    Thin wrapper over :class:`~concurrent.futures.ThreadPoolExecutor`
    adding the two properties slab execution needs: results come back
    in *submission* order (never completion order — the determinism
    contract), and tasks submitted from inside a pool worker run inline
    on the calling thread, so a kernel that fans out while already
    running on the pool can never deadlock waiting for its own worker
    slot.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._member = threading.local()

        def _mark_member() -> None:
            self._member.flag = True

        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="fzmod-slab",
            initializer=_mark_member)

    def in_worker(self) -> bool:
        """Whether the calling thread is one of this pool's workers."""
        return bool(getattr(self._member, "flag", False))

    def run_ordered(self, fn: Callable[[T], R],
                    items: Sequence[T]) -> list[R]:
        """``[fn(item) for item in items]``, fanned out over the pool.

        Results are returned in item order; when several tasks raise,
        the *lowest-indexed* failure propagates (deterministic, matching
        what a serial loop would have raised first).  Runs inline for a
        single item or when called from a pool worker.
        """
        if len(items) <= 1 or self.in_worker():
            return [fn(item) for item in items]
        futures = [self._executor.submit(fn, item) for item in items]
        results: list[R] = []
        first_exc: BaseException | None = None
        for fut in futures:
            try:
                results.append(fut.result())
            # fzlint: disable-next-line=FZL005 -- every failure is collected
            # and the lowest-indexed one re-raised below; nothing is dropped
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if first_exc is None:
                    first_exc = exc
        if first_exc is not None:
            raise first_exc
        return results

    def shutdown(self, wait: bool = False) -> None:
        """Retire the pool's threads (in-flight tasks still complete)."""
        self._executor.shutdown(wait=wait)


_POOL: SlabPool | None = None
_POOL_LOCK = threading.Lock()


def _forget_pool_in_child() -> None:
    # a forked child gets the executor without its threads, but its idle
    # count still includes them: it would queue every slab and start none
    global _POOL, _POOL_LOCK
    _POOL = None
    _POOL_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool_in_child)


def shared_pool(workers: int | None = None) -> SlabPool:
    """The process-wide persistent :class:`SlabPool`, grown on demand.

    Created lazily on first use and reused for every later call — warm
    requests pay zero pool spin-up.  Asking for more workers than the
    current pool has replaces it with a wider one (the old pool's
    threads drain and exit); asking for fewer reuses the wider pool,
    with the fan-out width bounded by the caller's slab count instead.
    """
    global _POOL
    want = resolve_threads(workers) if workers is not None else \
        resolve_threads()
    with _POOL_LOCK:
        pool = _POOL
        if pool is None or pool.workers < want:
            old = pool
            pool = SlabPool(want)
            # fzlint: disable-next-line=FZL017 -- the whole point of the
            # shared pool is process-wide reuse; the rebind happens under
            # _POOL_LOCK and never from a slab worker (run_ordered inlines)
            _POOL = pool
            if old is not None:
                old.shutdown(wait=False)
        return pool


def run_slabs(fn: Callable[[T], R], items: Sequence[T], *,
              threads: int | None = None) -> list[R]:
    """Fan ``fn`` over ``items`` on the shared pool, results in order."""
    if len(items) <= 1:
        return [fn(item) for item in items]
    return shared_pool(threads).run_ordered(fn, items)


# --------------------------------------------------------------------- #
# per-thread scratch arenas                                              #
# --------------------------------------------------------------------- #

#: each slab worker's arena is bounded well below the global pool's
#: budget — scratch is a handful of slab-sized arrays per thread
ARENA_MAX_BYTES = 128 << 20

_ARENA = threading.local()


def thread_arena(space: MemorySpace = HOST_SPACE) -> BufferPool:
    """This thread's private scratch :class:`BufferPool`.

    Slab workers acquire their ping-pong grids here instead of from the
    global pool: no cross-thread lock contention on the hot path, and —
    load-bearing — a *private* :class:`Allocator` and
    :class:`MetricsRegistry`, because the global allocator's counters
    are plain unlocked dict updates that data-race under concurrent
    slab traffic.  Arenas persist for the life of the pool thread, so
    warm slab runs reuse their scratch across calls.
    """
    pool = getattr(_ARENA, "pool", None)
    if pool is None or pool.space is not space:
        pool = BufferPool(space, Allocator(), metrics=MetricsRegistry(),
                          max_bytes=ARENA_MAX_BYTES)
        # fzlint: disable-next-line=FZL017 -- _ARENA is threading.local, so
        # this store is private to the calling thread by construction
        _ARENA.pool = pool
    return pool
