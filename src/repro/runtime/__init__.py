"""Host runtime: scratch memory, the ordered work queue and slab threads.

* :mod:`~repro.runtime.memory` — the :class:`Allocator` accounting, the
  scratch :class:`BufferPool` and the contract :class:`Sanitizer`;
* :mod:`~repro.runtime.stream` — :class:`OrderedWorkQueue`, the bounded
  in-order window every engine schedules its shards on;
* :mod:`~repro.runtime.threads` — the shared :class:`SlabPool` behind
  ``threads=`` and the per-thread scratch arenas.
"""

from .memory import (SANITIZER, Allocator, BufferPool, Sanitizer,
                     default_pool, pooling_enabled, sanitizing_enabled,
                     set_pooling, set_sanitizing)
from .stream import OrderedWorkQueue
from .threads import (SlabPool, active_threads, resolve_threads, run_slabs,
                      shared_pool, slab_ranges, thread_arena, thread_budget)

__all__ = [
    "Allocator", "BufferPool", "default_pool",
    "pooling_enabled", "set_pooling", "Sanitizer", "SANITIZER",
    "sanitizing_enabled", "set_sanitizing", "OrderedWorkQueue",
    "SlabPool", "active_threads", "resolve_threads", "run_slabs",
    "shared_pool", "slab_ranges", "thread_arena", "thread_budget",
]
