"""Host runtime: the sanitizer, the ordered work queue and slab threads.

* :mod:`~repro.runtime.memory` — the ``out=`` aliasing
  :class:`Sanitizer`;
* :mod:`~repro.runtime.stream` — :class:`OrderedWorkQueue`, the bounded
  in-order window every engine schedules its shards on;
* :mod:`~repro.runtime.threads` — the shared :class:`SlabPool` behind
  ``threads=``.
"""

from .memory import SANITIZER, Sanitizer, sanitizing_enabled, set_sanitizing
from .stream import OrderedWorkQueue
from .threads import (SlabPool, active_threads, resolve_threads, run_slabs,
                      shared_pool, slab_ranges, thread_budget)

__all__ = [
    "Sanitizer", "SANITIZER", "sanitizing_enabled", "set_sanitizing",
    "OrderedWorkQueue", "SlabPool", "active_threads", "resolve_threads",
    "run_slabs", "shared_pool", "slab_ranges", "thread_budget",
]
