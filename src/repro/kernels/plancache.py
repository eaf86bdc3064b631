"""Content-addressed plan cache for expensive derived objects.

Fused GPU compressors (cuSZ, FZ-GPU) amortise their setup work —
plan tracing, module resolution, scratch allocation — across
a stream of fields; a naive modular pipeline redoes it on every call.  The
:class:`PlanCache` closes that gap: derived objects ("plans") are keyed by
a digest of the *content* they were derived from, so any call anywhere in
the process that needs the same plan gets the cached instance back.
Nothing is keyed on the field data itself: a caller compressing fresh
content never repeats it.

Plans cached today
------------------
* compiled execution plans — the executors
  :func:`repro.compile.compile_plan` and
  :func:`repro.compile.compile_decode_plan` emit for a pipeline, keyed
  by the plan's content digest (spec + module fingerprints), so every
  engine in the process traces a given pipeline once.

Caches are process-wide, thread-safe, LRU-bounded by entry count, and
fully observable: per-cache hit / miss / eviction counters live in the
process-wide :data:`~repro.obs.metrics.GLOBAL_METRICS` registry
(``plancache.hits`` etc., labelled ``cache=<name>``), from which
:func:`repro.core.inspect.hotpath_stats`, the Prometheus exporter and
the ``plancache.*`` metrics of ``bench/`` all read.  Occupancy is
published as a gauge by a registry collector on scrape.

Set ``FZMOD_PLAN_CACHE=0`` to disable every cache (each lookup then calls
its builder directly but still counts misses), or call
:func:`clear_all_caches` to drop cached plans between measurements.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from ..obs.metrics import GLOBAL_METRICS

#: default per-cache entry bound
DEFAULT_MAX_ENTRIES = 64


def caching_enabled() -> bool:
    """Global kill switch (``FZMOD_PLAN_CACHE=0`` disables all caches)."""
    return os.environ.get("FZMOD_PLAN_CACHE", "1") != "0"


def digest(*parts: bytes | bytearray | memoryview | np.ndarray | int | str
           ) -> str:
    """Stable content digest over heterogeneous key parts.

    Arrays are hashed over their raw bytes together with dtype and shape,
    so two arrays with equal bytes but different views cannot collide.

    sha256, truncated to 128 bits.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(str(arr.dtype.str).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.view(np.uint8).reshape(-1).data)
        elif isinstance(part, (bytes, bytearray, memoryview)):
            h.update(b"b")
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()[:32]


class PlanCache:
    """A size-bounded, thread-safe LRU cache of derived objects.

    Parameters
    ----------
    name:
        stable identifier used in stats reports.
    max_entries:
        eviction bound.
    """

    def __init__(self, name: str, *,
                 max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.name = name
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict[Any, tuple[Any, str | None]] = \
            OrderedDict()
        # counters live in the global metrics registry (labelled by cache
        # name); a new cache taking over a name starts its counts fresh
        self._hits = GLOBAL_METRICS.counter("plancache.hits", cache=name)
        self._misses = GLOBAL_METRICS.counter("plancache.misses", cache=name)
        self._evictions = GLOBAL_METRICS.counter("plancache.evictions",
                                                 cache=name)
        # optional per-group counter triples, created on first use by
        # callers that tag inserts (the compiled-plan cache labels
        # compress vs decode plans this way)
        self._groups: dict[str, tuple] = {}
        self.reset_stats()
        # fzlint: disable-next-line=FZL001 -- deliberate process-wide
        # registration: caches self-enrol so stats/clear can reach them
        _CACHES[name] = self

    def _group_counters(self, group: str) -> tuple:
        """(hits, misses, evictions) counters for one insert group."""
        triple = self._groups.get(group)
        if triple is None:
            triple = (GLOBAL_METRICS.counter("plancache.hits",
                                             cache=self.name, group=group),
                      GLOBAL_METRICS.counter("plancache.misses",
                                             cache=self.name, group=group),
                      GLOBAL_METRICS.counter("plancache.evictions",
                                             cache=self.name, group=group))
            self._groups[group] = triple
        return triple

    def get_or_build(self, key: Any, builder: Callable[[], Any],
                     group: str | None = None) -> Any:
        """Return the cached plan for ``key``, building it on a miss.

        The builder runs outside the lock, so concurrent misses on the
        same key may build twice; last write wins (plans are
        value-objects, so duplicated work is safe, just wasted).

        ``group`` optionally tags the lookup for per-group breakdown
        counters on top of the cache-wide totals (the compiled-plan
        cache labels compress vs decode plans this way); evictions are
        attributed to the evicted entry's group.
        """
        gstats = self._group_counters(group) if group is not None else None
        if not caching_enabled():
            self._misses.inc()
            if gstats is not None:
                gstats[1].inc()
            return builder()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits.inc()
                if gstats is not None:
                    gstats[0].inc()
                return entry[0]
            self._misses.inc()
            if gstats is not None:
                gstats[1].inc()
        value = builder()
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = (value, group)
            while len(self._entries) > max(1, self.max_entries):
                _, (_, dropped_group) = self._entries.popitem(last=False)
                self._evictions.inc()
                if dropped_group is not None:
                    self._group_counters(dropped_group)[2].inc()
        return value

    def clear(self) -> None:
        """Drop every cached plan (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (group counters too)."""
        self._hits.reset()
        self._misses.reset()
        self._evictions.reset()
        for triple in self._groups.values():
            for counter in triple:
                counter.reset()

    def __len__(self) -> int:
        return len(self._entries)

    # counters are registry-backed; these views keep the historical API
    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counters + occupancy, as stable scalars.

        Caches whose callers tag lookups with ``group`` additionally
        report a ``by_group`` breakdown (hits/misses/evictions/entries
        per group) — this is how ``fzmod stats`` separates compress from
        decode plans in the compiled-plan cache.
        """
        with self._lock:
            out = {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": round(self.hit_rate, 4),
            }
            if self._groups:
                occupancy: dict[str, int] = {}
                for _, grp in self._entries.values():
                    if grp is not None:
                        occupancy[grp] = occupancy.get(grp, 0) + 1
                out["by_group"] = {
                    grp: {
                        "entries": occupancy.get(grp, 0),
                        "hits": triple[0].value,
                        "misses": triple[1].value,
                        "evictions": triple[2].value,
                    }
                    for grp, triple in sorted(self._groups.items())
                }
            return out


#: every PlanCache ever constructed, by name (module-level caches register
#: themselves at import time; ad-hoc caches join as they are created)
_CACHES: dict[str, PlanCache] = {}

#: compiled execution plans (:mod:`repro.compile`) for both directions —
#: compress plans and decode plans — keyed by the plan's content digest
#: (distinct digest tags keep the directions from colliding; lookups are
#: tagged ``group="compress"``/``group="decode"`` so stats break out per
#: direction).
COMPILED_PLAN_CACHE = PlanCache("compile.plans", max_entries=128)


def all_caches() -> dict[str, PlanCache]:
    """Name -> cache for every live cache."""
    return dict(_CACHES)


def cache_stats() -> dict[str, dict]:
    """Stats for every live cache, keyed by cache name."""
    return {name: cache.stats() for name, cache in sorted(_CACHES.items())}


def clear_all_caches(reset_stats: bool = False) -> None:
    """Drop every cached plan in the process (optionally zero counters)."""
    for cache in _CACHES.values():
        cache.clear()
        if reset_stats:
            cache.reset_stats()


def _collect_cache_gauges(registry) -> None:
    """Publish per-cache occupancy as gauges on registry scrape."""
    for name, cache in sorted(_CACHES.items()):
        registry.gauge("plancache.entries", cache=name).set(len(cache))


GLOBAL_METRICS.add_collector(_collect_cache_gauges)
