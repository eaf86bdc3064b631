"""Reads of the program's own cache and pool counters, tolerant of removal.

The ROADMAP plans to delete the stream caches and may move
``hotpath_stats``; a counter that is gone reads as absent (zero hits), so
the end-to-end metrics never depend on it.
"""

from __future__ import annotations


def snapshot() -> dict[str, dict]:
    """``{"plan_caches": {name: counters}, "buffer_pool": counters}``.

    Both are empty when the program no longer reports them.
    """
    try:
        from repro.core.inspect import hotpath_stats
        stats = hotpath_stats()
    except (ImportError, AttributeError, TypeError, KeyError):
        stats = {}
    return {"plan_caches": dict(stats.get("plan_caches", {})),
            "buffer_pool": dict(stats.get("buffer_pool", {}))}


def hits(before: dict, after: dict) -> int:
    """Hits between two readings of one cache's (or the pool's) counters."""
    return after.get("hits", 0) - before.get("hits", 0)


def hit_rate(before: dict, after: dict) -> float:
    """Hits over lookups between two readings of one cache's counters.

    A cache that is absent, or was never consulted, has served no hits: 0.
    """
    lookups = hits(before, after) + (after.get("misses", 0)
                                     - before.get("misses", 0))
    return hits(before, after) / lookups if lookups else 0.0
