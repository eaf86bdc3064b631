"""The content-addressed plan cache and its tenants.

Covers the generic :class:`PlanCache` mechanics (LRU + byte-budget
eviction, counters, kill switch), the stability of the content digest
and the inventory of caches the hot path is allowed to hit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.inspect import hotpath_stats
from repro.kernels.plancache import (PlanCache, caching_enabled,
                                     clear_all_caches, digest)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_all_caches(reset_stats=True)
    yield
    clear_all_caches(reset_stats=True)


class TestDigest:
    def test_equal_content_equal_digest(self):
        a = np.arange(100, dtype=np.int64)
        assert digest(a) == digest(a.copy())
        assert digest(b"abc", 7, "x") == digest(b"abc", 7, "x")

    def test_dtype_and_shape_participate(self):
        a = np.zeros(8, dtype=np.int32)
        assert digest(a) != digest(a.view(np.int16))
        assert digest(a) != digest(a.reshape(2, 4))

    def test_value_sensitivity(self):
        a = np.arange(100, dtype=np.int64)
        b = a.copy()
        b[50] += 1
        assert digest(a) != digest(b)

    def test_part_boundaries(self):
        # ("ab","c") must not collide with ("a","bc")
        assert digest("ab", "c") != digest("a", "bc")

    def test_noncontiguous_array(self):
        a = np.arange(20, dtype=np.int64)
        assert digest(a[::2]) == digest(a[::2].copy())


class TestPlanCache:
    def test_hit_returns_same_object_and_counts(self):
        cache = PlanCache("test.basic")
        calls = []
        build = lambda: calls.append(1) or object()  # noqa: E731
        v1 = cache.get_or_build("k", build)
        v2 = cache.get_or_build("k", build)
        assert v1 is v2
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_lru_eviction_by_entries(self):
        cache = PlanCache("test.lru", max_entries=2)
        a = cache.get_or_build("a", object)
        cache.get_or_build("b", object)
        cache.get_or_build("a", object)      # refresh a
        cache.get_or_build("c", object)      # evicts b (LRU)
        assert cache.evictions == 1
        assert cache.get_or_build("a", object) is a          # still cached
        rebuilt = object()
        assert cache.get_or_build("b", lambda: rebuilt) is rebuilt

    def test_oversized_single_entry_is_kept(self):
        # the loop never evicts the last entry, even over the bound
        cache = PlanCache("test.huge", max_entries=0)
        v = cache.get_or_build("a", object)
        assert cache.get_or_build("a", object) is v

    def test_clear_and_reset(self):
        cache = PlanCache("test.clear")
        cache.get_or_build("a", object)
        cache.clear()
        assert len(cache) == 0 and cache.stats()["entries"] == 0
        assert cache.misses == 1                     # counters survive clear
        cache.reset_stats()
        assert cache.misses == 0

    def test_kill_switch(self, monkeypatch):
        monkeypatch.setenv("FZMOD_PLAN_CACHE", "0")
        assert not caching_enabled()
        cache = PlanCache("test.disabled")
        v1 = cache.get_or_build("k", object)
        v2 = cache.get_or_build("k", object)
        assert v1 is not v2                          # nothing is served
        assert len(cache) == 0                       # nothing is stored
        assert cache.misses == 2                     # misses still counted

    def test_registry_and_stats(self, smooth_3d):
        # the hot path's cache inventory: nothing keyed on field content.
        # Compressing the identical array twice may only hit this one.
        inventory = {"compile.plans"}
        for _ in range(2):
            repro.decompress(repro.compress(smooth_3d, "fzmod-default", 1e-3))
        stats = hotpath_stats()["plan_caches"]
        production = {name: st for name, st in stats.items()
                      if not name.startswith("test.")}
        assert set(production) == inventory
        for st in production.values():
            assert set(st) >= {"entries", "hits", "misses", "evictions",
                               "hit_rate"}
        assert stats["compile.plans"]["hits"] > 0
        assert all(st["hits"] == 0 for name, st in stats.items()
                   if name not in inventory)

