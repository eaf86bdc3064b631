"""The scratch :class:`BufferPool` and its allocator-accounting contract.

The load-bearing property: pooling is accounting-neutral.  Only true
allocations move the :class:`Allocator`'s live/peak numbers — reuse can
never inflate the measured peak, and :meth:`BufferPool.clear` returns
live accounting to exactly what is still checked out.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime.memory import (Allocator, BufferPool, default_pool,
                                  pooling_enabled, set_pooling)


@pytest.fixture
def pool():
    alloc = Allocator()
    return BufferPool(alloc), alloc


NB = 1000 * 8  # bytes of a (1000,) int64 scratch array


class TestAccounting:
    def test_miss_allocates_once(self, pool):
        p, alloc = pool
        arr = p.acquire(1000, np.int64)
        assert arr.shape == (1000,) and arr.dtype == np.int64
        assert alloc.live["host"] == NB
        assert alloc.peak["host"] == NB
        assert p.misses == 1

    def test_reuse_does_not_inflate_peak(self, pool):
        p, alloc = pool
        for _ in range(10):
            arr = p.acquire(1000, np.int64)
            p.release(arr)
        assert p.hits == 9 and p.misses == 1
        assert alloc.live["host"] == NB              # one real allocation
        assert alloc.peak["host"] == NB              # reuse is invisible
        assert p.reuse_rate == pytest.approx(0.9)

    def test_hit_returns_the_pooled_array(self, pool):
        p, _ = pool
        arr = p.acquire(1000, np.int64)
        p.release(arr)
        assert p.acquire(1000, np.int64) is arr

    def test_distinct_shape_classes_do_not_mix(self, pool):
        p, _ = pool
        a = p.acquire(1000, np.int64)
        p.release(a)
        assert p.acquire(1000, np.float64) is not a
        assert p.acquire((10, 100), np.int64) is not a

    def test_release_beyond_depth_frees(self, pool):
        p, alloc = pool
        p.max_per_key = 2
        arrs = [p.acquire(1000, np.int64) for _ in range(3)]
        assert alloc.live["host"] == 3 * NB
        for a in arrs:
            p.release(a)
        assert p.drops == 1                          # third didn't fit
        assert alloc.live["host"] == 2 * NB          # and was freed
        assert alloc.peak["host"] == 3 * NB          # peak reflects real max

    def test_release_beyond_byte_budget_frees(self):
        alloc = Allocator()
        p = BufferPool(alloc, max_bytes=NB)
        a = p.acquire(1000, np.int64)
        b = p.acquire(1000, np.int64)
        p.release(a)
        p.release(b)                                 # budget full: freed
        assert p.drops == 1
        assert alloc.live["host"] == NB

    def test_clear_returns_live_to_zero(self, pool):
        p, alloc = pool
        for shape in (1000, 1000, (50, 20)):
            p.release(p.acquire(shape, np.int64))
        assert alloc.live["host"] > 0
        p.clear()
        assert alloc.live["host"] == 0               # nothing checked out
        assert p.stats()["pooled_arrays"] == 0
        assert p.stats()["pooled_bytes"] == 0

    def test_clear_keeps_checked_out_accounting(self, pool):
        p, alloc = pool
        held = p.acquire(1000, np.int64)
        p.release(p.acquire(1000, np.int64))
        p.clear()
        assert alloc.live["host"] == NB              # `held` is still out
        p.release(held)
        p.clear()
        assert alloc.live["host"] == 0

    def test_stats_shape(self, pool):
        p, _ = pool
        assert set(p.stats()) == {"pooled_arrays", "pooled_bytes", "hits",
                                  "misses", "drops", "reuse_rate"}


class TestSwitches:
    def test_set_pooling(self):
        try:
            set_pooling(False)
            assert default_pool() is None
            set_pooling(True)
            assert default_pool() is not None
        finally:
            set_pooling(True)

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("FZMOD_BUFFER_POOL", "0")
        assert not pooling_enabled()
        assert default_pool() is None

    def test_kernels_bypass_pool_when_disabled(self, monkeypatch):
        monkeypatch.setenv("FZMOD_BUFFER_POOL", "0")
        from repro.kernels import lorenzo
        data = np.linspace(0.0, 5.0, 4096, dtype=np.float32).reshape(64, 64)
        res = lorenzo.compress(data, 1e-3)
        recon = lorenzo.decompress(res)
        assert np.abs(recon - data).max() <= 1e-3 * (1 + 1e-9)


class TestKernelIntegration:
    def test_repeated_compress_reuses_scratch(self):
        from repro.kernels import lorenzo
        from repro.runtime.memory import GLOBAL_POOL
        data = np.linspace(0.0, 5.0, 8192, dtype=np.float32).reshape(128, 64)
        lorenzo.compress(data, 1e-3)                 # populate the pool
        before = GLOBAL_POOL.stats()
        lorenzo.compress(data, 1e-3)
        after = GLOBAL_POOL.stats()
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]   # steady state allocates 0
