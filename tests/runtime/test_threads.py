"""Unit tests for :mod:`repro.runtime.threads` — the shared slab pool.

Covers thread-count resolution (explicit / env / auto-by-size), slab
partitioning, the pool's ordered fan-out semantics (result order,
deterministic failure choice, inline nesting guard), per-thread arena
privacy and the grow-on-demand shared pool.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading

import pytest

from repro.runtime import threads as th
from repro.runtime.memory import HOST_SPACE


class TestResolveThreads:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("FZMOD_THREADS", "7")
        assert th.resolve_threads(3) == 3

    def test_explicit_must_be_positive(self):
        with pytest.raises(ValueError):
            th.resolve_threads(0)

    def test_env_overrides_auto(self, monkeypatch):
        monkeypatch.setenv("FZMOD_THREADS", "5")
        assert th.resolve_threads(None) == 5
        assert th.resolve_threads(None, nbytes=1024) == 5

    def test_env_must_be_an_int(self, monkeypatch):
        monkeypatch.setenv("FZMOD_THREADS", "lots")
        with pytest.raises(ValueError):
            th.resolve_threads(None)

    def test_auto_small_inputs_stay_serial(self, monkeypatch):
        monkeypatch.delenv("FZMOD_THREADS", raising=False)
        assert th.resolve_threads(None,
                                  nbytes=th.AUTO_MIN_BYTES - 1) == 1

    def test_auto_large_inputs_use_the_cores(self, monkeypatch):
        monkeypatch.delenv("FZMOD_THREADS", raising=False)
        import os
        want = min(os.cpu_count() or 1, th.MAX_THREADS)
        assert th.resolve_threads(None, nbytes=th.AUTO_MIN_BYTES) == want

    def test_cap(self):
        assert th.resolve_threads(10_000) == th.MAX_THREADS


class TestSlabRanges:
    def test_balanced_contiguous_cover(self):
        ranges = th.slab_ranges(10, 4)
        assert ranges == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_never_more_parts_than_rows(self):
        assert th.slab_ranges(2, 8) == [(0, 1), (1, 2)]

    def test_empty(self):
        assert th.slab_ranges(0, 4) == []

    def test_single_part_is_whole(self):
        assert th.slab_ranges(7, 1) == [(0, 7)]


class TestSlabPool:
    def test_results_in_submission_order(self):
        pool = th.SlabPool(4)
        try:
            import time

            def task(k):
                time.sleep(0.002 * (4 - k))  # later items finish first
                return k * k

            assert pool.run_ordered(task, [0, 1, 2, 3]) == [0, 1, 4, 9]
        finally:
            pool.shutdown(wait=True)

    def test_lowest_indexed_failure_wins(self):
        pool = th.SlabPool(4)
        try:
            def task(k):
                if k >= 1:
                    raise ValueError(f"slab {k}")
                return k

            with pytest.raises(ValueError, match="slab 1"):
                pool.run_ordered(task, [0, 1, 2, 3])
        finally:
            pool.shutdown(wait=True)

    def test_nested_fanout_runs_inline(self):
        pool = th.SlabPool(2)
        try:
            def inner(k):
                return (k, pool.in_worker())

            def outer(k):
                # a task fanning out again must not deadlock on the
                # pool's own (possibly fully busy) workers
                return pool.run_ordered(inner, [k, k + 10])

            out = pool.run_ordered(outer, [0, 1, 2, 3])
            assert [pair[0][0] for pair in out] == [0, 1, 2, 3]
            assert all(in_w for pairs in out for _, in_w in pairs)
        finally:
            pool.shutdown(wait=True)

    def test_single_item_runs_inline(self):
        pool = th.SlabPool(2)
        try:
            ident = []
            pool.run_ordered(
                lambda _: ident.append(threading.get_ident()), [0])
            assert ident == [threading.get_ident()]
        finally:
            pool.shutdown(wait=True)


class TestThreadArena:
    def test_private_per_thread(self):
        pools = {}

        def grab(tag):
            pools[tag] = th.thread_arena()

        grab("main")
        worker = threading.Thread(target=grab, args=("worker",))
        worker.start()
        worker.join()
        assert pools["main"] is not pools["worker"]
        assert pools["main"].space is HOST_SPACE

    def test_same_thread_reuses_its_arena(self):
        assert th.thread_arena() is th.thread_arena()


class TestSharedPool:
    def test_grows_by_replacement_and_reuses_wider(self):
        small = th.shared_pool(2)
        assert small.workers >= 2
        big = th.shared_pool(small.workers + 2)
        assert big is not small
        assert big.workers == small.workers + 2
        assert th.shared_pool(1) is big  # narrower request reuses wider

    def test_run_slabs_orders_results(self):
        assert th.run_slabs(lambda k: k + 1, [1, 2, 3],
                            threads=3) == [2, 3, 4]

    def test_thread_budget_contextvar(self):
        assert th.active_threads() == 0  # 0 = no plan declared a budget
        with th.thread_budget(6):
            assert th.active_threads() == 6
        assert th.active_threads() == 0


def _child_run_slabs(results):
    results.put(th.run_slabs(lambda k: k * k, [1, 2, 3], threads=3))


class TestForkedChild:
    def test_child_does_not_inherit_the_parents_pool(self):
        """A forked worker must build its own pool: the parent's executor
        arrives with no threads but an idle count that still includes them,
        so it would queue the child's slabs and never start a thread."""
        # three pool threads alive and idle at the fork (without the
        # barrier one thread could serve all three tasks)
        barrier = threading.Barrier(3)
        th.run_slabs(lambda _: barrier.wait(30), [1, 2, 3], threads=3)
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=_child_run_slabs, args=(results,))
        child.start()
        try:
            # drain before joining; a hung child never writes
            result = results.get(timeout=30)
        except queue.Empty:
            result = None
        finally:
            child.join(5)
            if child.is_alive():
                child.kill()
                child.join()
        assert result == [1, 4, 9], \
            "forked child blocked on the inherited SlabPool"
