"""The slab prefetcher: order, errors, shutdown and the read-ahead bound.

:class:`~repro.streaming.prefetch.SlabPrefetcher` is what keeps
``compress_stream``'s input residency bounded, so these checks are
deterministic: they count slabs and threads, never wall time.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import DataError
from repro.streaming import ArraySource, SlabPrefetcher


@pytest.fixture
def field() -> np.ndarray:
    return np.arange(40 * 3, dtype=np.float32).reshape(40, 3)


BOUNDS = [(i, i + 4) for i in range(0, 40, 4)]


class CountingSource(ArraySource):
    """An array source that counts ``slab()`` calls and can fail on one."""

    def __init__(self, arr: np.ndarray, fail_at: int | None = None) -> None:
        super().__init__(arr)
        self.reads = 0
        self.fail_at = fail_at
        self.changed = threading.Condition()

    def slab(self, start: int, stop: int) -> np.ndarray:
        if self.reads == self.fail_at:
            raise OSError(f"disk error on slab {self.reads}")
        with self.changed:
            self.reads += 1
            self.changed.notify_all()
        return super().slab(start, stop)


def _prefetch_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "slab-prefetch"]


def test_slabs_come_out_in_order_and_equal_to_the_source(field):
    with SlabPrefetcher(ArraySource(field), BOUNDS) as pf:
        got = list(pf)
    assert [k for k, _, _ in got] == list(range(len(BOUNDS)))
    assert [b for _, b, _ in got] == BOUNDS
    for _, (start, stop), buf in got:
        assert not np.shares_memory(buf, field)
        np.testing.assert_array_equal(buf, field[start:stop])


def test_a_source_error_re_raises_on_the_consumer(field):
    src = CountingSource(field, fail_at=3)
    seen = []
    with SlabPrefetcher(src, BOUNDS) as pf:
        with pytest.raises(OSError, match="slab 3"):
            for k, _, _ in pf:
                seen.append(k)
    assert seen == [0, 1, 2]


def test_close_mid_iteration_joins_the_thread(field):
    pf = SlabPrefetcher(ArraySource(field), BOUNDS)
    it = iter(pf)
    k, _, _ = next(it)
    assert k == 0
    assert _prefetch_threads()
    pf.close()
    assert pf._thread is None
    assert not _prefetch_threads()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_read_ahead_is_at_most_depth_plus_one(field, depth):
    src = CountingSource(field)
    pf = SlabPrefetcher(src, BOUNDS, depth=depth)
    it = iter(pf)
    try:
        next(it)                              # the consumer holds slab 0
        # the producer fills the queue with `depth` slabs and reads one
        # more; with the queue full it cannot hand that one over, so it
        # cannot read again until the consumer advances.  The timeout
        # only guards against a hang; nothing here measures time.
        with src.changed:
            assert src.changed.wait_for(
                lambda: src.reads >= depth + 2 and pf._queue.full(),
                timeout=30)
            assert src.reads - 1 == depth + 1
    finally:
        pf.close()


def test_depth_must_be_positive(field):
    with pytest.raises(DataError, match="depth"):
        SlabPrefetcher(ArraySource(field), BOUNDS, depth=0)
