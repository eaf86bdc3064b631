"""Bounded, order-preserving work queue over a real executor.

:class:`OrderedWorkQueue` is the one scheduler every engine runs on: an
ordered submit/drain front-end over any
:class:`concurrent.futures.Executor` with a bounded number of in-flight
items.  The sharded engine and the streaming compress and decompress
engines pump shard jobs through it — submission blocks once the bound
is reached (backpressure, so a huge field never materialises every
shard's working set at once) and results drain in submission order
regardless of worker completion order.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import Executor, Future
from typing import Any, Callable, Iterator

from ..errors import DeviceError


class OrderedWorkQueue:
    """Bounded, order-preserving submit/drain over an executor.

    ``submit`` hands a callable to the executor; when ``max_in_flight``
    submissions are outstanding it first blocks on the *oldest* one (the
    backpressure point).  ``drain`` yields every result in submission
    order.  Failures propagate on the blocking call with their original
    traceback; before re-raising, the queue *reaps* every other in-flight
    future (cancelling the ones that have not started and awaiting the
    rest), so no job is left running against resources the caller is
    about to tear down — e.g. a recycled slab buffer or an open source
    file.  The first failure in submission order wins deterministically;
    errors from younger jobs are swallowed (recorded on their futures
    only).  Once a job has failed the queue refuses further submissions.
    """

    def __init__(self, executor: Executor, max_in_flight: int) -> None:
        if max_in_flight < 1:
            raise DeviceError(
                f"max_in_flight must be >= 1, got {max_in_flight}")
        self.executor = executor
        self.max_in_flight = max_in_flight
        self._pending: deque[Future] = deque()
        self._done: deque[Any] = deque()
        self._submitted = 0
        self._failed = False

    @property
    def in_flight(self) -> int:
        """Number of submissions not yet retired to the done queue."""
        return len(self._pending)

    @property
    def submitted(self) -> int:
        return self._submitted

    def _retire_oldest(self) -> None:
        fut = self._pending.popleft()
        try:
            self._done.append(fut.result())
        except BaseException:  # noqa: BLE001 - flagged failed, then re-raised
            self._failed = True
            self._reap_in_flight()
            raise

    def _reap_in_flight(self) -> None:
        """Cancel/await every remaining in-flight future after a failure.

        Futures that have not started are cancelled outright; running
        ones are awaited so their side effects finish before the first
        error propagates (their own results and errors are discarded —
        the oldest failure is the deterministic one).
        """
        pending, self._pending = self._pending, deque()
        for fut in pending:
            fut.cancel()
        for fut in pending:
            if not fut.cancelled():
                fut.exception()  # waits; secondary errors stay on the future

    def submit(self, fn: Callable[..., Any], /, *args: Any,
               **kwargs: Any) -> None:
        """Enqueue ``fn(*args, **kwargs)``; blocks while the bound is hit."""
        if self._failed:
            raise DeviceError("queue had a failed job; drain it instead")
        while len(self._pending) >= self.max_in_flight:
            self._retire_oldest()
        self._pending.append(self.executor.submit(fn, *args, **kwargs))
        self._submitted += 1

    def completed(self) -> Iterator[Any]:
        """Yield the results already retired to the done queue, oldest
        first, without blocking.  The streaming engine interleaves this
        with ``submit`` to write finished shards out while later shards
        are still compressing."""
        while self._done:
            yield self._done.popleft()

    def drain(self) -> Iterator[Any]:
        """Yield all results in submission order (blocks as needed)."""
        while self._done or self._pending:
            if not self._done:
                self._retire_oldest()
            yield self._done.popleft()

    def results(self) -> list[Any]:
        """Drain into a list."""
        return list(self.drain())

