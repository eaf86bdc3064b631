"""Double-buffered slab prefetch for the streaming engine.

:class:`SlabPrefetcher` reads slabs of a :class:`~repro.streaming.source.
FieldSource` on a background thread, one read ahead of the consumer by
default: while the engine compresses slab ``k``, the prefetcher is
already faulting slab ``k+1`` in from disk — the paper's I/O/compute
overlap applied at the ingestion stage.

The memory budget is structural, not advisory: each slab is copied into
a fresh array (the copy *is* the disk read for mapped sources) and handed
over through a bounded queue.  The producer blocks when ``depth`` slabs
are waiting, the consumer drops each array once it is done with it, and
the source's consumed pages are dropped immediately — so in-flight input
bytes can never exceed ``(depth + 1 + consumer window) x slab`` no
matter how large the field is.
"""

from __future__ import annotations

import threading
from queue import Empty, Full, Queue
from typing import Iterator

import numpy as np

from ..errors import DataError

#: poll interval for queue hand-offs (lets close() interrupt both sides)
_POLL_SECONDS = 0.05

_DONE = object()


class _Failure:
    """Wraps a producer-side exception for re-raise in the consumer."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


class SlabPrefetcher:
    """Background slab reader with a bounded read-ahead.

    Iterating yields ``(k, (start, stop), buffer)`` in slab order; each
    buffer is a fresh array the caller owns.  ``depth`` bounds how many
    slabs may sit read-but-unconsumed (2 = classic double buffering);
    the producer holds at most one more while it waits.  Producer-side
    errors (I/O failures, a lying iterator source) surface on the
    consuming thread with their original traceback.
    """

    def __init__(self, source, bounds, *, depth: int = 2) -> None:
        self.source = source
        self.bounds = tuple(bounds)
        if depth < 1:
            raise DataError(f"prefetch depth must be >= 1, got {depth}")
        self.depth = depth
        self._queue: Queue = Queue(maxsize=depth)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------ #
    # producer                                                            #
    # ------------------------------------------------------------------ #
    def _put(self, item) -> bool:
        while not self._stop.is_set():
            try:
                self._queue.put(item, timeout=_POLL_SECONDS)
                return True
            except Full:
                continue
        return False

    def _record_failure(self, exc: BaseException) -> None:
        """Forward a producer-side error to the consuming thread."""
        self._put(_Failure(exc))

    def _run(self) -> None:
        try:
            for k, (start, stop) in enumerate(self.bounds):
                if self._stop.is_set():
                    return
                view = self.source.slab(start, stop)
                buf = np.empty(view.shape, dtype=view.dtype)
                buf[...] = view              # the actual read/page-fault
                self.source.done_with(start, stop)
                if not self._put((k, (start, stop), buf)):
                    return                   # close() raced the hand-off
            self._put(_DONE)
        except BaseException as exc:  # noqa: BLE001 - forwarded to consumer
            self._record_failure(exc)

    # ------------------------------------------------------------------ #
    # consumer                                                            #
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[tuple[int, tuple[int, int], np.ndarray]]:
        if self._thread is None:
            self._thread = threading.Thread(target=self._run,
                                            name="slab-prefetch", daemon=True)
            self._thread.start()
        while True:
            try:
                item = self._queue.get(timeout=_POLL_SECONDS)
            except Empty:
                if self._stop.is_set():
                    return
                continue
            if item is _DONE:
                return
            if isinstance(item, _Failure):
                raise item.exc
            yield item

    def close(self) -> None:
        """Stop the producer and drop any undelivered slabs."""
        self._stop.set()
        while True:
            try:
                self._queue.get_nowait()
            except Empty:
                break
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "SlabPrefetcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
