"""Span tracing: monotonic-clock timed, nestable, thread-local stacks.

The one public entry point is :func:`span`::

    with span("stage.huffman.encode", bytes_in=data.nbytes) as sp:
        ...
        sp.set(bytes_out=len(blob))

Spans nest: each thread keeps its own stack, so a span opened inside
another span records that parent's id.  Timing uses
``time.perf_counter()`` (monotonic); finished spans land in a bounded
ring on the process-wide :data:`GLOBAL_TRACER`.

Disabled mode (``FZMOD_TELEMETRY=0`` or :func:`set_telemetry` ``(False)``)
makes :func:`span` return a shared no-op singleton — no allocation, no
clock read, no lock — so instrumented hot paths cost one module-global
bool check plus one attribute-free context-manager enter/exit.

Worker lanes: shard and slab jobs run under ``GLOBAL_TRACER.capture()``,
which redirects that thread's finished spans into a local list returned
with the job's result; the coordinator hands the list to
:func:`absorb_capture`, which tags each span with a deterministic lane
(the shard or slab index — *not* the worker thread, so the merged span
set is identical for any worker count, modulo timing) and emits it.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

_DEFAULT_MAX_SPANS = 65536


def _env_enabled() -> bool:
    return os.environ.get("FZMOD_TELEMETRY", "1").strip().lower() not in (
        "0", "false", "off", "no")


@dataclass
class SpanRecord:
    """A finished span: plain data, what every exporter consumes."""

    name: str
    start: float                 # perf_counter seconds
    end: float
    span_id: int
    parent_id: int | None
    thread: str
    lane: str | None = None      # None = caller; "shard:3", "slab:1"
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[_Span] = []
        self.sink: list[SpanRecord] | None = None


class _Span:
    """Live (open) span; becomes a :class:`SpanRecord` on exit."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "_start")

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = next(tracer._ids)
        self.parent_id: int | None = None
        self._start = 0.0

    def set(self, **attrs) -> None:
        """Attach attributes discovered mid-span (result sizes etc.)."""
        self.attrs.update(attrs)

    def __enter__(self) -> _Span:
        tls = self._tracer._tls
        if tls.stack:
            self.parent_id = tls.stack[-1].span_id
        tls.stack.append(self)
        if _OPEN_REGISTRY is not None:
            _OPEN_REGISTRY.setdefault(
                threading.get_ident(), []).append(self.name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        tls = self._tracer._tls
        if tls.stack and tls.stack[-1] is self:
            tls.stack.pop()
        if _OPEN_REGISTRY is not None:
            names = _OPEN_REGISTRY.get(threading.get_ident())
            if names and names[-1] == self.name:
                names.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._emit(SpanRecord(
            name=self.name, start=self._start, end=end,
            span_id=self.span_id, parent_id=self.parent_id,
            thread=threading.current_thread().name, attrs=self.attrs))
        return False


class _NoopSpan:
    """Shared do-nothing span handed out when telemetry is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        return None

    def __enter__(self) -> _NoopSpan:
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


# --------------------------------------------------------------------- #
# open-span registry (sampling-profiler hook)                           #
# --------------------------------------------------------------------- #
#
# When the sampling profiler (repro.obs.profile) is active it needs to
# know, from *its own* thread, which span each traced thread currently
# has open.  Thread-local stacks are invisible across threads, so while
# profiling is on every span enter/exit mirrors its name into this
# plain dict keyed by thread ident.  When profiling is off the registry
# is ``None`` and the hot path pays one module-global load + ``is not
# None`` check per enter/exit.

_OPEN_REGISTRY: dict[int, list[str]] | None = None


def enable_open_span_registry() -> None:
    """Start mirroring open-span names per thread (profiler support)."""
    global _OPEN_REGISTRY
    if _OPEN_REGISTRY is None:
        _OPEN_REGISTRY = {}


def disable_open_span_registry() -> None:
    """Stop mirroring and drop the registry."""
    global _OPEN_REGISTRY
    _OPEN_REGISTRY = None


def open_span_stacks() -> dict[int, tuple[str, ...]]:
    """Snapshot {thread_ident: open span names, outermost first}.

    Empty when the registry is disabled.  Reading a mutating list from
    another thread is safe here: worst case a sample lands on a stale
    frame, which is inherent to sampling anyway.
    """
    reg = _OPEN_REGISTRY
    if reg is None:
        return {}
    out: dict[int, tuple[str, ...]] = {}
    for ident, names in list(reg.items()):
        snap = tuple(names)
        if snap:
            out[ident] = snap
    return out


class Tracer:
    """Collects finished spans into a bounded ring buffer."""

    def __init__(self, max_spans: int = _DEFAULT_MAX_SPANS) -> None:
        self._tls = _ThreadState()
        self._lock = threading.Lock()
        self._spans: deque[SpanRecord] = deque(maxlen=max_spans)
        self._ids = itertools.count(1)
        self.dropped = 0
        self.emitted = 0             # monotonic: never reset by clear()

    def span(self, name: str, **attrs) -> _Span:
        """A new live span bound to this tracer (use as a context manager)."""
        return _Span(self, name, attrs)

    def _emit(self, record: SpanRecord) -> None:
        sink = self._tls.sink
        if sink is not None:
            self.emitted += 1
            sink.append(record)
            return
        with self._lock:
            self.emitted += 1
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(record)

    def records(self) -> list[SpanRecord]:
        """Snapshot of the finished spans currently in the ring."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Drop all collected spans and the dropped-span count."""
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    @contextmanager
    def capture(self) -> Iterator[list[SpanRecord]]:
        """Redirect this thread's finished spans into a local list.

        Used by shard and slab jobs so each job's spans travel with its
        result instead of interleaving into a shared buffer in
        nondeterministic order.
        """
        buf: list[SpanRecord] = []
        prev = self._tls.sink
        self._tls.sink = buf
        try:
            yield buf
        finally:
            self._tls.sink = prev


#: Process-wide tracer; :func:`span` feeds it.
GLOBAL_TRACER = Tracer()

_enabled = _env_enabled()


def telemetry_enabled() -> bool:
    """Whether :func:`span` currently records real spans."""
    return _enabled


def set_telemetry(on: bool) -> bool:
    """Flip telemetry for this process; returns the previous state."""
    global _enabled
    prev = _enabled
    _enabled = bool(on)
    return prev


def span(name: str, **attrs) -> _Span | _NoopSpan:
    """Open a span (context manager).  No-op singleton when disabled."""
    if not _enabled:
        return NOOP_SPAN
    # fzlint: disable-next-line=FZL009 -- this is the factory itself; the
    # returned span is the caller's `with` context expression
    return GLOBAL_TRACER.span(name, **attrs)


def absorb_capture(records: list[SpanRecord], lane: str | None = None,
                   tracer: Tracer | None = None) -> list[SpanRecord]:
    """Emit spans captured on a worker thread on ``tracer``
    (GLOBAL_TRACER by default), tagging those without a lane with
    ``lane``.  Returns the records."""
    tracer = tracer or GLOBAL_TRACER
    for rec in records:
        if rec.lane is None:
            rec.lane = lane
        tracer._emit(rec)
    return records
