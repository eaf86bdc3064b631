"""Lightweight continuous profiler: sampled stacks bucketed by span.

Opt-in (``FZMOD_PROFILE=1`` or :func:`start_profiler`), off by default.
A single daemon thread wakes every ``interval`` seconds, snapshots every
thread's Python stack via ``sys._current_frames()``, prefixes each
sample with the thread's currently-open span names (mirrored by
:mod:`repro.obs.spans` while profiling is active), and accumulates
counts per collapsed stack.  :func:`Profiler.collapsed` emits the
standard ``frame;frame;frame count`` format consumed by flamegraph
tools (inferno, speedscope, Brendan Gregg's ``flamegraph.pl``).

Sampling means the instrumented process pays only the registry mirror
(one dict append/pop per span) plus the sampler thread's own work, and
compression output stays byte-identical.  When the profiler is off, traced code pays one
module-global ``is not None`` check per span enter/exit and nothing
else.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import IO

from .spans import (disable_open_span_registry, enable_open_span_registry,
                    open_span_stacks)

DEFAULT_INTERVAL = 0.010     # 10 ms ~ 100 Hz: plenty for ms-scale kernels

#: Frames from these modules are noise in a flamegraph of user code.
_SKIP_MODULES = ("threading.py", "profile.py")


def _env_enabled() -> bool:
    return os.environ.get("FZMOD_PROFILE", "0").strip().lower() in (
        "1", "true", "on", "yes")


class Profiler:
    """Sampling profiler; use :func:`start_profiler` for the shared one."""

    def __init__(self, interval: float = DEFAULT_INTERVAL,
                 max_depth: int = 24) -> None:
        self.interval = float(interval)
        self.max_depth = int(max_depth)
        self.samples: dict[str, int] = {}
        self.sample_count = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    # ---- lifecycle ---------------------------------------------------- #

    def start(self) -> None:
        """Start the sampler thread (no-op if already running)."""
        if self._thread is not None:
            return
        enable_open_span_registry()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="fzmod-profiler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop sampling and join the thread (no-op if not running)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None
        disable_open_span_registry()

    @property
    def running(self) -> bool:
        return self._thread is not None

    # ---- sampling ----------------------------------------------------- #

    def _run(self) -> None:
        me = threading.get_ident()
        while not self._stop.wait(self.interval):
            self._sample_once(me)

    def _sample_once(self, skip_ident: int) -> None:
        spans = open_span_stacks()
        frames = sys._current_frames()
        rows: list[str] = []
        for ident, frame in frames.items():
            if ident == skip_ident:
                continue
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                code = frame.f_code
                fname = os.path.basename(code.co_filename)
                if fname not in _SKIP_MODULES:
                    stack.append(f"{code.co_name} ({fname})")
                frame = frame.f_back
                depth += 1
            if not stack:
                continue
            stack.reverse()
            prefix = list(spans.get(ident, ()))
            rows.append(";".join(prefix + stack) or "(idle)")
        with self._lock:
            self.sample_count += 1
            for key in rows:
                self.samples[key] = self.samples.get(key, 0) + 1

    # ---- output ------------------------------------------------------- #

    def collapsed(self) -> str:
        """Collapsed-stack text: one ``frames... count`` line per stack."""
        with self._lock:
            items = sorted(self.samples.items())
        return "\n".join(f"{k} {v}" for k, v in items) + ("\n" if items else "")

    def write_collapsed(self, fp: IO[str]) -> int:
        """Write :meth:`collapsed` to ``fp``; returns the line count."""
        text = self.collapsed()
        fp.write(text)
        return text.count("\n")

    def span_totals(self) -> dict[str, int]:
        """Sample counts keyed by the innermost open span (or '(no span)')."""
        totals: dict[str, int] = {}
        with self._lock:
            items = list(self.samples.items())
        for key, count in items:
            inner = "(no span)"
            for part in key.split(";"):
                if " (" in part:
                    break        # span prefix ends where code frames begin
                inner = part
            totals[inner] = totals.get(inner, 0) + count
        return totals

    def clear(self) -> None:
        """Drop all accumulated samples and reset the sample count."""
        with self._lock:
            self.samples.clear()
            self.sample_count = 0


_ACTIVE: Profiler | None = None
_ACTIVE_LOCK = threading.Lock()


def start_profiler(interval: float = DEFAULT_INTERVAL) -> Profiler:
    """Start (or return) the process-wide sampling profiler."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        if _ACTIVE is None:
            _ACTIVE = Profiler(interval=interval)
        if not _ACTIVE.running:
            _ACTIVE.start()
        return _ACTIVE


def stop_profiler() -> Profiler | None:
    """Stop the process-wide profiler; returns it (for output) or None."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        prof = _ACTIVE
        if prof is not None:
            prof.stop()
        return prof


def active_profiler() -> Profiler | None:
    """The running process-wide profiler, or None."""
    prof = _ACTIVE
    return prof if prof is not None and prof.running else None


def maybe_start_from_env() -> Profiler | None:
    """Honour ``FZMOD_PROFILE=1``; used by the CLI entry point."""
    if _env_enabled():
        return start_profiler()
    return None
