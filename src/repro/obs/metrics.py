"""Process-wide metrics registry: counters, gauges, histograms with labels.

One ``MetricsRegistry`` (``GLOBAL_METRICS``) is the single source of truth
for every operational counter in the codebase — plan-cache hits/misses,
pipeline byte counts, stage-latency histograms.
Subsystems either

* hold a metric object and bump it directly (``registry.counter(...)``
  returns the same object for the same ``(name, labels)`` pair, so the
  get-or-create call is cheap enough for hot paths to do once at setup), or
* register a *collector* callback that publishes derived gauges (cache
  occupancy) each time the registry is scraped.

Metric names are dot-separated lowercase (``plancache.hits``) and must
match ``^[a-z0-9_.]+$`` — enforced here and by fzlint rule FZL009.  The
Prometheus exporter mangles dots to underscores at the edge.
"""

from __future__ import annotations

import re
import threading
from typing import Callable, Iterable

METRIC_NAME_RE = re.compile(r"^[a-z0-9_.]+$")

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value (resettable for tests/CLIs)."""

    kind = "counter"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self._value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int | float:
        return self._value

    def reset(self) -> None:
        """Zero the counter (tests/CLIs only; counters are monotonic)."""
        with self._lock:
            self._value = 0


class Gauge:
    """Point-in-time value; settable, incrementable, decrementable."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = labels
        self._value: float = 0
        self._lock = threading.Lock()

    def set(self, value: int | float) -> None:
        """Replace the gauge value."""
        with self._lock:
            self._value = value

    def inc(self, amount: int | float = 1) -> None:
        """Raise the gauge by ``amount``."""
        with self._lock:
            self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        """Lower the gauge by ``amount``."""
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> int | float:
        return self._value

    def reset(self) -> None:
        """Zero the gauge."""
        with self._lock:
            self._value = 0


class Histogram:
    """Fixed-bucket histogram (bucket counts are per-bucket here;
    the Prometheus exporter cumulates them at the edge)."""

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "_counts", "_sum", "_count",
                 "_lock")

    #: wall-time oriented default: 1 µs .. 10 s
    DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

    def __init__(self, name: str, labels: dict[str, str],
                 buckets: Iterable[float] | None = None) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets or self.DEFAULT_BUCKETS))
        self._counts = [0] * (len(self.buckets) + 1)  # last = overflow
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation into its bucket (and sum/count)."""
        idx = len(self.buckets)
        for i, edge in enumerate(self.buckets):
            if value <= edge:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def value(self) -> float:
        """Sum of observations (so snapshots have a scalar to show)."""
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket counts (last slot = overflow past the top edge)."""
        with self._lock:
            return list(self._counts)

    def reset(self) -> None:
        """Zero buckets, sum and count."""
        with self._lock:
            self._counts = [0] * (len(self.buckets) + 1)
            self._sum = 0.0
            self._count = 0


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Get-or-create store of labelled metrics plus collector callbacks."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, LabelKey], Metric] = {}
        self._collectors: list[Callable[[MetricsRegistry], None]] = []

    # -- creation ------------------------------------------------------ #
    def _get(self, cls: type, name: str, labels: dict[str, object],
             **kwargs) -> Metric:
        if not METRIC_NAME_RE.match(name):
            raise ValueError(
                f"metric name {name!r} must match {METRIC_NAME_RE.pattern}")
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, {str(k): str(v)
                                    for k, v in sorted(labels.items())},
                             **kwargs)
                self._metrics[key] = metric
            elif metric.kind != cls.kind:
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric

    def counter(self, name: str, **labels) -> Counter:
        """Get-or-create the counter for ``(name, labels)``."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """Get-or-create the gauge for ``(name, labels)``."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets: Iterable[float] | None = None,
                  **labels) -> Histogram:
        """Get-or-create the histogram (``buckets`` applies on creation)."""
        return self._get(Histogram, name, labels, buckets=buckets)

    # -- collectors ---------------------------------------------------- #
    def add_collector(self, fn: Callable[[MetricsRegistry], None]) -> None:
        """Register a callback that publishes derived gauges on scrape."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def collect(self) -> None:
        """Run collectors (outside the lock: they call back into us)."""
        with self._lock:
            collectors = list(self._collectors)
        for fn in collectors:
            fn(self)

    # -- reading ------------------------------------------------------- #
    def snapshot(self) -> list[Metric]:
        """Stable-ordered view of every registered metric."""
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def value(self, name: str, **labels) -> int | float | None:
        """Current scalar of a metric, or ``None`` if never registered."""
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
        return None if metric is None else metric.value

    def reset(self) -> None:
        """Zero every metric (collector registrations are kept)."""
        for metric in self.snapshot():
            metric.reset()


#: The process-wide registry all subsystems share.
GLOBAL_METRICS = MetricsRegistry()
