"""Memory spaces and buffers for the simulated runtime.

A :class:`Buffer` wraps a NumPy array together with the :class:`MemorySpace`
it notionally lives in.  Kernels assert that their operands are resident on
the right device — exactly the discipline CUDA code needs — and the
:class:`Allocator` tracks live/peak bytes per space so tests and benchmarks
can check the memory behaviour of a pipeline (e.g. that the STF executor
frees intermediates eagerly).
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from ..errors import DeviceError, SanitizerError
from ..obs.metrics import GLOBAL_METRICS, MetricsRegistry
from ..types import DeviceKind
from .device import Device


@dataclass(frozen=True)
class MemorySpace:
    """The address space of one device."""

    device: Device

    @property
    def name(self) -> str:
        return self.device.name


@dataclass
class Allocator:
    """Per-space accounting of live and peak allocation."""

    live: dict[str, int] = field(default_factory=dict)
    peak: dict[str, int] = field(default_factory=dict)

    def on_alloc(self, space: MemorySpace, nbytes: int) -> None:
        """Record an allocation in a space (updates live and peak)."""
        cur = self.live.get(space.name, 0) + nbytes
        self.live[space.name] = cur
        self.peak[space.name] = max(self.peak.get(space.name, 0), cur)

    def on_free(self, space: MemorySpace, nbytes: int) -> None:
        """Record a release in a space."""
        cur = self.live.get(space.name, 0) - nbytes
        if cur < 0:
            raise DeviceError(f"allocator underflow on {space.name}")
        self.live[space.name] = cur


#: Process-wide allocator used when none is supplied explicitly.
GLOBAL_ALLOCATOR = Allocator()


class Buffer:
    """A device-resident array.

    Parameters
    ----------
    array:
        the payload (any NumPy array; ``bytes`` payloads are wrapped as
        ``uint8`` arrays by :meth:`from_bytes`).
    space:
        where the data notionally lives.
    allocator:
        accounting sink (defaults to the module-global allocator).
    """

    __slots__ = ("array", "space", "_allocator", "_freed")

    def __init__(self, array: np.ndarray, space: MemorySpace,
                 allocator: Allocator | None = None) -> None:
        self.array = np.asarray(array)
        self.space = space
        self._allocator = allocator if allocator is not None else GLOBAL_ALLOCATOR
        self._freed = False
        self._allocator.on_alloc(space, self.nbytes)

    @classmethod
    def from_bytes(cls, payload: bytes, space: MemorySpace,
                   allocator: Allocator | None = None) -> "Buffer":
        return cls(np.frombuffer(payload, dtype=np.uint8), space, allocator)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    @property
    def device(self) -> Device:
        return self.space.device

    def require_on(self, device: Device) -> np.ndarray:
        """Assert residency and return the raw array (kernel entry check)."""
        if self._freed:
            raise DeviceError("use of a freed buffer")
        if self.space.device.name != device.name:
            raise DeviceError(
                f"buffer resides on {self.space.name}, kernel launched on "
                f"{device.name}; insert a transfer first")
        return self.array

    def free(self) -> None:
        """Release the accounting for this buffer (idempotent)."""
        if not self._freed:
            self._allocator.on_free(self.space, self.nbytes)
            self._freed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Buffer({self.array.dtype}[{self.array.size}] "
                f"on {self.space.name})")


# ---------------------------------------------------------------------- #
# runtime contract sanitizer                                              #
# ---------------------------------------------------------------------- #

class Sanitizer:
    """Runtime mirror of the fzlint dataflow contracts (FZL014-FZL016).

    Enabled with ``FZMOD_SANITIZE=1`` (or :func:`set_sanitizing` in
    tests), it enforces at execution time what the static pass proves
    at lint time:

    * **use-after-release** — every array released back to a
      :class:`BufferPool` is poisoned with a canary byte (``0xA5``) and
      remembered while the pool keeps it alive; hot-path kernels call
      :meth:`check_live` at entry and a released operand raises
      :class:`~repro.errors.SanitizerError` at the call site instead of
      silently reading recycled memory;
    * **double-release** — releasing the same lease twice raises before
      the free list is corrupted;
    * **out= aliasing** — kernels call :meth:`check_no_alias`; an
      ``out=`` destination that overlaps an input per
      ``np.shares_memory`` raises, except the documented in-place form
      where input and ``out`` are the *same object*.

    Violations are also counted in the observability registry
    (``sanitizer.use_after_release`` / ``sanitizer.double_release`` /
    ``sanitizer.aliasing``), so a service can alert on them even where
    the exception is swallowed by a job boundary.  When disabled, every
    check is a single attribute load and boolean test — the hot path
    stays unaffected.
    """

    #: byte written over every released buffer; reads of recycled memory
    #: that dodge the id check still surface as loud deterministic garbage
    CANARY = 0xA5

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._override: bool | None = None
        self._lock = threading.Lock()
        # id(arr) -> weakref for arrays released *and* still held by a
        # pool.  Weak references (not plain ids): when a whole pool is
        # dropped its idle arrays die without passing through acquire/
        # clear, and CPython reuses their ids for fresh allocations — a
        # plain id set would then report phantom double releases.  The
        # weakref callback purges the entry the moment the array dies.
        self._released: dict[int, weakref.ref] = {}
        registry = metrics if metrics is not None else GLOBAL_METRICS
        self._uar = registry.counter("sanitizer.use_after_release")
        self._double = registry.counter("sanitizer.double_release")
        self._alias = registry.counter("sanitizer.aliasing")
        self._poisoned = registry.counter("sanitizer.poisoned")

    @property
    def enabled(self) -> bool:
        """True when contract checks are active (env or override)."""
        if self._override is not None:
            return self._override
        return os.environ.get("FZMOD_SANITIZE", "0") == "1"

    def set_enabled(self, enabled: bool | None) -> None:
        """Force on/off (``None`` returns control to the env var)."""
        self._override = enabled

    def _is_released(self, arr: np.ndarray) -> bool:
        with self._lock:
            ref = self._released.get(id(arr))
            if ref is None:
                return False
            target = ref()
            if target is None:
                # array died and a new object reused its id before the
                # weakref callback ran
                del self._released[id(arr)]
                return False
            return target is arr

    # -- pool integration ---------------------------------------------- #
    def check_release(self, arr: np.ndarray) -> None:
        """Raise if ``arr`` is already sitting released in a pool."""
        if not self.enabled:
            return
        if self._is_released(arr):
            self._double.inc()
            raise SanitizerError(
                f"double release of a pooled {arr.dtype} array of shape "
                f"{arr.shape}: the lease was already returned to the "
                f"pool (static counterpart: FZL014)")

    def on_release(self, arr: np.ndarray, *, pooled: bool) -> None:
        """Poison a released array; track it while the pool holds it."""
        if not self.enabled:
            return
        key = id(arr)
        if pooled:
            def _purge(ref, *, _key=key):
                with self._lock:
                    if self._released.get(_key) is ref:
                        del self._released[_key]
            with self._lock:
                self._released[key] = weakref.ref(arr, _purge)
        else:
            # dropped (freed): stop tracking so a future allocation can
            # reuse the id without tripping a phantom violation
            with self._lock:
                self._released.pop(key, None)
        self._poison(arr)

    def on_acquire(self, arr: np.ndarray) -> None:
        """A pooled array went back into service: stop tracking it."""
        if not self.enabled:
            return
        with self._lock:
            self._released.pop(id(arr), None)

    def forget(self, arrays) -> None:
        """Untrack arrays leaving a pool for good (``clear``)."""
        with self._lock:
            for arr in arrays:
                self._released.pop(id(arr), None)

    def _poison(self, arr: np.ndarray) -> None:
        try:
            arr.view(np.uint8)[...] = self.CANARY
        except (ValueError, TypeError):
            return  # non-contiguous / exotic dtype: skip, id check remains
        self._poisoned.inc()

    # -- kernel entry checks ------------------------------------------- #
    def check_live(self, context: str, *arrays) -> None:
        """Raise if any operand (or a view base) was released."""
        if not self.enabled:
            return
        for arr in arrays:
            a = arr
            while isinstance(a, np.ndarray):
                if self._is_released(a):
                    self._uar.inc()
                    raise SanitizerError(
                        f"{context}: operand {a.dtype}{a.shape} is used "
                        f"after its pool lease was released (static "
                        f"counterpart: FZL015)")
                a = a.base

    def check_no_alias(self, context: str, dest, allow_identical: bool = True,
                       **inputs) -> None:
        """Raise when ``dest`` overlaps an input it is not identical to.

        Identical objects (``arr is dest``) are the documented visible
        in-place idiom (``lorenzo_forward(grid, out=grid)``) and pass
        unless ``allow_identical=False`` (kernels like ``delta_forward``
        whose write order makes even full in-place illegal); any other
        overlap per ``np.shares_memory`` is the hidden aliasing FZL016
        flags statically.
        """
        if not self.enabled or dest is None:
            return
        if not isinstance(dest, np.ndarray):
            return
        for name, arr in inputs.items():
            if arr is None or not isinstance(arr, np.ndarray):
                continue
            if arr is dest and allow_identical:
                continue
            if np.shares_memory(dest, arr):
                self._alias.inc()
                raise SanitizerError(
                    f"{context}: out= destination aliases input "
                    f"`{name}` ({arr.dtype}{arr.shape}); the kernel "
                    f"would read values it already overwrote (static "
                    f"counterpart: FZL016)")


#: Process-wide sanitizer; pools and hot-path kernels all consult it.
SANITIZER = Sanitizer()


def sanitizing_enabled() -> bool:
    """True when the runtime contract sanitizer is active."""
    return SANITIZER.enabled


def set_sanitizing(enabled: bool | None) -> None:
    """Process-wide switch (tests / harnesses); ``None`` re-reads env."""
    SANITIZER.set_enabled(enabled)


# ---------------------------------------------------------------------- #
# buffer pool                                                             #
# ---------------------------------------------------------------------- #

#: the host CPU space scratch kernels allocate from by default
HOST_SPACE = MemorySpace(Device(name="host", kind=DeviceKind.CPU,
                                mem_bandwidth=200e9, link_bandwidth=200e9,
                                launch_overhead=0.0))


class BufferPool:
    """Recycles NumPy scratch arrays by ``(space, dtype, shape)``.

    Kernels on the hot path (prequantize, Lorenzo diffs/scans, delta
    coding) need same-shaped integer/float scratch on every call; a fresh
    ``np.empty`` per call pays allocation plus first-touch page faults.
    The pool hands previously released arrays back instead.

    Accounting contract (checked by the runtime tests):

    * a pool *miss* allocates and records ``on_alloc`` against the pool's
      :class:`Allocator` — live and peak rise once;
    * a *hit* and its matching :meth:`release` move an existing array in
      and out of the free list — live and peak are untouched, so reuse can
      never inflate the measured peak;
    * :meth:`release` beyond the per-key depth or the byte budget frees
      the array (``on_free``) instead of pooling it;
    * :meth:`clear` frees every idle array, returning live accounting to
      what is still checked out (zero once callers released everything).

    Arrays handed out by :meth:`acquire` contain garbage (``np.empty``
    semantics) and must only be released back by the caller that acquired
    them.  The pool is thread-safe; the shard executor shares one pool
    across its worker threads.
    """

    def __init__(self, space: MemorySpace = HOST_SPACE,
                 allocator: Allocator | None = None, *,
                 max_per_key: int = 4, max_bytes: int = 256 << 20,
                 metrics: MetricsRegistry | None = None) -> None:
        self.space = space
        self.allocator = allocator if allocator is not None else GLOBAL_ALLOCATOR
        self.max_per_key = int(max_per_key)
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._free: dict[tuple[str, tuple[int, ...]], list[np.ndarray]] = {}
        self._free_bytes = 0
        # counters are registry-backed; ad-hoc pools (tests, experiments)
        # get a private registry so their counts start at zero, while the
        # process pool publishes into GLOBAL_METRICS (see GLOBAL_POOL)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter("bufferpool.hits")
        self._misses = self.metrics.counter("bufferpool.misses")
        self._drops = self.metrics.counter("bufferpool.drops")

    def acquire(self, shape: tuple[int, ...] | int, dtype) -> np.ndarray:
        """An uninitialised array of the requested shape class."""
        dtype = np.dtype(dtype)
        shape = (int(shape),) if np.isscalar(shape) else tuple(
            int(n) for n in shape)
        key = (dtype.str, shape)
        with self._lock:
            bucket = self._free.get(key)
            if bucket:
                arr = bucket.pop()
                self._free_bytes -= arr.nbytes
                self._hits.inc()
                SANITIZER.on_acquire(arr)
                return arr
            self._misses.inc()
        arr = np.empty(shape, dtype=dtype)
        self.allocator.on_alloc(self.space, arr.nbytes)
        return arr

    def release(self, arr: np.ndarray) -> None:
        """Return an acquired array to the pool (or free it when full)."""
        SANITIZER.check_release(arr)
        key = (arr.dtype.str, arr.shape)
        with self._lock:
            bucket = self._free.setdefault(key, [])
            if (len(bucket) < self.max_per_key
                    and self._free_bytes + arr.nbytes <= self.max_bytes):
                # poison/track before the array becomes acquirable again,
                # so a concurrent acquire cannot observe a stale record
                SANITIZER.on_release(arr, pooled=True)
                bucket.append(arr)
                self._free_bytes += arr.nbytes
                return
            self._drops.inc()
        self.allocator.on_free(self.space, arr.nbytes)
        SANITIZER.on_release(arr, pooled=False)

    def clear(self) -> None:
        """Free every pooled (idle) array."""
        with self._lock:
            freed = self._free_bytes
            idle = [a for b in self._free.values() for a in b]
            self._free.clear()
            self._free_bytes = 0
        SANITIZER.forget(idle)
        if freed:
            self.allocator.on_free(self.space, freed)

    # counters are registry-backed; these views keep the historical API
    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def drops(self) -> int:
        return self._drops.value

    @property
    def reuse_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counters + occupancy, as stable scalars."""
        with self._lock:
            return {
                "pooled_arrays": sum(len(b) for b in self._free.values()),
                "pooled_bytes": self._free_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "drops": self.drops,
                "reuse_rate": round(self.reuse_rate, 4),
            }


#: Process-wide scratch pool used by the hot-path kernels.  Its counters
#: publish straight into the global metrics registry.
GLOBAL_POOL = BufferPool(metrics=GLOBAL_METRICS)


def _collect_runtime_gauges(registry: MetricsRegistry) -> None:
    """Publish pool occupancy and allocator watermarks on scrape."""
    with GLOBAL_POOL._lock:
        pooled = sum(len(b) for b in GLOBAL_POOL._free.values())
        pooled_bytes = GLOBAL_POOL._free_bytes
    registry.gauge("bufferpool.pooled_arrays").set(pooled)
    registry.gauge("bufferpool.pooled_bytes").set(pooled_bytes)
    for space, nbytes in sorted(GLOBAL_ALLOCATOR.live.items()):
        registry.gauge("allocator.live_bytes", space=space).set(nbytes)
    for space, nbytes in sorted(GLOBAL_ALLOCATOR.peak.items()):
        registry.gauge("allocator.peak_bytes", space=space).set(nbytes)


GLOBAL_METRICS.add_collector(_collect_runtime_gauges)

_POOL_DISABLED = False


def pooling_enabled() -> bool:
    """True when hot-path kernels should draw scratch from the pool
    (disable with ``FZMOD_BUFFER_POOL=0`` or :func:`set_pooling`)."""
    return (not _POOL_DISABLED
            and os.environ.get("FZMOD_BUFFER_POOL", "1") != "0")


def set_pooling(enabled: bool) -> None:
    """Process-wide switch used by the perf harness's cold-path runs."""
    global _POOL_DISABLED
    _POOL_DISABLED = not enabled


def default_pool() -> BufferPool | None:
    """The pool kernels should use, or ``None`` when pooling is off."""
    return GLOBAL_POOL if pooling_enabled() else None

