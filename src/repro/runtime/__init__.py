"""Simulated heterogeneous runtime (devices, memory, transfers) and threads.

This package stands in for the CUDA runtime of the original system: kernels
execute as NumPy calls, but residency is enforced (a kernel cannot read a
buffer that "lives" on another device without an explicit or STF-inserted
transfer) and every operation books simulated time on per-resource
timelines, so schedules, overlap and transfer traffic are all observable.
"""

from .clock import Interval, SimClock
from .device import Device, DeviceRegistry, default_node
from .memory import (SANITIZER, Allocator, Buffer, BufferPool, MemorySpace,
                     Sanitizer, default_pool, pooling_enabled,
                     sanitizing_enabled, set_pooling, set_sanitizing)
from .stream import OrderedWorkQueue
from .threads import (SlabPool, active_threads, resolve_threads, run_slabs,
                      shared_pool, slab_ranges, thread_arena, thread_budget)
from .transfer import TransferStats, copy_to, transfer_seconds

__all__ = [
    "Interval", "SimClock", "Device", "DeviceRegistry", "default_node",
    "Allocator", "Buffer", "BufferPool", "MemorySpace", "default_pool",
    "pooling_enabled", "set_pooling", "Sanitizer", "SANITIZER",
    "sanitizing_enabled", "set_sanitizing", "OrderedWorkQueue",
    "TransferStats", "copy_to", "transfer_seconds",
    "SlabPool", "active_threads", "resolve_threads", "run_slabs",
    "shared_pool", "slab_ranges", "thread_arena", "thread_budget",
]
