"""Tests for the simulated heterogeneous runtime (clock, devices, memory,
transfers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.runtime import (Allocator, Buffer, Device, MemorySpace, SimClock,
                           TransferStats, copy_to, default_node,
                           transfer_seconds)
from repro.types import DeviceKind


class TestSimClock:
    def test_reserve_sequences_on_one_resource(self):
        c = SimClock()
        a = c.reserve("gpu0", 1.0)
        b = c.reserve("gpu0", 2.0)
        assert a.start == 0.0 and a.end == 1.0
        assert b.start == 1.0 and b.end == 3.0

    def test_resources_are_independent(self):
        c = SimClock()
        c.reserve("gpu0", 5.0)
        iv = c.reserve("cpu0", 1.0)
        assert iv.start == 0.0

    def test_not_before(self):
        c = SimClock()
        iv = c.reserve("gpu0", 1.0, not_before=10.0)
        assert iv.start == 10.0

    def test_makespan_and_serial(self):
        c = SimClock()
        c.reserve("a", 2.0)
        c.reserve("b", 3.0)
        assert c.makespan == 3.0
        assert c.serial_time() == 5.0

    def test_utilization(self):
        c = SimClock()
        c.reserve("a", 2.0)
        c.reserve("b", 4.0)
        assert c.utilization("a") == pytest.approx(0.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            SimClock().reserve("a", -1.0)

    def test_reset(self):
        c = SimClock()
        c.reserve("a", 1.0)
        c.reset()
        assert c.makespan == 0.0 and not c.intervals


class TestDevices:
    def test_default_node(self):
        reg = default_node()
        assert "cpu0" in reg and "gpu0" in reg
        assert reg.get("gpu0").is_gpu
        assert not reg.get("cpu0").is_gpu

    def test_unknown_device(self):
        with pytest.raises(DeviceError):
            default_node().get("tpu0")

    def test_duplicate_rejected(self):
        reg = default_node()
        with pytest.raises(DeviceError):
            reg.add(reg.get("gpu0"))

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(DeviceError):
            Device(name="bad", kind=DeviceKind.GPU, mem_bandwidth=0,
                   link_bandwidth=1, launch_overhead=0)

    def test_gpus_cpus_listing(self):
        reg = default_node()
        assert [d.name for d in reg.gpus()] == ["gpu0"]
        assert [d.name for d in reg.cpus()] == ["cpu0"]


class TestBufferAllocator:
    def test_alloc_accounting(self):
        alloc = Allocator()
        reg = default_node()
        space = MemorySpace(reg.get("gpu0"))
        buf = Buffer(np.zeros(1000, dtype=np.float32), space, allocator=alloc)
        assert alloc.live["gpu0"] == 4000
        buf.free()
        assert alloc.live["gpu0"] == 0
        assert alloc.peak["gpu0"] == 4000

    def test_double_free_is_idempotent(self):
        alloc = Allocator()
        space = MemorySpace(default_node().get("cpu0"))
        buf = Buffer(np.zeros(10), space, allocator=alloc)
        buf.free()
        buf.free()
        assert alloc.live["cpu0"] == 0

    def test_residency_check(self):
        reg = default_node()
        gpu_space = MemorySpace(reg.get("gpu0"))
        buf = Buffer(np.zeros(10), gpu_space)
        with pytest.raises(DeviceError):
            buf.require_on(reg.get("cpu0"))
        assert buf.require_on(reg.get("gpu0")) is buf.array

    def test_freed_buffer_unusable(self):
        reg = default_node()
        buf = Buffer(np.zeros(4), MemorySpace(reg.get("gpu0")))
        buf.free()
        with pytest.raises(DeviceError):
            buf.require_on(reg.get("gpu0"))


class TestTransfer:
    def test_copy_books_link_time(self):
        reg = default_node(gpu_link_bw=1e9)
        clock = SimClock()
        stats = TransferStats()
        src = MemorySpace(reg.get("cpu0"))
        dst = MemorySpace(reg.get("gpu0"))
        buf = Buffer(np.zeros(1_000_000, dtype=np.uint8), src)
        new, ready = copy_to(buf, dst, clock=clock, stats=stats)
        assert new.space.name == "gpu0"
        assert ready == pytest.approx(1e-3)
        assert stats.between("cpu0", "gpu0") == 1_000_000

    def test_copy_is_deep(self):
        reg = default_node()
        src = MemorySpace(reg.get("cpu0"))
        dst = MemorySpace(reg.get("gpu0"))
        arr = np.arange(10)
        buf = Buffer(arr, src)
        new, _ = copy_to(buf, dst)
        new.array[0] = 99
        assert arr[0] == 0

    def test_same_space_is_noop(self):
        reg = default_node()
        src = MemorySpace(reg.get("cpu0"))
        buf = Buffer(np.zeros(10), src)
        new, ready = copy_to(buf, src, not_before=5.0)
        assert new is buf and ready == 5.0

    def test_transfer_seconds_uses_slower_link(self):
        reg = default_node(gpu_link_bw=10e9, cpu_mem_bw=100e9)
        a = MemorySpace(reg.get("cpu0"))
        b = MemorySpace(reg.get("gpu0"))
        assert transfer_seconds(10e9, a, b) == pytest.approx(1.0)
