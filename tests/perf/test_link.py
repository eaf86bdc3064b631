"""Tests for the shared-link contention model (Table 1's loaded bandwidth)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.perf import (H100, V100, TransferRequest, loaded_bandwidth,
                        measured_bandwidth, simulate_transfers)


class TestLinkModel:
    def test_single_transfer_runs_at_peak(self):
        req = [TransferRequest(start=0.0, nbytes=1e9, link_peak=10e9)]
        done = simulate_transfers(req, agg_bw=100e9)
        assert done[0] == pytest.approx(0.1)

    def test_two_transfers_share_aggregate(self):
        reqs = [TransferRequest(start=0.0, nbytes=1e9, link_peak=100e9)
                for _ in range(2)]
        done = simulate_transfers(reqs, agg_bw=10e9)
        # each gets 5 GB/s -> 0.2 s
        assert done[0] == pytest.approx(0.2)
        assert done[1] == pytest.approx(0.2)

    def test_cap_binds_before_share(self):
        reqs = [TransferRequest(start=0.0, nbytes=1e9, link_peak=2e9)
                for _ in range(2)]
        done = simulate_transfers(reqs, agg_bw=100e9)
        assert done[0] == pytest.approx(0.5)

    def test_staggered_arrivals(self):
        reqs = [TransferRequest(start=0.0, nbytes=1e9, link_peak=10e9),
                TransferRequest(start=0.05, nbytes=1e9, link_peak=10e9)]
        done = simulate_transfers(reqs, agg_bw=10e9)
        # first runs alone 0.05 s (0.5 GB done), then both share 5 GB/s
        assert done[0] == pytest.approx(0.15)
        assert done[1] == pytest.approx(0.2, rel=1e-6)

    def test_late_arrival_after_idle(self):
        reqs = [TransferRequest(start=0.0, nbytes=1e8, link_peak=10e9),
                TransferRequest(start=1.0, nbytes=1e8, link_peak=10e9)]
        done = simulate_transfers(reqs, agg_bw=100e9)
        assert done[0] == pytest.approx(0.01)
        assert done[1] == pytest.approx(1.01)

    def test_conservation(self):
        """Total bytes / makespan can never exceed the aggregate."""
        rng = np.random.default_rng(3)
        reqs = [TransferRequest(start=float(rng.uniform(0, 0.1)),
                                nbytes=float(rng.uniform(1e8, 1e9)),
                                link_peak=12e9) for _ in range(16)]
        done = simulate_transfers(reqs, agg_bw=30e9)
        busy = max(done) - min(r.start for r in reqs)
        total = sum(r.nbytes for r in reqs)
        assert total / busy <= 30e9 * (1 + 1e-6)

    def test_validation(self):
        with pytest.raises(ConfigError):
            TransferRequest(start=0.0, nbytes=0, link_peak=1e9)
        with pytest.raises(ConfigError):
            simulate_transfers([], agg_bw=0)
        with pytest.raises(ConfigError):
            loaded_bandwidth(1e9, 4e9, 0)

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(1e6, 1e9)),
                    min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_completion_after_arrival_property(self, items):
        reqs = [TransferRequest(start=s, nbytes=b, link_peak=10e9)
                for s, b in items]
        done = simulate_transfers(reqs, agg_bw=25e9)
        for r, d in zip(reqs, done):
            assert d >= r.start + r.nbytes / 10e9 * (1 - 1e-9)


class TestTable1Bandwidth:
    def test_h100_loaded_bandwidth_matches_table1(self):
        assert measured_bandwidth(H100) == pytest.approx(35.7e9)

    def test_v100_loaded_bandwidth_matches_table1(self):
        assert measured_bandwidth(V100) == pytest.approx(6.91e9)

    def test_single_gpu_runs_at_peak(self):
        assert measured_bandwidth(H100, 1) == pytest.approx(55e9)
        assert measured_bandwidth(V100, 1) == pytest.approx(12.8e9)

    def test_bandwidth_monotone_in_load(self):
        vals = [measured_bandwidth(H100, g) for g in (1, 2, 3, 4)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
