"""Table 1 — hardware platforms used in the experiments.

Renders the platform inventory (specs are data, not measurements) and
benchmarks the cost-model evaluation that every other figure depends on.
"""

from __future__ import annotations

import pytest
from _common import emit

from repro.perf import (H100, V100, RunStats, TransferRequest,
                        compression_cost, estimate_throughput,
                        measured_bandwidth, simulate_transfers, table1_rows)


def render_table1() -> str:
    rows = table1_rows()
    keys = list(rows[0])
    lines = ["Table 1: Hardware Platforms Used in Experiments",
             "-" * 72]
    width = max(len(k) for k in keys) + 2
    for key in keys:
        lines.append(f"{key:<{width}}" + " | ".join(f"{r[key]:>24}" for r in rows))
    return "\n".join(lines)


def test_table1_render(benchmark):
    stats = RunStats(input_bytes=1 << 30, cr=15.0)

    def model_everything():
        return [estimate_throughput(n, stats, p)
                for p in (H100, V100)
                for n in ("fzmod-default", "cuszp2", "pfpl")]

    benchmark(model_everything)
    emit("table1_platforms", render_table1())


def test_table1_cost_model_scaling(benchmark):
    """Cost evaluation is O(stages), independent of input size."""
    stats = RunStats(input_bytes=1 << 34, cr=8.0)
    result = benchmark(compression_cost, "fzmod-quality", stats, H100)
    assert result.stages


def test_table1_measured_bandwidth(benchmark):
    """The 'Measured Bandwidth' row: multi-gpu-bwtest with all four GPUs
    transferring, reproduced by the shared-link contention model."""
    def loaded_all_gpus():
        # four saturating transfers through the node's host link
        reqs = [TransferRequest(start=0.0, nbytes=1e9,
                                link_peak=H100.gpu_link_peak)
                for _ in range(H100.node_gpus)]
        done = simulate_transfers(reqs, agg_bw=H100.host_agg_bw)
        return 1e9 / max(done)

    per_gpu = benchmark(loaded_all_gpus)
    assert per_gpu == pytest.approx(measured_bandwidth(H100))
    assert per_gpu == pytest.approx(35.7e9, rel=1e-6)
    assert measured_bandwidth(V100) == pytest.approx(6.91e9, rel=1e-6)

    lines = ["Table 1 'Measured Bandwidth' via the contention model:",
             f"  H100 node: 4 concurrent GPUs -> "
             f"{measured_bandwidth(H100) / 1e9:.2f} GB/s each (paper ~35.7)",
             f"  V100 node: 4 concurrent GPUs -> "
             f"{measured_bandwidth(V100) / 1e9:.2f} GB/s each (paper ~6.91)",
             f"  H100 single GPU unloaded: "
             f"{measured_bandwidth(H100, 1) / 1e9:.2f} GB/s"]
    emit("table1_measured_bandwidth", "\n".join(lines))
