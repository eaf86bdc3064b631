"""Analytic performance model (Table 1 platforms + roofline cost model).

Regenerates the throughput/speedup figures from compressor structure and
measured compression statistics; see DESIGN.md §2 for why this substitutes
for CUDA wall-clock and how it is calibrated.  :mod:`repro.perf.link`
models the loaded host link behind Table 1's "Measured Bandwidth" row.
"""

from .costmodel import (CALIBRATION, Calibration, PipelineCost, Resource,
                        StageCost, cpu_rate)
from .estimator import (COMPRESSORS, RunStats, compression_cost,
                        decompression_cost, estimate_throughput)
from .link import (TransferRequest, loaded_bandwidth, measured_bandwidth,
                   simulate_transfers)
from .platform import H100, PLATFORMS, V100, PlatformSpec, get_platform, table1_rows
from .sensitivity import (FIG1_ORDERINGS, OrderingCheck, ordering_robustness,
                          perturb, robustness_summary)

__all__ = [
    "CALIBRATION", "Calibration", "PipelineCost", "Resource", "StageCost",
    "cpu_rate", "COMPRESSORS", "RunStats", "compression_cost",
    "decompression_cost", "estimate_throughput", "H100", "PLATFORMS", "V100",
    "PlatformSpec", "get_platform", "table1_rows",
    "TransferRequest", "loaded_bandwidth", "measured_bandwidth",
    "simulate_transfers",
    "FIG1_ORDERINGS", "OrderingCheck", "ordering_robustness", "perturb",
    "robustness_summary",
]
