"""Parallel execution: the sharded compression engine + node simulation.

:mod:`repro.parallel.executor` is the real OS-level engine: it shards a
field, compresses shards concurrently on a worker pool (processes with
shared-memory staging, or an in-process pool for small inputs), and
assembles a multi-shard container that decodes in parallel from the blob
alone.

The simulation side reproduces the measurement context of Table 1
(loaded bandwidth with all four GPUs transferring) and models node-level
snapshot compression with compute/transfer overlap.

Callers compress and decompress through :func:`repro.compress` /
:func:`repro.decompress` (the :mod:`repro.api` facade), which dispatch
here by argument shape; engine internals import ``compress_sharded`` /
``decompress_sharded`` from :mod:`repro.parallel.executor` directly.
"""

from .cluster import (CampaignReport, ClusterSpec, breakeven_nodes,
                      simulate_campaign_write)
from .executor import (CODEBOOK_MODES, DEFAULT_SHARD_MB,
                       ShardedCompressedField, ShardIndex, ShardPlan,
                       default_workers, describe_sharded, is_sharded,
                       parse_sharded)
from .link import TransferRequest, loaded_bandwidth, simulate_transfers
from .node import (FieldJob, NodeReport, measured_bandwidth, scaling_series,
                   simulate_snapshot)

__all__ = [
    "CampaignReport", "ClusterSpec", "breakeven_nodes",
    "simulate_campaign_write",
    "CODEBOOK_MODES", "DEFAULT_SHARD_MB",
    "ShardedCompressedField", "ShardIndex", "ShardPlan",
    "default_workers",
    "describe_sharded", "is_sharded", "parse_sharded",
    "TransferRequest", "loaded_bandwidth", "simulate_transfers",
    "FieldJob", "NodeReport", "measured_bandwidth", "scaling_series",
    "simulate_snapshot",
]
