"""Parallel execution: the sharded compression engine.

:mod:`repro.parallel.executor` shards a field, compresses shards
concurrently on a thread pool, and assembles a multi-shard container that
decodes in parallel from the blob alone.

Callers compress and decompress through :func:`repro.compress` /
:func:`repro.decompress` (the :mod:`repro.api` facade), which dispatch
here by argument shape; engine internals import ``compress_sharded`` /
``decompress_sharded`` from :mod:`repro.parallel.executor` directly.
"""

from .executor import (CODEBOOK_MODES, DEFAULT_SHARD_MB,
                       ShardedCompressedField, ShardIndex, ShardPlan,
                       default_workers, describe_sharded, is_sharded,
                       parse_sharded)

__all__ = [
    "CODEBOOK_MODES", "DEFAULT_SHARD_MB",
    "ShardedCompressedField", "ShardIndex", "ShardPlan",
    "default_workers",
    "describe_sharded", "is_sharded", "parse_sharded",
]
