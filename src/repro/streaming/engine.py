"""Out-of-core streaming compression and decompression.

:func:`compress_stream` is the sharded engine's big sibling for fields
that do not fit in RAM: slabs flow from a
:class:`~repro.streaming.source.FieldSource` through a double-buffered
:class:`~repro.streaming.prefetch.SlabPrefetcher`, onto a thread pool
through the same shard jobs and
:class:`~repro.runtime.stream.OrderedWorkQueue` the in-memory engine
uses, and out through an incremental
:class:`~repro.streaming.container.ShardStreamWriter` — so at no point
does the field, or the container, exist as one object.  Shard geometry,
bound resolution, and codebook construction are shared with
:func:`repro.parallel.executor.compress_sharded`, which is why the
``"compat"`` layout's output is byte-identical to the in-memory engine's for the
same input, at every worker count.

:func:`decompress_stream` reverses it on the same queue, as a bounded
ordered window of ``workers + 1`` shards: pool threads fetch and
entropy-decode shards while the calling thread reconstructs the oldest
into the output, so the Huffman decode of shard ``k+1`` overlaps the
outlier scatter of shard ``k`` — the paper's §3.3.1 overlap, observable
as wall-clock-overlapping ``stream.huffman_decode`` /
``stream.outlier_scatter`` spans in the Perfetto trace.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..compile import decode_plan_for
from ..core.pipeline import CompressionStats, Pipeline, check_decode_out
from ..core.registry import DEFAULT_REGISTRY, ModuleRegistry
from ..core.spec import PipelineSpec
from ..errors import ConfigError, DataError
from ..obs.metrics import GLOBAL_METRICS
from ..obs.spans import absorb_capture, span
from ..parallel.executor import (CODEBOOK_MODES, DEFAULT_SHARD_MB,
                                 ShardIndex, ShardPlan,
                                 _IN_FLIGHT_PER_WORKER,
                                 _build_shared_codebook, _compress_shard,
                                 _histogram_shard, _with_fixed_codebook,
                                 combine_stats, resolve_workers)
from ..runtime.stream import OrderedWorkQueue
from ..types import EbMode, ErrorBound
from .container import ShardReader, ShardStreamWriter
from .prefetch import SlabPrefetcher
from .source import FieldSource, as_source, drop_mapped_pages

#: slabs read ahead of the work queue (2 = double buffering)
DEFAULT_PREFETCH_DEPTH = 2


@dataclass(frozen=True)
class StreamedCompressedField:
    """Report of one :func:`compress_stream` run (blob stays on disk)."""

    path: str
    nbytes: int
    stats: CompressionStats
    shard_stats: tuple[CompressionStats, ...]
    index: ShardIndex
    workers: int
    layout: str
    codebook_mode: str
    wall_seconds: float

    @property
    def shard_count(self) -> int:
        return len(self.shard_stats)


def _resolve_eb(eb: ErrorBound, source: FieldSource) -> float:
    """Absolute tolerance, via a slab-wise global min/max pass for REL."""
    if eb.mode is EbMode.ABS:
        return eb.absolute(0.0, 0.0)
    if not source.rescannable:
        raise ConfigError(
            "a REL bound needs a min/max pass before compression, but the "
            "source is sequential-only; resolve the bound to ABS first")
    lo, hi = source.min_max()
    return eb.absolute(lo, hi)


def compress_stream(source, pipeline: Pipeline | PipelineSpec,
                    eb: ErrorBound | float,
                    mode: EbMode | str = EbMode.REL, *,
                    out_path: str,
                    workers: int | None = None,
                    shard_mb: float | None = None,
                    registry: ModuleRegistry = DEFAULT_REGISTRY,
                    codebook: str | None = None,
                    layout: str = "compat"
                    ) -> StreamedCompressedField:
    """Compress a field slab-by-slab into a multi-shard container on disk.

    ``source`` is anything :func:`~repro.streaming.source.as_source`
    accepts: a :class:`FieldSource`, an ``np.memmap`` (the out-of-core
    path — consumed pages are dropped as slabs are read), or an
    in-memory array.  Peak resident input is ``(DEFAULT_PREFETCH_DEPTH
    + 1 + in-flight shards) x shard``, never the field.

    ``layout="compat"`` (default) writes a header-first container
    byte-identical to :func:`repro.parallel.executor.compress_sharded`
    on the same input — shards spill next to ``out_path`` and are rewritten
    behind the header on close.  ``layout="stream"`` writes the
    version-3 trailing-index container in one pass (nothing rewritten;
    the sink may be append-only).

    REL bounds and ``codebook="shared"`` need a second pass over the
    rows and therefore a rescannable source.
    """
    t_start = time.perf_counter()
    src = as_source(source)
    if isinstance(pipeline, PipelineSpec):
        pipeline = Pipeline.from_spec(pipeline, registry)
    spec = pipeline.spec
    if codebook is None:
        codebook = "per-shard"
    if codebook not in CODEBOOK_MODES:
        raise ConfigError(f"unknown codebook mode {codebook!r}; expected "
                          f"one of {CODEBOOK_MODES}")
    if codebook == "shared" and spec.encoder != "huffman":
        raise ConfigError(
            "shared-codebook sharding requires the 'huffman' encoder "
            f"(pipeline uses {spec.encoder!r})")
    if codebook == "shared" and not src.rescannable:
        raise ConfigError(
            "a shared codebook needs a histogram pass before encoding, but "
            "the source is sequential-only; use codebook='per-shard'")
    if not isinstance(eb, ErrorBound):
        eb = ErrorBound(float(eb), EbMode(mode))
    eb_abs = _resolve_eb(eb, src)
    workers = resolve_workers(workers)
    dtype = np.dtype(src.dtype)
    plan = ShardPlan.for_field(src.shape, dtype,
                               DEFAULT_SHARD_MB if shard_mb is None
                               else shard_mb)
    bounds = plan.bounds
    workers = min(workers, len(bounds))
    in_flight = _IN_FLIGHT_PER_WORKER * workers

    index = ShardIndex(shape=tuple(src.shape), dtype=dtype.str,
                       eb_value=eb.value, eb_mode=eb.mode.value,
                       eb_abs=eb_abs, pipeline=spec.to_json(),
                       bounds=list(bounds), codebook_mode=codebook,
                       codebook_lengths=None)
    shard_stats: list[CompressionStats] = []
    extra_seconds: dict[str, float] = {}
    shared_lengths: np.ndarray | None = None

    with span("engine.compress_stream", shards=len(bounds), workers=workers,
              layout=layout, bytes_in=int(src.nbytes)) as engine_sp:
        writer = ShardStreamWriter(out_path, index, layout=layout)
        try:
            with ThreadPoolExecutor(max_workers=workers) as exec_pool:

                def pump(job, job_pipeline, retire_one) -> None:
                    """Prefetched slabs -> queue, retiring in order as
                    results surface (backpressure comes from the queue's
                    in-flight bound and the prefetcher's depth).  A slab's
                    buffer lives as long as its shard's job; the shard's
                    spans land on lane ``shard:<k>``."""
                    queue = OrderedWorkQueue(exec_pool,
                                             max_in_flight=in_flight)
                    lanes = itertools.count()
                    pf = SlabPrefetcher(src, bounds,
                                        depth=DEFAULT_PREFETCH_DEPTH)

                    def retire(res) -> None:
                        absorb_capture(res[-1], lane=f"shard:{next(lanes)}")
                        retire_one(*res[:-1])

                    with pf:
                        for _k, _bnds, buf in pf:
                            queue.submit(job, job_pipeline, buf, eb_abs)
                            for res in queue.completed():
                                retire(res)
                        for res in queue.drain():
                            retire(res)

                if codebook == "shared":
                    t0 = time.perf_counter()
                    with span("engine.codebook", shards=len(bounds),
                              bytes_in=int(src.nbytes)) as cb_sp:
                        totals: dict = {"counts": None}

                        def retire_hist(counts):
                            totals["counts"] = (
                                counts if totals["counts"] is None
                                else totals["counts"] + counts)

                        pump(_histogram_shard, pipeline, retire_hist)
                        shared_lengths = _build_shared_codebook(
                            totals["counts"], pipeline)
                        cb_sp.set(bytes_out=int(shared_lengths.nbytes))
                    extra_seconds["codebook"] = time.perf_counter() - t0

                enc_pipeline = (pipeline if shared_lengths is None
                                else _with_fixed_codebook(pipeline,
                                                          shared_lengths))

                def retire_compress(blob, stats):
                    writer.append(blob)
                    shard_stats.append(stats)

                pump(_compress_shard, enc_pipeline, retire_compress)

            if len(shard_stats) != len(bounds):
                raise DataError(
                    f"source produced {len(shard_stats)} shards, plan "
                    f"expected {len(bounds)}")
            if shared_lengths is not None:
                index.codebook_lengths = [int(x) for x in shared_lengths]
            writer.close()
        except BaseException:  # noqa: BLE001 - partial output removed, re-raised
            writer.abort()
            raise
        stats = combine_stats(shard_stats, writer.bytes_written, eb_abs,
                              extra_seconds=extra_seconds)
        engine_sp.set(bytes_out=writer.bytes_written)
    GLOBAL_METRICS.counter("stream.compress_calls").inc()
    GLOBAL_METRICS.counter("stream.compress_bytes_in").inc(src.nbytes)
    GLOBAL_METRICS.counter("stream.compress_bytes_out").inc(
        writer.bytes_written)
    return StreamedCompressedField(
        path=out_path, nbytes=writer.bytes_written, stats=stats,
        shard_stats=tuple(shard_stats), index=index, workers=workers,
        layout=layout, codebook_mode=codebook,
        wall_seconds=time.perf_counter() - t_start)


# ---------------------------------------------------------------------- #
# streaming decompression: a bounded ordered decode window                #
# ---------------------------------------------------------------------- #
def decompress_stream(path: str, *, out: np.ndarray | None = None,
                      workers: int | None = None,
                      registry: ModuleRegistry = DEFAULT_REGISTRY
                      ) -> np.ndarray:
    """Reconstruct a field from a multi-shard container on disk.

    Reads the index (trailing for version 3, leading for 1/2), then
    pumps the shards through an :class:`OrderedWorkQueue` on a
    ``workers``-thread pool.  Each job fetches one shard's blob
    (``os.pread``, ``stream.fetch``) and runs the decode plan's entropy
    half on it (``stream.huffman_decode``).  Results retire in shard
    order on the calling thread, which runs the plan's reconstruction
    half straight into ``out[start:stop]`` (``stream.outlier_scatter``)
    while the pool decodes the shards behind it.

    The window is ``workers + 1`` shards: ``workers`` decoding plus the
    one being reconstructed, so peak resident memory is
    ``O(window x shard)``, not ``O(field)``.  ``out`` may be a writable
    ``np.memmap`` for out-of-core output; its pages are handed back to
    the page cache shard by shard, and it is flushed for durability
    before return.  ``out`` is checked by :func:`check_decode_out`.
    """
    t_start = time.perf_counter()
    workers = resolve_workers(workers)
    with ShardReader(path) as reader:
        index = reader.index
        dtype = np.dtype(index.dtype)
        if out is None:
            out = np.empty(index.shape, dtype=dtype)
        else:
            check_decode_out(out, index.shape, dtype)
        n = reader.shard_count
        workers = min(workers, max(1, n))
        shared = index.shared_lengths()
        overrides = (None if shared is None
                     else {"enc.lengths": shared.tobytes()})
        # one plan resolution for the whole stream, shared by the pool
        plan = decode_plan_for(Pipeline.from_spec(index.spec(), registry))
        row_nbytes = int(np.prod(index.shape[1:], dtype=np.int64)
                         ) * dtype.itemsize

        def decode(k: int):
            # span names carry the shard (stream.<step>:<k>) so traces diff
            # cleanly across worker counts; analytics strip the ":<k>"
            with span(f"stream.fetch:{k}", shard=k) as sp:
                blob = reader.shard(k)
                sp.set(bytes_in=len(blob), bytes_out=len(blob))
            with span(f"stream.huffman_decode:{k}", shard=k,
                      bytes_in=len(blob), plan=plan.key) as sp:
                header, arts = plan.decode_entropy(
                    blob, section_overrides=overrides)
                sp.set(bytes_out=int(arts.codes.nbytes))
            return k, header, arts

        def reconstruct(k: int, header, arts) -> None:
            start, stop = index.bounds[k]
            with span(f"stream.outlier_scatter:{k}", shard=k,
                      rows=stop - start, bytes_in=int(arts.codes.nbytes),
                      bytes_out=(stop - start) * row_nbytes):
                # the reader checked this shard's header against its rows;
                # reconstruct writes straight into the output slab
                plan.reconstruct(header, arts, out=out[start:stop])
                # a memmapped output's residency tracks the window
                drop_mapped_pages(out, start * row_nbytes, stop * row_nbytes)

        with span("engine.decompress_stream", shards=n, workers=workers,
                  window=workers + 1,
                  bytes_in=sum(length for _, length in index.table),
                  bytes_out=int(out.nbytes)):
            with ThreadPoolExecutor(max_workers=workers,
                                    thread_name_prefix="stream-dec") as pool:
                queue = OrderedWorkQueue(pool, max_in_flight=workers)
                for k in range(n):
                    queue.submit(decode, k)
                    for res in queue.completed():
                        reconstruct(*res)
                for res in queue.drain():
                    reconstruct(*res)
        if hasattr(out, "flush"):
            out.flush()
    GLOBAL_METRICS.counter("stream.decompress_calls").inc()
    GLOBAL_METRICS.gauge("stream.decompress_seconds").set(
        time.perf_counter() - t_start)
    return out
