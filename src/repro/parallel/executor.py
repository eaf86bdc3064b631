"""Sharded parallel compression engine.

The paper's pitch is concurrent, heterogeneous execution of composable
pipelines; this module is the OS-level realisation: a field is split into
slab shards (reusing the tiling policy of :mod:`repro.core.chunked`),
every shard is compressed as an independent container by a worker pool,
and the results are assembled into a *multi-shard container* that
:func:`repro.core.decompress` decodes — again in parallel — from the blob
alone.

Design points
-------------
* **Specs travel, modules don't.**  Workers receive the pipeline's
  :class:`~repro.core.spec.PipelineSpec` (names + radius, trivially
  picklable) and rebuild the pipeline against their own registry; module
  instances never cross the process boundary.
* **Shared-memory staging.**  For process workers the input field is
  placed in :mod:`multiprocessing.shared_memory` once; each worker maps
  its slab zero-copy.  Decompression reverses the trick: workers write
  their slab straight into a shared output buffer.
* **In-process fallback.**  Small fields (pool overhead would dominate),
  single-worker runs and custom registries (whose modules only exist in
  this process) use a thread pool instead; NumPy kernels release the GIL
  for most of their work, so even that overlaps.
* **Backpressure.**  Shard jobs are pumped through an
  :class:`~repro.runtime.stream.OrderedWorkQueue`: a bounded number of
  shards is in flight and results drain in submission order, so the
  assembled container is deterministic and memory stays bounded.
* **Determinism.**  Shard geometry depends only on shape/dtype/shard
  size, and REL bounds are resolved against the *global* range before
  sharding — the container is byte-identical for every worker count and
  backend, and shard semantics match :func:`repro.core.compress_tiled`.

Container layout (versions 1 and 2)::

    magic "FZMS" | u16 version | u32 header_len | u32 header_crc
    | header (JSON, UTF-8) | shard containers, back to back

The JSON header stores geometry, the resolved bound, the canonical
pipeline spec, the slab boundaries and a shard byte table.  Each shard is
a complete ``FZMD`` container with its own CRCs, so corruption anywhere
still fails loudly before a codec runs.

Version 3 is the *streaming* layout written by
:func:`repro.streaming.engine.compress_stream` when the sink cannot be
seeked: the same prefix with ``header_len = header_crc = 0``, shard containers
back to back, then the JSON index and a fixed trailer::

    magic "FZMS" | u16 3 | u32 0 | u32 0
    | shard containers, back to back
    | index (JSON, UTF-8)
    | u64 index_offset | u32 index_len | u32 index_crc | magic "SMZF"

A writer can append shards as they complete and seal the file with one
trailing write; a reader seeks to the end, validates the trailer and
CRC, and then has random access to every shard.  Truncation anywhere
surfaces as a clean :class:`~repro.errors.CodecError` before any codec
runs.
"""

from __future__ import annotations

import copy
import json
import os
import secrets
import struct
import time
import zlib
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..core.chunked import TileGrid
from ..core.header import peek_header
from ..core.pipeline import CompressionStats, Pipeline, check_decode_out
from ..core.registry import DEFAULT_REGISTRY, ModuleRegistry
from ..core.spec import PipelineSpec
from ..errors import (CodecError, ConfigError, HeaderError,
                      ModuleNotFoundInRegistry)
from ..kernels import huffman
from ..obs.spans import GLOBAL_TRACER, absorb_capture, export_capture, span
from ..runtime.stream import OrderedWorkQueue
from ..types import EbMode, ErrorBound, Stage, check_field

SHARD_MAGIC = b"FZMS"
#: highest container version this reader accepts; per-shard-codebook
#: containers are still written as version 1 (byte-identical with older
#: engines), shared-codebook containers as version 2, and the streaming
#: trailing-index layout as version 3
SHARD_VERSION = 3
#: version of the streaming (trailing-index) layout
STREAM_SHARD_VERSION = 3

_PREFIX = struct.Struct("<4sHII")
#: version-3 trailer: u64 index offset | u32 index len | u32 index crc
#: | end magic (the shard magic reversed, so a bare prefix can never be
#: mistaken for a trailer)
_TRAILER = struct.Struct("<QII4s")
TRAILER_MAGIC = b"SMZF"

#: entropy-codebook scopes of the sharded engine
CODEBOOK_MODES = ("per-shard", "shared")

#: default shard size (MiB of input data per shard)
DEFAULT_SHARD_MB = 32.0

#: below this input size the process pool never pays for itself
_PROCESS_THRESHOLD_BYTES = 8 << 20

#: in-flight shards per worker (the backpressure window)
_IN_FLIGHT_PER_WORKER = 2


def default_workers() -> int:
    """Worker count when the caller does not choose: one per visible CPU."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------- #
# shard geometry                                                          #
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardPlan:
    """Deterministic slab decomposition of a field along axis 0.

    Built on :class:`~repro.core.chunked.TileGrid` (the chunking policy of
    the tiled reader) with full-extent tiles on every axis but the first,
    so shards are contiguous row ranges of a C-contiguous field.
    """

    shape: tuple[int, ...]
    dtype: str
    rows_per_shard: int

    def __post_init__(self) -> None:
        if not self.shape:
            raise ConfigError("cannot shard a 0-d field")
        if self.rows_per_shard < 1:
            raise ConfigError("rows_per_shard must be >= 1")

    @classmethod
    def for_field(cls, shape: tuple[int, ...], dtype: np.dtype,
                  shard_mb: float = DEFAULT_SHARD_MB) -> "ShardPlan":
        """Choose slab height so one shard holds ~``shard_mb`` MiB."""
        if shard_mb <= 0:
            raise ConfigError(f"shard_mb must be > 0, got {shard_mb}")
        dtype = np.dtype(dtype)
        row_bytes = int(np.prod(shape[1:], dtype=np.int64)) * dtype.itemsize
        rows = int(shard_mb * (1 << 20) // max(1, row_bytes))
        rows = max(1, min(rows, int(shape[0])))
        return cls(shape=tuple(int(n) for n in shape), dtype=dtype.str,
                   rows_per_shard=rows)

    @property
    def grid(self) -> TileGrid:
        return TileGrid(shape=self.shape,
                        tile=(self.rows_per_shard, *self.shape[1:]))

    @property
    def bounds(self) -> tuple[tuple[int, int], ...]:
        """Per-shard ``(start_row, stop_row)`` ranges, in order."""
        out = []
        for _, slices in self.grid.tiles():
            out.append((slices[0].start, slices[0].stop))
        return tuple(out)

    @property
    def count(self) -> int:
        return len(self.bounds)


# ---------------------------------------------------------------------- #
# multi-shard container                                                   #
# ---------------------------------------------------------------------- #
@dataclass
class ShardIndex:
    """Header of a multi-shard container.

    ``codebook_mode`` records the entropy-codebook scope the shards were
    written with.  In ``"shared"`` mode the index carries the canonical
    Huffman code lengths (one byte per symbol) that every shard encodes
    with; the shards themselves omit their ``enc.lengths`` section and the
    decoder injects these instead — the container stays self-describing.
    """

    shape: tuple[int, ...]
    dtype: str
    eb_value: float
    eb_mode: str
    eb_abs: float
    pipeline: dict                         # PipelineSpec JSON
    bounds: list[tuple[int, int]]          # per-shard row ranges
    table: list[tuple[int, int]] = None    # per-shard (offset, length)
    codebook_mode: str = "per-shard"
    codebook_lengths: list[int] | None = None

    def to_json(self) -> dict:
        """JSON-serialisable form of the index.

        Per-shard-codebook indexes omit the codebook keys entirely, so
        default-mode containers are byte-identical with those written
        before the shared mode existed.
        """
        obj = {
            "shape": list(self.shape),
            "dtype": self.dtype,
            "eb_value": self.eb_value,
            "eb_mode": self.eb_mode,
            "eb_abs": self.eb_abs,
            "pipeline": self.pipeline,
            "bounds": [[a, b] for a, b in self.bounds],
            "table": [[o, n] for o, n in self.table],
        }
        if self.codebook_mode != "per-shard":
            obj["codebook_mode"] = self.codebook_mode
            obj["codebook_lengths"] = list(self.codebook_lengths or [])
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "ShardIndex":
        try:
            return cls(
                shape=tuple(int(x) for x in obj["shape"]),
                dtype=str(obj["dtype"]),
                eb_value=float(obj["eb_value"]),
                eb_mode=str(obj["eb_mode"]),
                eb_abs=float(obj["eb_abs"]),
                pipeline=dict(obj["pipeline"]),
                bounds=[(int(a), int(b)) for a, b in obj["bounds"]],
                table=[(int(o), int(n)) for o, n in obj["table"]],
                codebook_mode=str(obj.get("codebook_mode", "per-shard")),
                codebook_lengths=(
                    [int(x) for x in obj["codebook_lengths"]]
                    if obj.get("codebook_lengths") is not None else None),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise HeaderError(f"malformed shard index: {exc}") from exc

    def spec(self) -> PipelineSpec:
        """The canonical pipeline description the shards were written with."""
        return PipelineSpec.from_json(self.pipeline)

    def shared_lengths(self) -> np.ndarray | None:
        """The shared codebook as a ``uint8`` lengths array (or ``None``)."""
        if self.codebook_mode != "shared":
            return None
        if not self.codebook_lengths:
            raise HeaderError("shared-codebook index is missing its lengths")
        return np.asarray(self.codebook_lengths, dtype=np.uint8)

    @property
    def shard_count(self) -> int:
        return len(self.bounds)


@dataclass(frozen=True)
class ShardedCompressedField:
    """Output of :func:`compress_sharded` (the parallel engine's report).

    ``stats`` aggregates the per-shard measurements into one
    :class:`CompressionStats` (stage seconds are summed CPU-seconds across
    shards; ``wall_seconds`` is the engine's end-to-end time).
    """

    blob: bytes
    stats: CompressionStats
    shard_stats: tuple[CompressionStats, ...]
    index: ShardIndex
    workers: int
    backend: str
    wall_seconds: float
    codebook_mode: str = "per-shard"

    @property
    def nbytes(self) -> int:
        return len(self.blob)

    @property
    def shard_count(self) -> int:
        return len(self.shard_stats)


def is_sharded(blob: bytes) -> bool:
    """True when ``blob`` is a multi-shard (``FZMS``) container."""
    return bytes(blob[:len(SHARD_MAGIC)]) == SHARD_MAGIC


def pack_index(index: ShardIndex) -> tuple[bytes, int, int]:
    """Serialise an index to its wire JSON.

    Returns ``(json_bytes, crc, version)`` — the version being the
    header-first wire version (1 per-shard codebook, 2 shared) that
    :func:`assemble_sharded` and the streaming writer's compat layout
    both stamp, so the two paths stay byte-identical by construction.
    """
    hjson = json.dumps(index.to_json(), separators=(",", ":")).encode("utf-8")
    hcrc = zlib.crc32(hjson) & 0xFFFFFFFF
    version = 1 if index.codebook_mode == "per-shard" else 2
    return hjson, hcrc, version


def build_table(shard_lengths: list[int]) -> list[tuple[int, int]]:
    """Per-shard ``(offset, length)`` table for back-to-back shard blobs."""
    table = []
    offset = 0
    for length in shard_lengths:
        table.append((offset, length))
        offset += length
    return table


def load_index(hjson: bytes, hcrc: int, *, exc: type[Exception] = HeaderError
               ) -> ShardIndex:
    """Validate + deserialise index JSON, raising ``exc`` on corruption."""
    if (zlib.crc32(hjson) & 0xFFFFFFFF) != hcrc:
        raise exc("multi-shard index CRC mismatch; the blob is corrupt "
                  "or truncated")
    try:
        return ShardIndex.from_json(json.loads(hjson.decode("utf-8")))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise exc(f"unreadable multi-shard index: {e}") from e
    except HeaderError as e:
        if exc is HeaderError:
            raise
        raise exc(str(e)) from e


def assemble_sharded(index: ShardIndex, shard_blobs: list[bytes]) -> bytes:
    """Serialise the index + shard containers into one blob."""
    index.table = build_table([len(b) for b in shard_blobs])
    hjson, hcrc, version = pack_index(index)
    return b"".join([_PREFIX.pack(SHARD_MAGIC, version, len(hjson), hcrc),
                     hjson, *shard_blobs])


def parse_trailer(tail: bytes, file_size: int) -> tuple[int, int, int]:
    """Decode a version-3 trailer (the last ``_TRAILER.size`` bytes).

    Returns ``(index_offset, index_len, index_crc)``; every structural
    problem — short file, bad end magic, index range outside the file —
    raises :class:`~repro.errors.CodecError` (truncation of a streamed
    container is a payload-level defect, not a header-parse one).
    """
    if len(tail) < _TRAILER.size:
        raise CodecError("streamed multi-shard container is truncated: "
                         "no room for the trailer")
    ioff, ilen, icrc, tmagic = _TRAILER.unpack_from(
        tail, len(tail) - _TRAILER.size)
    if tmagic != TRAILER_MAGIC:
        raise CodecError(
            f"bad streamed-container end magic {tmagic!r}; the trailing "
            "index was truncated or never sealed")
    if (ioff < _PREFIX.size
            or ioff + ilen + _TRAILER.size > file_size):
        raise CodecError("streamed-container trailer points outside the "
                         "blob; the trailing index is truncated")
    return ioff, ilen, icrc


def parse_sharded(blob: bytes) -> tuple[ShardIndex, list[bytes]]:
    """Split a multi-shard container (any version) into index + shards."""
    if len(blob) < _PREFIX.size:
        raise HeaderError("multi-shard container too short")
    magic, version, hlen, hcrc = _PREFIX.unpack_from(blob, 0)
    if magic != SHARD_MAGIC:
        raise HeaderError(f"bad multi-shard magic {magic!r}")
    if not (1 <= version <= SHARD_VERSION):
        raise HeaderError(f"unsupported multi-shard version {version}")
    start = _PREFIX.size
    if version >= STREAM_SHARD_VERSION:
        ioff, ilen, icrc = parse_trailer(blob[-_TRAILER.size:], len(blob))
        index = load_index(blob[ioff:ioff + ilen], icrc, exc=CodecError)
        body = blob[start:ioff]
        bad_table = CodecError
    else:
        if len(blob) < start + hlen:
            raise HeaderError("truncated multi-shard header")
        index = load_index(blob[start:start + hlen], hcrc)
        body = blob[start + hlen:]
        bad_table = HeaderError
    shards: list[bytes] = []
    for offset, length in index.table:
        if offset + length > len(body):
            raise bad_table("shard table exceeds container size")
        shards.append(bytes(body[offset:offset + length]))
    if len(shards) != len(index.bounds):
        raise bad_table("shard table / bounds length mismatch")
    return index, shards


def describe_sharded(blob: bytes) -> dict:
    """Structured description for ``fzmod inspect`` (no decoding)."""
    index, shards = parse_sharded(blob)
    return {
        "shape": list(index.shape),
        "dtype": index.dtype,
        "eb": f"{index.eb_value:g} ({index.eb_mode})",
        "eb_abs": index.eb_abs,
        "pipeline": index.pipeline,
        "codebook": index.codebook_mode,
        "shards": [{"rows": [a, b], "bytes": len(s)}
                   for (a, b), s in zip(index.bounds, shards)],
    }


# ---------------------------------------------------------------------- #
# stats aggregation                                                       #
# ---------------------------------------------------------------------- #
def combine_stats(shard_stats: list[CompressionStats],
                  output_bytes: int, eb_abs: float, *,
                  extra_seconds: dict[str, float] | None = None
                  ) -> CompressionStats:
    """Fold per-shard statistics into one combined report.

    Byte counts, outliers and section sizes are sums; fractions are
    re-derived from the summed byte counts (i.e. input-weighted); stage
    seconds are summed CPU-seconds (the work done, not the wall time —
    the whole point of the engine is that wall time is smaller).
    ``extra_seconds`` adds engine-level phases that run outside any shard
    (e.g. the shared-codebook histogram pass).
    """
    if not shard_stats:
        raise ConfigError("no shard statistics to combine")
    input_bytes = sum(s.input_bytes for s in shard_stats)
    sections: dict[str, int] = {}
    seconds: dict[str, float] = dict(extra_seconds or {})
    for s in shard_stats:
        for k, v in s.section_sizes.items():
            sections[k] = sections.get(k, 0) + v
        for k, v in s.stage_seconds.items():
            seconds[k] = seconds.get(k, 0.0) + v
    code_bytes = sum(s.code_fraction * s.input_bytes for s in shard_stats)
    outlier_bytes = sum(s.outlier_fraction * s.input_bytes
                        for s in shard_stats)
    return CompressionStats(
        input_bytes=input_bytes,
        output_bytes=output_bytes,
        element_count=sum(s.element_count for s in shard_stats),
        eb_abs=eb_abs,
        code_fraction=code_bytes / input_bytes,
        outlier_fraction=outlier_bytes / input_bytes,
        outlier_count=sum(s.outlier_count for s in shard_stats),
        section_sizes=sections,
        stage_seconds=seconds,
        interp_levels=max(s.interp_levels for s in shard_stats))


# ---------------------------------------------------------------------- #
# worker entry points (top level: must be picklable for process pools)    #
# ---------------------------------------------------------------------- #
def _with_fixed_codebook(pipeline: Pipeline, lengths: np.ndarray) -> Pipeline:
    """A shallow pipeline clone whose encoder uses a pinned codebook.

    The registry instance is never touched (modules stay stateless); the
    clone's encoder skips statistics and omits the lengths section.
    """
    clone = copy.copy(pipeline)
    clone.encoder = pipeline.encoder.with_fixed_codebook(lengths)
    return clone


def _compress_shard_local(pipeline: Pipeline, shard: np.ndarray,
                          eb_abs: float
                          ) -> tuple[bytes, CompressionStats, dict | None]:
    # resolves through this process's plan cache: one trace per worker,
    # not per shard
    plan = pipeline.compile()
    with GLOBAL_TRACER.capture() as spans:
        with span("shard.compress", rows=int(shard.shape[0]),
                  plan=plan.key, bytes_in=int(shard.nbytes)) as sp:
            cf = plan.compress(np.ascontiguousarray(shard),
                               ErrorBound(eb_abs, EbMode.ABS))
            sp.set(bytes_out=len(cf.blob))
    return cf.blob, cf.stats, export_capture(spans)


def _compress_shard_shm(spec_json: dict, shm_name: str,
                        shape: tuple[int, ...], dtype: str,
                        start: int, stop: int, eb_abs: float,
                        lengths: bytes | None = None
                        ) -> tuple[bytes, CompressionStats, dict | None]:
    """Process-pool job: map the shared field, compress rows [start, stop).

    ``lengths`` (serialised ``uint8`` code lengths) pins the shard to a
    shared Huffman codebook instead of building one from its own stats.
    """
    spec = PipelineSpec.from_json(spec_json)
    pipeline = Pipeline.from_spec(spec, DEFAULT_REGISTRY)
    if lengths is not None:
        pipeline = _with_fixed_codebook(
            pipeline, np.frombuffer(lengths, dtype=np.uint8))
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        field = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        # copy the slab out so no view pins the mapping after close()
        shard = np.array(field[start:stop])
    finally:
        shm.close()
    return _compress_shard_local(pipeline, shard, eb_abs)


def _compress_shard_bytes(spec_json: dict, raw: bytes,
                          shape: tuple[int, ...], dtype: str, eb_abs: float,
                          lengths: bytes | None = None
                          ) -> tuple[bytes, CompressionStats, dict | None]:
    """Process-pool job for the streaming engine: compress one slab that
    travelled as raw bytes (the source field never exists as one array in
    any process, so there is no shared-memory segment to map)."""
    spec = PipelineSpec.from_json(spec_json)
    pipeline = Pipeline.from_spec(spec, DEFAULT_REGISTRY)
    if lengths is not None:
        pipeline = _with_fixed_codebook(
            pipeline, np.frombuffer(lengths, dtype=np.uint8))
    shard = np.frombuffer(raw, dtype=np.dtype(dtype)).reshape(shape)
    return _compress_shard_local(pipeline, shard, eb_abs)


def _histogram_shard_bytes(spec_json: dict, raw: bytes,
                           shape: tuple[int, ...], dtype: str, eb_abs: float
                           ) -> tuple[np.ndarray, dict | None]:
    """Process-pool job: histogram one slab shipped as raw bytes."""
    spec = PipelineSpec.from_json(spec_json)
    pipeline = Pipeline.from_spec(spec, DEFAULT_REGISTRY)
    shard = np.frombuffer(raw, dtype=np.dtype(dtype)).reshape(shape)
    return _histogram_shard_local(pipeline, shard, eb_abs)


def _histogram_shard_local(pipeline: Pipeline, shard: np.ndarray,
                           eb_abs: float
                           ) -> tuple[np.ndarray, dict | None]:
    """Histogram-pass job: quant-code counts of one shard (no encoding)."""
    with GLOBAL_TRACER.capture() as spans:
        with span("shard.histogram", rows=int(shard.shape[0]),
                  bytes_in=int(shard.nbytes)) as sp:
            counts = pipeline.compile()._front_counts(
                np.ascontiguousarray(shard), ErrorBound(eb_abs, EbMode.ABS))
            sp.set(bytes_out=int(counts.nbytes))
    return counts, export_capture(spans)


def _histogram_shard_shm(spec_json: dict, shm_name: str,
                         shape: tuple[int, ...], dtype: str,
                         start: int, stop: int, eb_abs: float
                         ) -> tuple[np.ndarray, dict | None]:
    """Process-pool job: histogram rows [start, stop) of the shared field."""
    spec = PipelineSpec.from_json(spec_json)
    pipeline = Pipeline.from_spec(spec, DEFAULT_REGISTRY)
    shm = shared_memory.SharedMemory(name=shm_name)
    try:
        field = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        shard = np.array(field[start:stop])
    finally:
        shm.close()
    return _histogram_shard_local(pipeline, shard, eb_abs)


def _decode_shard(shard_blob: bytes, registry: ModuleRegistry,
                  lengths: bytes | None, dest: np.ndarray | None
                  ) -> tuple[np.ndarray, str]:
    """Decode one shard container into ``dest`` (its slab of the output).

    The plan resolves through this process's plan cache (one trace per
    worker, not per shard) and its reconstruction writes straight into
    ``dest`` — no per-shard staging copy.  Returns the slab and the
    plan's key.
    """
    from ..compile import decode_plan_for_header
    plan = decode_plan_for_header(peek_header(shard_blob), registry)
    overrides = {"enc.lengths": lengths} if lengths is not None else None
    header, arts = plan.decode_entropy(shard_blob,
                                       section_overrides=overrides)
    return plan.reconstruct(header, arts, out=dest), plan.key


def _decompress_shard_shm(shard_blob: bytes, shm_name: str,
                          shape: tuple[int, ...], dtype: str,
                          start: int, stop: int,
                          lengths: bytes | None = None) -> dict | None:
    """Process-pool job: decode one shard into the shared output buffer."""
    with GLOBAL_TRACER.capture() as spans:
        with span("shard.decompress", rows=int(stop - start),
                  bytes_in=len(shard_blob)) as sp:
            shm = shared_memory.SharedMemory(name=shm_name)
            try:
                field = np.ndarray(shape, dtype=np.dtype(dtype),
                                   buffer=shm.buf)
                slab, key = _decode_shard(shard_blob, DEFAULT_REGISTRY,
                                          lengths, field[start:stop])
                sp.set(plan=key, bytes_out=int(slab.nbytes))
            finally:
                shm.close()
    return export_capture(spans)


def _decompress_shard_local(shard_blob: bytes, registry: ModuleRegistry,
                            lengths: bytes | None = None,
                            dest: np.ndarray | None = None
                            ) -> tuple[np.ndarray, dict | None]:
    """Thread-pool job: decode one shard (into ``dest`` when given)."""
    with GLOBAL_TRACER.capture() as spans:
        with span("shard.decompress", bytes_in=len(shard_blob)) as sp:
            out, key = _decode_shard(shard_blob, registry, lengths, dest)
            sp.set(plan=key, bytes_out=int(out.nbytes))
    return out, export_capture(spans)


# ---------------------------------------------------------------------- #
# backend selection                                                       #
# ---------------------------------------------------------------------- #
def _spec_resolvable(spec: PipelineSpec, registry: ModuleRegistry) -> bool:
    """Can ``registry`` rebuild this spec?  (Process workers use the
    default registry, so specs with process-local modules must stay
    in-process.)

    Only the *absence* of a module routes the job to the in-process
    fallback; any other error from a registry lookup is a real bug and
    propagates with its own context instead of silently degrading the
    backend choice.
    """
    pairs = [(Stage.PREPROCESS, spec.preprocess),
             (Stage.PREDICTOR, spec.predictor),
             (Stage.ENCODER, spec.encoder)]
    if spec.statistics is not None:
        pairs.append((Stage.STATISTICS, spec.statistics))
    if spec.secondary is not None:
        pairs.append((Stage.SECONDARY, spec.secondary))
    try:
        for stage, name in pairs:
            registry.get(stage, name)
    except ModuleNotFoundInRegistry:
        return False
    return True


def _choose_backend(backend: str | None, workers: int, nbytes: int,
                    spec: PipelineSpec, registry: ModuleRegistry,
                    shard_count: int) -> str:
    if backend is not None:
        if backend not in ("process", "inprocess"):
            raise ConfigError(f"unknown executor backend {backend!r}; "
                              "expected 'process' or 'inprocess'")
        if backend == "process" and not _spec_resolvable(spec,
                                                         DEFAULT_REGISTRY):
            raise ConfigError(
                "process backend requires every spec module to exist in the "
                "default registry (module instances cannot be shipped to "
                "worker processes)")
        return backend
    if (workers <= 1 or shard_count <= 1
            or nbytes < _PROCESS_THRESHOLD_BYTES
            or registry is not DEFAULT_REGISTRY
            or not _spec_resolvable(spec, DEFAULT_REGISTRY)):
        return "inprocess"
    return "process"


def _make_pool(backend: str, workers: int) -> Executor:
    if backend == "process":
        return ProcessPoolExecutor(max_workers=workers)
    return ThreadPoolExecutor(max_workers=workers)


def _shm_create(nbytes: int) -> shared_memory.SharedMemory:
    # a random name avoids collisions across concurrent engines; Python
    # would generate one anyway, but an explicit fzmod prefix eases
    # debugging of leaked segments under /dev/shm
    return shared_memory.SharedMemory(
        # fzlint: disable-next-line=FZL004 -- the segment name exists only
        # for the life of the pool and never reaches serialized bytes
        name=f"fzmod_{secrets.token_hex(8)}", create=True, size=nbytes)


# ---------------------------------------------------------------------- #
# the engine                                                              #
# ---------------------------------------------------------------------- #
def _build_shared_codebook(counts: np.ndarray, pipeline: Pipeline
                           ) -> np.ndarray:
    """One canonical codebook for the whole field, as a lengths array."""
    max_len = getattr(pipeline.encoder, "max_len", huffman.DEFAULT_MAX_LEN)
    book = huffman.build_codebook(counts, max_len=max_len)
    return book.lengths


def _drain_histograms(queue: OrderedWorkQueue) -> np.ndarray:
    """Sum histogram results, absorbing each shard's spans in order."""
    total = None
    for k, (counts, payload) in enumerate(queue.drain()):
        absorb_capture(payload, lane=f"shard:{k}")
        total = counts if total is None else total + counts
    return total


def compress_sharded(data: np.ndarray,
                     pipeline: Pipeline | PipelineSpec,
                     eb: ErrorBound | float,
                     mode: EbMode | str = EbMode.REL, *,
                     workers: int | None = None,
                     shard_mb: float | None = None,
                     registry: ModuleRegistry = DEFAULT_REGISTRY,
                     backend: str | None = None,
                     codebook: str | None = None
                     ) -> ShardedCompressedField:
    """Compress ``data`` shard-parallel into a multi-shard container.

    ``pipeline`` may be an assembled :class:`Pipeline` or a bare
    :class:`PipelineSpec` (built against ``registry``).  REL bounds are
    resolved against the *global* value range before sharding, so the
    reconstruction contract equals the unsharded pipeline's.  The blob is
    byte-identical for every ``workers`` value and backend.

    ``codebook="shared"`` (Huffman pipelines only) runs a two-pass
    engine: a parallel histogram pass over the shards, one global
    codebook build from the summed counts, then a parallel encode pass
    with that codebook pinned in every worker — one package-merge run
    instead of one per shard, and the codebook stored once in the index
    instead of once per shard.  Shared-mode blobs are still
    deterministic across worker counts and decode self-describingly.
    """
    t_start = time.perf_counter()
    data = check_field(data)
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
    if not isinstance(eb, ErrorBound):
        eb = ErrorBound(float(eb), EbMode(mode))
    eb_abs = eb.absolute(float(data.min()), float(data.max()))
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    plan = ShardPlan.for_field(data.shape, data.dtype,
                               DEFAULT_SHARD_MB if shard_mb is None
                               else shard_mb)
    bounds = plan.bounds
    chosen = _choose_backend(backend, workers, data.nbytes, spec, registry,
                             len(bounds))
    workers = min(workers, len(bounds))

    with span("engine.compress_sharded", shards=len(bounds),
              workers=workers, backend=chosen,
              bytes_in=int(data.nbytes)) as engine_sp:
        shard_blobs: list[bytes] = []
        shard_stats: list[CompressionStats] = []
        extra_seconds: dict[str, float] = {}
        shared_lengths: np.ndarray | None = None
        in_flight = _IN_FLIGHT_PER_WORKER * workers
        if chosen == "process":
            shm = _shm_create(data.nbytes)
            try:
                staged = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
                staged[...] = data
                with _make_pool("process", workers) as pool:
                    if codebook == "shared":
                        t0 = time.perf_counter()
                        with span("engine.codebook", shards=len(bounds),
                                  bytes_in=int(data.nbytes)) as sp:
                            queue = OrderedWorkQueue(pool,
                                                     max_in_flight=in_flight)
                            for start, stop in bounds:
                                queue.submit(_histogram_shard_shm, spec.to_json(),
                                             shm.name, data.shape, data.dtype.str,
                                             start, stop, eb_abs)
                            counts = _drain_histograms(queue)
                            shared_lengths = _build_shared_codebook(counts,
                                                                    pipeline)
                            sp.set(bytes_out=int(shared_lengths.nbytes))
                        extra_seconds["codebook"] = time.perf_counter() - t0
                    lengths_blob = (None if shared_lengths is None
                                    else shared_lengths.tobytes())
                    queue = OrderedWorkQueue(pool, max_in_flight=in_flight)
                    for start, stop in bounds:
                        queue.submit(_compress_shard_shm, spec.to_json(),
                                     shm.name, data.shape, data.dtype.str,
                                     start, stop, eb_abs, lengths_blob)
                    for k, (blob, stats, payload) in enumerate(queue.drain()):
                        absorb_capture(payload, lane=f"shard:{k}")
                        shard_blobs.append(blob)
                        shard_stats.append(stats)
            finally:
                shm.close()
                shm.unlink()
        else:
            with _make_pool("inprocess", workers) as pool:
                if codebook == "shared":
                    t0 = time.perf_counter()
                    with span("engine.codebook", shards=len(bounds),
                              bytes_in=int(data.nbytes)) as sp:
                        queue = OrderedWorkQueue(pool, max_in_flight=in_flight)
                        for start, stop in bounds:
                            queue.submit(_histogram_shard_local, pipeline,
                                         data[start:stop], eb_abs)
                        counts = _drain_histograms(queue)
                        shared_lengths = _build_shared_codebook(counts, pipeline)
                        sp.set(bytes_out=int(shared_lengths.nbytes))
                    extra_seconds["codebook"] = time.perf_counter() - t0
                enc_pipeline = (pipeline if shared_lengths is None
                                else _with_fixed_codebook(pipeline,
                                                          shared_lengths))
                queue = OrderedWorkQueue(pool, max_in_flight=in_flight)
                for start, stop in bounds:
                    queue.submit(_compress_shard_local, enc_pipeline,
                                 data[start:stop], eb_abs)
                for k, (blob, stats, payload) in enumerate(queue.drain()):
                    absorb_capture(payload, lane=f"shard:{k}")
                    shard_blobs.append(blob)
                    shard_stats.append(stats)

        index = ShardIndex(shape=data.shape, dtype=data.dtype.str,
                           eb_value=eb.value, eb_mode=eb.mode.value,
                           eb_abs=eb_abs, pipeline=spec.to_json(),
                           bounds=list(bounds), codebook_mode=codebook,
                           codebook_lengths=(
                               None if shared_lengths is None
                               else [int(x) for x in shared_lengths]))
        blob = assemble_sharded(index, shard_blobs)
        stats = combine_stats(shard_stats, len(blob), eb_abs,
                              extra_seconds=extra_seconds)
        engine_sp.set(bytes_out=len(blob))
    return ShardedCompressedField(
        blob=blob, stats=stats, shard_stats=tuple(shard_stats), index=index,
        workers=workers, backend=chosen,
        wall_seconds=time.perf_counter() - t_start,
        codebook_mode=codebook)


def decompress_sharded(blob: bytes, *, workers: int | None = None,
                       registry: ModuleRegistry = DEFAULT_REGISTRY,
                       backend: str | None = None,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct a field from a multi-shard container, shard-parallel.

    Header-driven like single-container decompression: the index stores
    the pipeline spec, so the blob alone suffices for any process with
    the same modules registered.  ``out`` receives the field in place
    (and is returned) when supplied.
    """
    index, shards = parse_sharded(blob)
    dtype = np.dtype(index.dtype)
    if out is not None:
        check_decode_out(out, index.shape, dtype)
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    nbytes = int(np.prod(index.shape, dtype=np.int64)) * dtype.itemsize
    chosen = _choose_backend(backend, workers, nbytes, index.spec(), registry,
                             len(shards))
    workers = min(workers, len(shards))
    shared = index.shared_lengths()
    lengths_blob = None if shared is None else shared.tobytes()

    with span("engine.decompress_sharded", shards=len(shards),
              workers=workers, backend=chosen,
              bytes_in=len(blob), bytes_out=nbytes):
        if chosen == "process":
            shm = _shm_create(nbytes)
            try:
                with _make_pool("process", workers) as pool:
                    queue = OrderedWorkQueue(
                        pool, max_in_flight=_IN_FLIGHT_PER_WORKER * workers)
                    for shard_blob, (start, stop) in zip(shards, index.bounds):
                        queue.submit(_decompress_shard_shm, shard_blob, shm.name,
                                     index.shape, index.dtype, start, stop,
                                     lengths_blob)
                    for k, payload in enumerate(queue.drain()):
                        absorb_capture(payload, lane=f"shard:{k}")
                staged = np.ndarray(index.shape, dtype=dtype, buffer=shm.buf)
                if out is None:
                    out = staged.copy()
                else:
                    out[...] = staged
            finally:
                shm.close()
                shm.unlink()
            return out

        if out is None:
            out = np.empty(index.shape, dtype=dtype)
        with _make_pool("inprocess", workers) as pool:
            queue = OrderedWorkQueue(
                pool, max_in_flight=_IN_FLIGHT_PER_WORKER * workers)
            for shard_blob, (start, stop) in zip(shards, index.bounds):
                queue.submit(_decompress_shard_local, shard_blob, registry,
                             lengths_blob, out[start:stop])
            for k, ((start, stop), (shard, payload)) in enumerate(
                    zip(index.bounds, queue.drain())):
                absorb_capture(payload, lane=f"shard:{k}")
                expected = (stop - start, *index.shape[1:])
                if shard.shape != expected:
                    raise HeaderError(
                        f"shard rows {start}:{stop} decoded to shape "
                        f"{shard.shape}, expected {expected}")
        return out
