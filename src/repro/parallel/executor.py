"""Sharded parallel compression engine.

The paper's pitch is concurrent, heterogeneous execution of composable
pipelines; this module is the shard-level realisation: a field is split into
slab shards (reusing the tiling policy of :mod:`repro.core.chunked`),
every shard is compressed as an independent container by a worker pool,
and the results are assembled into a *multi-shard container* that
:func:`repro.core.decompress` decodes — again in parallel — from the blob
alone.

Design points
-------------
* **Threads.**  Shards run on a thread pool in the calling process: each
  job gets a view of its slab and the caller's pipeline instance, and
  decompression writes every slab straight into the output array.
  NumPy kernels release the GIL for most of their work, so shards
  overlap.
* **Backpressure.**  Shard jobs are pumped through an
  :class:`~repro.runtime.stream.OrderedWorkQueue`: a bounded number of
  shards is in flight and results drain in submission order, so the
  assembled container is deterministic and memory stays bounded.
* **Determinism.**  Shard geometry depends only on shape/dtype/shard
  size, and REL bounds are resolved against the *global* range before
  sharding — the container is byte-identical for every worker count, and
  shard semantics match :func:`repro.core.compress_tiled`.

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
import struct
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..core.chunked import TileGrid
from ..core.header import ContainerHeader, peek_header
from ..core.pipeline import CompressionStats, Pipeline, check_decode_out
from ..core.registry import DEFAULT_REGISTRY, ModuleRegistry
from ..core.spec import PipelineSpec
from ..errors import CodecError, ConfigError, HeaderError
from ..kernels import huffman
from ..obs.spans import GLOBAL_TRACER, SpanRecord, absorb_capture, span
from ..runtime.stream import OrderedWorkQueue
from ..types import SUPPORTED_DTYPES, EbMode, ErrorBound, check_field

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

#: in-flight shards per worker (the backpressure window)
_IN_FLIGHT_PER_WORKER = 2

#: the ``dtype`` strings a writer emits (the native float types)
_INDEX_DTYPES = frozenset(d.str for d in SUPPORTED_DTYPES)


def default_workers() -> int:
    """Worker count when the caller does not choose: one per visible CPU."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: int | None) -> int:
    """``None`` means :func:`default_workers`; below 1 is a ``ConfigError``."""
    if workers is None:
        return default_workers()
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, got {workers}")
    return workers


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
def _count(x) -> int:
    """A row, offset or length read from an index: a plain ``int`` >= 0."""
    if type(x) is not int or x < 0:
        raise ValueError(f"expected a non-negative integer, got {x!r}")
    return x


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
        """Deserialise and validate an index.

        ``bounds`` must tile ``[0, shape[0])`` in order, and ``table`` must
        hold back-to-back shards from offset 0, one per bound: a reader
        sizes its output from ``shape`` and fills it shard by shard, so
        any gap or overlap would leave rows uninitialised.
        """
        try:
            index = cls(
                shape=tuple(_count(x) for x in obj["shape"]),
                dtype=str(obj["dtype"]),
                eb_value=float(obj["eb_value"]),
                eb_mode=str(obj["eb_mode"]),
                eb_abs=float(obj["eb_abs"]),
                pipeline=dict(obj["pipeline"]),
                bounds=[(_count(a), _count(b)) for a, b in obj["bounds"]],
                table=[(_count(o), _count(n)) for o, n in obj["table"]],
                codebook_mode=str(obj.get("codebook_mode", "per-shard")),
                codebook_lengths=(
                    [int(x) for x in obj["codebook_lengths"]]
                    if obj.get("codebook_lengths") is not None else None),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise HeaderError(f"malformed shard index: {exc}") from exc
        if not index.shape or not index.bounds:
            raise HeaderError("malformed shard index: 0-d shape or no shards")
        if index.dtype not in _INDEX_DTYPES:
            raise HeaderError(
                f"malformed shard index: dtype {index.dtype!r} is not one of "
                f"{sorted(_INDEX_DTYPES)}")
        row = 0
        for start, stop in index.bounds:
            if start != row or stop <= start:
                raise HeaderError(
                    f"shard bounds do not tile rows [0, {index.shape[0]}): "
                    f"shard {start}:{stop} follows row {row}")
            row = stop
        if row != index.shape[0]:
            raise HeaderError(f"shard bounds end at row {row}, the field "
                              f"has {index.shape[0]}")
        if len(index.table) != len(index.bounds):
            raise HeaderError("shard table / bounds length mismatch")
        if index.table != build_table([n for _, n in index.table]):
            raise HeaderError("shard table offsets are not back to back "
                              "from 0")
        return index

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
    return index, shards


def check_shard_headers(index: ShardIndex, heads, exc: type[Exception]
                        ) -> list[ContainerHeader]:
    """Peek each shard's own header and check it against the index.

    ``heads`` yields, per shard, bytes that start with the shard's
    container prefix and header.  Every shard must hold exactly its index
    rows, in the index dtype, so a reader can size its output from the
    index before any shard decodes.  Raises ``exc`` on a mismatch and
    returns the parsed headers.
    """
    headers = []
    for (start, stop), head in zip(index.bounds, heads):
        header = peek_header(head)
        expected = (stop - start, *index.shape[1:])
        if tuple(header.shape) != expected or header.dtype != index.dtype:
            raise exc(f"shard rows {start}:{stop} hold a "
                      f"{tuple(header.shape)}/{header.dtype} field, the "
                      f"index expects {expected}/{index.dtype}")
        headers.append(header)
    return headers


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
# shard jobs (run on the engine's thread pool)                            #
# ---------------------------------------------------------------------- #
def _with_fixed_codebook(pipeline: Pipeline, lengths: np.ndarray) -> Pipeline:
    """A shallow pipeline clone whose encoder uses a pinned codebook.

    The registry instance is never touched (modules stay stateless); the
    clone's encoder skips statistics and omits the lengths section.
    """
    clone = copy.copy(pipeline)
    clone.encoder = pipeline.encoder.with_fixed_codebook(lengths)
    return clone


def _compress_shard(pipeline: Pipeline, shard: np.ndarray, eb_abs: float
                    ) -> tuple[bytes, CompressionStats, list[SpanRecord]]:
    """Compress one slab; its spans travel with the result."""
    # resolves through the plan cache: one trace per pipeline, not per shard
    plan = pipeline.compile()
    with GLOBAL_TRACER.capture() as spans:
        with span("shard.compress", rows=int(shard.shape[0]),
                  plan=plan.key, bytes_in=int(shard.nbytes)) as sp:
            cf = plan.compress(np.ascontiguousarray(shard),
                               ErrorBound(eb_abs, EbMode.ABS))
            sp.set(bytes_out=len(cf.blob))
    return cf.blob, cf.stats, spans


def _histogram_shard(pipeline: Pipeline, shard: np.ndarray, eb_abs: float
                     ) -> tuple[np.ndarray, list[SpanRecord]]:
    """Histogram-pass job: quant-code counts of one shard (no encoding)."""
    with GLOBAL_TRACER.capture() as spans:
        with span("shard.histogram", rows=int(shard.shape[0]),
                  bytes_in=int(shard.nbytes)) as sp:
            counts = pipeline.compile()._front_counts(
                np.ascontiguousarray(shard), ErrorBound(eb_abs, EbMode.ABS))
            sp.set(bytes_out=int(counts.nbytes))
    return counts, spans


def _decompress_shard(shard_blob: bytes, header: ContainerHeader,
                      registry: ModuleRegistry, lengths: bytes | None,
                      dest: np.ndarray) -> list[SpanRecord]:
    """Decode one shard container straight into ``dest``, its slab of the
    output (no per-shard staging copy)."""
    from ..compile import decode_plan_for_header
    with GLOBAL_TRACER.capture() as spans:
        with span("shard.decompress", bytes_in=len(shard_blob)) as sp:
            plan = decode_plan_for_header(header, registry)
            overrides = {"enc.lengths": lengths} if lengths is not None \
                else None
            header, arts = plan.decode_entropy(shard_blob,
                                               section_overrides=overrides)
            plan.reconstruct(header, arts, out=dest)
            sp.set(plan=plan.key, bytes_out=int(dest.nbytes))
    return spans


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
    for k, (counts, spans) in enumerate(queue.drain()):
        absorb_capture(spans, lane=f"shard:{k}")
        total = counts if total is None else total + counts
    return total


def compress_sharded(data: np.ndarray,
                     pipeline: Pipeline | PipelineSpec,
                     eb: ErrorBound | float,
                     mode: EbMode | str = EbMode.REL, *,
                     workers: int | None = None,
                     shard_mb: float | None = None,
                     registry: ModuleRegistry = DEFAULT_REGISTRY,
                     codebook: str | None = None
                     ) -> ShardedCompressedField:
    """Compress ``data`` shard-parallel into a multi-shard container.

    ``pipeline`` may be an assembled :class:`Pipeline` or a bare
    :class:`PipelineSpec` (built against ``registry``).  REL bounds are
    resolved against the *global* value range before sharding, so the
    reconstruction contract equals the unsharded pipeline's.  The blob is
    byte-identical for every ``workers`` value.

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
    workers = resolve_workers(workers)
    plan = ShardPlan.for_field(data.shape, data.dtype,
                               DEFAULT_SHARD_MB if shard_mb is None
                               else shard_mb)
    bounds = plan.bounds
    workers = min(workers, len(bounds))

    with span("engine.compress_sharded", shards=len(bounds),
              workers=workers, bytes_in=int(data.nbytes)) as engine_sp:
        shard_blobs: list[bytes] = []
        shard_stats: list[CompressionStats] = []
        extra_seconds: dict[str, float] = {}
        shared_lengths: np.ndarray | None = None
        in_flight = _IN_FLIGHT_PER_WORKER * workers
        with ThreadPoolExecutor(max_workers=workers) as pool:
            if codebook == "shared":
                t0 = time.perf_counter()
                with span("engine.codebook", shards=len(bounds),
                          bytes_in=int(data.nbytes)) as sp:
                    queue = OrderedWorkQueue(pool, max_in_flight=in_flight)
                    for start, stop in bounds:
                        queue.submit(_histogram_shard, pipeline,
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
                queue.submit(_compress_shard, enc_pipeline, data[start:stop],
                             eb_abs)
            for k, (blob, stats, spans) in enumerate(queue.drain()):
                absorb_capture(spans, lane=f"shard:{k}")
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
        workers=workers, wall_seconds=time.perf_counter() - t_start,
        codebook_mode=codebook)


def decompress_sharded(blob: bytes, *, workers: int | None = None,
                       registry: ModuleRegistry = DEFAULT_REGISTRY,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct a field from a multi-shard container, shard-parallel.

    Header-driven like single-container decompression: the index stores
    the pipeline spec, so the blob alone suffices for any process with
    the same modules registered.  ``out`` receives the field in place
    (and is returned) when supplied.
    """
    index, shards = parse_sharded(blob)
    version = _PREFIX.unpack_from(blob)[1]
    headers = check_shard_headers(
        index, shards,
        CodecError if version >= STREAM_SHARD_VERSION else HeaderError)
    dtype = np.dtype(index.dtype)
    if out is None:
        out = np.empty(index.shape, dtype=dtype)
    else:
        check_decode_out(out, index.shape, dtype)
    workers = min(resolve_workers(workers), len(shards))
    shared = index.shared_lengths()
    lengths_blob = None if shared is None else shared.tobytes()

    with span("engine.decompress_sharded", shards=len(shards),
              workers=workers, bytes_in=len(blob), bytes_out=int(out.nbytes)):
        with ThreadPoolExecutor(max_workers=workers) as pool:
            queue = OrderedWorkQueue(
                pool, max_in_flight=_IN_FLIGHT_PER_WORKER * workers)
            for shard_blob, header, (start, stop) in zip(shards, headers,
                                                         index.bounds):
                queue.submit(_decompress_shard, shard_blob, header, registry,
                             lengths_blob, out[start:stop])
            for k, spans in enumerate(queue.drain()):
                absorb_capture(spans, lane=f"shard:{k}")
        return out
