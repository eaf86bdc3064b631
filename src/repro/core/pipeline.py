"""Pipeline composition and execution (the heart of the framework).

A :class:`Pipeline` wires one module per stage into an error-bounded
compressor.  ``compress`` returns a :class:`CompressedField` — a
self-describing container blob plus the run's measured statistics (sizes,
per-stage wall time, code/outlier fractions) that the performance model and
the benches consume.  ``decompress`` works from the blob alone: the header
names the modules, which are looked up in the registry, so any process with
the same modules registered can decode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CodecError, ConfigError, DataError, PipelineError
from ..kernels.quantize import (OutlierSet, pack_outliers as quantize_pack,
                                unpack_outliers as quantize_unpack)
from ..types import EbMode, ErrorBound, Stage
from .header import ContainerHeader, peek_header
from .module import (EncoderModule, PredictorModule, PreprocessModule,
                     SecondaryModule, StatisticsModule)
from .modules_std import NoSecondary
from .registry import DEFAULT_REGISTRY, ModuleRegistry
from .spec import DEFAULT_RADIUS, PipelineSpec


@dataclass(frozen=True)
class CompressionStats:
    """Measured statistics of one compression run."""

    input_bytes: int
    output_bytes: int
    element_count: int
    eb_abs: float
    code_fraction: float       # dense code stream bytes / input bytes
    outlier_fraction: float    # outlier channel bytes / input bytes
    outlier_count: int
    section_sizes: dict[str, int]
    stage_seconds: dict[str, float]
    interp_levels: int = 0

    @property
    def cr(self) -> float:
        return self.input_bytes / self.output_bytes

    @property
    def bit_rate(self) -> float:
        return self.output_bytes * 8.0 / self.element_count

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())


@dataclass(frozen=True)
class CompressedField:
    """The output of :meth:`Pipeline.compress`."""

    blob: bytes
    stats: CompressionStats
    header: ContainerHeader

    @property
    def nbytes(self) -> int:
        return len(self.blob)


def _serialize_outliers(out: OutlierSet) -> tuple[dict[str, bytes], int]:
    idx, val, count = quantize_pack(out)
    sections: dict[str, bytes] = {}
    if count:
        sections["outlier.idx"] = idx
        sections["outlier.val"] = val
    return sections, count


def _outlier_count(header: ContainerHeader, sections: dict[str, bytes],
                   stream_length: int) -> int:
    """The outlier count a parsed container declares.

    It comes from the container: it is checked against the two outlier
    sections (written together, and only for a non-zero count) and
    against the ``stream_length`` codes an outlier stands in for, before
    it sizes anything.
    """
    count = header.stage_meta.get("outliers", {}).get("count", 0)
    if (type(count) is not int or count < 0
            or any(bool(count) != bool(len(sections.get(name, b"")))
                   for name in ("outlier.idx", "outlier.val"))):
        raise CodecError("outlier count must be a non-negative integer "
                         "that matches the outlier sections")
    if count > stream_length:
        raise CodecError(f"outlier count {count} exceeds the "
                         f"{stream_length}-code stream")
    return count


def _deserialize_outliers(header: ContainerHeader,
                          sections: dict[str, bytes],
                          stream_length: int) -> OutlierSet:
    return quantize_unpack(sections.get("outlier.idx", b""),
                           sections.get("outlier.val", b""),
                           _outlier_count(header, sections, stream_length))


class Pipeline:
    """An assembled compression pipeline (one module per stage)."""

    def __init__(self, *, preprocess: PreprocessModule,
                 predictor: PredictorModule, encoder: EncoderModule,
                 statistics: StatisticsModule | None = None,
                 secondary: SecondaryModule | None = None,
                 radius: int = DEFAULT_RADIUS, name: str = "custom") -> None:
        if encoder.needs_statistics and statistics is None:
            raise PipelineError(
                f"encoder {encoder.name!r} requires a statistics module")
        self.preprocess = preprocess
        self.predictor = predictor
        self.statistics = statistics
        self.encoder = encoder
        self.secondary = secondary if secondary is not None else NoSecondary()
        self.radius = int(radius)
        self.name = name

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: PipelineSpec,
                  registry: ModuleRegistry = DEFAULT_REGISTRY) -> "Pipeline":
        """Assemble a pipeline from its canonical description.

        This is the single construction path: ``from_names``, the fluent
        builder, the presets and header-driven decompression all reduce to
        a :class:`~repro.core.spec.PipelineSpec` handed here.  Encoders
        that need statistics but whose spec names none get the standard
        histogram, exactly as the paper's default constructor does.
        """
        enc = registry.get(Stage.ENCODER, spec.encoder)
        stats = (registry.get(Stage.STATISTICS, spec.statistics)
                 if spec.statistics is not None else None)
        if stats is None and getattr(enc, "needs_statistics", False):
            stats = registry.get(Stage.STATISTICS, "histogram")
        return cls(
            preprocess=registry.get(Stage.PREPROCESS, spec.preprocess),
            predictor=registry.get(Stage.PREDICTOR, spec.predictor),
            statistics=stats,
            encoder=enc,
            secondary=(registry.get(Stage.SECONDARY, spec.secondary)
                       if spec.secondary is not None else None),
            radius=spec.radius, name=spec.name)

    @classmethod
    def from_names(cls, *, preprocess: str = "rel-eb", predictor: str = "lorenzo",
                   encoder: str = "huffman", statistics: str | None = None,
                   secondary: str | None = None, radius: int = DEFAULT_RADIUS,
                   name: str = "custom",
                   registry: ModuleRegistry = DEFAULT_REGISTRY) -> "Pipeline":
        """Assemble a pipeline from registry names (delegates to
        :meth:`from_spec`)."""
        return cls.from_spec(
            PipelineSpec(preprocess=preprocess, predictor=predictor,
                         statistics=statistics, encoder=encoder,
                         secondary=secondary, radius=radius, name=name),
            registry=registry)

    @property
    def spec(self) -> PipelineSpec:
        """The effective canonical description of this pipeline.

        Derived from the assembled module instances, so defaults that
        were resolved at construction time (e.g. the histogram a Huffman
        encoder pulled in) appear explicitly — building
        ``Pipeline.from_spec(p.spec)`` reproduces ``p`` exactly.
        """
        return PipelineSpec(
            preprocess=self.preprocess.name,
            predictor=self.predictor.name,
            statistics=(self.statistics.name
                        if self.statistics is not None else None),
            encoder=self.encoder.name,
            secondary=self.secondary.name,
            radius=self.radius, name=self.name)

    @property
    def num_bins(self) -> int:
        return 2 * self.radius

    def module_names(self) -> dict[str, str]:
        """Stage -> module-name mapping stored in container headers."""
        names = {
            Stage.PREPROCESS.value: self.preprocess.name,
            Stage.PREDICTOR.value: self.predictor.name,
            Stage.ENCODER.value: self.encoder.name,
            Stage.SECONDARY.value: self.secondary.name,
        }
        if self.statistics is not None:
            names[Stage.STATISTICS.value] = self.statistics.name
        return names

    # ------------------------------------------------------------------ #
    def compile(self):
        """The cached :class:`~repro.compile.CompiledPlan` for this pipeline.

        Compiling is idempotent and content-cached, so calling this once
        per process pre-warms the plan cache for every engine.
        """
        from ..compile import plan_for
        return plan_for(self)

    def compress(self, data: np.ndarray, eb: ErrorBound | float,
                 mode: EbMode | str = EbMode.REL, *,
                 workers: int | None = None, shard_mb: float | None = None,
                 codebook: str | None = None,
                 threads: int | None = None):
        """Compress ``data`` under the given error bound.

        With ``workers`` or ``shard_mb`` set (``workers=1`` counts: it
        requests the engine with one worker), the field is split into
        shards and compressed concurrently by the parallel engine
        (:func:`repro.parallel.executor.compress_sharded`); the result is
        then a multi-shard container whose blob :func:`decompress` decodes
        like any other.  Sharding is deterministic: the blob is
        byte-identical for every worker count, so ``workers=4`` and
        ``workers=1`` decode to byte-identical fields.

        ``codebook`` (sharded runs only) selects the entropy-codebook
        scope: ``"per-shard"`` (default) builds one Huffman codebook per
        shard; ``"shared"`` builds a single global codebook from the
        combined histogram and ships it to every shard — one package-merge
        run instead of N, and one stored codebook instead of N.

        Otherwise the field runs through this pipeline's compiled plan
        (:func:`repro.compile.plan_for`).  ``threads`` selects the plan's
        slab-parallel width (``None`` resolves ``FZMOD_THREADS``, then
        auto-threads large inputs across the cores — see
        :func:`repro.runtime.threads.resolve_threads`); the container
        bytes are identical for every value.
        """
        if workers is not None or shard_mb is not None or codebook is not None:
            from ..parallel.executor import compress_sharded
            return compress_sharded(data, self, eb, mode, workers=workers,
                                    shard_mb=shard_mb, codebook=codebook)
        return self.compile().compress(data, eb, mode, threads=threads)

    def decompress(self, blob: bytes | CompressedField, *,
                   out: np.ndarray | None = None,
                   threads: int | None = None) -> np.ndarray:
        """Reconstruct a field compressed by (any) pipeline.

        ``out`` receives the field directly when given (and is
        returned).  ``threads`` selects the decode plan's slab-parallel
        width (value-identical for every width).
        """
        if isinstance(blob, CompressedField):
            blob = blob.blob
        return decompress(blob, out=out, threads=threads)


def check_decode_out(out: np.ndarray, shape: tuple[int, ...],
                     dtype: np.dtype) -> np.ndarray:
    """Validate a caller-supplied decompression ``out=`` buffer.

    Every decode engine funnels through this before writing: the buffer
    must be a writable ndarray (:class:`~repro.errors.ConfigError`
    otherwise) matching the container's geometry exactly
    (:class:`~repro.errors.DataError` names both shapes on mismatch).
    Returns ``out`` for chaining.
    """
    if not isinstance(out, np.ndarray) or not out.flags.writeable:
        raise ConfigError("out= for decompression must be a writable array")
    if tuple(out.shape) != tuple(shape) or out.dtype != np.dtype(dtype):
        raise DataError(
            f"out= has shape {tuple(out.shape)}/{out.dtype}, container "
            f"holds {tuple(shape)}/{np.dtype(dtype)}")
    return out


def decompress(blob: bytes, registry: ModuleRegistry = DEFAULT_REGISTRY,
               *, workers: int | None = None,
               section_overrides: dict[str, bytes] | None = None,
               out: np.ndarray | None = None,
               threads: int | None = None) -> np.ndarray:
    """Container-driven decompression: module names come from the header.

    Multi-shard containers (written by the parallel engine) are detected
    by magic and decoded shard-parallel; ``workers`` bounds that pool and
    is ignored for ordinary single-shard containers, which run through
    the decode plan of the pipeline their header names
    (:func:`repro.compile.decode_plan_for_header`).

    ``section_overrides`` merges extra named sections over the container's
    own after the body is split — the parallel engine uses it to inject
    the shared codebook into shard containers that deliberately omit it.

    ``out`` receives the field directly when given and is returned.
    ``threads`` selects the decode plan's slab-parallel width (values
    identical for every width).
    """
    from ..compile import decode_plan_for_header
    from ..parallel.executor import SHARD_MAGIC, decompress_sharded
    if blob[:len(SHARD_MAGIC)] == SHARD_MAGIC:
        return decompress_sharded(blob, workers=workers, registry=registry,
                                  out=out)
    header = peek_header(blob)
    if out is not None:
        check_decode_out(out, header.shape, header.np_dtype)
    return decode_plan_for_header(header, registry).decompress(
        blob, out=out, section_overrides=section_overrides, threads=threads)
