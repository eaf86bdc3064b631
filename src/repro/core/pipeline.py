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

import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import (ConfigError, DataError, ModuleNotFoundInRegistry,
                      PipelineError)
from ..kernels.quantize import (OutlierSet, pack_outliers as quantize_pack,
                                unpack_outliers as quantize_unpack)
from ..kernels.plancache import MODULE_TABLE_CACHE
from ..obs.metrics import GLOBAL_METRICS
from ..obs.spans import span
from ..types import EbMode, ErrorBound, check_field
from .header import (ContainerHeader, as_bytes_view, assemble, parse,
                     peek_header, split_sections)
from .module import (EncodedStream, EncoderModule, PredictorArtifacts,
                     PredictorModule, PreprocessModule, SecondaryModule,
                     StatisticsModule)
from .modules_std import NoSecondary
from .registry import DEFAULT_REGISTRY, ModuleRegistry
from .spec import DEFAULT_RADIUS, PipelineSpec
from ..types import Stage


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


def _deserialize_outliers(sections: dict[str, bytes], count: int) -> OutlierSet:
    return quantize_unpack(sections.get("outlier.idx", b""),
                           sections.get("outlier.val", b""), count)


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
    def _resolve_plan(self, compile_mode):
        """Map a ``compile=`` argument to a plan (or ``None`` = interpret).

        ``"auto"`` uses the compiled plan when the spec compiles and
        falls back silently otherwise; ``True`` requires a plan (raises
        :class:`~repro.errors.PipelineError` naming the declining stage);
        ``False`` forces the interpreter.
        """
        if compile_mode is False:
            return None
        if compile_mode is not True and compile_mode != "auto":
            raise PipelineError(
                f"compile must be 'auto', True or False, got {compile_mode!r}")
        from ..compile import decline_reason, plan_for
        plan = plan_for(self)
        if plan is None and compile_mode is True:
            raise PipelineError(
                f"pipeline {self.name!r} cannot be compiled: "
                f"{decline_reason(self)}")
        return plan

    def compile(self):
        """The cached :class:`~repro.compile.CompiledPlan` for this pipeline.

        Raises :class:`~repro.errors.PipelineError` when the compiler
        declines a stage (use :func:`repro.compile.decline_reason` to ask
        why without raising).  Compiling is idempotent and content-cached,
        so calling this once per process pre-warms the plan cache for
        every engine.
        """
        plan = self._resolve_plan(True)
        assert plan is not None  # _resolve_plan(True) raised otherwise
        return plan

    def compress(self, data: np.ndarray, eb: ErrorBound | float,
                 mode: EbMode | str = EbMode.REL, *,
                 workers: int | None = None, shard_mb: float | None = None,
                 codebook: str | None = None, compile="auto",
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

        ``compile`` selects the execution path: ``"auto"`` (default) runs
        the fused compiled plan when :mod:`repro.compile` accepts the spec
        — output is byte-identical either way — and the interpreter
        otherwise; ``True`` requires the compiled path; ``False`` forces
        the interpreter.

        ``threads`` selects the compiled plan's slab-parallel width
        (``None`` resolves ``FZMOD_THREADS``, then auto-threads large
        inputs across the cores — see
        :func:`repro.runtime.threads.resolve_threads`); the container
        bytes are identical for every value.  The interpreter path runs
        single-threaded regardless.
        """
        if workers is not None or shard_mb is not None or codebook is not None:
            from ..parallel.executor import compress_sharded
            return compress_sharded(data, self, eb, mode, workers=workers,
                                    shard_mb=shard_mb, codebook=codebook,
                                    compile=compile)
        plan = self._resolve_plan(compile)
        if plan is not None:
            return plan.compress(data, eb, mode, threads=threads)
        if not isinstance(eb, ErrorBound):
            eb = ErrorBound(float(eb), EbMode(mode))
        data = check_field(data)
        timings: dict[str, float] = {}
        # an "auto" run that got here was declined by the compiler: say why
        fallback = {}
        if compile is not False:
            from ..compile import decline_reason
            fallback["decline_reason"] = decline_reason(self)
        with span("pipeline.compress", pipeline=self.name,
                  bytes_in=int(data.nbytes), compiled=False,
                  **fallback) as root:
            t0 = time.perf_counter()
            with span("stage.preprocess", module=self.preprocess.name,
                      bytes_in=int(data.nbytes)) as sp:
                pre = self.preprocess.forward(data, eb)
                sp.set(bytes_out=int(pre.data.nbytes))
            timings["preprocess"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            with span("stage.predictor", module=self.predictor.name,
                      bytes_in=int(pre.data.nbytes)) as sp:
                arts = self.predictor.encode(pre.data, pre.eb_abs, self.radius)
                sp.set(bytes_out=int(arts.codes.nbytes))
            timings["predictor"] = time.perf_counter() - t0

            hist = None
            if self.encoder.needs_statistics:
                t0 = time.perf_counter()
                with span("stage.statistics", module=self.statistics.name,
                          bytes_in=int(arts.codes.nbytes)) as sp:
                    hist = self.statistics.collect(arts.codes, self.num_bins)
                    sp.set(bytes_out=int(hist.counts.nbytes))
                timings["statistics"] = time.perf_counter() - t0

            t0 = time.perf_counter()
            with span("stage.encoder", module=self.encoder.name,
                      bytes_in=int(arts.codes.nbytes)) as sp:
                stream = self.encoder.encode(arts.codes, self.num_bins, hist)
                sp.set(bytes_out=sum(len(v) for v in
                                     stream.sections.values()))
            timings["encoder"] = time.perf_counter() - t0

            sections: dict[str, bytes] = dict(stream.sections)
            outlier_sections, outlier_count = _serialize_outliers(arts.outliers)
            sections.update(outlier_sections)
            if arts.anchors is not None:
                sections["anchors"] = as_bytes_view(arts.anchors)
            aux_meta: dict[str, list] = {}
            for aname, arr in arts.aux.items():
                sections[f"aux.{aname}"] = as_bytes_view(arr)
                aux_meta[aname] = [arr.dtype.str, list(arr.shape)]

            header = ContainerHeader(
                shape=data.shape, dtype=data.dtype.str, eb_value=eb.value,
                eb_mode=eb.mode.value, eb_abs=pre.eb_abs, radius=self.radius,
                modules=self.module_names(), pipeline=self.spec.to_json(),
                stage_meta={"predictor": dict(arts.meta),
                            "encoder": dict(stream.meta),
                            "preprocess": dict(pre.meta),
                            "outliers": {"count": outlier_count},
                            "aux": aux_meta})
            _, body = assemble(header, sections)

            t0 = time.perf_counter()
            with span("stage.secondary", module=self.secondary.name,
                      bytes_in=len(body)) as sp:
                stored_body = self.secondary.encode(body)
                sp.set(bytes_out=len(stored_body))
            timings["secondary"] = time.perf_counter() - t0

            # rebuild the header with the CRC of the *stored* body so parse()
            # can reject corruption before any codec runs
            header_bytes, _ = assemble(header, sections, stored_body=stored_body)
            blob = header_bytes + stored_body
            root.set(bytes_out=len(blob))
        for stage, seconds in timings.items():
            GLOBAL_METRICS.histogram("pipeline.stage_seconds",
                                     stage=stage).observe(seconds)
        GLOBAL_METRICS.counter("pipeline.compress_calls").inc()
        GLOBAL_METRICS.counter("pipeline.bytes_in").inc(int(data.nbytes))
        GLOBAL_METRICS.counter("pipeline.bytes_out").inc(len(blob))
        stats = CompressionStats(
            input_bytes=data.nbytes, output_bytes=len(blob),
            element_count=data.size, eb_abs=pre.eb_abs,
            code_fraction=arts.codes.nbytes / data.nbytes,
            outlier_fraction=sum(len(v) for v in outlier_sections.values())
            / data.nbytes,
            outlier_count=arts.outliers.count,
            section_sizes={k: len(v) for k, v in sections.items()},
            stage_seconds=timings,
            interp_levels=int(arts.meta.get("max_level", 0)))
        return CompressedField(blob=blob, stats=stats, header=header)

    def decompress(self, blob: bytes | CompressedField, *,
                   out: np.ndarray | None = None,
                   compile="auto",
                   threads: int | None = None) -> np.ndarray:
        """Reconstruct a field compressed by (any) pipeline.

        ``out`` receives the field directly when given (and is
        returned).  ``compile`` selects the decode path: ``"auto"``
        (default) runs the fused compiled decode plan when the
        container's spec is accepted — output is value-identical either
        way — and the interpreter otherwise; ``True`` requires the
        compiled path; ``False`` forces the interpreter.  ``threads``
        selects the compiled decode's slab-parallel width
        (value-identical for every width).
        """
        if isinstance(blob, CompressedField):
            blob = blob.blob
        return decompress(blob, out=out, compile=compile, threads=threads)


def _module_table(header: ContainerHeader, registry: ModuleRegistry
                  ) -> dict[str, object]:
    """Resolve the header's stage->name map to module instances, cached.

    The table is a pure function of the registry contents and the name
    map, so it is served from the plan cache keyed by the registry
    identity + generation: decompressing a stream of same-pipeline
    containers resolves the modules once instead of five lookups per blob.
    """
    names = tuple(sorted(header.modules.items()))
    key = (id(registry), registry.generation, names)
    return MODULE_TABLE_CACHE.get_or_build(
        key, lambda: {stage: registry.get(Stage(stage), name)
                      for stage, name in names})


def decode_codes(blob: bytes, registry: ModuleRegistry = DEFAULT_REGISTRY,
                 *, section_overrides: dict[str, bytes] | None = None
                 ) -> tuple[ContainerHeader, PredictorArtifacts]:
    """The entropy half of container decoding.

    Parses the container, runs the secondary decode and the encoder's
    entropy decode (Huffman for the standard pipelines), and
    deserialises the outlier/anchor/aux channels — everything up to but
    excluding the predictor's reconstruction.  Returns the header plus
    the recovered :class:`PredictorArtifacts`, which
    :func:`reconstruct_field` turns back into a field.

    The split exists for the streaming engine: entropy decode of shard
    k+1 can run concurrently with the outlier scatter of shard k (the
    paper's §3.3.1 overlap), which needs the two halves as separately
    schedulable tasks.
    """
    header, stored_body = parse(blob)
    modules = _module_table(header, registry)
    secondary = modules[Stage.SECONDARY.value]
    with span("stage.secondary", module=secondary.name, op="decode",
              bytes_in=len(stored_body)) as sp:
        body = secondary.decode(stored_body)
        sp.set(bytes_out=len(body))
    sections = split_sections(header, body, zero_copy=True)
    if section_overrides:
        sections.update(section_overrides)

    encoder = modules[Stage.ENCODER.value]
    stream = EncodedStream(
        sections={k: v for k, v in sections.items()
                  if k.startswith("enc.")},
        meta=header.stage_meta.get("encoder", {}))
    # interp predictors carry anchors: the dense code stream is shorter
    # than the element count by the anchor count.  Predictors whose
    # stream length differs from the element count for other reasons
    # (e.g. the regression predictor's padded blocks) declare it
    # explicitly.
    anchors = None
    anchor_count = 0
    if "anchors" in sections:
        anchors = np.frombuffer(sections["anchors"], dtype=header.np_dtype)
        anchor_count = anchors.size
    predictor_meta = header.stage_meta.get("predictor", {})
    count = int(predictor_meta.get("stream_length",
                                   header.element_count - anchor_count))
    with span("stage.encoder", module=encoder.name, op="decode",
              bytes_in=sum(len(v) for v in stream.sections.values())) as sp:
        codes = encoder.decode(stream, count, 2 * header.radius)
        sp.set(bytes_out=int(codes.nbytes))

    outlier_count = int(header.stage_meta.get("outliers", {})
                        .get("count", 0))
    outliers = _deserialize_outliers(sections, outlier_count)
    aux: dict[str, np.ndarray] = {}
    for aname, (dtype_str, shape) in header.stage_meta.get("aux",
                                                           {}).items():
        arr = np.frombuffer(sections[f"aux.{aname}"],
                            dtype=np.dtype(dtype_str))
        aux[aname] = arr.reshape([int(s) for s in shape])
    arts = PredictorArtifacts(codes=codes, outliers=outliers,
                              anchors=anchors, aux=aux,
                              meta=header.stage_meta.get("predictor", {}))
    return header, arts


def reconstruct_field(header: ContainerHeader, arts: PredictorArtifacts,
                      registry: ModuleRegistry = DEFAULT_REGISTRY
                      ) -> np.ndarray:
    """The reconstruction half: predictor decode (outlier merge/scatter
    included) and the inverse preprocess, from :func:`decode_codes`
    artifacts back to the field."""
    modules = _module_table(header, registry)
    predictor = modules[Stage.PREDICTOR.value]
    with span("stage.predictor", module=predictor.name, op="decode",
              bytes_in=int(arts.codes.nbytes)) as sp:
        out = predictor.decode(arts, header.shape, header.np_dtype,
                               header.eb_abs, header.radius)
        sp.set(bytes_out=int(out.nbytes))
    preprocess = modules[Stage.PREPROCESS.value]
    with span("stage.preprocess", module=preprocess.name, op="decode",
              bytes_in=int(out.nbytes)) as sp:
        out = preprocess.backward(out,
                                  header.stage_meta.get("preprocess", {}))
        sp.set(bytes_out=int(out.nbytes))
    # Contract: callers get exactly one C-contiguous, writable array of
    # the header's dtype that owns its data.  The standard chain already
    # ends in a fresh buffer (audited: Lorenzo/interp dequantize into a
    # new array and the preprocessors pass it through), so these
    # normalisations only fire for custom modules that return
    # transposed/strided views, foreign dtypes, or views into
    # blob-backed sections.
    if out.dtype != header.np_dtype:
        out = out.astype(header.np_dtype)
    elif not out.flags.c_contiguous:
        out = np.ascontiguousarray(out)
    if not out.flags.writeable or out.base is not None:
        out = out.copy()
    return out


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


def _decode_decline_reason(header: ContainerHeader,
                           registry: ModuleRegistry) -> str | None:
    """Why ``header``'s container has no compiled decode plan."""
    from ..compile import decode_decline_reason
    spec = header.pipeline_spec()
    if spec is None:
        return "container carries no pipeline spec"
    try:
        pipeline = Pipeline.from_spec(spec, registry=registry)
    except ModuleNotFoundInRegistry as exc:
        return str(exc)
    return decode_decline_reason(pipeline)


def _decode_plan_for_mode(header: ContainerHeader, registry: ModuleRegistry,
                          compile_mode):
    """Map a decode ``compile=`` argument to a plan (``None`` = interpret).

    ``"auto"`` uses the compiled decode plan when the header's spec
    compiles and falls back silently otherwise; ``True`` requires a plan
    (raises :class:`~repro.errors.PipelineError` naming the obstacle);
    ``False`` forces the interpreter.
    """
    if compile_mode is False:
        return None
    if compile_mode is not True and compile_mode != "auto":
        raise PipelineError(
            f"compile must be 'auto', True or False, got {compile_mode!r}")
    from ..compile import decode_decline_reason, decode_plan_for_header
    plan = decode_plan_for_header(header, registry)
    if plan is None and compile_mode is True:
        spec = header.pipeline_spec()
        if spec is None:
            raise PipelineError(
                "container carries no pipeline spec; compiled decode "
                "requires one")
        pipeline = Pipeline.from_spec(spec, registry=registry)
        raise PipelineError(
            f"pipeline {pipeline.name!r} cannot be compile-decoded: "
            f"{decode_decline_reason(pipeline)}")
    return plan


def decompress(blob: bytes, registry: ModuleRegistry = DEFAULT_REGISTRY,
               *, workers: int | None = None,
               section_overrides: dict[str, bytes] | None = None,
               compile="auto", out: np.ndarray | None = None,
               threads: int | None = None) -> np.ndarray:
    """Container-driven decompression: module names come from the header.

    Multi-shard containers (written by the parallel engine) are detected
    by magic and decoded shard-parallel; ``workers`` bounds that pool and
    is ignored for ordinary single-shard containers.

    ``section_overrides`` merges extra named sections over the container's
    own after the body is split — the parallel engine uses it to inject
    the shared codebook into shard containers that deliberately omit it.

    ``compile`` selects the decode path (``"auto"``/``True``/``False``,
    see :meth:`Pipeline.decompress`) and ``out`` receives the field
    directly when given — the compiled path dequantises straight into
    it, the interpreter copies into it — and is returned.  ``threads``
    selects the compiled decode's slab-parallel width (ignored by the
    interpreter; values identical for every width).
    """
    from ..parallel.executor import SHARD_MAGIC, decompress_sharded
    if blob[:len(SHARD_MAGIC)] == SHARD_MAGIC:
        return decompress_sharded(blob, workers=workers, registry=registry,
                                  compile=compile, out=out)
    plan = None
    if compile is not False or out is not None:
        header = peek_header(blob)
        if out is not None:
            check_decode_out(out, header.shape, header.np_dtype)
        plan = _decode_plan_for_mode(header, registry, compile)
    if plan is not None:
        return plan.decompress(blob, out=out,
                               section_overrides=section_overrides,
                               threads=threads)
    # an "auto" run that got here was declined by the compiler: say why
    fallback = {}
    if compile is not False:
        fallback["decline_reason"] = _decode_decline_reason(header, registry)
    with span("pipeline.decompress", bytes_in=len(blob), compiled=False,
              **fallback) as root:
        header, arts = decode_codes(blob, registry,
                                    section_overrides=section_overrides)
        field = reconstruct_field(header, arts, registry)
        if out is not None:
            out[...] = field
            field = out
        root.set(bytes_out=int(field.nbytes))
    GLOBAL_METRICS.counter("pipeline.decompress_calls").inc()
    return field
