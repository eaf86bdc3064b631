"""The decode-plan compiler: fused, specialised executors for the read side.

:func:`compile_decode_plan` traces an assembled
:class:`~repro.core.pipeline.Pipeline` — typically rebuilt from the
``PipelineSpec`` recovered from a container header — into a
:class:`CompiledDecodePlan` whose output is value-identical, bit for
bit, to the interpreted ``decode_codes`` + ``reconstruct_field`` chain.

What gets fused
---------------
The interpreter's read path round-trips through full-field temporaries:
the encoder's Huffman decode produces a code array, the
predictor's decode merges outliers into a fresh ``int64`` buffer, the
inverse Lorenzo scans it, dequantise materialises the float field, and
the ownership normalisation may copy once more.  The compiled plan
keeps the two *schedulable halves* the streaming engine needs —
:meth:`CompiledDecodePlan.decode_entropy` (secondary + entropy decode +
outlier deserialisation) and :meth:`CompiledDecodePlan.reconstruct` —
but collapses the reconstruction half into a single pooled pass
(:func:`repro.compile.fused.fused_decode_reconstruct`): outlier merge,
per-axis ``np.cumsum`` inverse Lorenzo and the dequantise scale/cast
all run on one pooled ``int64`` grid, with the floats written straight
into the caller's ``out=`` buffer.

What declines
-------------
Non-standard preprocessors (anything whose ``backward`` may transform
values), predictors other than ``lorenzo``, and out-of-range radii
decline; :func:`decode_plan_for` then returns ``None`` and every engine
falls back to the interpreter.  Encoder and secondary modules are never
a reason to decline — they run as pre-bound module calls, exactly as in
the compress plans.

Decode plans are content-addressed alongside the compress plans in
:data:`repro.kernels.plancache.COMPILED_PLAN_CACHE` (a distinct digest
tag keeps the two directions from colliding), honour
``FZMOD_PLAN_CACHE=0``, and are re-verified against the live pipeline
on every cache hit.  The digest is the plan key the sharded engine
ships to its decode workers (:func:`decode_plan_from_key`).
"""

from __future__ import annotations

import json
import time

import numpy as np

from ..core.header import ContainerHeader, parse, split_sections
from ..core.module import EncodedStream, PredictorArtifacts
from ..core.modules_std import LorenzoPredictor
from ..core.pipeline import Pipeline, _deserialize_outliers
from ..core.registry import DEFAULT_REGISTRY, ModuleRegistry
from ..core.spec import PipelineSpec
from ..errors import CodecError, ModuleNotFoundInRegistry, PipelineError
from ..kernels.plancache import COMPILED_PLAN_CACHE, digest
from ..obs.metrics import GLOBAL_METRICS
from ..obs.spans import span
from ..runtime.threads import resolve_threads, thread_budget
from ..types import Stage
from .fused import fused_decode_reconstruct
from .plan import _PREPROCESS_TYPES, _module_fingerprint


def decode_decline_reason(pipeline) -> str | None:
    """Why this pipeline cannot be compile-decoded (``None`` = it can).

    The fused reconstruct pass skips the preprocess ``backward`` call
    entirely, so only preprocessors known to be value-identity on the
    way back are accepted; the predictor must be the Lorenzo module
    whose inverse the fused kernel reproduces.  Encoder and secondary
    modules never decline — they run as module calls in the decode plan
    too.
    """
    if type(pipeline.preprocess) not in _PREPROCESS_TYPES:
        return (f"preprocess module {pipeline.preprocess.name!r} may apply "
                "a non-identity backward transform the fused decode pass "
                "does not reproduce")
    if type(pipeline.predictor) is not LorenzoPredictor:
        return (f"predictor module {pipeline.predictor.name!r} has no fused "
                "decode kernel (only 'lorenzo' compiles)")
    if not (1 <= pipeline.radius <= 2**30):
        return f"radius {pipeline.radius} outside the fused kernel's range"
    return None


def _decode_fingerprints(pipeline) -> tuple:
    """Module fingerprints covering every stage the decode path touches.

    Statistics modules are omitted: they exist only to feed encoders at
    compress time and have no decode-side behaviour to fingerprint.
    """
    return (_module_fingerprint(Stage.PREPROCESS, pipeline.preprocess),
            _module_fingerprint(Stage.PREDICTOR, pipeline.predictor),
            _module_fingerprint(Stage.ENCODER, pipeline.encoder),
            _module_fingerprint(Stage.SECONDARY, pipeline.secondary))


def decode_plan_key(pipeline) -> str:
    """Content digest identifying the compiled decode plan for ``pipeline``.

    Same construction as the compress-side :func:`~repro.compile.plan_key`
    — canonical spec JSON plus per-module fingerprints — under a
    distinct version tag, so compress and decode plans for one spec
    coexist in the shared cache without colliding.
    """
    spec = pipeline.spec
    parts: list = ["fzmod-decode-plan-v1",
                   json.dumps(spec.to_json(), sort_keys=True)]
    parts.extend(_decode_fingerprints(pipeline))
    return digest(*[p if isinstance(p, str) else repr(p) for p in parts])


class CompiledDecodePlan:
    """A fused, specialised decode executor for one pipeline configuration.

    Produced by :func:`compile_decode_plan`; execute with
    :meth:`decompress` (or the :meth:`decode_entropy` /
    :meth:`reconstruct` halves, which the streaming engine schedules as
    separate overlapping tasks).  Output is value-identical to the
    interpreted ``decode_codes`` + ``reconstruct_field`` chain on the
    same container.
    """

    def __init__(self, *, key: str, spec: PipelineSpec, radius: int,
                 module_names: dict[str, str], fingerprints: tuple,
                 encoder, secondary) -> None:
        self.key = key
        self.spec = spec
        self.name = spec.name
        self.radius = radius
        self.module_names = dict(module_names)
        self._fingerprints = fingerprints
        self._encoder = encoder
        self._secondary = secondary

    # ------------------------------------------------------------------ #
    def matches(self, pipeline) -> bool:
        """Does this plan decode exactly what ``pipeline`` would?

        Fingerprint equality decides for standard modules; opaque
        encoder/secondary modules additionally require instance
        identity, because the plan calls *its* bound instance.
        """
        if pipeline.spec != self.spec:
            return False
        if _decode_fingerprints(pipeline) != self._fingerprints:
            return False
        for mine, theirs in ((self._encoder, pipeline.encoder),
                             (self._secondary, pipeline.secondary)):
            fp = _module_fingerprint(Stage.ENCODER, mine)
            if fp[1] == "opaque" and mine is not theirs:
                return False
        return True

    def describe(self) -> str:
        """Human rendering of the decode DAG (CLI / trace output)."""
        return "\n".join([
            f"decode plan {self.key}  {self.spec.describe()}",
            f"  [0] secondary[{self._secondary.name}]       module call",
            f"  [1] encoder[{self._encoder.name}]         module call "
            "(segment-sweep decode, content-addressed caches)",
            "  [2] reconstruct              fused outlier merge + inverse "
            "lorenzo + dequantize, one pooled pass into out=",
        ])

    # ------------------------------------------------------------------ #
    def decode_entropy(self, blob: bytes, *,
                       section_overrides: dict[str, bytes] | None = None,
                       threads: int | None = None
                       ) -> tuple[ContainerHeader, PredictorArtifacts]:
        """The entropy half: parse, secondary decode, Huffman decode.

        Mirrors :func:`repro.core.pipeline.decode_codes` with the module
        lookups pre-bound.  The recovered artifacts feed
        :meth:`reconstruct`; the split keeps the two halves separately
        schedulable so the streaming engine's scatter(k) still overlaps
        decode(k+1).  ``threads`` is the slab-thread budget the Huffman
        kernel uses to decode payload chunks concurrently (``None`` =
        resolve from ``FZMOD_THREADS`` / payload size).
        """
        header, stored_body = parse(blob)
        with span("stage.secondary", module=self._secondary.name,
                  op="decode", compiled=True,
                  bytes_in=len(stored_body)) as sp:
            body = self._secondary.decode(stored_body)
            sp.set(bytes_out=len(body))
        sections = split_sections(header, body, zero_copy=True)
        if section_overrides:
            sections.update(section_overrides)
        if "anchors" in sections or header.stage_meta.get("aux"):
            raise CodecError(
                "container carries anchor/aux channels the compiled decode "
                "path does not support")
        stream = EncodedStream(
            sections={k: v for k, v in sections.items()
                      if k.startswith("enc.")},
            meta=header.stage_meta.get("encoder", {}))
        predictor_meta = header.stage_meta.get("predictor", {})
        count = int(predictor_meta.get("stream_length",
                                       header.element_count))
        n_threads = resolve_threads(
            threads, nbytes=int(header.element_count
                                * header.np_dtype.itemsize))
        with span("stage.encoder", module=self._encoder.name,
                  op="decode", compiled=True, threads=n_threads,
                  bytes_in=sum(len(v) for v in
                               stream.sections.values())) as sp:
            with thread_budget(n_threads):
                codes = self._encoder.decode(stream, count,
                                             2 * header.radius)
            sp.set(bytes_out=int(codes.nbytes))
        outlier_count = int(header.stage_meta.get("outliers", {})
                            .get("count", 0))
        outliers = _deserialize_outliers(sections, outlier_count)
        arts = PredictorArtifacts(codes=codes, outliers=outliers,
                                  meta=predictor_meta)
        return header, arts

    def reconstruct(self, header: ContainerHeader, arts: PredictorArtifacts,
                    *, out: np.ndarray | None = None,
                    threads: int | None = None) -> np.ndarray:
        """The fused reconstruction half: artifacts back to the field.

        One pooled pass replaces the interpreter's predictor decode +
        inverse preprocess + ownership normalisation; ``out`` receives
        the field directly when given (and is returned), otherwise a
        fresh owning array is allocated — the same contract
        :func:`~repro.core.pipeline.reconstruct_field` guarantees.
        ``threads`` slab-parallelises the fused pass (value-identical
        for every width).
        """
        n_threads = resolve_threads(
            threads, nbytes=int(header.element_count
                                * header.np_dtype.itemsize))
        with span("stage.predictor", module=self.module_names
                  .get(Stage.PREDICTOR.value, "lorenzo"), op="decode",
                  compiled=True, fused=True, threads=n_threads,
                  bytes_in=int(arts.codes.nbytes)) as sp:
            out = fused_decode_reconstruct(
                arts.codes, arts.outliers, header.radius, header.eb_abs,
                header.shape, header.np_dtype, out=out, threads=n_threads)
            sp.set(bytes_out=int(out.nbytes))
        return out

    def decompress(self, blob: bytes, *, out: np.ndarray | None = None,
                   section_overrides: dict[str, bytes] | None = None,
                   threads: int | None = None) -> np.ndarray:
        """Run the full fused decode; value-identical to the interpreter.

        ``out`` is written through (and returned) when supplied.
        ``threads`` selects the slab-parallel width for both halves
        (``None`` = resolve from ``FZMOD_THREADS`` / field size).
        """
        with span("pipeline.decompress", bytes_in=len(blob),
                  compiled=True) as root:
            t0 = time.perf_counter()
            header, arts = self.decode_entropy(
                blob, section_overrides=section_overrides, threads=threads)
            out = self.reconstruct(header, arts, out=out, threads=threads)
            root.set(bytes_out=int(out.nbytes))
            # summary marker: which decode plan ran (trace contract
            # shared with the compress plans)
            with span("plan.exec", plan=self.key, direction="decode",
                      seconds=time.perf_counter() - t0):
                pass
        GLOBAL_METRICS.counter("pipeline.decompress_calls").inc()
        GLOBAL_METRICS.counter("compile.plan_exec",
                               direction="decode").inc()
        return out


def compile_decode_plan(pipeline) -> CompiledDecodePlan:
    """Trace ``pipeline`` into a :class:`CompiledDecodePlan` (uncached).

    Raises :class:`~repro.errors.PipelineError` when the pipeline uses a
    stage the decode compiler declines — call
    :func:`decode_decline_reason` first (or use :func:`decode_plan_for`)
    for the soft-failure path.
    """
    with span("compile.plan", pipeline=pipeline.name, direction="decode"):
        with span("compile.trace"):
            reason = decode_decline_reason(pipeline)
            if reason is not None:
                raise PipelineError(
                    f"pipeline {pipeline.name!r} cannot be compile-decoded: "
                    f"{reason}")
            key = decode_plan_key(pipeline)
        with span("compile.specialize", plan=key):
            plan = CompiledDecodePlan(
                key=key, spec=pipeline.spec, radius=pipeline.radius,
                module_names=pipeline.module_names(),
                fingerprints=_decode_fingerprints(pipeline),
                encoder=pipeline.encoder, secondary=pipeline.secondary)
    GLOBAL_METRICS.counter("compile.plans_built", direction="decode").inc()
    return plan


def decode_plan_for(pipeline) -> CompiledDecodePlan | None:
    """The cached decode plan for ``pipeline``, or ``None`` (declined).

    The transparent engine entry, mirroring the compress-side
    :func:`~repro.compile.plan_for`: declines cost a few type checks,
    hits one digest + cache lookup, and cached plans are verified
    against the live pipeline before they run
    (:meth:`CompiledDecodePlan.matches`) — a mismatch gets a fresh
    uncached plan instead of someone else's bound modules.
    """
    if decode_decline_reason(pipeline) is not None:
        return None
    key = decode_plan_key(pipeline)
    plan = COMPILED_PLAN_CACHE.get_or_build(
        key, lambda: compile_decode_plan(pipeline), group="decode")
    if not plan.matches(pipeline):
        plan = compile_decode_plan(pipeline)
    return plan


def decode_plan_from_key(pipeline, key: str) -> CompiledDecodePlan | None:
    """Resolve a decode-plan key shipped by an engine (shard-worker entry).

    The worker compiles (or cache-hits) the plan for its own rebuilt
    pipeline and accepts it only when the content digests agree — a
    mismatch means this process would trace a different plan than the
    parent did, and the shard falls back to the interpreter rather than
    silently diverging.
    """
    plan = decode_plan_for(pipeline)
    if plan is None or plan.key != key:
        return None
    return plan


def decode_plan_for_header(header: ContainerHeader,
                           registry: ModuleRegistry = DEFAULT_REGISTRY
                           ) -> CompiledDecodePlan | None:
    """Resolve the decode plan for a parsed container header, if any.

    Containers written before the spec field (``header.pipeline`` is
    ``None``), specs whose modules are missing from ``registry``, and
    specs the compiler declines all return ``None`` — the interpreter
    remains the reference path for every one of them.
    """
    spec = header.pipeline_spec()
    if spec is None:
        return None
    try:
        pipeline = Pipeline.from_spec(spec, registry=registry)
    except ModuleNotFoundInRegistry:
        return None
    return decode_plan_for(pipeline)
