"""The plan compiler: trace a pipeline into a flat list of bound steps.

:func:`compile_plan` inspects an assembled
:class:`~repro.core.pipeline.Pipeline` and emits a :class:`CompiledPlan`
— a flat list of pre-bound step closures (module lookups, codebook
handles, histogram construction, header assembly all resolved at compile
time).  The plan is the only executor: :meth:`Pipeline.compress
<repro.core.pipeline.Pipeline.compress>` and every engine run
``plan_for(pipeline).compress(...)``, and every pipeline has a plan.

What is fused, what is a module call
------------------------------------
When preprocess, predictor and statistics are exactly the standard
modules the fused kernels reproduce, ``preprocess -> prequantize ->
Lorenzo -> outlier split -> histogram`` collapse into a single pass over
the slab (:func:`repro.compile.fused.fused_predict_quantize`), threaded
through the runtime :class:`~repro.runtime.memory.BufferPool` so no
intermediate array is materialised between the fused stages.  ``type()
is`` checks — not ``isinstance`` — do the gating, so subclasses that may
override behaviour are never fused.  Any other module at those stages (a
re-registered custom module, the ``interp`` predictor, a subclassed
histogram) becomes a *module-call* step: ``preprocess.forward``,
``predictor.encode``, ``statistics.collect`` run as written, which is
what the encoder and secondary steps always are.  Both step groups write
the same bytes for the same modules.

Plans are content-addressed (spec JSON + per-module fingerprints) and
cached in :data:`repro.kernels.plancache.COMPILED_PLAN_CACHE`, honouring
``FZMOD_PLAN_CACHE=0``; a shard worker calls :func:`plan_for` on the
pipeline it rebuilt and so traces at most once per process.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.header import ContainerHeader, as_bytes_view, assemble
from ..core.modules_std import (AbsEbPreprocess, BitshuffleEncoder,
                                DeflateSecondary, HuffmanEncoder,
                                InterpPredictor, LorenzoPredictor,
                                NoSecondary, RelEbPreprocess,
                                StandardHistogram, TopKHistogram)
from ..core.pipeline import (CompressedField, CompressionStats,
                             _serialize_outliers)
from ..kernels.histogram import HistogramResult
from ..kernels.plancache import COMPILED_PLAN_CACHE, digest
from ..obs.metrics import GLOBAL_METRICS
from ..obs.spans import span
from ..runtime.threads import resolve_threads, thread_budget
from ..types import EbMode, ErrorBound, Stage, check_field
from .fused import fused_predict_quantize, scaled_magnitude_bound

#: preprocessors the fused pass reproduces exactly
_PREPROCESS_TYPES = (RelEbPreprocess, AbsEbPreprocess)
#: statistics modules the fused histogram reproduces exactly
_STATISTICS_TYPES = (StandardHistogram, TopKHistogram)


class _ExecState:
    """Mutable state threaded through a plan's step closures."""

    __slots__ = ("data", "eb", "lo", "hi", "eb_abs", "pre_meta",
                 "scaled_bound", "work", "codes", "outliers", "anchors",
                 "aux", "pred_meta", "counts", "hist", "stream", "sections",
                 "outlier_sections", "outlier_count", "header", "body",
                 "stored_body", "threads")

    def __init__(self, data: np.ndarray, eb: ErrorBound,
                 threads: int = 1) -> None:
        self.data = data
        self.eb = eb
        self.threads = threads
        self.scaled_bound = None
        self.counts = None
        self.hist = None
        # what only a module-call predictor step fills in
        self.anchors = None
        self.aux = {}
        self.pred_meta = {}


@dataclass(frozen=True)
class PlanStep:
    """One pre-bound stage of a compiled plan.

    ``stage`` names the ``stage_seconds`` bucket the step's wall time is
    charged to (``None`` = untimed glue, like header assembly), ``run``
    is the closure itself, and ``detail`` is the human rendering used by
    ``describe()`` and ``fzmod compile``.  ``bytes_of`` (optional) maps
    the post-run state to ``{"bytes_in": ..., "bytes_out": ...}`` span
    attributes, so fused and module-call stage spans carry the same
    bandwidth accounting.
    """

    name: str
    detail: str
    run: Callable[[_ExecState], None]
    stage: str | None = None
    span_name: str | None = None
    span_attrs: dict = field(default_factory=dict)
    bytes_of: Callable[[_ExecState], dict] | None = None


def _module_fingerprint(stage: Stage, module) -> tuple:
    """Content fingerprint of a module's plan-relevant configuration.

    Standard modules are fully captured by their knobs; unknown types
    collapse to ``(stage, "opaque", name)``, and a plan that binds one
    is only ever run for that very instance (:meth:`_BoundPlan.matches`).
    """
    t = type(module)
    if t in (RelEbPreprocess, AbsEbPreprocess, LorenzoPredictor,
             StandardHistogram, NoSecondary, DeflateSecondary):
        return (stage.value, module.name)
    if t is InterpPredictor:
        return (stage.value, module.name, module.max_level)
    if t is TopKHistogram:
        return (stage.value, module.name, int(module.k))
    if t is HuffmanEncoder:
        pinned = ("" if module.fixed_lengths is None
                  else digest(module.fixed_lengths))
        return (stage.value, module.name, int(module.chunk),
                int(module.max_len), bool(module.emit_lengths), pinned)
    if t is BitshuffleEncoder:
        return (stage.value, module.name, int(module.word_bytes))
    return (stage.value, "opaque", module.name)


def _fuses_decode(pipeline) -> bool:
    """Do the fused kernels reproduce this preprocess + predictor exactly?

    The fused reconstruct pass skips the preprocess ``backward`` call
    entirely, so only preprocessors known to be value-identity on the
    way back qualify.
    """
    return (type(pipeline.preprocess) in _PREPROCESS_TYPES
            and type(pipeline.predictor) is LorenzoPredictor
            and 1 <= pipeline.radius <= 2**30)


def _fuses_encode(pipeline) -> bool:
    """:func:`_fuses_decode`, and the histogram is one the fused pass
    collects itself."""
    if not _fuses_decode(pipeline):
        return False
    if not pipeline.encoder.needs_statistics:
        return True
    stats = pipeline.statistics
    return (type(stats) in _STATISTICS_TYPES
            and not (type(stats) is TopKHistogram and int(stats.k) < 1))


def _bound_modules(pipeline, *, decode: bool = False) -> tuple:
    """``(stage, module)`` for every module a plan of ``pipeline`` runs.

    Statistics modules exist only to feed encoders at compress time:
    decode plans, and compress plans whose encoder asks for no
    histogram, leave them out.
    """
    bound = [(Stage.PREPROCESS, pipeline.preprocess),
             (Stage.PREDICTOR, pipeline.predictor)]
    if not decode and pipeline.encoder.needs_statistics:
        bound.append((Stage.STATISTICS, pipeline.statistics))
    bound += [(Stage.ENCODER, pipeline.encoder),
              (Stage.SECONDARY, pipeline.secondary)]
    return tuple(bound)


def _fingerprints(bound: tuple) -> tuple:
    return tuple(_module_fingerprint(stage, module)
                 for stage, module in bound)


def _content_key(tag: str, pipeline, *, decode: bool = False) -> str:
    parts = [tag, json.dumps(pipeline.spec.to_json(), sort_keys=True)]
    parts += [repr(fp) for fp in
              _fingerprints(_bound_modules(pipeline, decode=decode))]
    return digest(*parts)


def plan_key(pipeline) -> str:
    """Content digest identifying the compiled plan for ``pipeline``.

    Covers the canonical spec (stage names, radius, display name) plus
    each module's configuration fingerprint — including a pinned Huffman
    codebook's lengths digest — so two pipelines share a plan exactly
    when their compiled executors would be indistinguishable.
    """
    return _content_key("fzmod-plan-v1", pipeline)


class _BoundPlan:
    """What a compress plan and a decode plan have in common: a content
    key, the spec it was traced from and the module instances it runs."""

    _decode = False

    def __init__(self, key: str, pipeline) -> None:
        self.key = key
        self.spec = pipeline.spec
        self.name = self.spec.name
        self._bound = _bound_modules(pipeline, decode=self._decode)
        self._fingerprints = _fingerprints(self._bound)

    def matches(self, pipeline) -> bool:
        """Does this plan execute exactly what ``pipeline`` would?

        Fingerprint equality decides for standard modules (their knobs
        fully determine behaviour); an opaque module at any stage
        additionally requires instance identity, because the plan calls
        *its* bound instance, not the pipeline's.
        """
        if pipeline.spec != self.spec:
            return False
        theirs = _bound_modules(pipeline, decode=self._decode)
        if _fingerprints(theirs) != self._fingerprints:
            return False
        return all(fp[1] != "opaque" or mine is other
                   for fp, (_, mine), (_, other)
                   in zip(self._fingerprints, self._bound, theirs))


class CompiledPlan(_BoundPlan):
    """The executor for one pipeline configuration.

    Produced by :func:`compile_plan`; execute with :meth:`compress`,
    inspect with :meth:`describe`.  The plan pre-resolves everything a
    run needs — module instances, the code alphabet, the header name
    map, the histogram constructor — into :class:`PlanStep` closures.
    """

    def __init__(self, key: str, pipeline, steps: list[PlanStep]) -> None:
        super().__init__(key, pipeline)
        self.steps = steps

    def describe(self) -> str:
        """Human rendering of the stage DAG (CLI / trace output)."""
        lines = [f"plan {self.key}  {self.spec.describe()}"]
        for i, step in enumerate(self.steps):
            lines.append(f"  [{i}] {step.name:<24} {step.detail}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    def compress(self, data: np.ndarray, eb: ErrorBound | float,
                 mode: EbMode | str = EbMode.REL, *,
                 threads: int | None = None) -> CompressedField:
        """Run the plan's steps over ``data``.

        ``threads`` selects the slab-parallel width (``None`` = resolve
        from ``FZMOD_THREADS`` / input size, see
        :func:`repro.runtime.threads.resolve_threads`); the container
        bytes are identical for every value.
        """
        if not isinstance(eb, ErrorBound):
            eb = ErrorBound(float(eb), EbMode(mode))
        data = check_field(data)
        n_threads = resolve_threads(threads, nbytes=int(data.nbytes))
        state = _ExecState(data, eb, n_threads)
        timings: dict[str, float] = {}
        with span("pipeline.compress", pipeline=self.name,
                  bytes_in=int(data.nbytes), plan=self.key,
                  threads=n_threads) as root, thread_budget(n_threads):
            t_exec = time.perf_counter()
            # stage spans stay direct children of the pipeline root, fused
            # or not, so consumers need not know which step group ran
            for step in self.steps:
                t0 = time.perf_counter()
                if step.span_name is not None:
                    with span(step.span_name, **step.span_attrs) as sp:
                        step.run(state)
                        if step.bytes_of is not None:
                            sp.set(**step.bytes_of(state))
                else:
                    step.run(state)
                if step.stage is not None:
                    timings[step.stage] = (timings.get(step.stage, 0.0)
                                           + time.perf_counter() - t0)
            # summary marker: which plan ran and how long the step loop
            # took (the covered wall time is the root span's)
            with span("plan.exec", plan=self.key, steps=len(self.steps),
                      seconds=time.perf_counter() - t_exec):
                pass
            blob = state.stored_body  # finalize step leaves the blob here
            root.set(bytes_out=len(blob))
        for stage, seconds in timings.items():
            GLOBAL_METRICS.histogram("pipeline.stage_seconds",
                                     stage=stage).observe(seconds)
        GLOBAL_METRICS.counter("pipeline.compress_calls").inc()
        GLOBAL_METRICS.counter("pipeline.bytes_in").inc(int(data.nbytes))
        GLOBAL_METRICS.counter("pipeline.bytes_out").inc(len(blob))
        GLOBAL_METRICS.counter("compile.plan_exec").inc()
        stats = CompressionStats(
            input_bytes=data.nbytes, output_bytes=len(blob),
            element_count=data.size, eb_abs=state.eb_abs,
            code_fraction=state.codes.nbytes / data.nbytes,
            outlier_fraction=sum(len(v) for v
                                 in state.outlier_sections.values())
            / data.nbytes,
            outlier_count=state.outliers.count,
            section_sizes={k: len(v) for k, v in state.sections.items()},
            stage_seconds=timings,
            interp_levels=int(state.pred_meta.get("max_level", 0)))
        return CompressedField(blob=blob, stats=stats, header=state.header)

    def _front_counts(self, data: np.ndarray, eb: ErrorBound) -> np.ndarray:
        """Quant-code counts of ``data``: the steps before the encoder (the
        histogram pass of shared-codebook sharding; the statistics step
        exists whenever the encoder needs it)."""
        state = _ExecState(data, eb)
        for step in self.steps:
            if step.stage in ("preprocess", "predictor", "statistics"):
                step.run(state)
        return np.asarray(state.hist.counts, dtype=np.int64)


def compile_plan(pipeline) -> CompiledPlan:
    """Trace ``pipeline`` into a :class:`CompiledPlan` (uncached)."""
    with span("compile.plan", pipeline=pipeline.name):
        with span("compile.trace"):
            key = plan_key(pipeline)
        with span("compile.specialize", plan=key):
            plan = _specialize(pipeline, key)
    GLOBAL_METRICS.counter("compile.plans_built").inc()
    return plan


def _fused_steps(pipeline) -> list[PlanStep]:
    """Preprocess, predictor and statistics as the one fused pass."""
    radius = pipeline.radius
    num_bins = 2 * radius
    preprocess = pipeline.preprocess
    statistics = pipeline.statistics
    collect_counts = bool(pipeline.encoder.needs_statistics)
    steps: list[PlanStep] = []

    # -- preprocess: resolve the bound (and the range scan for rel-eb) --
    if type(preprocess) is RelEbPreprocess:
        def run_preprocess(state: _ExecState) -> None:
            lo = float(state.data.min())
            hi = float(state.data.max())
            state.eb_abs = state.eb.absolute(lo, hi)
            state.pre_meta = {"mode": state.eb.mode.value,
                              "min": lo, "max": hi}
            state.scaled_bound = scaled_magnitude_bound(lo, hi,
                                                        state.eb_abs)

        pre_detail = "range scan -> eb_abs (reused for the overflow bound)"
    else:
        def run_preprocess(state: _ExecState) -> None:
            state.eb_abs = state.eb.absolute(0.0, 0.0)
            state.pre_meta = {"mode": EbMode.ABS.value}

        pre_detail = "absolute bound pass-through"
    steps.append(PlanStep(
        name=f"preprocess[{preprocess.name}]", detail=pre_detail,
        run=run_preprocess, stage="preprocess",
        span_name="stage.preprocess",
        span_attrs={"module": preprocess.name, "fused": True},
        bytes_of=lambda s: {"bytes_in": int(s.data.nbytes),
                            "bytes_out": int(s.data.nbytes)}))

    # -- fused predict + quantise (+ histogram) -------------------------
    def run_fused(state: _ExecState) -> None:
        state.codes, state.outliers, state.counts = fused_predict_quantize(
            state.data, state.eb_abs, radius, num_bins,
            collect_counts=collect_counts,
            scaled_bound=state.scaled_bound, threads=state.threads)

    hist_note = "+histogram" if collect_counts else ""
    steps.append(PlanStep(
        name=f"predictor[{pipeline.predictor.name}]",
        detail=f"fused prequantize+lorenzo+split{hist_note}, one pass, "
               "pooled scratch",
        run=run_fused, stage="predictor", span_name="stage.predictor",
        span_attrs={"module": pipeline.predictor.name, "fused": True},
        bytes_of=lambda s: {"bytes_in": int(s.data.nbytes),
                            "bytes_out": int(s.codes.nbytes)}))

    # -- statistics: wrap the fused counts into the module's result -----
    if collect_counts:
        if type(statistics) is TopKHistogram:
            k = min(int(statistics.k), num_bins)

            def run_statistics(state: _ExecState) -> None:
                total = int(state.counts.sum())
                if total == 0:
                    mass = 1.0
                else:
                    top = np.partition(state.counts, num_bins - k)
                    mass = float(top[num_bins - k:].sum()) / float(total)
                state.hist = HistogramResult(counts=state.counts,
                                             num_bins=num_bins,
                                             topk_mass=mass, k=k)

            stat_detail = f"top-{k} mass from the fused counts"
        else:
            def run_statistics(state: _ExecState) -> None:
                state.hist = HistogramResult(counts=state.counts,
                                             num_bins=num_bins)

            stat_detail = "dense counts collected inside the fused pass"
        steps.append(PlanStep(
            name=f"statistics[{statistics.name}]", detail=stat_detail,
            run=run_statistics, stage="statistics",
            span_name="stage.statistics",
            span_attrs={"module": statistics.name, "fused": True},
            bytes_of=lambda s: {"bytes_in": int(s.codes.nbytes),
                                "bytes_out": int(s.counts.nbytes)}))

    return steps


def _module_call_steps(pipeline) -> list[PlanStep]:
    """Preprocess, predictor and statistics as calls into the modules."""
    radius = pipeline.radius
    num_bins = 2 * radius
    preprocess = pipeline.preprocess
    predictor = pipeline.predictor
    statistics = pipeline.statistics

    def run_preprocess(state: _ExecState) -> None:
        pre = preprocess.forward(state.data, state.eb)
        state.work = pre.data
        state.eb_abs = pre.eb_abs
        state.pre_meta = pre.meta

    def run_predictor(state: _ExecState) -> None:
        arts = predictor.encode(state.work, state.eb_abs, radius)
        state.codes = arts.codes
        state.outliers = arts.outliers
        state.anchors = arts.anchors
        state.aux = arts.aux
        state.pred_meta = arts.meta

    steps = [
        PlanStep(
            name=f"preprocess[{preprocess.name}]", detail="module call",
            run=run_preprocess, stage="preprocess",
            span_name="stage.preprocess",
            span_attrs={"module": preprocess.name},
            bytes_of=lambda s: {"bytes_in": int(s.data.nbytes),
                                "bytes_out": int(s.work.nbytes)}),
        PlanStep(
            name=f"predictor[{predictor.name}]", detail="module call",
            run=run_predictor, stage="predictor",
            span_name="stage.predictor",
            span_attrs={"module": predictor.name},
            bytes_of=lambda s: {"bytes_in": int(s.work.nbytes),
                                "bytes_out": int(s.codes.nbytes)})]
    if pipeline.encoder.needs_statistics:
        def run_statistics(state: _ExecState) -> None:
            state.hist = statistics.collect(state.codes, num_bins)

        steps.append(PlanStep(
            name=f"statistics[{statistics.name}]", detail="module call",
            run=run_statistics, stage="statistics",
            span_name="stage.statistics",
            span_attrs={"module": statistics.name},
            bytes_of=lambda s: {"bytes_in": int(s.codes.nbytes),
                                "bytes_out": int(s.hist.counts.nbytes)}))
    return steps


def _specialize(pipeline, key: str) -> CompiledPlan:
    """Build the flat step-closure list for ``pipeline``."""
    spec = pipeline.spec
    radius = pipeline.radius
    num_bins = 2 * radius
    encoder = pipeline.encoder
    secondary = pipeline.secondary
    module_names = pipeline.module_names()
    steps = (_fused_steps(pipeline) if _fuses_encode(pipeline)
             else _module_call_steps(pipeline))

    # -- encoder: pre-bound module call ----------------------------------
    def run_encoder(state: _ExecState) -> None:
        state.stream = encoder.encode(state.codes, num_bins, state.hist)

    steps.append(PlanStep(
        name=f"encoder[{encoder.name}]",
        detail="module call",
        run=run_encoder, stage="encoder", span_name="stage.encoder",
        span_attrs={"module": encoder.name},
        bytes_of=lambda s: {
            "bytes_in": int(s.codes.nbytes),
            "bytes_out": sum(len(v) for v in s.stream.sections.values())}))

    # -- header + sections (untimed glue) --------------------------------
    def run_assemble(state: _ExecState) -> None:
        sections: dict[str, bytes] = dict(state.stream.sections)
        outlier_sections, outlier_count = _serialize_outliers(state.outliers)
        sections.update(outlier_sections)
        if state.anchors is not None:
            sections["anchors"] = as_bytes_view(state.anchors)
        aux_meta: dict[str, list] = {}
        for aname, arr in state.aux.items():
            sections[f"aux.{aname}"] = as_bytes_view(arr)
            aux_meta[aname] = [arr.dtype.str, list(arr.shape)]
        state.sections = sections
        state.outlier_sections = outlier_sections
        state.outlier_count = outlier_count
        state.header = ContainerHeader(
            shape=state.data.shape, dtype=state.data.dtype.str,
            eb_value=state.eb.value, eb_mode=state.eb.mode.value,
            eb_abs=state.eb_abs, radius=radius, modules=dict(module_names),
            pipeline=spec.to_json(),
            stage_meta={"predictor": dict(state.pred_meta),
                        "encoder": dict(state.stream.meta),
                        "preprocess": dict(state.pre_meta),
                        "outliers": {"count": outlier_count},
                        "aux": aux_meta})
        _, state.body = assemble(state.header, sections)

    steps.append(PlanStep(
        name="assemble",
        detail="outlier/anchor/aux packing + container header",
        run=run_assemble))

    # -- secondary + CRC finalise ---------------------------------------
    def run_secondary(state: _ExecState) -> None:
        state.stored_body = secondary.encode(state.body)

    steps.append(PlanStep(
        name=f"secondary[{secondary.name}]", detail="module call",
        run=run_secondary, stage="secondary", span_name="stage.secondary",
        span_attrs={"module": secondary.name},
        bytes_of=lambda s: {"bytes_in": len(s.body),
                            "bytes_out": len(s.stored_body)}))

    def run_finalize(state: _ExecState) -> None:
        header_bytes, _ = assemble(state.header, state.sections,
                                   stored_body=state.stored_body)
        state.stored_body = header_bytes + state.stored_body

    steps.append(PlanStep(
        name="finalize", detail="stored-body CRC + header rewrite",
        run=run_finalize))

    return CompiledPlan(key, pipeline, steps)


def _cached_plan(pipeline, key: str, build, group: str):
    """The cached plan under ``key``, verified against the live pipeline.

    A hit costs one digest + cache lookup and a miss compiles once per
    process (``FZMOD_PLAN_CACHE=0`` recompiles every call).  A cached
    plan that does not :meth:`~_BoundPlan.matches` the pipeline — same
    spec, another instance of an opaque module — is left alone and the
    caller gets a fresh uncached plan instead of someone else's closures.
    """
    plan = COMPILED_PLAN_CACHE.get_or_build(key, lambda: build(pipeline),
                                            group=group)
    return plan if plan.matches(pipeline) else build(pipeline)


def plan_for(pipeline) -> CompiledPlan:
    """The cached compiled plan for ``pipeline`` (every engine's entry)."""
    return _cached_plan(pipeline, plan_key(pipeline), compile_plan,
                        "compress")
