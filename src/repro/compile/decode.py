"""The decode-plan compiler: the read-side executor of every container.

:func:`compile_decode_plan` traces an assembled
:class:`~repro.core.pipeline.Pipeline` — typically rebuilt from the
``PipelineSpec`` recovered from a container header — into a
:class:`CompiledDecodePlan`.  :func:`repro.core.decompress` and every
engine decode through :func:`decode_plan_for_header`, and every
container has a plan.

The plan keeps the two *schedulable halves* the streaming engine needs:
:meth:`CompiledDecodePlan.decode_entropy` (container parse, secondary +
entropy decode, outlier/anchor/aux deserialisation — the one place
container metadata is checked before it sizes anything) and
:meth:`CompiledDecodePlan.reconstruct`.

What is fused, what is a module call
------------------------------------
For the standard ``abs-eb``/``rel-eb`` preprocessors with the
``lorenzo`` predictor the reconstruction half is a single pooled pass
(:func:`repro.compile.fused.fused_decode_reconstruct`): outlier merge,
per-axis prefix-sum inverse Lorenzo and the dequantise scale/cast all
run on one pooled grid — ``int32`` wherever a range proof over the
decoded deltas and the swept result shows it exact, ``int64`` otherwise
— with the floats written straight into the caller's ``out=`` buffer.
It applies no ``aux`` (patch) channel, so it refuses a container that
carries one with :class:`~repro.errors.CodecError`.  Any other
preprocess or predictor module (anything whose ``backward`` may
transform values, the ``interp`` predictor, a subclass) runs as
``predictor.decode`` + ``preprocess.backward`` module calls.  Encoder
and secondary modules are pre-bound module calls in both cases, exactly
as in the compress plans.

Decode plans are content-addressed alongside the compress plans in
:data:`repro.kernels.plancache.COMPILED_PLAN_CACHE` (a distinct digest
tag keeps the two directions from colliding), honour
``FZMOD_PLAN_CACHE=0``, and are re-verified against the live pipeline
on every cache hit.
"""

from __future__ import annotations

import math
import re
import time

import numpy as np

from ..core.header import ContainerHeader, parse, split_sections
from ..core.module import EncodedStream, PredictorArtifacts
from ..core.pipeline import Pipeline, _deserialize_outliers
from ..core.registry import DEFAULT_REGISTRY, ModuleRegistry
from ..core.spec import PipelineSpec
from ..errors import CodecError, HeaderError
from ..obs.metrics import GLOBAL_METRICS
from ..obs.spans import span
from ..runtime.threads import resolve_threads, thread_budget
from .fused import fused_decode_reconstruct
from .plan import _BoundPlan, _cached_plan, _content_key, _fuses_decode


def decode_plan_key(pipeline) -> str:
    """Content digest identifying the compiled decode plan for ``pipeline``.

    Same construction as the compress-side :func:`~repro.compile.plan_key`
    — canonical spec JSON plus per-module fingerprints — under a
    distinct version tag, so compress and decode plans for one spec
    coexist in the shared cache without colliding.
    """
    return _content_key("fzmod-decode-plan-v1", pipeline, decode=True)


#: ``ndarray.dtype.str`` of the integer/float arrays an aux channel holds
_AUX_DTYPE = re.compile(r"[<>|](?:[iu][1248]|f[248])")


def _deserialize_aux(sections: dict[str, bytes], aux_meta
                     ) -> dict[str, np.ndarray]:
    """The predictor's side-channel arrays, as the header describes them.

    Each entry is a ``[dtype-string, shape-list]`` pair for the section
    ``aux.<name>``; all of it comes from the container, so dtype, shape
    and section length are checked against each other before any of them
    sizes an array.
    """
    aux: dict[str, np.ndarray] = {}
    for aname, entry in aux_meta.items():
        section = sections.get(f"aux.{aname}")
        if not (section is not None and isinstance(entry, list)
                and len(entry) == 2 and isinstance(entry[0], str)
                and _AUX_DTYPE.fullmatch(entry[0])
                and isinstance(entry[1], list)
                and all(type(n) is int and n >= 0 for n in entry[1])
                and math.prod(entry[1]) * int(entry[0][2:]) == len(section)):
            raise CodecError(
                f"aux channel {aname!r} is not a [dtype, shape] pair "
                "matching a section of that size")
        aux[aname] = (np.frombuffer(section, dtype=np.dtype(entry[0]))
                      .reshape(entry[1]))
    return aux


class CompiledDecodePlan(_BoundPlan):
    """The decode executor for one pipeline configuration.

    Produced by :func:`compile_decode_plan`; execute with
    :meth:`decompress` (or the :meth:`decode_entropy` /
    :meth:`reconstruct` halves, which the streaming engine schedules as
    separate overlapping tasks).
    """

    _decode = True

    def __init__(self, key: str, pipeline) -> None:
        super().__init__(key, pipeline)
        self._preprocess = pipeline.preprocess
        self._predictor = pipeline.predictor
        self._encoder = pipeline.encoder
        self._secondary = pipeline.secondary
        self._fused = _fuses_decode(pipeline)

    def describe(self) -> str:
        """Human rendering of the decode DAG (CLI / trace output)."""
        lines = [
            f"decode plan {self.key}  {self.spec.describe()}",
            f"  [0] secondary[{self._secondary.name}]       module call",
            f"  [1] encoder[{self._encoder.name}]         module call"]
        if self._fused:
            lines.append(
                "  [2] reconstruct              fused outlier merge + "
                "inverse lorenzo + dequantize, one pooled pass into out=")
        else:
            lines += [
                f"  [2] predictor[{self._predictor.name}]       module call",
                f"  [3] preprocess[{self._preprocess.name}]      module call"]
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    def decode_entropy(self, blob: bytes, *,
                       section_overrides: dict[str, bytes] | None = None,
                       threads: int | None = None
                       ) -> tuple[ContainerHeader, PredictorArtifacts]:
        """The entropy half: parse, secondary decode, entropy decode.

        Runs the secondary decode and the encoder's entropy decode
        (Huffman for the standard pipelines) and deserialises the
        outlier/anchor/aux channels — everything up to but excluding the
        predictor's reconstruction.  The recovered artifacts feed
        :meth:`reconstruct`; the split keeps the two halves separately
        schedulable so the streaming engine's scatter(k) overlaps
        decode(k+1), the paper's §3.3.1 overlap.  ``threads`` is the
        slab-thread budget the Huffman kernel uses to decode payload
        chunks concurrently (``None`` = resolve from ``FZMOD_THREADS`` /
        payload size).
        """
        header, stored_body = parse(blob)
        with span("stage.secondary", module=self._secondary.name,
                  op="decode", bytes_in=len(stored_body)) as sp:
            body = self._secondary.decode(stored_body)
            sp.set(bytes_out=len(body))
        sections = split_sections(header, body, zero_copy=True)
        if section_overrides:
            sections.update(section_overrides)
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
            if len(sections["anchors"]) % header.np_dtype.itemsize:
                raise CodecError("anchor section is not a whole number of "
                                 "field elements")
            anchors = np.frombuffer(sections["anchors"],
                                    dtype=header.np_dtype)
            anchor_count = anchors.size
        predictor_meta = header.stage_meta.get("predictor", {})
        count = predictor_meta.get("stream_length",
                                   header.element_count - anchor_count)
        # no upper bound: a count the stream does not hold ends in the
        # encoder's own count-mismatch CodecError
        if type(count) is not int or count < 0:
            raise CodecError("predictor stream_length must be a "
                             "non-negative integer")
        # the side channels first: their metadata is checked before the
        # entropy decode allocates anything
        outliers = _deserialize_outliers(header, sections, count)
        aux = _deserialize_aux(sections, header.stage_meta.get("aux", {}))
        n_threads = resolve_threads(
            threads, nbytes=int(header.element_count
                                * header.np_dtype.itemsize))
        with span("stage.encoder", module=self._encoder.name,
                  op="decode", threads=n_threads,
                  bytes_in=sum(len(v) for v in
                               stream.sections.values())) as sp:
            with thread_budget(n_threads):
                codes = self._encoder.decode(stream, count,
                                             2 * header.radius)
            sp.set(bytes_out=int(codes.nbytes))
        return header, PredictorArtifacts(
            codes=codes, outliers=outliers, anchors=anchors, aux=aux,
            meta=predictor_meta)

    def reconstruct(self, header: ContainerHeader, arts: PredictorArtifacts,
                    *, out: np.ndarray | None = None,
                    threads: int | None = None) -> np.ndarray:
        """The reconstruction half: artifacts back to the field.

        Callers get exactly one C-contiguous, writable array of the
        header's dtype that owns its data — ``out`` itself when given
        (written through and returned), otherwise a fresh array.
        ``threads`` slab-parallelises the fused pass (value-identical
        for every width).
        """
        predictor = self._predictor
        if self._fused:
            if arts.aux:
                # a patch channel here would be dropped without a word
                raise CodecError(
                    f"aux channels {sorted(arts.aux)} are not applied by "
                    "the fused Lorenzo decode")
            n_threads = resolve_threads(
                threads, nbytes=int(header.element_count
                                    * header.np_dtype.itemsize))
            with span("stage.predictor", module=predictor.name, op="decode",
                      fused=True, threads=n_threads,
                      bytes_in=int(arts.codes.nbytes)) as sp:
                out = fused_decode_reconstruct(
                    arts.codes, arts.outliers, header.radius, header.eb_abs,
                    header.shape, header.np_dtype, out=out,
                    threads=n_threads)
                sp.set(bytes_out=int(out.nbytes))
            return out
        with span("stage.predictor", module=predictor.name, op="decode",
                  bytes_in=int(arts.codes.nbytes)) as sp:
            field = predictor.decode(arts, header.shape, header.np_dtype,
                                     header.eb_abs, header.radius)
            sp.set(bytes_out=int(field.nbytes))
        with span("stage.preprocess", module=self._preprocess.name,
                  op="decode", bytes_in=int(field.nbytes)) as sp:
            field = self._preprocess.backward(
                field, header.stage_meta.get("preprocess", {}))
            sp.set(bytes_out=int(field.nbytes))
        if out is not None:
            out[...] = field
            return out
        # The standard chain already ends in a fresh buffer (audited:
        # Lorenzo/interp dequantize into a new array and the
        # preprocessors pass it through), so these normalisations only
        # fire for custom modules that return transposed/strided views,
        # foreign dtypes, or views into blob-backed sections.
        if field.dtype != header.np_dtype:
            field = field.astype(header.np_dtype)
        elif not field.flags.c_contiguous:
            field = np.ascontiguousarray(field)
        if not field.flags.writeable or field.base is not None:
            field = field.copy()
        return field

    def decompress(self, blob: bytes, *, out: np.ndarray | None = None,
                   section_overrides: dict[str, bytes] | None = None,
                   threads: int | None = None) -> np.ndarray:
        """Run both halves over one container.

        ``out`` is written through (and returned) when supplied.
        ``threads`` selects the slab-parallel width for both halves
        (``None`` = resolve from ``FZMOD_THREADS`` / field size).
        """
        with span("pipeline.decompress", bytes_in=len(blob),
                  plan=self.key) as root:
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
    """Trace ``pipeline`` into a :class:`CompiledDecodePlan` (uncached)."""
    with span("compile.plan", pipeline=pipeline.name, direction="decode"):
        with span("compile.trace"):
            key = decode_plan_key(pipeline)
        with span("compile.specialize", plan=key):
            plan = CompiledDecodePlan(key, pipeline)
    GLOBAL_METRICS.counter("compile.plans_built", direction="decode").inc()
    return plan


def decode_plan_for(pipeline) -> CompiledDecodePlan:
    """The cached decode plan for ``pipeline``, mirroring the
    compress-side :func:`~repro.compile.plan_for`."""
    return _cached_plan(pipeline, decode_plan_key(pipeline),
                        compile_decode_plan, "decode")


def decode_plan_for_header(header: ContainerHeader,
                           registry: ModuleRegistry = DEFAULT_REGISTRY
                           ) -> CompiledDecodePlan:
    """The decode plan for a parsed container header.

    A container written before the spec field (``header.pipeline`` is
    ``None``) assembles its pipeline from the header's stage -> name map
    and radius.  A module missing from ``registry`` raises
    :class:`~repro.errors.ModuleNotFoundInRegistry`.
    """
    spec = header.pipeline_spec()
    if spec is None:
        names = header.modules
        try:
            spec = PipelineSpec(
                preprocess=names["preprocess"], predictor=names["predictor"],
                statistics=names.get("statistics"), encoder=names["encoder"],
                secondary=names.get("secondary"), radius=header.radius)
        except KeyError as exc:
            raise HeaderError(f"container header names no {exc.args[0]} "
                              "module; not a pipeline container") from None
    return decode_plan_for(Pipeline.from_spec(spec, registry=registry))
