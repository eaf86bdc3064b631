"""Plan compiler: the executors every pipeline and container runs through.

``repro.compile`` traces an assembled pipeline into a
:class:`~repro.compile.plan.CompiledPlan` — a flat list of pre-bound
step closures.  For the standard Lorenzo pipelines preprocess,
prediction, quantisation and histogramming collapse into a single pooled
pass per slab; every other module runs as a module-call step of the same
plan.  There is no second executor: :meth:`Pipeline.compress
<repro.core.pipeline.Pipeline.compress>`, :func:`repro.core.decompress`
and the sharded and streaming engines all resolve a plan and run it.

Public surface
--------------
:func:`plan_for`
    cached plan for a pipeline — the engine entry.
:func:`compile_plan`
    uncached trace.
:func:`plan_key`
    the content digest plans are cached under.

The read side mirrors it (:mod:`repro.compile.decode`):
:func:`decode_plan_for` / :func:`decode_plan_for_header` are the engine
entries, :func:`compile_decode_plan` the uncached trace and
:func:`decode_plan_key` the digest.  Decode plans share
``COMPILED_PLAN_CACHE`` with the compress plans under a distinct digest
tag.
"""

from .decode import (CompiledDecodePlan, compile_decode_plan,
                     decode_plan_for, decode_plan_for_header,
                     decode_plan_key)
from .fused import (fused_decode_reconstruct, fused_predict_quantize,
                    scaled_magnitude_bound)
from .plan import CompiledPlan, PlanStep, compile_plan, plan_for, plan_key

__all__ = [
    "CompiledDecodePlan",
    "CompiledPlan",
    "PlanStep",
    "compile_decode_plan",
    "compile_plan",
    "decode_plan_for",
    "decode_plan_for_header",
    "decode_plan_key",
    "fused_decode_reconstruct",
    "fused_predict_quantize",
    "plan_for",
    "plan_key",
    "scaled_magnitude_bound",
]
