"""The one-call front door: ``repro.compress`` / ``repro.decompress``.

Historically the framework exposed three parallel entrypoints —
:meth:`Pipeline.compress <repro.core.pipeline.Pipeline.compress>` for
in-memory fields, :func:`repro.parallel.executor.compress_sharded` for
shard-parallel runs and :func:`repro.streaming.engine.compress_stream`
for out-of-core sources — each with its own calling convention.  This
facade dispatches between them by argument shape, so callers pick an
engine by describing their data and resources, not by importing the
right module:

>>> import repro
>>> cf = repro.compress(field, "fzmod-default", eb=1e-3)          # single
>>> cf = repro.compress(field, spec, 1e-3, workers=8)             # sharded
>>> sf = repro.compress(np.memmap(...), spec, 1e-3,
...                     stream=True, out="field.fzms")            # streaming
>>> back = repro.decompress(cf.blob)
>>> back = repro.decompress("field.fzms", out=dst, workers=8)

Every path runs the pipeline's compiled plan (:mod:`repro.compile`) and
shares keyword names with the engines, so there is no per-engine
translation table in here: arguments pass straight through.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .core.pipeline import CompressedField, Pipeline, decompress as \
    _decompress_blob
from .core.presets import get_preset
from .core.registry import DEFAULT_REGISTRY, ModuleRegistry
from .core.spec import PipelineSpec
from .errors import ConfigError
from .types import EbMode, ErrorBound

__all__ = ["compress", "decompress", "resolve_pipeline"]


def resolve_pipeline(spec_or_preset,
                     registry: ModuleRegistry = DEFAULT_REGISTRY) -> Pipeline:
    """Normalise the facade's pipeline argument to an assembled Pipeline.

    Accepts an assembled :class:`Pipeline` (returned as-is), a
    :class:`PipelineSpec`, or a preset name string
    (``"fzmod-default"`` etc.).
    """
    if isinstance(spec_or_preset, Pipeline):
        return spec_or_preset
    if isinstance(spec_or_preset, PipelineSpec):
        return Pipeline.from_spec(spec_or_preset, registry)
    if isinstance(spec_or_preset, str):
        try:
            return get_preset(spec_or_preset, registry=registry)
        except KeyError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(
        "expected a Pipeline, PipelineSpec or preset name, got "
        f"{type(spec_or_preset).__name__}")


def _check_inert_compile(compile) -> None:
    """``compile=`` selects nothing: every pipeline runs its compiled plan.

    The keyword survives on the facade only because ``bench/harness.py``
    (which a change to the library may not edit) passes
    ``compile="auto"`` on every timed op; the values it used to take are
    accepted and ignored, anything else is a :class:`ConfigError`.  The
    bench-refresh item in ROADMAP.md removes it.
    """
    if compile is not True and compile is not False and compile != "auto":
        raise ConfigError(
            f"compile must be 'auto', True or False, got {compile!r}")


def _is_source_like(data) -> bool:
    """Inputs that want the out-of-core engine even without ``stream=True``."""
    from .streaming.source import FieldSource
    return isinstance(data, (FieldSource, np.memmap))


def compress(data_or_source, spec_or_preset, eb, *,
             mode: EbMode | str = EbMode.REL,
             workers: int | None = None,
             stream: bool = False,
             compile="auto",
             out=None,
             threads: int | None = None,
             shard_mb: float | None = None,
             codebook: str | None = None,
             layout: str = "compat",
             registry: ModuleRegistry = DEFAULT_REGISTRY):
    """Compress a field (or out-of-core source) under an error bound.

    Engine dispatch, by argument shape:

    * ``stream=True``, a :class:`~repro.streaming.source.FieldSource` or
      an ``np.memmap`` input — the out-of-core streaming engine;
      ``out`` must then be a destination path, and the result is a
      :class:`~repro.streaming.engine.StreamedCompressedField`.
    * ``workers``, ``shard_mb`` or ``codebook`` set — the shard-parallel
      engine (:class:`~repro.parallel.executor.ShardedCompressedField`).
    * otherwise — the single-stream pipeline
      (:class:`~repro.core.pipeline.CompressedField`).

    Every engine runs on threads in the calling process.  The
    single-stream path is the default for in-memory fields: its compiled
    plan auto-threads large inputs across the cores (slab parallelism,
    container bytes identical at every width) with no per-shard container
    framing.  ``threads`` pins the slab width explicitly (``None`` resolves
    ``FZMOD_THREADS``, then auto by input size).

    ``compile`` is accepted and ignored (see :func:`_check_inert_compile`).
    For the in-memory engines ``out`` may name a file the container blob
    is also written to.
    """
    _check_inert_compile(compile)
    pipeline = resolve_pipeline(spec_or_preset, registry)
    if stream or _is_source_like(data_or_source):
        if out is None or isinstance(out, np.ndarray):
            raise ConfigError(
                "streaming compression writes a container file: pass its "
                "destination path as out=")
        from .streaming.engine import compress_stream
        return compress_stream(data_or_source, pipeline, eb, mode,
                               out_path=os.fspath(out), workers=workers,
                               shard_mb=shard_mb, registry=registry,
                               codebook=codebook, layout=layout)
    data = np.asarray(data_or_source)
    if workers is not None or shard_mb is not None or codebook is not None:
        from .parallel.executor import compress_sharded
        result = compress_sharded(data, pipeline, eb, mode, workers=workers,
                                  shard_mb=shard_mb, registry=registry,
                                  codebook=codebook)
    else:
        result = pipeline.compress(data, eb, mode, threads=threads)
    if out is not None:
        if isinstance(out, np.ndarray):
            raise ConfigError(
                "out= for compression is a destination path for the "
                "container blob, not an array")
        Path(os.fspath(out)).write_bytes(result.blob)
    return result


def decompress(blob_or_path, *, out: np.ndarray | None = None,
               workers: int | None = None,
               compile="auto",
               threads: int | None = None,
               registry: ModuleRegistry = DEFAULT_REGISTRY) -> np.ndarray:
    """Reconstruct a field from a container blob or container file.

    ``blob_or_path`` may be container bytes, a ``CompressedField``-like
    result object, or a path.  Paths holding multi-shard (FZMS)
    containers decode through the streaming engine — out-of-core, so the
    compressed file is never fully resident; other inputs decode
    header-driven in memory (multi-shard blobs shard-parallel under
    ``workers``).  ``out`` receives the field in place when given (its
    shape/dtype must match) and is returned — every engine writes the
    reconstruction into it directly, no staging copy.  ``compile`` is
    accepted and ignored (see :func:`_check_inert_compile`).  ``threads``
    selects the decode plan's slab-parallel width (``None`` resolves
    ``FZMOD_THREADS``, then auto by field size); values do not depend on
    it.
    """
    _check_inert_compile(compile)
    if out is not None and (not isinstance(out, np.ndarray)
                            or not out.flags.writeable):
        raise ConfigError("out= for decompression must be a writable array")
    blob = getattr(blob_or_path, "blob", blob_or_path)
    source_path = getattr(blob_or_path, "path", None)
    if isinstance(blob, (str, Path, os.PathLike)) or source_path is not None:
        path = os.fspath(source_path if source_path is not None else blob)
        from .parallel.executor import SHARD_MAGIC
        with open(path, "rb") as fh:
            magic = fh.read(len(SHARD_MAGIC))
        if magic == SHARD_MAGIC:
            from .streaming.engine import decompress_stream
            return decompress_stream(path, out=out, workers=workers,
                                     registry=registry)
        blob = Path(path).read_bytes()
    if isinstance(blob, (bytearray, memoryview)):
        blob = bytes(blob)
    if not isinstance(blob, bytes):
        raise ConfigError(
            "expected container bytes, a compressed-field result or a "
            f"path, got {type(blob_or_path).__name__}")
    return _decompress_blob(blob, registry, workers=workers, out=out,
                            threads=threads)
