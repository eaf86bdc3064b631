"""Out-of-core streaming: compress and decompress fields larger than RAM.

The subsystem couples three pieces (see ``docs/PERFORMANCE.md``,
"Streaming & memory ceiling"):

* slab-granular ingestion — :class:`FieldSource` and adapters
  (:func:`as_source`) plus the double-buffered :class:`SlabPrefetcher`;
* incremental container I/O — :class:`ShardStreamWriter` /
  :class:`ShardReader` over the FZMS format, including the version-3
  trailing-index layout;
* the engines — :func:`repro.streaming.engine.compress_stream`
  (bounded-memory parallel compression, byte-compatible with the
  in-memory sharded engine) and
  :func:`repro.streaming.engine.decompress_stream` (a bounded ordered
  decode window with real decode/scatter stage overlap).

Callers use :func:`repro.compress` with ``stream=True`` (or a
source/memmap input) and :func:`repro.decompress` with a container path
— the :mod:`repro.api` facade — while engine internals import from
:mod:`repro.streaming.engine` directly.
"""

from .container import ShardReader, ShardStreamWriter
from .engine import DEFAULT_PREFETCH_DEPTH, StreamedCompressedField
from .prefetch import SlabPrefetcher
from .source import (ArraySource, FieldSource, MemmapSource, SlabIterSource,
                     as_source)

__all__ = [
    "ArraySource",
    "DEFAULT_PREFETCH_DEPTH",
    "FieldSource",
    "MemmapSource",
    "ShardReader",
    "ShardStreamWriter",
    "SlabIterSource",
    "SlabPrefetcher",
    "StreamedCompressedField",
    "as_source",
]
