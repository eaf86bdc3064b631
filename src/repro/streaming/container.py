"""Incremental multi-shard container I/O.

The in-memory engine assembles its FZMS container with one
``b"".join`` — impossible when the output is larger than RAM or shards
finish while later slabs are still being read.  This module writes and
reads the same containers incrementally:

* :class:`ShardStreamWriter` appends shard blobs as they complete.  Its
  ``"compat"`` layout spills shards to a sibling file and rewrites them
  behind the header on close, producing bytes **identical** to
  :func:`repro.parallel.assemble_sharded` (version 1/2, header first).
  Its ``"stream"`` layout is single-pass: version-3 prefix, shards
  back-to-back, then the JSON index and a fixed trailer — nothing is
  ever rewritten, so the sink may be append-only.
* :class:`ShardReader` negotiates all three versions from disk and
  serves individual shard blobs via ``os.pread`` — positionless, so the
  decompression prefetcher and the decode workers can read concurrently
  over one descriptor without seek races.

Wire-format constants and index packing live in
:mod:`repro.parallel.executor`; this module only adds the incremental
file choreography, so a blob written here and one assembled in memory
can never drift apart.
"""

from __future__ import annotations

import os

from ..errors import CodecError, ConfigError, HeaderError
from ..parallel.executor import (SHARD_MAGIC, SHARD_VERSION,
                                 STREAM_SHARD_VERSION, TRAILER_MAGIC,
                                 ShardIndex, _PREFIX, _TRAILER, build_table,
                                 check_shard_headers, load_index, pack_index,
                                 parse_trailer)

#: chunk size for the compat layout's spill-to-final copy
_COPY_CHUNK = 8 << 20

LAYOUTS = ("compat", "stream")


class ShardStreamWriter:
    """Write one multi-shard container shard-by-shard.

    ``index.table`` is filled in by :meth:`close` from the appended blob
    lengths; mutate other index fields (e.g. the shared-codebook
    lengths) any time before closing.  Use as a context manager: a clean
    exit seals the container, an exception aborts and removes the
    partial output.
    """

    def __init__(self, path: str, index: ShardIndex,
                 layout: str = "compat") -> None:
        if layout not in LAYOUTS:
            raise ConfigError(f"unknown container layout {layout!r}; "
                              f"expected one of {LAYOUTS}")
        self.path = path
        self.index = index
        self.layout = layout
        self.bytes_written = 0
        self._lengths: list[int] = []
        self._closed = False
        self._spill_path: str | None = None
        if layout == "stream":
            self._fh = open(path, "wb")
            self._fh.write(_PREFIX.pack(SHARD_MAGIC, STREAM_SHARD_VERSION,
                                        0, 0))
        else:
            self._spill_path = path + ".spill"
            self._fh = open(self._spill_path, "wb")

    @property
    def shards_written(self) -> int:
        return len(self._lengths)

    def append(self, shard_blob: bytes) -> None:
        """Write the next shard's complete ``FZMD`` container."""
        if self._closed:
            raise CodecError("shard writer is already sealed")
        self._fh.write(shard_blob)
        self._lengths.append(len(shard_blob))

    def close(self) -> None:
        """Seal the container (write index + trailer / header)."""
        if self._closed:
            return
        self._closed = True
        self.index.table = build_table(self._lengths)
        hjson, hcrc, version = pack_index(self.index)
        if self.layout == "stream":
            ioff = self._fh.tell()
            self._fh.write(hjson)
            self._fh.write(_TRAILER.pack(ioff, len(hjson), hcrc,
                                         TRAILER_MAGIC))
            self._fh.close()
            self.bytes_written = ioff + len(hjson) + _TRAILER.size
            return
        self._fh.close()
        with open(self.path, "wb") as out, \
                open(self._spill_path, "rb") as spill:
            out.write(_PREFIX.pack(SHARD_MAGIC, version, len(hjson), hcrc))
            out.write(hjson)
            while True:
                chunk = spill.read(_COPY_CHUNK)
                if not chunk:
                    break
                out.write(chunk)
        os.remove(self._spill_path)
        self.bytes_written = (_PREFIX.size + len(hjson)
                              + sum(self._lengths))

    def abort(self) -> None:
        """Discard everything written so far (error-path cleanup)."""
        self._closed = True
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        for p in (self._spill_path, self.path):
            if p and os.path.exists(p):
                try:
                    os.remove(p)
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    def __enter__(self) -> "ShardStreamWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


class ShardReader:
    """Random-access shard reads over any FZMS version on disk.

    Version negotiation mirrors :func:`repro.parallel.parse_sharded`:
    header-first layouts (1/2) read the index right after the prefix;
    the streaming layout (3) validates the trailing index, where every
    structural defect — missing trailer, bad end magic, index or shard
    ranges outside the file — raises :class:`~repro.errors.CodecError`
    rather than a bare ``struct.error``.  Each shard's own header is
    checked against its index rows and dtype on open, so a reader may
    size its output from the index.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fd = os.open(path, os.O_RDONLY)
        try:
            size = os.fstat(self._fd).st_size
            head = os.pread(self._fd, _PREFIX.size, 0)
            if len(head) < _PREFIX.size:
                raise HeaderError("multi-shard container too short")
            magic, version, hlen, hcrc = _PREFIX.unpack(head)
            if magic != SHARD_MAGIC:
                raise HeaderError(f"bad multi-shard magic {magic!r}")
            if not (1 <= version <= SHARD_VERSION):
                raise HeaderError(f"unsupported multi-shard version {version}")
            if version >= STREAM_SHARD_VERSION:
                tail = os.pread(self._fd, _TRAILER.size,
                                max(0, size - _TRAILER.size))
                ioff, ilen, icrc = parse_trailer(tail, size)
                hjson = os.pread(self._fd, ilen, ioff)
                if len(hjson) != ilen:
                    raise CodecError(
                        "streamed multi-shard index is truncated")
                self.index = load_index(hjson, icrc, exc=CodecError)
                self._body_start = _PREFIX.size
                body_end = ioff
                self._bad_table: type[Exception] = CodecError
            else:
                hjson = os.pread(self._fd, hlen, _PREFIX.size)
                if len(hjson) != hlen:
                    raise HeaderError("truncated multi-shard header")
                self.index = load_index(hjson, hcrc)
                self._body_start = _PREFIX.size + hlen
                body_end = size
                self._bad_table = HeaderError
            self.version = int(version)
            for offset, length in self.index.table:
                if self._body_start + offset + length > body_end:
                    raise self._bad_table(
                        "shard table exceeds container size")
            check_shard_headers(
                self.index, map(self._shard_head, range(self.shard_count)),
                self._bad_table)
        except BaseException:
            os.close(self._fd)
            self._fd = -1
            raise

    @property
    def shard_count(self) -> int:
        return len(self.index.bounds)

    def _shard_head(self, k: int) -> bytes:
        """Shard ``k``'s container prefix and header, clipped to the shard:
        two small ``os.pread`` calls (``FZMD`` shares the ``FZMS`` prefix
        layout, so ``_PREFIX`` reads its header length)."""
        offset, length = self.index.table[k]
        start = self._body_start + offset
        head = os.pread(self._fd, min(length, _PREFIX.size), start)
        if len(head) == _PREFIX.size:
            hlen = _PREFIX.unpack(head)[2]
            head += os.pread(self._fd, min(length - len(head), hlen),
                             start + len(head))
        return head

    def shard(self, k: int) -> bytes:
        """The complete container blob of shard ``k`` (thread-safe)."""
        offset, length = self.index.table[k]
        blob = os.pread(self._fd, length, self._body_start + offset)
        if len(blob) != length:
            raise self._bad_table(f"shard {k} is truncated on disk")
        return blob

    def close(self) -> None:
        """Release the file descriptor (idempotent)."""
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "ShardReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
