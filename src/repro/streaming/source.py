"""Field sources: slab-granular access to fields too large to hold.

A :class:`FieldSource` is the streaming engine's only window onto input
data: declared geometry (shape/dtype) plus :meth:`~FieldSource.slab`
views of contiguous row ranges.  Nothing in :mod:`repro.streaming` may
materialise the whole field — that is the entire point of the subsystem,
and rule FZL010 enforces it statically — so every ingestion path (an
in-memory array, an ``np.memmap`` over an SDRBench raw file, a generator
of slabs) is adapted here, slab by slab.

:meth:`~FieldSource.done_with` is the memory-ceiling lever: sources that
map files drop the consumed pages back to the OS (``madvise(DONTNEED)``)
so resident set size tracks the in-flight window, not the bytes read so
far.  Sources that cannot be read twice (:class:`SlabIterSource`) say so
via :attr:`~FieldSource.rescannable`; the engine needs a second pass for
REL error bounds and shared codebooks and refuses those combinations up
front instead of silently buffering the field.
"""

from __future__ import annotations

import mmap
import os
from typing import Iterable, Iterator

import numpy as np

from ..errors import DataError

#: target bytes per reduction pass of :meth:`FieldSource.min_max`
_MINMAX_PASS_BYTES = 32 << 20


def drop_mapped_pages(arr: np.ndarray, start_byte: int,
                      stop_byte: int) -> None:
    """Best-effort ``MADV_DONTNEED`` over a memmap's byte range.

    No-op unless ``arr`` is backed by an OS mapping with madvise support
    (i.e. an ``np.memmap`` on a platform that has it).  The range is
    shrunk *inward* to page boundaries so pages shared with neighbouring
    data stay mapped.  Dirty pages of a shared file mapping are not
    lost — the kernel keeps them in the page cache for writeback — only
    this process's resident set shrinks, which is what keeps both
    streaming ingestion and memmapped *output* at O(window x shard)
    residency instead of O(field).
    """
    raw = getattr(arr, "_mmap", None)
    advise = getattr(raw, "madvise", None)
    flag = getattr(mmap, "MADV_DONTNEED", None)
    if advise is None or flag is None:  # pragma: no cover - non-Linux
        return
    # byte positions are relative to the *mapping*, which numpy aligns
    # down to the allocation granularity below the requested file offset
    base = int(getattr(arr, "offset", 0) or 0) % mmap.ALLOCATIONGRANULARITY
    page = mmap.PAGESIZE
    lo = base + start_byte
    hi = base + stop_byte
    lo = -(-lo // page) * page   # round up: keep pages shared with
    hi = (hi // page) * page     # the previous / next slab
    if hi > lo:
        advise(flag, lo, hi - lo)


class FieldSource:
    """Slab-granular, read-only access to one field.

    Subclasses call :meth:`_set_geometry` and implement :meth:`slab`;
    everything else (sizes, the streaming min/max reduction, the
    ``done_with`` hint) has working defaults.
    """

    #: whether rows may be read more than once (False for pure iterators)
    rescannable: bool = True

    def _set_geometry(self, shape: tuple[int, ...], dtype) -> None:
        if not shape:
            raise DataError("a field source needs at least one dimension")
        self.shape = tuple(int(n) for n in shape)
        self.dtype = np.dtype(dtype)

    @property
    def row_bytes(self) -> int:
        """Bytes in one row (one index of axis 0)."""
        return int(np.prod(self.shape[1:], dtype=np.int64)) * self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        return self.shape[0] * self.row_bytes

    def slab(self, start: int, stop: int) -> np.ndarray:
        """A read-only array of rows ``[start, stop)``.

        The returned array is only guaranteed valid until the next
        :meth:`slab` / :meth:`done_with` call for those rows — consumers
        copy what they keep (one slab at a time, never a full field).
        """
        raise NotImplementedError

    def done_with(self, start: int, stop: int) -> None:
        """Hint that rows ``[start, stop)`` will not be read again.

        File-backed sources use this to return the consumed pages to the
        OS; the base implementation is a no-op.
        """

    def min_max(self, rows_per_pass: int | None = None
                ) -> tuple[float, float]:
        """Global ``(min, max)`` by slab-wise reduction.

        Exact — ``min`` of per-slab minima equals the whole-array
        minimum — so REL bounds resolved from it match the in-memory
        engine bit for bit.  Needs a rescannable source (the rows are
        read again by the compression pass).
        """
        if not self.rescannable:
            raise DataError(
                "source is sequential-only; a min/max pass would consume "
                "it — resolve the error bound to ABS first")
        rows = rows_per_pass or max(
            1, _MINMAX_PASS_BYTES // max(1, self.row_bytes))
        lo, hi = np.inf, -np.inf
        r, n = 0, self.shape[0]
        while r < n:
            stop = min(n, r + rows)
            s = self.slab(r, stop)
            lo = min(lo, float(s.min()))
            hi = max(hi, float(s.max()))
            self.done_with(r, stop)
            r = stop
        if lo > hi:
            raise DataError("cannot reduce min/max of an empty field")
        return lo, hi

    def close(self) -> None:
        """Release any OS handles (idempotent; no-op by default)."""

    def __enter__(self) -> "FieldSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ArraySource(FieldSource):
    """An in-memory field, served as zero-copy row views.

    The array is taken exactly as given: it must already be C-contiguous
    (the streaming engine never copies a field to fix its layout — that
    would defeat the memory ceiling and FZL010 forbids it here).
    """

    def __init__(self, array: np.ndarray) -> None:
        if not isinstance(array, np.ndarray):
            raise DataError(
                f"ArraySource wraps an existing ndarray, got {type(array)!r}")
        if not array.flags.c_contiguous:
            raise DataError(
                "ArraySource needs a C-contiguous array; streaming never "
                "copies the field to fix its layout")
        self._array = array
        self._set_geometry(array.shape, array.dtype)

    def slab(self, start: int, stop: int) -> np.ndarray:
        return self._array[start:stop]


class MemmapSource(FieldSource):
    """A raw binary file mapped read-only, with page-dropping consumption.

    ``done_with`` advises the kernel that the consumed byte range is no
    longer needed (``MADV_DONTNEED``), so sequential streaming over a
    file much larger than RAM keeps a flat resident set.  Only whole
    pages strictly inside the range are dropped — pages shared with a
    neighbouring slab stay mapped.
    """

    def __init__(self, path: str, shape: tuple[int, ...] | None = None,
                 dtype="f4", *, offset: int = 0,
                 _mm: np.memmap | None = None) -> None:
        if _mm is not None:
            self._mm = _mm
            self.path = getattr(_mm, "filename", path)
            self._set_geometry(_mm.shape, _mm.dtype)
            self._file_offset = int(getattr(_mm, "offset", 0) or 0)
            return
        dt = np.dtype(dtype)
        if shape is None:
            raise DataError("MemmapSource needs an explicit shape")
        if not os.path.exists(path):
            raise DataError(f"no such file: {path}")
        needed = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        actual = os.path.getsize(path)
        if actual < offset + needed:
            raise DataError(
                f"{path}: {actual} bytes cannot hold shape {tuple(shape)} "
                f"of {dt} at offset {offset} ({offset + needed} needed)")
        self._mm = np.memmap(path, dtype=dt, mode="r", shape=tuple(shape),
                             offset=offset)
        self.path = path
        self._file_offset = int(offset)
        self._set_geometry(shape, dt)

    @classmethod
    def from_memmap(cls, mm: np.memmap) -> "MemmapSource":
        """Adopt an existing read-mode ``np.memmap`` without remapping."""
        if not isinstance(mm, np.memmap):
            raise DataError(f"expected np.memmap, got {type(mm)!r}")
        return cls(path=str(getattr(mm, "filename", "<memmap>")), _mm=mm)

    def slab(self, start: int, stop: int) -> np.ndarray:
        return self._mm[start:stop]

    def done_with(self, start: int, stop: int) -> None:
        drop_mapped_pages(self._mm, start * self.row_bytes,
                          stop * self.row_bytes)


class SlabIterSource(FieldSource):
    """A strictly sequential source fed by an iterable of slab arrays.

    Adapts generators (simulation output, network ingestion) to the
    engine.  Slabs must arrive in row order with the declared dtype and
    trailing dimensions; the source validates each one as it is pulled.
    Not rescannable: REL bounds and shared codebooks need a second pass
    and are rejected by the engine for this source.
    """

    rescannable = False

    def __init__(self, slabs: Iterable[np.ndarray],
                 shape: tuple[int, ...], dtype="f4") -> None:
        self._set_geometry(shape, dtype)
        self._iter: Iterator[np.ndarray] = iter(slabs)
        self._row = 0
        self._leftover: np.ndarray | None = None

    def slab(self, start: int, stop: int) -> np.ndarray:
        if start != self._row:
            raise DataError(
                f"sequential-only source: rows must be consumed in order "
                f"(expected {self._row}, got {start})")
        parts: list[np.ndarray] = []
        have = 0
        while have < stop - start:
            if self._leftover is not None:
                chunk, self._leftover = self._leftover, None
            else:
                try:
                    chunk = next(self._iter)
                except StopIteration:
                    raise DataError(
                        f"slab iterator exhausted at row {start + have} of "
                        f"{self.shape[0]}") from None
                if not isinstance(chunk, np.ndarray):
                    raise DataError(
                        f"slab iterator yielded {type(chunk)!r}, expected "
                        "an ndarray")
                if chunk.dtype != self.dtype or chunk.shape[1:] != self.shape[1:]:
                    raise DataError(
                        f"slab of {chunk.dtype}{chunk.shape} does not match "
                        f"declared {self.dtype}{self.shape}")
            need = (stop - start) - have
            if chunk.shape[0] > need:
                self._leftover = chunk[need:]
                chunk = chunk[:need]
            parts.append(chunk)
            have += chunk.shape[0]
        self._row = stop
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts, axis=0)


def as_source(obj) -> FieldSource:
    """Adapt ``obj`` to a :class:`FieldSource`.

    Accepts a source (returned as-is), an ``np.memmap`` (adopted with
    page-dropping consumption) or a plain in-memory ndarray.
    """
    if isinstance(obj, FieldSource):
        return obj
    if isinstance(obj, np.memmap):
        return MemmapSource.from_memmap(obj)
    if isinstance(obj, np.ndarray):
        return ArraySource(obj)
    raise DataError(
        f"cannot stream from {type(obj)!r}; pass a FieldSource, an "
        "np.memmap, or an ndarray")
