"""Fused stage kernels for compiled execution plans.

Run as module calls, preprocess -> prequantize -> Lorenzo -> outlier
split -> histogram are five separate kernels, each reading and writing
a full field-sized array.  :func:`fused_predict_quantize` collapses
them into a single pass over each slab, mirroring the paper's
CUDASTF-fused pipelines (and cuSZ's coarse kernel, whose one launch
covers pre-quantization, prediction and code emission):

* the float->grid scale, round and ``int64`` cast write straight into
  pooled scratch (``out=`` contracts end-to-end, no intermediates);
* the d-D Lorenzo operator runs as one subtract per axis between two
  ping-ponged grid buffers instead of ``kernels.lorenzo``'s copy-then-
  subtract pair (halving the passes per axis);
* the outlier mask is evaluated on the *rebased* codes through a
  ``uint64`` view (wrapped negatives are huge, so one unsigned compare
  replaces the two signed compares plus the boolean temporary);
* the histogram bins the rebased ``int64`` codes in the same pass, so
  the dense ``uint16`` code cast is the only full-size array the stage
  materialises — exactly the one the encoder needs.

:func:`fused_decode_reconstruct` is the read-side mirror: outlier
merge, the d-D inverse-Lorenzo prefix-sum sweep and the dequantise
scale/cast collapse into one pass over a single pooled ``int64`` grid,
with the final floats written directly into the caller's ``out=``
buffer — no full-field temporaries between the decode stages.

Every step is arithmetic-identical to the kernels the module-call steps
run — :mod:`repro.kernels.quantize`, :mod:`repro.kernels.lorenzo` and
:mod:`repro.kernels.histogram` — so codes, outliers and counts match
them bit for bit (the fused-vs-module-call matrix in ``tests/compile/``
enforces this) and the encoder sees the same bytes either way.

Slab parallelism
----------------
Both fused passes accept ``threads=``: the field is partitioned into
contiguous axis-0 slab ranges (:func:`repro.runtime.threads.
slab_ranges`) and each slab runs on the shared
:class:`~repro.runtime.threads.SlabPool`.  NumPy releases the GIL on
every large ufunc, so the slabs genuinely overlap.  Byte-identity with
``threads=1`` holds for every thread count by construction:

* the Lorenzo axis-0 difference reads the *previous* slab's last input
  plane as a read-only ghost plane (recomputed locally from the shared
  input — no cross-slab writes);
* per-slab scratch comes from per-thread arenas
  (:func:`~repro.runtime.threads.thread_arena`), never shared;
* per-slab ``bincount`` partials are summed in fixed slab order
  (integer adds — exact), outlier lists are concatenated in slab order
  (each slab's ``flatnonzero`` is ascending, offsets are disjoint and
  increasing, so the concatenation equals the global scan), and dense
  codes are cast into disjoint slices of one shared output array;
* on the read side only the axis-0 inverse-Lorenzo hyperplane sweep is
  inherently sequential — it runs between two slab fan-outs, exactly
  where the single-threaded sweep runs it (axis 0 is last).

Each slab task captures its spans and the coordinator re-emits them on
a deterministic ``slab:<k>`` lane, so ``fzmod analyze`` overlap metrics
prove the concurrency.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError
from ..kernels.quantize import OutlierSet
from ..obs.spans import (GLOBAL_TRACER, absorb_capture, span,
                         telemetry_enabled)
from ..runtime.memory import SANITIZER, default_pool
from ..runtime.threads import run_slabs, slab_ranges, thread_arena

#: slices smaller than this run the inverse-Lorenzo scan via
#: ``np.cumsum`` — the running-add loop's per-iteration ufunc dispatch
#: only pays off once each fused add covers a decent stretch of memory
_SCAN_LOOP_MIN_SLICE = 1024


def _inplace_prefix_sum(grid: np.ndarray) -> None:
    """In-place inclusive prefix sum along every axis, last axis first.

    ``np.cumsum(..., out=...)`` is only fast along the last (contiguous)
    axis; for earlier axes its strided inner loop runs several times
    slower than a running ``np.add`` over whole hyperplane slices, each
    of which streams once at near-memcpy bandwidth.  Integer addition is
    exact and order-independent, so either sweep produces a bit-identical
    grid — the fused-vs-module-call matrix pins this against the
    all-``cumsum`` sweep of ``kernels.lorenzo.lorenzo_inverse``.
    """
    ndim = grid.ndim
    if ndim == 0:
        return
    np.cumsum(grid, axis=ndim - 1, out=grid)
    for axis in range(ndim - 2, -1, -1):
        n = grid.shape[axis]
        if n <= 1:
            continue
        if grid.size // n < _SCAN_LOOP_MIN_SLICE:
            np.cumsum(grid, axis=axis, out=grid)
            continue
        planes = np.moveaxis(grid, axis, 0)
        for i in range(1, n):
            np.add(planes[i], planes[i - 1], out=planes[i])


def _run_slab_tasks(task, ranges: list[tuple[int, int]], threads: int, *,
                    phase: str) -> list:
    """Fan ``task(k, start, stop)`` over the shared pool, one lane per slab.

    Results come back in slab order (the :class:`SlabPool` ordering
    contract).  When telemetry is on, each slab's spans are captured on
    the worker thread and re-emitted by the coordinator on the
    deterministic lane ``slab:<k>`` — same trace for a given input
    regardless of scheduling, and `fzmod analyze` overlap metrics see
    one busy lane per slab.
    """
    items = [(k, s, e) for k, (s, e) in enumerate(ranges)]
    if not telemetry_enabled():
        return run_slabs(lambda it: task(*it), items, threads=threads)

    def traced(it):
        k, s, e = it
        with GLOBAL_TRACER.capture() as buf:
            with span(f"compile.slab.{phase}", slab=k, start=s, stop=e):
                result = task(k, s, e)
        return result, buf

    results = []
    for k, (res, buf) in enumerate(
            run_slabs(traced, items, threads=threads)):
        absorb_capture(buf, lane=f"slab:{k}")
        results.append(res)
    return results


def scaled_magnitude_bound(lo: float, hi: float, eb_abs: float) -> float:
    """``max |fl(x / (2*eb))|`` over a field with range ``[lo, hi]``.

    Correctly-rounded division by a positive scalar is monotone, so the
    extreme scaled magnitudes come from the extreme data values; this
    reproduces the full-array overflow scan of
    :func:`repro.kernels.quantize.prequantize` from two scalars.
    """
    return max(abs(lo / (2.0 * eb_abs)), abs(hi / (2.0 * eb_abs)))


def fused_predict_quantize(data: np.ndarray, eb_abs: float, radius: int,
                           num_bins: int, *, collect_counts: bool,
                           scaled_bound: float | None = None,
                           threads: int = 1
                           ) -> tuple[np.ndarray, OutlierSet,
                                      np.ndarray | None]:
    """One pass from floats to quant codes (+ outliers, + counts).

    Parameters
    ----------
    data:
        C-contiguous float field (already through ``check_field``).
    eb_abs / radius / num_bins:
        resolved bound and alphabet geometry (``num_bins == 2*radius``).
    collect_counts:
        also bin the codes (fused histogram) — skipped entirely for
        encoders that need no statistics.
    scaled_bound:
        precomputed ``max|data/(2*eb)|`` (from
        :func:`scaled_magnitude_bound` when the preprocessor already
        scanned the range); ``None`` scans the scaled buffer instead.
    threads:
        slab-parallel width; ``> 1`` runs one contiguous axis-0 slab
        per task on the shared :class:`~repro.runtime.threads.SlabPool`
        (byte-identical output for every value — see the module
        docstring).

    Returns ``(codes, outliers, counts)`` with ``codes`` a fresh flat
    ``uint16``/``uint32`` array, byte-identical to what
    ``kernels.lorenzo.compress`` emits, and ``counts`` ``None`` when not
    collected.
    """
    if eb_abs <= 0 or not np.isfinite(eb_abs):
        raise CodecError(f"absolute error bound must be positive, got {eb_abs}")
    if radius < 1 or radius > 2**30:
        raise CodecError(f"radius out of range: {radius}")
    if SANITIZER.enabled:
        SANITIZER.check_live("fused_predict_quantize", data)
    threads = max(1, int(threads))
    if threads > 1 and data.ndim >= 1 and data.size:
        ranges = slab_ranges(data.shape[0], threads)
        if len(ranges) > 1:
            return _predict_quantize_slabs(
                data, eb_abs, radius, num_bins,
                collect_counts=collect_counts, scaled_bound=scaled_bound,
                ranges=ranges, threads=threads)
    pool = default_pool()
    shape = data.shape
    if pool is None:
        scaled = np.empty(shape, dtype=np.float64)
        grid_a = np.empty(shape, dtype=np.int64)
        grid_b = np.empty(shape, dtype=np.int64)
    else:
        scaled = pool.acquire(shape, np.float64)
        grid_a = pool.acquire(shape, np.int64)
        grid_b = pool.acquire(shape, np.int64)
    try:
        # -- prequantize: scale, overflow check, round, cast (in scratch)
        # dtype= forces the float64 loop for float32 inputs, matching
        # kernels.quantize.prequantize's half-point rounding exactly
        np.divide(data, 2.0 * eb_abs, out=scaled, dtype=np.float64)
        if scaled_bound is None:
            scaled_bound = max(abs(float(scaled.min())),
                               abs(float(scaled.max())))
        if scaled.size and scaled_bound >= 2**62:
            raise CodecError(
                "error bound too tight: quantization index overflows int64")
        # rint straight into the int64 grid: the rounded value is integral,
        # so the unsafe cast truncates to exactly prequantize's
        # rint-then-astype result in one pass instead of two
        np.rint(scaled, out=grid_a, casting="unsafe")

        # -- Lorenzo: one backward-difference pass per axis, ping-ponged
        # between the two grid buffers (lorenzo_forward copies into a
        # shift buffer and then subtracts — two passes per axis)
        src, dst = grid_a, grid_b
        ndim = len(shape)
        for axis in range(ndim):
            lo_s = [slice(None)] * ndim
            hi_s = [slice(None)] * ndim
            first = [slice(None)] * ndim
            lo_s[axis] = slice(None, -1)
            hi_s[axis] = slice(1, None)
            first[axis] = slice(0, 1)
            np.subtract(src[tuple(hi_s)], src[tuple(lo_s)],
                        out=dst[tuple(hi_s)])
            dst[tuple(first)] = src[tuple(first)]
            src, dst = dst, src

        # -- outlier split + histogram on the rebased int64 codes
        flat = src.reshape(-1)
        np.add(flat, radius, out=flat)
        # one unsigned compare flags both tails: deltas >= radius rebase
        # past 2*radius, deltas < -radius rebase negative and wrap huge
        unsigned = flat.view(np.uint64)
        bound = np.uint64(2 * radius)
        if np.uint64(unsigned.max()) < bound:
            # one reduction proves the slab outlier-free (the common case
            # for smooth fields) and skips the mask + gather entirely
            idx = np.empty(0, dtype=np.int64)
            values = np.empty(0, dtype=np.int64)
        else:
            idx = np.flatnonzero(unsigned >= bound)
            values = flat[idx]
            np.subtract(values, radius, out=values)
            idx = idx.astype(np.int64)
        outliers = OutlierSet(indices=idx, values=values)
        flat[idx] = radius
        counts = None
        if collect_counts:
            counts = np.bincount(flat, minlength=num_bins).astype(np.int64)
        dtype = np.uint16 if 2 * radius <= 65536 else np.uint32
        codes = flat.astype(dtype)
    finally:
        if pool is not None:
            pool.release(scaled)
            pool.release(grid_a)
            pool.release(grid_b)
    return codes, outliers, counts


def _predict_quantize_slabs(data: np.ndarray, eb_abs: float, radius: int,
                            num_bins: int, *, collect_counts: bool,
                            scaled_bound: float | None,
                            ranges: list[tuple[int, int]], threads: int
                            ) -> tuple[np.ndarray, OutlierSet,
                                       np.ndarray | None]:
    """Slab-parallel body of :func:`fused_predict_quantize`.

    Each slab recomputes its ghost plane (the previous slab's last input
    row) locally from the read-only input, so the axis-0 Lorenzo
    difference needs no cross-slab ordering; everything a slab writes is
    either private arena scratch or a disjoint slice of the shared
    ``codes`` output.  Merging is deterministic by slab index, so the
    result is byte-identical to the sequential pass.
    """
    shape = data.shape
    ndim = len(shape)
    size = int(data.size)
    plane = size // shape[0]
    if scaled_bound is not None and scaled_bound >= 2**62:
        raise CodecError(
            "error bound too tight: quantization index overflows int64")
    dtype = np.uint16 if 2 * radius <= 65536 else np.uint32
    codes = np.empty(size, dtype=dtype)
    pooling = default_pool() is not None

    def slab_task(k: int, s: int, e: int):
        ghost = 1 if s > 0 else 0
        lshape = (e - s + ghost,) + shape[1:]
        arena = thread_arena() if pooling else None
        if arena is None:
            scaled = np.empty(lshape, dtype=np.float64)
            grid_a = np.empty(lshape, dtype=np.int64)
            grid_b = np.empty(lshape, dtype=np.int64)
        else:
            scaled = arena.acquire(lshape, np.float64)
            grid_a = arena.acquire(lshape, np.int64)
            grid_b = arena.acquire(lshape, np.int64)
        try:
            np.divide(data[s - ghost:e], 2.0 * eb_abs, out=scaled,
                      dtype=np.float64)
            if scaled_bound is None:
                # per-slab bound check: the max over slabs is the global
                # max, so raising here reproduces the sequential check
                local = max(abs(float(scaled.min())),
                            abs(float(scaled.max())))
                if local >= 2**62:
                    raise CodecError("error bound too tight: quantization "
                                     "index overflows int64")
            np.rint(scaled, out=grid_a, casting="unsafe")
            # axis-0 Lorenzo over the ghost-extended rows: local row i
            # is global row s-ghost+i, so dst[1:] lands the correct
            # global difference on every owned row
            src, dst = grid_a, grid_b
            np.subtract(src[1:], src[:-1], out=dst[1:])
            if ghost == 0:
                dst[0:1] = src[0:1]
            src, dst = dst, src
            # later axes act within rows — owned views only
            vsrc, vdst = src[ghost:], dst[ghost:]
            for axis in range(1, ndim):
                lo_s = [slice(None)] * ndim
                hi_s = [slice(None)] * ndim
                first = [slice(None)] * ndim
                lo_s[axis] = slice(None, -1)
                hi_s[axis] = slice(1, None)
                first[axis] = slice(0, 1)
                np.subtract(vsrc[tuple(hi_s)], vsrc[tuple(lo_s)],
                            out=vdst[tuple(hi_s)])
                vdst[tuple(first)] = vsrc[tuple(first)]
                vsrc, vdst = vdst, vsrc
            flat = vsrc.reshape(-1)
            np.add(flat, radius, out=flat)
            unsigned = flat.view(np.uint64)
            bound = np.uint64(2 * radius)
            if np.uint64(unsigned.max()) < bound:
                idx = np.empty(0, dtype=np.int64)
                values = np.empty(0, dtype=np.int64)
            else:
                idx = np.flatnonzero(unsigned >= bound)
                values = flat[idx]
                np.subtract(values, radius, out=values)
                idx = idx.astype(np.int64)
                flat[idx] = radius
                # global index = local index + slab's flat offset; each
                # slab's flatnonzero is ascending and offsets increase
                # with k, so slab-order concatenation equals the
                # sequential global scan
                np.add(idx, np.int64(s * plane), out=idx)
            counts = (np.bincount(flat, minlength=num_bins).astype(np.int64)
                      if collect_counts else None)
            np.copyto(codes[s * plane:e * plane], flat, casting="unsafe")
            return idx, values, counts
        finally:
            if arena is not None:
                arena.release(scaled)
                arena.release(grid_a)
                arena.release(grid_b)

    results = _run_slab_tasks(slab_task, ranges, threads, phase="predict")
    idx = np.concatenate([r[0] for r in results])
    values = np.concatenate([r[1] for r in results])
    outliers = OutlierSet(indices=idx, values=values)
    counts = None
    if collect_counts:
        counts = results[0][2]
        for _, _, part in results[1:]:
            np.add(counts, part, out=counts)
    return codes, outliers, counts


def fused_decode_reconstruct(codes: np.ndarray, outliers: OutlierSet,
                             radius: int, eb_abs: float,
                             shape: tuple[int, ...], dtype: np.dtype, *,
                             out: np.ndarray | None = None,
                             threads: int = 1) -> np.ndarray:
    """One pass from quant codes (+ outliers) back to the field.

    The read-side mirror of :func:`fused_predict_quantize`: the decoded
    codes are widened, rebased and cast into pooled ``int64`` scratch in
    a single pass, the outlier scatter folds into the same grid, the d-D
    inverse Lorenzo runs as one in-place prefix-sum sweep per axis
    (``np.cumsum`` on the contiguous last axis, a running hyperplane add
    on the earlier ones — see :func:`_inplace_prefix_sum`), and the
    dequantise scale/cast lands directly in ``out`` — the only
    field-sized array the caller sees.

    Parameters
    ----------
    codes:
        dense unsigned quant codes (``uint16``/``uint32``), flat or
        field-shaped; alphabet ``[0, 2*radius)``.
    outliers:
        sparse unpredictable residuals to scatter over the grid.
    radius / eb_abs:
        alphabet geometry and the absolute bound from the header.
    shape / dtype:
        target field geometry.
    out:
        optional destination (``shape``/``dtype``-matching, writable,
        C-contiguous); allocated fresh when ``None``.  Returned either
        way.
    threads:
        slab-parallel width for the widen/rebase/scatter pass, the
        per-slab prefix-sum sweeps over axes >= 1 and the dequantise
        cast; only the axis-0 inverse-Lorenzo hyperplane sweep stays
        sequential.  Value-identical for every width.

    Every step is arithmetic-identical to the module-call chain
    ``merge_outliers -> lorenzo_inverse -> dequantize`` in
    :mod:`repro.kernels.quantize` / :mod:`repro.kernels.lorenzo`, so the
    reconstruction is value-identical bit for bit.
    """
    if eb_abs <= 0 or not np.isfinite(eb_abs):
        raise CodecError(f"absolute error bound must be positive, got {eb_abs}")
    if radius < 1 or radius > 2**30:
        raise CodecError(f"radius out of range: {radius}")
    if SANITIZER.enabled:
        SANITIZER.check_live("fused_decode_reconstruct", codes, out,
                             outliers.indices, outliers.values)
        SANITIZER.check_no_alias("fused_decode_reconstruct", out,
                                 codes=codes,
                                 outlier_values=outliers.values,
                                 allow_identical=False)
    shape = tuple(int(s) for s in shape)
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) if shape else 1
    if int(codes.size) != size:
        raise CodecError(
            f"code stream has {codes.size} elements, field shape {shape} "
            f"needs {size}")
    if out is None:
        out = np.empty(shape, dtype=dtype)
    else:
        if out.shape != shape or out.dtype != dtype:
            raise CodecError(
                f"out= has shape {out.shape}/{out.dtype}, reconstruction "
                f"needs {shape}/{dtype}")
        if not out.flags.writeable:
            raise CodecError("out= buffer is not writable")
    threads = max(1, int(threads))
    if threads > 1 and len(shape) >= 2 and size:
        ranges = slab_ranges(shape[0], threads)
        # the in-slab outlier scatter routes indices by binary search,
        # which needs them ascending — true for every container this
        # codec writes (forward scan order); anything else falls back
        if len(ranges) > 1 and (
                not outliers.count
                or bool((np.diff(outliers.indices) >= 0).all())):
            return _decode_reconstruct_slabs(codes, outliers, radius,
                                             eb_abs, shape, out,
                                             ranges=ranges, threads=threads)
    pool = default_pool()
    grid = (np.empty(shape, dtype=np.int64) if pool is None
            else pool.acquire(shape, np.int64))
    try:
        # -- outlier merge: widen + rebase + scatter, all inside the grid
        # (the np.int64 scalar forces int64 promotion; a bare python int
        # would run the subtract in the codes' uint dtype and wrap)
        np.subtract(codes.reshape(shape), np.int64(radius), out=grid,
                    casting="unsafe")
        if outliers.count:
            flat = grid.reshape(-1)
            if int(outliers.indices.max()) >= flat.size:
                raise CodecError("outlier index out of bounds")
            flat[outliers.indices] = outliers.values
        # -- inverse Lorenzo: one in-place inclusive scan per axis (the
        # transpose order of the forward diffs), no ping-pong needed
        _inplace_prefix_sum(grid)
        # -- dequantise: scale/cast straight into the caller's buffer
        np.multiply(grid, 2.0 * eb_abs, out=out, casting="unsafe")
    finally:
        if pool is not None:
            pool.release(grid)
    return out


def _decode_reconstruct_slabs(codes: np.ndarray, outliers: OutlierSet,
                              radius: int, eb_abs: float,
                              shape: tuple[int, ...], out: np.ndarray, *,
                              ranges: list[tuple[int, int]],
                              threads: int) -> np.ndarray:
    """Slab-parallel body of :func:`fused_decode_reconstruct`.

    Phase 1 (parallel): widen/rebase the codes, scatter each slab's
    outlier range (located by binary search over the ascending global
    indices) and run the prefix-sum sweeps over axes >= 1 — all of
    which act within rows, so slabs are independent.  Phase 2
    (sequential): the axis-0 hyperplane sweep, which the sequential
    sweep also runs last.  Phase 3 (parallel): dequantise each slab
    straight into ``out``.  Integer adds are exact, so every phase is
    value-identical to the single-threaded sweep.
    """
    ndim = len(shape)
    size = int(np.prod(shape))
    plane = size // shape[0]
    idx = outliers.indices
    scatter = bool(outliers.count)
    if scatter and int(idx.max()) >= size:
        raise CodecError("outlier index out of bounds")
    codes_shaped = codes.reshape(shape)
    pool = default_pool()
    grid = (np.empty(shape, dtype=np.int64) if pool is None
            else pool.acquire(shape, np.int64))
    try:
        def slab_scan(k: int, s: int, e: int) -> None:
            sub = grid[s:e]
            np.subtract(codes_shaped[s:e], np.int64(radius), out=sub,
                        casting="unsafe")
            if scatter:
                lo = int(np.searchsorted(idx, s * plane, side="left"))
                hi = int(np.searchsorted(idx, e * plane, side="left"))
                if hi > lo:
                    sub.reshape(-1)[idx[lo:hi] - s * plane] = \
                        outliers.values[lo:hi]
            np.cumsum(sub, axis=ndim - 1, out=sub)
            for axis in range(ndim - 2, 0, -1):
                n = sub.shape[axis]
                if n <= 1:
                    continue
                if sub.size // n < _SCAN_LOOP_MIN_SLICE:
                    np.cumsum(sub, axis=axis, out=sub)
                    continue
                planes = np.moveaxis(sub, axis, 0)
                for i in range(1, n):
                    np.add(planes[i], planes[i - 1], out=planes[i])

        _run_slab_tasks(slab_scan, ranges, threads, phase="scan")
        # -- axis-0 inverse Lorenzo: the one inherently sequential sweep
        # (same cumsum-vs-running-add selection as _inplace_prefix_sum)
        n0 = shape[0]
        if size // n0 < _SCAN_LOOP_MIN_SLICE:
            np.cumsum(grid, axis=0, out=grid)
        else:
            for i in range(1, n0):
                np.add(grid[i], grid[i - 1], out=grid[i])

        def slab_dequantize(k: int, s: int, e: int) -> None:
            np.multiply(grid[s:e], 2.0 * eb_abs, out=out[s:e],
                        casting="unsafe")

        _run_slab_tasks(slab_dequantize, ranges, threads, phase="dequantize")
    finally:
        if pool is not None:
            pool.release(grid)
    return out
