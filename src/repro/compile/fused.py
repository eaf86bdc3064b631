"""Fused stage kernels for compiled execution plans.

Run as module calls, preprocess -> prequantize -> Lorenzo -> outlier
split -> histogram are five separate kernels, each reading and writing
a full field-sized array.  :func:`fused_predict_quantize` collapses
them into one pass over cache-sized blocks, mirroring the paper's
CUDASTF-fused pipelines (and cuSZ's coarse kernel, whose one launch
covers pre-quantization, prediction and code emission, with the tile
held on chip):

* the float->grid scale, round and cast write straight into block
  scratch (``out=`` contracts end-to-end, no intermediates);
* the d-D Lorenzo operator runs as one subtract per axis between two
  ping-ponged grid buffers instead of ``kernels.lorenzo``'s copy-then-
  subtract pair (halving the passes per axis);
* the outlier mask is evaluated on the *rebased* codes through an
  unsigned view (wrapped negatives are huge, so one unsigned compare
  replaces the two signed compares plus the boolean temporary);
* the histogram bins the rebased codes in the same pass, so the dense
  ``uint16`` code array is the only field-sized array the stage
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

One write body: blocks, width and the ghost row
-----------------------------------------------
The write pass has a single body.  It walks a contiguous axis-0 row
range in blocks of ``max(1, _BLOCK_ELEMS // plane)`` rows, so its
scratch (one ``float64`` and two grid buffers, one block plus one row
each) stays cache-resident whatever the field size:

* *blocks* — block ``[s, e)`` recomputes the read-only ghost row
  ``s-1`` from the input, so the axis-0 difference needs nothing from
  the previous block; every later axis acts within rows.  Outliers come
  back ascending per block at offset ``s * plane`` and concatenate in
  block order, which is the global scan order;
* *width* — the grids are ``int32`` when ``(scaled_bound + 1) * 2**ndim
  + radius < 2**31`` (a rounded value is at most ``scaled_bound + 1``
  and a d-D delta sums ``2**ndim`` of them), ``int64`` otherwise.  The
  ``float64`` divide stays in both: it is what keeps the rounding
  identical;
* *threads* — ``threads=1`` walks ``[0, n0)`` with scratch from the
  global pool; ``threads > 1`` hands each :func:`repro.runtime.threads.
  slab_ranges` range to the shared :class:`~repro.runtime.threads.
  SlabPool`, where the same walk draws scratch from its thread's arena
  (:func:`~repro.runtime.threads.thread_arena`).  NumPy releases the
  GIL on every large ufunc, so the slabs genuinely overlap.  Per-slab
  ``bincount`` partials are summed in slab order (integer adds —
  exact) and every slab casts its codes into a disjoint slice of one
  shared array, so the output is byte-identical for every width.

On the read side the field is split into the same slab ranges; only the
axis-0 inverse-Lorenzo hyperplane sweep is inherently sequential — it
runs between two slab fan-outs, exactly where the single-threaded sweep
runs it (axis 0 is last).

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

#: elements per block of the write pass: its scratch (8 B + 2 x 4 B per
#: element on ``int32`` grids) stays in L2.  Against the whole-field
#: pass on the 3.9 MB bench fields (2 cores, 4 MiB L2) it measured 1.85x
#: without counts and 1.48x with them; 2**16 and 2**19 were slower, 2**18
#: was 1.93x without counts but 1.40x with them
_BLOCK_ELEMS = 1 << 17


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
        scanned the range); ``None`` derives it from the data's range.
    threads:
        slab-parallel width; ``> 1`` walks one contiguous axis-0 slab
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
    shape = data.shape
    ndim = len(shape)
    size = int(data.size)
    if scaled_bound is None:
        scaled_bound = (scaled_magnitude_bound(float(data.min()),
                                               float(data.max()), eb_abs)
                        if size else 0.0)
    if size and scaled_bound >= 2**62:
        raise CodecError(
            "error bound too tight: quantization index overflows int64")
    # |rint| <= bound + 1 and a d-D Lorenzo delta sums 2**d of them, so
    # the rebased deltas provably fit int32 below this line
    if (scaled_bound + 1) * 2**ndim + radius < 2**31:
        grid_dtype, view_dtype = np.int32, np.uint32
    else:
        grid_dtype, view_dtype = np.int64, np.uint64
    n0 = shape[0] if size else 0
    plane = size // n0 if size else 1
    rows = max(1, _BLOCK_ELEMS // plane)
    codes = np.empty(size, dtype=np.uint16 if 2 * radius <= 65536
                     else np.uint32)
    bound = view_dtype(2 * radius)
    scale = 2.0 * eb_abs

    def walk(s0: int, e0: int, pool) -> tuple[list, list, np.ndarray | None]:
        """Blocks of ``rows`` rows over ``[s0, e0)``; scratch from ``pool``."""
        cap = (min(rows, e0 - s0) + 1) * plane
        alloc = np.empty if pool is None else pool.acquire
        bufs = [alloc(cap, np.float64), alloc(cap, grid_dtype),
                alloc(cap, grid_dtype)]
        idx_parts, val_parts = [], []
        counts = np.zeros(num_bins, dtype=np.int64) if collect_counts \
            else None
        try:
            for s in range(s0, e0, rows):
                e = min(s + rows, e0)
                # the ghost row s-1 is recomputed from the read-only
                # input, so a block needs nothing from its predecessor
                ghost = 1 if s > 0 else 0
                bshape = (e - s + ghost,) + shape[1:]
                n = bshape[0] * plane
                scaled = bufs[0][:n].reshape(bshape)
                src = bufs[1][:n].reshape(bshape)
                dst = bufs[2][:n].reshape(bshape)
                # dtype= forces the float64 loop for float32 inputs,
                # matching kernels.quantize.prequantize's rounding; the
                # rounded value is integral, so the unsafe cast is exact
                np.divide(data[s - ghost:e], scale, out=scaled,
                          dtype=np.float64)
                np.rint(scaled, out=src, casting="unsafe")
                # axis 0 over the ghost-extended rows: local row i is
                # global row s-ghost+i, so dst[1:] holds every owned
                # row's difference
                np.subtract(src[1:], src[:-1], out=dst[1:])
                if not ghost:
                    dst[0] = src[0]
                src, dst = dst[ghost:], src[ghost:]
                # later axes act within rows: one ping-ponged subtract
                for axis in range(1, ndim):
                    hi = (slice(None),) * axis + (slice(1, None),)
                    lo = (slice(None),) * axis + (slice(None, -1),)
                    first = (slice(None),) * axis + (slice(0, 1),)
                    np.subtract(src[hi], src[lo], out=dst[hi])
                    dst[first] = src[first]
                    src, dst = dst, src
                flat = src.reshape(-1)
                np.add(flat, radius, out=flat)
                # one unsigned compare flags both tails: deltas >= radius
                # rebase past 2*radius, deltas < -radius wrap huge
                unsigned = flat.view(view_dtype)
                if unsigned.max() >= bound:
                    idx = np.flatnonzero(unsigned >= bound)
                    values = flat[idx].astype(np.int64, copy=False)
                    np.subtract(values, radius, out=values)
                    flat[idx] = radius
                    # ascending within the block, and block offsets
                    # increase, so concatenation is the global scan
                    np.add(idx, s * plane, out=idx)
                    idx_parts.append(idx)
                    val_parts.append(values)
                if counts is not None:
                    np.add(counts, np.bincount(flat, minlength=num_bins),
                           out=counts)
                np.copyto(codes[s * plane:e * plane], flat,
                          casting="unsafe")
        finally:
            if pool is not None:
                for buf in bufs:
                    pool.release(buf)
        return idx_parts, val_parts, counts

    threads = max(1, int(threads))
    ranges = slab_ranges(n0, threads)
    if len(ranges) > 1:
        pooling = default_pool() is not None
        results = _run_slab_tasks(
            lambda k, s, e: walk(s, e, thread_arena() if pooling else None),
            ranges, threads, phase="predict")
    else:
        results = [walk(0, n0, default_pool())]
    none = [np.empty(0, dtype=np.int64)]
    outliers = OutlierSet(
        indices=np.concatenate(none + [a for r in results for a in r[0]]),
        values=np.concatenate(none + [a for r in results for a in r[1]]))
    counts = None
    if collect_counts:
        counts = results[0][2]
        for r in results[1:]:
            np.add(counts, r[2], out=counts)
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
