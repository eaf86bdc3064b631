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
scale/cast collapse into one pass over a single grid, with the
final floats written directly into the caller's ``out=`` buffer — no
full-field temporaries between the decode stages.

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
* *threads* — ``threads=1`` walks ``[0, n0)``; ``threads > 1`` hands
  each :func:`repro.runtime.threads.slab_ranges` range to the shared
  :class:`~repro.runtime.threads.SlabPool`, where the same walk
  allocates its own block scratch.  NumPy releases the GIL on every
  large ufunc, so the slabs genuinely overlap.  Per-slab
  ``bincount`` partials are summed in slab order (integer adds —
  exact) and every slab casts its codes into a disjoint slice of one
  shared array, so the output is byte-identical for every width.

One read body: an ``int32`` grid the result proves exact
------------------------------------------------------------
The read pass sweeps an ``int32`` grid and trusts no header field for
that.  With ``d`` the deltas (rebased codes, outliers scattered in), the
exact sweep ``T`` and the ``int32`` result ``r``, adds wrap, so
``r == T (mod 2**32)``.  Two checks prove ``r == T``:

* check 0, before the sweep: ``|d| < 2**31`` (outlier values, and codes
  wider than 16 bits, are scanned; a failure goes straight to ``int64``);
* check 1, after it: ``max|r| <= (2**31 - 1) >> ndim`` (one ``min`` and
  one ``max``; a failure redoes the sweep on an ``int64`` grid).

Proof: the d-D Lorenzo difference of ``r`` sums ``2**ndim`` terms, so it
lies inside ``(-2**31, 2**31)`` as ``d`` does; the two are congruent mod
``2**32``, hence equal, and the inverse of that difference is unique.

``threads > 1`` splits the same body over the axis-0 slab ranges: each
slab rebases, scatters its outlier range and sweeps every axis of its
own rows; the carry across the seams (each slab adds the final row of
the slab before it) is the one sequential step; then comes the proof,
and the dequantise cast runs per slab again.  Integer adds are exact
modulo the grid width in any order, so every width gives the same grid.

Each slab task captures its spans and the coordinator re-emits them on
a deterministic ``slab:<k>`` lane, so ``fzmod analyze`` overlap metrics
prove the concurrency.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError
from ..kernels.quantize import OutlierSet
from ..obs.metrics import GLOBAL_METRICS
from ..obs.spans import (GLOBAL_TRACER, absorb_capture, span,
                         telemetry_enabled)
from ..runtime.memory import SANITIZER
from ..runtime.threads import run_slabs, slab_ranges

#: slices smaller than this run the inverse-Lorenzo scan via
#: ``np.cumsum`` — the running-add loop's per-iteration ufunc dispatch
#: only pays off once each fused add covers a decent stretch of memory
_SCAN_LOOP_MIN_SLICE = 1024

#: ufunc buffer elements for the dequantise cast: NumPy stages the
#: grid -> float64 input and float64 -> float32 output casts through two
#: buffers of 8 B per element, 128 KiB at its default of 8192; at 1024
#: they hold 16 KiB and the cast ran at the same speed on a 3.9 MB field
_CAST_BUFSIZE = 1024

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

    def walk(s0: int, e0: int) -> tuple[list, list, np.ndarray | None]:
        """Blocks of ``rows`` rows over ``[s0, e0)``."""
        cap = (min(rows, e0 - s0) + 1) * plane
        bufs = [np.empty(cap, np.float64), np.empty(cap, grid_dtype),
                np.empty(cap, grid_dtype)]
        idx_parts, val_parts = [], []
        counts = np.zeros(num_bins, dtype=np.int64) if collect_counts \
            else None
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
        return idx_parts, val_parts, counts

    threads = max(1, int(threads))
    ranges = slab_ranges(n0, threads)
    if len(ranges) > 1:
        results = _run_slab_tasks(lambda k, s, e: walk(s, e), ranges,
                                  threads, phase="predict")
    else:
        results = [walk(0, n0)]
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

    The read-side mirror of :func:`fused_predict_quantize`: the codes
    are rebased into one grid, the outliers scattered into it,
    the d-D inverse Lorenzo runs as :func:`_inplace_prefix_sum`, and the
    dequantise scale/cast lands directly in ``out`` — the only
    field-sized array the caller sees.  The grid is ``int32`` where the
    range proof of the module docstring holds, ``int64`` otherwise; each
    call counts its width on ``compile.fused_decode_grid``.

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
        slab-parallel width for the rebase/scatter pass, the per-slab
        sweeps and the dequantise cast; only the carry across slab
        seams along axis 0 stays sequential.  Value-identical for every
        width.

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
    idx, values, count = outliers.indices, outliers.values, outliers.count
    if count and int(idx.max()) >= size:
        raise CodecError("outlier index out of bounds")
    # a 0-d field sweeps as one element (a 1-D proof is the stricter)
    grid_shape = shape or (1,)
    n0 = grid_shape[0]
    plane = size // n0 if n0 else 0
    ranges = [(0, n0)]
    threads = max(1, int(threads))
    if threads > 1 and len(shape) >= 2 and size:
        # the in-slab scatter routes indices by binary search, which
        # needs them ascending and non-negative — true for every
        # container this codec writes; anything else stays on one slab
        split = slab_ranges(n0, threads)
        if len(split) > 1 and (not count or (
                int(idx[0]) >= 0 and bool((np.diff(idx) >= 0).all()))):
            ranges = split
    single = len(ranges) == 1
    codes, dst = codes.reshape(grid_shape), out.reshape(grid_shape)
    bound = (2**31 - 1) >> len(grid_shape)

    def fan(task, phase: str) -> None:
        if single:
            task(0, 0, n0)
        else:
            _run_slab_tasks(task, ranges, threads, phase=phase)

    def attempt(grid_dtype) -> bool:
        """Sweep on a ``grid_dtype`` grid and write ``out``; ``False``
        when an ``int32`` sweep fails the range proof (``out`` untouched)."""
        grid = np.empty(grid_shape, dtype=grid_dtype)

        def scan(k: int, s: int, e: int) -> None:
            sub = grid[s:e]
            # the typed scalar keeps the rebase in the grid's width (a
            # bare python int would run it in the codes' uint and wrap)
            np.subtract(codes[s:e], grid_dtype(radius), out=sub,
                        casting="unsafe")
            lo, hi = (0, count) if single else (
                int(np.searchsorted(idx, s * plane, side="left")),
                int(np.searchsorted(idx, e * plane, side="left")))
            if hi > lo:
                where = idx[lo:hi] - s * plane if s else idx[lo:hi]
                sub.reshape(-1)[where] = values[lo:hi]
            _inplace_prefix_sum(sub)

        fan(scan, "scan")
        # -- axis 0 across the seams: each slab swept its own rows, so
        # it still owes the final row of the slab before it
        for s, e in ranges[1:]:
            np.add(grid[s:e], grid[s - 1], out=grid[s:e])
        # -- check 1 (module docstring): the int32 sweep is exact
        if grid_dtype is np.int32 and size and not (
                -bound <= grid.min() and grid.max() <= bound):
            return False

        def dequantize(k: int, s: int, e: int) -> None:
            with np.errstate():
                # the int -> float64 -> out casts go through ufunc buffers
                np.setbufsize(_CAST_BUFSIZE)
                np.multiply(grid[s:e], 2.0 * eb_abs, out=dst[s:e],
                            casting="unsafe")

        fan(dequantize, "dequantize")
        return True

    # -- check 0: the deltas fit int32.  Codes of at most 16 bits always
    # do (|code - radius| <= 2**30); outlier values and wider codes are
    # scanned
    narrow = not count or (-2**31 < int(values.min())
                           and int(values.max()) < 2**31)
    if narrow and size and codes.dtype.itemsize > 2:
        narrow = (-2**31 < float(codes.min()) - radius
                  and float(codes.max()) - radius < 2**31)
    if narrow and attempt(np.int32):
        width = "int32"
    else:
        width = "int64_retry" if narrow else "int64"
        attempt(np.int64)
    GLOBAL_METRICS.counter("compile.fused_decode_grid", width=width).inc()
    return out
