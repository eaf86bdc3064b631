"""Multilevel spline-interpolation predictor (G-Interp, cuSZ-i construction).

The predictor walks a hierarchy of grids from coarse to fine.  *Anchor*
points on the coarsest grid (stride ``2**max_level`` along every axis) are
stored losslessly, exactly as cuSZ-i does.  Each level then predicts the
midpoints of the current grid axis-by-axis using a 4-point cubic
interpolation stencil (falling back to linear / nearest at boundaries),
quantises the prediction residual with the shared error-controlled
quantiser, and immediately commits the *reconstructed* value so finer
levels predict from exactly what the decompressor will see.

Within one ``(level, axis)`` batch no predicted point depends on another —
every stencil tap lies on the already-known coarser grid — so each batch is
one vectorised pass, mirroring the data-parallel formulation of the CUDA
kernel.  Every coordinate set in the schedule is an arithmetic progression,
so a batch works on basic-slice views of the reconstruction the way SZ3's
interpolation predictor walks strided 1-D passes per level and axis: known
points and targets are strided slices, the known points a batch reads are
copied once into contiguous scratch where the four stencil taps are
shifted slices, the arithmetic runs through ``out=`` scratch, the codes
land in one preallocated stream and the commit is a strided assignment —
no index arrays, fancy-index gathers or masks.

A level's batches do not run over the whole field one after the other:
once the coarser levels are finished, the level runs slab by slab along
axis 0, and each slab runs all of the level's batches, in schedule order,
over its own rows — the tile-resident working set of cuSZ-i's G-Interp
at the scale of a CPU cache.  The bytes cannot change.  The axis-0 batch
reads only rows on the coarser grid (within ``±3h`` of a target), which
no batch of the level writes; the axis-1 and axis-2 batches read only
rows with their targets' own axis-0 index, which the slab has just
finished.  Every value is therefore computed from the same inputs by
the same arithmetic as in a whole-field pass, the cubic/linear/nearest
split is taken against the batch's global extent, and a slab's piece of
a batch is a contiguous run of that batch's C-order codes in the one
preallocated stream.  The coarsest levels fit in one slab; dynamic
mode (whose choices are whole-batch sums) and 1-D fields run every level
as one slab.

The walk runs in the field's storage dtype, as cuSZ-i computes in
``float`` and SZ3 runs its predictor in the field's own type: a
``float32`` field keeps a ``float32`` reconstruction and ``float32``
scratch, a ``float64`` one ``float64``.  Each slab piece range-checks its
rounded codes against ``radius``, writes ``code + radius`` straight into
the preallocated dense ``uint16`` stream (the sentinel ``radius`` at
outliers, whose codes travel with their stream index) and commits
``pred + code * 2eb`` in the walk dtype, the decoder's own arithmetic.
Rounding in that dtype can put a committed value a hair past the bound,
so each piece then compares it with the input — in ``float64``, exact on
two ``float32`` values — and keeps every miss as a *patch*: its flat
field index and raw value, which the decoder writes over the finished
walk.  Finer levels predict from the committed value on both sides.
Results written before the storage-dtype walk (``walk_dtype`` float64)
still decode: the same walk then runs in ``float64`` and is cast at the
end.  A ``float32`` field whose stencil overflows ``float32`` (values
near the dtype's limit) is compressed on that ``float64`` walk too.

Compared with Lorenzo this predictor is markedly more accurate on smooth
fields (higher CR / better rate-distortion) at the cost of ``O(levels·dims)``
kernel passes instead of one — which is precisely the FZMod-Quality vs
FZMod-Default trade-off evaluated in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import CodecError
from ..obs.spans import span
from . import quantize as q

#: Default maximum level (anchor stride = 2**level) per rank.  Chosen so the
#: raw-anchor overhead stays negligible: 3-D -> 1/4096, 2-D -> 1/1024,
#: 1-D -> 1/256 of the input.
_DEFAULT_MAX_LEVEL = {1: 8, 2: 5, 3: 4}

#: level-grid points per slab: a slab is ``max(1, _SLAB_ELEMS // points
#: per axis-0 row)`` rows of the level's grid, so its rows and the
#: scratch stay in L2.  On the 3.9 MB bench field (2 cores, 2 MiB L2 each;
#: medians of 11 rounds) the kernel took 34.3 / 23.3 ms (compress /
#: decompress) against 41.5 / 31.8 ms for whole-field levels; 2**14-2**17
#: were within 7 % of each other and 2**18 took 37.6 / 25.7 ms.  On a
#: 34 MB field 2**13-2**17 were within 9 %.  2**16 needs half the scratch
#: of 2**17
_SLAB_ELEMS = 1 << 16


def default_max_level(ndim: int) -> int:
    """Default level count for a given rank (see module constants)."""
    try:
        return _DEFAULT_MAX_LEVEL[ndim]
    except KeyError:  # pragma: no cover - guarded by check_field
        raise CodecError(f"unsupported rank {ndim}") from None


@dataclass(frozen=True)
class InterpResult:
    """Artifacts of the interpolation predictor stage.

    ``choices`` is empty for the static (always-cubic) predictor; in
    dynamic mode it records, per (level, axis) batch, which stencil won
    (0 = cubic-with-fallbacks, 1 = linear) — the decoder must replay the
    exact same choices.  ``patch_index`` (sorted flat field indices) and
    ``patch_value`` (the raw values there, in the field's dtype) are the
    points whose committed value missed the bound; ``None`` means none.
    ``walk_dtype`` is the dtype the walk runs in: ``None`` for the
    field's own, ``float64`` for results written before the
    storage-dtype walk.
    """

    codes: np.ndarray          # dense unsigned quant codes, 1-D stream
    outliers: q.OutlierSet
    anchors: np.ndarray        # raw anchor values (input dtype), 1-D
    radius: int
    eb_abs: float
    max_level: int
    shape: tuple[int, ...]
    dtype: np.dtype
    choices: tuple[int, ...] = ()
    patch_index: np.ndarray | None = None
    patch_value: np.ndarray | None = None
    walk_dtype: np.dtype | None = None


def _anchor_slices(shape: tuple[int, ...], stride: int) -> tuple[slice, ...]:
    return tuple(slice(0, n, stride) for n in shape)


def _check_max_level(max_level) -> int:
    """``max_level`` as a plain int, or :class:`CodecError`.

    Strides are ``2**max_level`` and the overflow guard works below
    ``2**62``, so anything outside ``[1, 62]`` — or not an integer at all:
    the value may come straight from container metadata — is refused
    before it sizes a shift or a slice.
    """
    if (isinstance(max_level, bool)
            or not isinstance(max_level, (int, np.integer))
            or not 1 <= max_level <= 62):
        raise CodecError(
            f"max_level must be an int in [1, 62], got {max_level!r}")
    return int(max_level)


def _schedule(shape: tuple[int, ...], max_level: int
              ) -> list[tuple[int, tuple[slice, ...], tuple[slice, ...]]]:
    """The deterministic batch schedule as ``(axis, known, targets)``.

    For a batch at ``(level, axis)`` with ``s = 2**level`` and ``h = s//2``
    the working grid is ``arr[::h on axes <= axis, ::s on axes > axis]``
    (axes before ``axis`` were refined first at this level).  Along
    ``axis`` the grid's even positions (``0::s`` of the array) are known
    and its odd positions (``h::s``) are the batch's targets; ``known``
    and ``targets`` are those two basic-slice index tuples.  Coarse levels
    first; batches without targets are omitted.
    """
    batches = []
    for level in range(max_level, 0, -1):
        s = 1 << level
        h = s >> 1
        for axis, n in enumerate(shape):
            if h >= n or 0 in shape:
                continue
            grid = [slice(0, None, h if a <= axis else s)
                    for a in range(len(shape))]
            known, targets = list(grid), list(grid)
            known[axis] = slice(0, None, s)
            targets[axis] = slice(h, None, s)
            batches.append((axis, tuple(known), tuple(targets)))
    return batches


def _slab_starts(shape: tuple[int, ...], h: int, slabbed: bool) -> range:
    """First axis-0 row of each slab of the level-``h`` grid, stepping by
    the slab height; one slab for the whole level unless ``slabbed``.

    The grid is ``arr[::h, ::h, ...]``; a 0-d field is one row.
    """
    rows = len(range(0, shape[0], h)) if shape else 1
    height = rows
    if slabbed:
        plane = math.prod(len(range(0, n, h)) for n in shape[1:])
        height = min(rows, _SLAB_ELEMS // max(plane, 1))
    return range(0, rows, max(height, 1))


def _reads(lo: int, hi: int, n_even: int) -> tuple[int, int]:
    """The known points ``[g0, g1)`` that targets ``[lo, hi)`` read."""
    return max(lo - 1, 0), min(hi + 2, n_even)


def _predict(known: np.ndarray, axis: int, lo: int, pred: np.ndarray,
             work: tuple[np.ndarray, ...], linear_only: bool = False) -> None:
    """Cubic/linear/nearest prediction of targets ``[lo, lo + m)`` of one
    batch along ``axis``, written into ``pred`` (``m = pred.shape[axis]``).

    Target ``k`` along ``axis`` lies between ``known[k]`` and
    ``known[k + 1]``; its far taps are ``known[k - 1]`` and
    ``known[k + 2]``.  ``known`` spans the batch's whole extent along
    ``axis``, so with its ``n_even`` points the split is the whole-batch
    one wherever the range falls: the cubic interior
    ``1 <= k <= n_even - 3``, the linear edges (``k = 0`` and
    ``k = n_even - 2``; every ``k < n_even - 1`` when there is no
    interior) and the nearest-left tail ``k = n_even - 1``, present when
    the last target has no right neighbour.  ``linear_only`` skips the
    cubic stencil — the alternative the dynamic mode chooses on
    non-smooth batches, where cubic overshoot hurts.

    The taps are read from ``g``, a contiguous copy of the points of
    ``known`` the range reads, so every tap is a shifted slice of ``g``
    and the cubic stencil runs as one flat pass over it: the taps of the
    point at flat position ``x`` sit at ``x - S``, ``x + S`` and
    ``x + 2S``, with ``S`` the flat step along ``axis``.  Positions whose
    taps straddle a row of the leading axes compute values nobody reads;
    only the interior is copied into ``pred``.  The first three buffers
    of ``work`` are flat scratch of ``known``'s dtype, each at least as
    long as ``g``;
    ``pred`` may be carved from the third, which holds ``9.0 * g`` until
    the first write to ``pred``.
    """
    n_even = known.shape[axis]
    hi = lo + pred.shape[axis]
    g0, g1 = _reads(lo, hi, n_even)
    lead = (slice(None),) * axis
    gshape = known.shape[:axis] + (g1 - g0,) + known.shape[axis + 1:]
    size = math.prod(gshape)
    flat_buf, cubic_buf, nine_buf = work[:3]
    flat = flat_buf[:size]
    g = flat.reshape(gshape)
    np.copyto(g, known[lead + (slice(g0, g1),)])

    def taps(a: int, b: int) -> tuple[slice, ...]:
        return lead + (slice(a - g0, b - g0),)

    def at(a: int, b: int) -> tuple[slice, ...]:
        return lead + (slice(a - lo, b - lo),)

    c0, c1 = max(lo, 1), min(hi, n_even - 2)
    linear = [(lo, min(hi, n_even - 1))]
    if not linear_only and c0 < c1:
        step = math.prod(gshape[axis + 1:])
        cubic, nine = cubic_buf[:size], nine_buf[:size]
        x0, x1 = step, size - 2 * step
        c = cubic[x0:x1]
        # (-fl + 9.0*l + 9.0*r - fr) / 16.0, left to right; IEEE negation
        # is exact, so 9.0*l - fl is -fl + 9.0*l bit for bit, and x / 16.0
        # and x * 0.0625 round the same real number.  (np.negative is best
        # avoided: NumPy 2.4.6 returns wrong values for a large-stride
        # input with a strided out=)
        np.multiply(flat, 9.0, out=nine)
        np.subtract(nine[x0:x1], flat[x0 - step:x1 - step], out=c)
        np.add(c, nine[x0 + step:x1 + step], out=c)
        np.subtract(c, flat[x0 + 2 * step:x1 + 2 * step], out=c)
        np.multiply(c, 0.0625, out=c)
        pred[at(c0, c1)] = cubic.reshape(gshape)[taps(c0, c1)]
        linear = [(lo, c0), (c1, min(hi, n_even - 1))]
    for a, b in linear:
        if a < b:
            p = pred[at(a, b)]
            np.add(g[taps(a, b)], g[taps(a + 1, b + 1)], out=p)
            np.multiply(p, 0.5, out=p)
    if lo <= n_even - 1 < hi:
        pred[at(n_even - 1, n_even)] = g[taps(n_even - 1, n_even)]


def _walk(recon: np.ndarray, stream: np.ndarray, batches: list,
          slabbed: bool, extra: tuple = ()):
    """Per slab piece of a batch: ``(batch number, axis, known view, lo,
    targets index, start, codes, pred, tmp, work)``.

    Levels run coarse to fine, each slab by slab along axis 0 (see
    :func:`_slab_starts`), and each slab runs the level's batches in
    schedule order over its rows ``[ja, jb)`` of the level grid: the
    axis-0 batch's targets ``[ja // 2, jb // 2)`` against its whole
    ``known`` view (``lo`` is the first of them), an axis-1 or axis-2
    batch's rows ``[ja, jb)`` of both views (``lo`` is 0).  ``targets``
    indexes the piece in the field and ``codes`` is its contiguous run of
    the flat ``stream``, which starts at ``start``.  ``work`` is
    :func:`_predict`'s three scratch buffers of ``recon``'s dtype, sized
    once for the largest piece and the largest range of ``known`` a piece
    reads; ``pred`` is carved from the last and ``tmp`` (free once
    ``pred`` is written) from the second, both C-contiguous and shaped
    like the piece, and the first is free once ``pred`` is written.
    ``extra`` appends one buffer of the same length per dtype it lists,
    which :func:`_predict` leaves alone.
    """
    shape = recon.shape
    levels: dict[int, list] = {}  # s -> the level's batches, coarse first
    pos = 0
    for b, (axis, known, targets) in enumerate(batches):
        tshape = recon[targets].shape
        levels.setdefault(known[axis].step, []).append(
            (b, axis, known, targets, tshape, pos))
        pos += math.prod(tshape)
    pieces = []
    biggest = 0
    for s, level in levels.items():
        h = s >> 1
        starts = _slab_starts(shape, h, slabbed)
        for ja in starts:
            jb = min(ja + starts.step, starts.stop)
            for b, axis, known, targets, tshape, base in level:
                r0, r1 = (ja // 2, jb // 2) if axis == 0 else (ja, jb)
                if r0 == r1:
                    continue
                row = math.prod(tshape[1:])
                t0 = targets[0]
                piece = (slice(t0.start + r0 * t0.step, t0.start + r1 * t0.step,
                               t0.step),) + targets[1:]
                if axis:
                    known, lo = (slice(r0 * h, r1 * h, h),) + known[1:], 0
                else:
                    lo = r0
                pshape = (r1 - r0,) + tshape[1:]
                kshape = recon[known].shape
                g0, g1 = _reads(lo, lo + pshape[axis], kshape[axis])
                biggest = max(biggest, (r1 - r0) * row,
                              math.prod(kshape) // kshape[axis] * (g1 - g0))
                pieces.append((b, axis, known, lo, piece, base + r0 * row,
                               base + r1 * row, pshape))
    work = tuple(np.empty(biggest, dtype=dt)
                 for dt in (recon.dtype,) * 3 + tuple(extra))
    for b, axis, known, lo, targets, start, end, pshape in pieces:
        yield (b, axis, recon[known], lo, targets, start,
               stream[start:end].reshape(pshape),
               work[2][:end - start].reshape(pshape),
               work[1][:end - start].reshape(pshape), work)


class _StencilOverflow(Exception):
    """The walk dtype cannot hold a prediction (it overflowed to inf/NaN)."""


def _walk_dtype(dtype: np.dtype) -> np.dtype:
    """The storage dtype when it is a float the walk runs in, else float64."""
    return dtype if dtype in (np.float32, np.float64) else np.dtype(np.float64)


def _code_dtypes(radius: int, walk: np.dtype) -> tuple[type, np.dtype]:
    """The dense code dtype for ``radius`` (as :func:`quantize.split_outliers`
    picks it) and the dtype, at least ``walk``, in which ``code ± radius``
    is exact."""
    if 2 * radius <= 65536:
        return np.uint16, walk
    return np.uint32, np.dtype(np.float64)


def _scaled_residual(true: np.ndarray, pred: np.ndarray, twoeb,
                     out: np.ndarray) -> np.ndarray:
    """``(true - pred) / twoeb`` into ``out`` (the walk dtype)."""
    np.subtract(true, pred, out=out)
    return np.divide(out, twoeb, out=out)


def _field_index(targets: tuple[slice, ...], hits: tuple[np.ndarray, ...],
                 shape: tuple[int, ...]) -> np.ndarray:
    """Flat C-order field indices of the piece positions ``hits``."""
    coords = tuple(t.start + i * t.step for t, i in zip(targets, hits))
    return np.ravel_multi_index(coords, shape).astype(np.int64)


def _sorted_pairs(index: list, value: list, dtype) -> tuple[np.ndarray,
                                                            np.ndarray]:
    """Concatenate per-piece ``(index, value)`` runs, sorted by index."""
    if not index:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=dtype)
    idx = np.concatenate(index)
    order = np.argsort(idx, kind="stable")
    return idx[order], np.concatenate(value)[order]


def compress(data: np.ndarray, eb_abs: float, radius: int = q.DEFAULT_RADIUS,
             max_level: int | None = None, dynamic: bool = False
             ) -> InterpResult:
    """Predict + quantise a field with multilevel interpolation.

    ``dynamic=True`` enables per-(level, axis) stencil selection (cubic vs
    linear, whichever quantises smaller residuals on that batch) — the
    dynamic-spline-interpolation idea of Zhao et al. [30] that SZ3 uses.
    The per-batch choices are recorded in the result and replayed by the
    decoder.  The walk runs in the field's dtype (see the module notes);
    every committed value that misses ``eb_abs`` becomes a patch.
    """
    if eb_abs <= 0 or not np.isfinite(eb_abs):
        raise CodecError(f"absolute error bound must be positive, got {eb_abs}")
    data = np.asarray(data)
    if max_level is None:
        max_level = default_max_level(data.ndim)
    max_level = _check_max_level(max_level)
    walk = _walk_dtype(data.dtype)
    # an overflow is caught where it shows, as a code that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return _compress(data, eb_abs, radius, max_level, dynamic, walk)
        except _StencilOverflow:
            if walk == np.float64:
                raise CodecError(
                    "interp prediction overflows float64") from None
            return _compress(data, eb_abs, radius, max_level, dynamic,
                             np.dtype(np.float64))


def _compress(data: np.ndarray, eb_abs: float, radius: int, max_level: int,
              dynamic: bool, walk: np.dtype) -> InterpResult:
    shape = data.shape
    twoeb = walk.type(2.0 * eb_abs)
    code_dtype, bias_dtype = _code_dtypes(radius, walk)
    batches = _schedule(shape, max_level)
    slabbed = data.ndim >= 2 and not dynamic
    finest = _slab_starts(shape, 1, slabbed)
    # the bound check runs in float64; a float64 walk reuses its own
    # product buffer for it, a float32 one needs a float64 buffer
    extra = (walk,) * dynamic + ((np.float64,) if walk != np.float64 else ())

    with span("kernel.interp.compress", elements=int(data.size),
              bytes_in=int(data.nbytes), levels=max_level,
              batches=len(batches), dynamic=bool(dynamic),
              slab_rows=finest.step, slabs=len(finest)) as kernel_sp:
        # the input is read through its own views: there is no
        # whole-field copy of it in the walk dtype
        recon = np.zeros(shape, dtype=walk)
        asl = _anchor_slices(shape, 1 << max_level)
        recon[asl] = data[asl]
        anchors = data[asl].reshape(-1).copy()

        dense = np.empty(data.size - anchors.size, dtype=code_dtype)
        choices: list[int] = []
        out_idx: list[np.ndarray] = []
        out_val: list[np.ndarray] = []
        patch_idx: list[np.ndarray] = []
        patch_val: list[np.ndarray] = []
        for _, axis, known, lo, targets, start, codes, pred, tmp, work in _walk(
                recon, dense, batches, slabbed, extra):
            true = data[targets]
            _predict(known, axis, lo, pred, work)
            if dynamic:
                lin = work[3][:pred.size].reshape(pred.shape)
                _predict(known, axis, lo, lin, work, linear_only=True)
                # pick the stencil whose quantised residuals are smaller in
                # total magnitude (a cheap proxy for entropy)
                cost = []
                for cand in (pred, lin):
                    np.rint(_scaled_residual(true, cand, twoeb, tmp), out=tmp)
                    cost.append(float(np.abs(tmp, out=tmp).sum(
                        dtype=np.float64)))
                choices.append(int(cost[1] < cost[0]))
                if choices[-1]:
                    pred = lin
            scaled = np.rint(_scaled_residual(true, pred, twoeb, tmp), out=tmp)
            top = max(float(scaled.max()), -float(scaled.min()))
            if not top < 2**62:
                if math.isfinite(top):
                    raise CodecError(
                        "error bound too tight: interp code overflows int64")
                raise _StencilOverflow
            # rint leaves -0.0; the decoder rebuilds every code from an
            # integer, so the sum below must see +0.0 on both sides
            np.add(scaled, 0.0, out=scaled)
            # commit in the walk dtype, the decoder's exact arithmetic
            prod = work[0][:pred.size].reshape(pred.shape)
            made = recon[targets]
            np.add(pred, np.multiply(scaled, twoeb, out=prod), out=made)
            if top >= radius:
                flat = scaled.reshape(-1)
                hit = np.flatnonzero((flat >= radius) | (flat < -radius))
                if hit.size:
                    out_idx.append(hit + start)
                    out_val.append(flat[hit].astype(np.int64))
                    flat[hit] = 0.0
            np.add(scaled, radius, out=codes, dtype=bias_dtype,
                   casting="unsafe")
            # the bound, where the value is made: in float64 on the value
            # the decoder emits, which is exact for float32 fields
            if made.dtype != data.dtype:
                made = made.astype(data.dtype)
            err = (work[-1] if walk != np.float64 else work[0])[:pred.size]
            err = err.reshape(pred.shape)
            np.subtract(true, made, out=err, dtype=np.float64)
            np.abs(err, out=err)
            if float(err.max()) > eb_abs:
                hits = np.nonzero(err > eb_abs)
                patch_idx.append(_field_index(targets, hits, shape))
                patch_val.append(true[hits])

        outliers = q.OutlierSet(*_sorted_pairs(out_idx, out_val, np.int64))
        pidx, pval = _sorted_pairs(patch_idx, patch_val, data.dtype)
        kernel_sp.set(bytes_out=int(dense.nbytes + anchors.nbytes
                                    + pidx.nbytes + pval.nbytes),
                      outliers=outliers.count, patches=int(pidx.size))
        return InterpResult(codes=dense, outliers=outliers, anchors=anchors,
                            radius=radius, eb_abs=float(eb_abs),
                            max_level=max_level, shape=shape,
                            dtype=data.dtype, choices=tuple(choices),
                            patch_index=pidx, patch_value=pval,
                            walk_dtype=walk)


def _check_increasing(idx: np.ndarray, n: int, what: str) -> None:
    """:class:`CodecError` unless ``idx`` is a 1-D integer array of
    strictly increasing positions in ``[0, n)``."""
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise CodecError(f"interp {what} indices must be a 1-D integer "
                         f"array, got {idx.dtype}")
    if idx.size and (int(idx[0]) < 0 or int(idx[-1]) >= n
                     or bool((idx[1:] <= idx[:-1]).any())):
        raise CodecError(f"interp {what} indices must be increasing "
                         f"positions in [0, {n})")


def _checked_patches(result: InterpResult, size: int, dtype: np.dtype
                     ) -> tuple[np.ndarray, np.ndarray] | None:
    """The patch arrays, refused unless they pair up one strictly
    increasing field index with one value of the field's dtype."""
    idx, val = result.patch_index, result.patch_value
    if idx is None and val is None:
        return None
    if idx is None or val is None or val.shape != idx.shape:
        raise CodecError("interp patch indices and values do not pair up")
    if val.dtype != dtype:
        raise CodecError(f"interp patch values must be {dtype}, "
                         f"got {val.dtype}")
    _check_increasing(idx, size, "patch")
    return (idx, val) if idx.size else None


def decompress(result: InterpResult, *,
               out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct the field from interpolation artifacts.

    Replays the exact slab walk of :func:`compress` in the same dtype and
    arithmetic, so the walk is bit-identical to the compressor's internal
    state, then writes the patches over it.  ``out``, ``max_level``, the
    anchor count, the stream length, the number of ``choices``, the
    outlier indices and the patches are checked against ``shape`` before
    anything is sized or written — they may come straight from container
    metadata.  ``out`` (when given: C-contiguous, writable, of the
    field's shape and dtype) receives the reconstruction and is returned.
    """
    shape = tuple(result.shape)
    dtype = np.dtype(result.dtype)
    if out is not None:
        if out.shape != shape or out.dtype != dtype:
            raise CodecError(
                f"out= has shape {out.shape}/{out.dtype}, reconstruction "
                f"needs {shape}/{dtype}")
        if not out.flags.writeable:
            raise CodecError("out= buffer is not writable")
        if not out.flags.c_contiguous:
            raise CodecError("out= buffer is not C-contiguous")
    walk = (_walk_dtype(dtype) if result.walk_dtype is None
            else np.dtype(result.walk_dtype))
    if walk not in (np.float32, np.float64):
        raise CodecError(f"interp walk dtype must be float32 or float64, "
                         f"got {walk}")
    max_level = _check_max_level(result.max_level)
    stride = 1 << max_level
    twoeb = walk.type(2.0 * result.eb_abs)
    anchor_shape = tuple(len(range(0, n, stride)) for n in shape)
    if result.anchors.size != math.prod(anchor_shape):
        raise CodecError(
            f"interp anchor count mismatch: shape {shape} at max_level "
            f"{max_level} has {math.prod(anchor_shape)} anchors, got "
            f"{result.anchors.size}")
    needed = math.prod(shape) - result.anchors.size
    if result.codes.size != needed:
        raise CodecError(f"interp stream length mismatch: schedule needs "
                         f"{needed}, stream has {result.codes.size}")
    batches = _schedule(shape, max_level)
    choices = result.choices or (0,) * len(batches)
    if len(choices) != len(batches):
        raise CodecError(f"interp choices mismatch: {len(batches)} batches, "
                         f"{len(choices)} choices")
    outliers = result.outliers
    _check_increasing(outliers.indices, needed, "outlier")
    patches = _checked_patches(result, math.prod(shape), dtype)
    _, bias_dtype = _code_dtypes(result.radius, walk)
    slabbed = len(shape) >= 2 and not result.choices
    finest = _slab_starts(shape, 1, slabbed)
    with span("kernel.interp.decompress", elements=math.prod(shape),
              bytes_in=int(result.codes.nbytes + result.anchors.nbytes),
              levels=max_level, batches=len(batches),
              dynamic=bool(result.choices), slab_rows=finest.step,
              slabs=len(finest), outliers=outliers.count,
              patches=0 if patches is None else int(patches[0].size)):
        if walk != dtype:
            recon = np.empty(shape, dtype=walk)
        elif out is None:
            recon = out = np.empty(shape, dtype=dtype)
        else:
            recon = out
        recon[_anchor_slices(shape, stride)] = result.anchors.reshape(anchor_shape)

        oidx, oval = outliers.indices, outliers.values
        for b, axis, known, lo, targets, start, codes, pred, tmp, work in _walk(
                recon, result.codes.reshape(-1), batches, slabbed):
            _predict(known, axis, lo, pred, work, linear_only=choices[b] == 1)
            np.subtract(codes, result.radius, out=tmp, dtype=bias_dtype,
                        casting="unsafe")
            if oidx.size:
                i0, i1 = np.searchsorted(oidx, (start, start + pred.size))
                if i1 > i0:
                    tmp.reshape(-1)[oidx[i0:i1] - start] = oval[i0:i1]
            prod = work[0][:pred.size].reshape(pred.shape)
            np.add(pred, np.multiply(tmp, twoeb, out=prod), out=recon[targets])
        if out is None:
            out = recon.astype(dtype)
        elif recon is not out:
            np.copyto(out, recon, casting="unsafe")
        if patches is not None:
            out.reshape(-1)[patches[0]] = patches[1]
        return out
