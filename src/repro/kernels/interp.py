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
#: per axis-0 row)`` rows of the level's grid, so its float64 rows and the
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
    exact same choices.
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
    of ``work`` are flat float64 scratch, each at least as long as ``g``;
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
          slabbed: bool, spare: bool = False):
    """Per slab piece of a batch: ``(batch number, axis, known view, lo,
    targets index, codes, pred, tmp, work)``.

    Levels run coarse to fine, each slab by slab along axis 0 (see
    :func:`_slab_starts`), and each slab runs the level's batches in
    schedule order over its rows ``[ja, jb)`` of the level grid: the
    axis-0 batch's targets ``[ja // 2, jb // 2)`` against its whole
    ``known`` view (``lo`` is the first of them), an axis-1 or axis-2
    batch's rows ``[ja, jb)`` of both views (``lo`` is 0).  ``targets``
    indexes the piece in the field and ``codes`` is its contiguous run of
    the flat ``stream``.  ``work`` is :func:`_predict`'s three float64
    scratch buffers, sized once for the largest piece and the largest
    range of ``known`` a piece reads; ``pred`` is carved from the last
    and ``tmp`` (free once ``pred`` is written) from the second, both
    C-contiguous and shaped like the piece.  ``spare`` adds a fourth
    buffer of the same size to ``work``, which :func:`_predict` leaves
    alone.
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
    work = tuple(np.empty(biggest, dtype=np.float64)
                 for _ in range(4 if spare else 3))
    for b, axis, known, lo, targets, start, end, pshape in pieces:
        yield (b, axis, recon[known], lo, targets,
               stream[start:end].reshape(pshape),
               work[2][:end - start].reshape(pshape),
               work[1][:end - start].reshape(pshape), work)


def _scaled_residual(true: np.ndarray, pred: np.ndarray, twoeb: float,
                     out: np.ndarray) -> np.ndarray:
    """``(true - pred) / twoeb`` into ``out`` (float64)."""
    np.subtract(true, pred, out=out)
    return np.divide(out, twoeb, out=out)


def compress(data: np.ndarray, eb_abs: float, radius: int = q.DEFAULT_RADIUS,
             max_level: int | None = None, dynamic: bool = False
             ) -> InterpResult:
    """Predict + quantise a field with multilevel interpolation.

    ``dynamic=True`` enables per-(level, axis) stencil selection (cubic vs
    linear, whichever quantises smaller residuals on that batch) — the
    dynamic-spline-interpolation idea of Zhao et al. [30] that SZ3 uses.
    The per-batch choices are recorded in the result and replayed by the
    decoder.
    """
    if eb_abs <= 0 or not np.isfinite(eb_abs):
        raise CodecError(f"absolute error bound must be positive, got {eb_abs}")
    data = np.asarray(data)
    shape = data.shape
    if max_level is None:
        max_level = default_max_level(data.ndim)
    max_level = _check_max_level(max_level)
    twoeb = 2.0 * eb_abs
    batches = _schedule(shape, max_level)
    slabbed = data.ndim >= 2 and not dynamic
    finest = _slab_starts(shape, 1, slabbed)

    with span("kernel.interp.compress", elements=int(data.size),
              bytes_in=int(data.nbytes), levels=max_level,
              batches=len(batches), dynamic=bool(dynamic),
              slab_rows=finest.step, slabs=len(finest)) as kernel_sp:
        # the input is read through its own views: float32 widens exactly
        # inside the ufuncs, so there is no whole-field float64 copy
        recon = np.zeros(shape, dtype=np.float64)
        asl = _anchor_slices(shape, 1 << max_level)
        recon[asl] = data[asl]
        anchors = data[asl].reshape(-1).copy()

        stream = np.empty(data.size - anchors.size, dtype=np.int64)
        choices: list[int] = []
        for _, axis, known, lo, targets, codes, pred, tmp, work in _walk(
                recon, stream, batches, slabbed, spare=dynamic):
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
                    cost.append(float(np.abs(tmp, out=tmp).sum()))
                choices.append(int(cost[1] < cost[0]))
                if choices[-1]:
                    pred = lin
            scaled = _scaled_residual(true, pred, twoeb, tmp)
            if max(float(scaled.max()), -float(scaled.min())) >= 2**62:
                raise CodecError("error bound too tight: interp code overflows int64")
            np.copyto(codes, np.rint(scaled, out=scaled), casting="unsafe")
            np.add(pred, np.multiply(codes, twoeb, out=tmp), out=recon[targets])

        dense, outliers = q.split_outliers(stream, radius, in_place=True)
        kernel_sp.set(bytes_out=int(dense.nbytes + anchors.nbytes))
        return InterpResult(codes=dense, outliers=outliers, anchors=anchors,
                            radius=radius, eb_abs=float(eb_abs), max_level=max_level,
                            shape=shape, dtype=data.dtype,
                            choices=tuple(choices))


def decompress(result: InterpResult, *,
               out: np.ndarray | None = None) -> np.ndarray:
    """Reconstruct the field from interpolation artifacts.

    Replays the exact slab walk of :func:`compress`, consuming the code
    stream in order; float64 arithmetic matches the compressor so the
    reconstruction is bit-identical to the compressor's internal state.
    ``out``, ``max_level``, the anchor count, the stream length and the
    number of ``choices`` are checked against ``shape`` before anything
    is sized or written — they may come straight from container metadata.
    ``out`` (when given: C-contiguous, writable, of the field's shape and
    dtype) receives the final dtype cast in place and is returned.
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
    max_level = _check_max_level(result.max_level)
    stride = 1 << max_level
    twoeb = 2.0 * result.eb_abs
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
    slabbed = len(shape) >= 2 and not result.choices
    finest = _slab_starts(shape, 1, slabbed)
    with span("kernel.interp.decompress", elements=math.prod(shape),
              bytes_in=int(result.codes.nbytes + result.anchors.nbytes),
              levels=max_level, batches=len(batches),
              dynamic=bool(result.choices), slab_rows=finest.step,
              slabs=len(finest)):
        stream = q.merge_outliers(result.codes, result.outliers, result.radius).reshape(-1)

        recon = np.zeros(shape, dtype=np.float64)
        recon[_anchor_slices(shape, stride)] = result.anchors.reshape(anchor_shape)

        for b, axis, known, lo, targets, codes, pred, tmp, work in _walk(
                recon, stream, batches, slabbed):
            _predict(known, axis, lo, pred, work, linear_only=choices[b] == 1)
            np.add(pred, np.multiply(codes, twoeb, out=tmp), out=recon[targets])
        if out is None:
            return recon.astype(dtype, copy=False)
        np.copyto(out, recon, casting="unsafe")
        return out
