"""Tests for the G-Interp multilevel interpolation predictor."""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.kernels import interp
from repro.kernels import quantize as q
from repro.obs.spans import GLOBAL_TRACER, set_telemetry
from tests.conftest import eb_abs_for


# ---------------------------------------------------------------------- #
# The kernel this module replaced: coordinate vectors per batch, every    #
# tap / read / commit an ``np.ix_`` gather or scatter with clip + where   #
# masks, here in the storage-dtype arithmetic (the walk, its codes and    #
# its commits in the field's dtype, the bound checked in float64 after    #
# the walk).  Kept as the byte-identity reference for the strided-view    #
# slab kernel.                                                            #
# ---------------------------------------------------------------------- #
def _reference_batches(shape, max_level):
    for level in range(max_level, 0, -1):
        s = 1 << level
        h = s >> 1
        for axis in range(len(shape)):
            coords = [np.arange(h if a == axis else 0, n,
                                h if a < axis else s, dtype=np.int64)
                      for a, n in enumerate(shape)]
            if all(c.size for c in coords):
                yield level, axis, coords


def _reference_predict(recon, axis, coords, h, linear_only=False):
    n = recon.shape[axis]
    c = coords[axis]

    def tap(offset):
        ix = list(coords)
        ix[axis] = np.clip(c + offset, 0, n - 1)
        return recon[np.ix_(*ix)]

    left = tap(-h)
    right = tap(+h)
    lin = 0.5 * (left + right)
    bshape = [1] * recon.ndim
    bshape[axis] = c.size
    has_right = (c + h <= n - 1).reshape(bshape)
    pred = np.where(has_right, lin, left)
    if linear_only:
        return pred
    has_cubic = ((c - 3 * h >= 0) & (c + 3 * h <= n - 1)).reshape(bshape)
    if bool(has_cubic.any()):
        far_l = tap(-3 * h)
        far_r = tap(+3 * h)
        cubic = (-far_l + 9.0 * left + 9.0 * right - far_r) / 16.0
        pred = np.where(has_cubic, cubic, pred)
    return pred


def _reference_compress(data, eb_abs, radius, max_level, dynamic,
                        walk=None):
    """``(codes, outliers, anchors, choices, patch index, patch value)``
    of the ``np.ix_`` kernel walking in ``walk`` (the field's dtype)."""
    walk = np.dtype(walk or data.dtype)
    twoeb = walk.type(2.0 * eb_abs)
    recon = np.zeros(data.shape, dtype=walk)
    asl = tuple(slice(0, n, 1 << max_level) for n in data.shape)
    recon[asl] = data[asl]
    anchors = data[asl].reshape(-1).copy()
    code_batches = []
    choices = []
    for level, axis, coords in _reference_batches(data.shape, max_level):
        h = 1 << (level - 1)
        true = data[np.ix_(*coords)]
        pred = _reference_predict(recon, axis, coords, h)
        if dynamic:
            pred_lin = _reference_predict(recon, axis, coords, h,
                                          linear_only=True)
            cost_cubic = float(np.abs(np.rint((true - pred) / twoeb))
                               .sum(dtype=np.float64))
            cost_lin = float(np.abs(np.rint((true - pred_lin) / twoeb))
                             .sum(dtype=np.float64))
            if cost_lin < cost_cubic:
                pred = pred_lin
                choices.append(1)
            else:
                choices.append(0)
        codes = np.rint((true - pred) / twoeb).astype(np.int64)
        recon[np.ix_(*coords)] = pred + codes.astype(walk) * twoeb
        code_batches.append(codes.reshape(-1))
    stream = (np.concatenate(code_batches) if code_batches
              else np.zeros(0, dtype=np.int64))
    dense, outliers = q.split_outliers(stream, radius)
    flat = data.reshape(-1)
    made = recon.astype(data.dtype).reshape(-1)
    hit = np.flatnonzero(np.abs(flat.astype(np.float64)
                                - made.astype(np.float64)) > eb_abs)
    return dense, outliers, anchors, tuple(choices), hit, flat[hit]


def _reference_decompress(result):
    walk = np.dtype(result.walk_dtype or result.dtype)
    twoeb = walk.type(2.0 * result.eb_abs)
    stride = 1 << result.max_level
    stream = q.merge_outliers(result.codes, result.outliers,
                              result.radius).reshape(-1)
    recon = np.zeros(result.shape, dtype=walk)
    asl = tuple(slice(0, n, stride) for n in result.shape)
    recon[asl] = result.anchors.reshape(recon[asl].shape)
    pos = 0
    for batch_no, (level, axis, coords) in enumerate(
            _reference_batches(result.shape, result.max_level)):
        pred = _reference_predict(
            recon, axis, coords, 1 << (level - 1),
            linear_only=bool(result.choices and result.choices[batch_no] == 1))
        codes = stream[pos:pos + pred.size].reshape(pred.shape)
        pos += pred.size
        recon[np.ix_(*coords)] = pred + codes.astype(walk) * twoeb
    assert pos == stream.size
    out = recon.astype(result.dtype)
    if result.patch_index is not None:
        out.reshape(-1)[result.patch_index] = result.patch_value
    return out


#: extents 1..40 with the powers of two and their neighbours drawn often
_EXTENTS = st.one_of(st.integers(1, 40),
                     st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                                      31, 32, 33]))


@st.composite
def _fields(draw):
    """A field in one of three memory layouts, plus kernel arguments."""
    shape = tuple(draw(st.lists(_EXTENTS, min_size=1, max_size=3)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    base = rng.standard_normal(shape)
    if draw(st.booleans()):
        base = np.cumsum(base, axis=0)
    base = (base * draw(st.sampled_from([1e-3, 1.0, 1e4]))).astype(dtype)
    layout = draw(st.sampled_from(["c", "transposed", "reversed"]))
    if layout == "transposed":
        data = base.T
    elif layout == "reversed":
        data = base[(slice(None, None, -1),) * base.ndim]
    else:
        data = base
    max_level = draw(st.integers(1, interp.default_max_level(data.ndim)))
    eb = float(np.ptp(base) or 1.0) * draw(st.sampled_from([1e-1, 1e-3, 1e-6]))
    radius = draw(st.sampled_from([512, 1 << 15, 4]))
    return data, eb, radius, max_level, draw(st.booleans())


class TestMatchesIndexGatherReference:
    """Byte identity with the ``np.ix_`` kernel, in both directions."""

    @given(_fields())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_artifacts_and_reconstruction_identical(self, case):
        data, eb, radius, max_level, dynamic = case
        res = interp.compress(data, eb, radius, max_level=max_level,
                              dynamic=dynamic)
        codes, outliers, anchors, choices, pidx, pval = _reference_compress(
            data, eb, radius, max_level, dynamic)
        assert res.codes.dtype == codes.dtype
        np.testing.assert_array_equal(res.codes, codes)
        np.testing.assert_array_equal(res.outliers.indices, outliers.indices)
        np.testing.assert_array_equal(res.outliers.values, outliers.values)
        assert res.anchors.dtype == anchors.dtype
        assert res.anchors.tobytes() == anchors.tobytes()
        assert res.choices == choices
        assert res.patch_index.dtype == np.int64
        np.testing.assert_array_equal(res.patch_index, pidx)
        assert res.patch_value.tobytes() == pval.tobytes()
        assert (res.shape, res.dtype, res.max_level, res.walk_dtype) == (
            data.shape, data.dtype, max_level, data.dtype)
        want = _reference_decompress(res)
        got = interp.decompress(res)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        out = np.empty(data.shape, dtype=data.dtype)
        assert interp.decompress(res, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert np.abs(data.astype(np.float64) - got).max() <= eb

    @pytest.mark.parametrize("shape", [(1,), (2,), (1, 1, 1), (1, 9, 1),
                                       (257,), (40, 1), (33, 32, 31)])
    def test_default_level_shapes(self, rng, shape, dtype):
        data = rng.standard_normal(shape).astype(dtype)
        max_level = interp.default_max_level(len(shape))
        res = interp.compress(data, 1e-2)
        codes, outliers, anchors, _, pidx, _ = _reference_compress(
            data, 1e-2, q.DEFAULT_RADIUS, max_level, False)
        np.testing.assert_array_equal(res.codes, codes)
        np.testing.assert_array_equal(res.outliers.indices, outliers.indices)
        np.testing.assert_array_equal(res.patch_index, pidx)
        assert res.anchors.tobytes() == anchors.tobytes()
        assert (interp.decompress(res).tobytes()
                == _reference_decompress(res).tobytes())

    def test_float64_reconstruction_is_not_copied_again(self, smooth_2d):
        """float64 fields come back as the working buffer itself."""
        data = smooth_2d.astype(np.float64)
        got = interp.decompress(interp.compress(data, 1e-3))
        assert got.dtype == np.float64 and got.base is None
        assert got.flags.c_contiguous and got.flags.writeable


def _integer_field() -> np.ndarray:
    """A 23 x 19 x 17 float64 field from integer arithmetic only, the same
    on every platform."""
    z, y, x = np.mgrid[0:23, 0:19, 0:17].astype(np.int64)
    v = (3 * (x - 9) ** 2 + 2 * (y - 8) ** 2 - (z - 7) ** 2
         + (x * 7 + y * 13 + z * 5) % 17)
    return v.astype(np.float64) / 64.0


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


#: sha256 of (codes, outlier indices, outlier values) and of the
#: reconstruction the float64 walk of commit de90049 gave for
#: :func:`_integer_field` at ``(relative eb, radius, dynamic)``
_FLOAT64_DIGESTS = {
    (1e-3, 512, False): (
        "a7c4c537666c916ef1813d7b50849298226ce1c2ecfde354d04c61816ad9a779",
        "638f00c191c573033dfe5c28b161bc87fb2c7c0cbb85be95d40327d2ef0c5a84"),
    (1e-4, 4, True): (
        "f99d933e96480c1ce095f18ca5bf1b0e3b6a79a06a95a245904024709a621916",
        "44ef5eaef3eea556acc8e70102f4c054dd07ca86c287a4b9eff45a694a0f8e06"),
}


class TestFloat64Fields:
    """A float64 field's storage dtype is the old walk dtype: the codes,
    the outliers and the walk are the old kernel's bit for bit, and the
    patches replace exactly the points where that walk missed the bound
    (one point of the static case did, by 3e-15 of eb)."""

    @pytest.mark.parametrize("rel,radius,dynamic", sorted(_FLOAT64_DIGESTS))
    def test_codes_outliers_and_walk_are_the_old_kernels(self, rel, radius,
                                                         dynamic):
        x = _integer_field()
        eb = rel * float(np.ptp(x))
        res = interp.compress(x, eb, radius, dynamic=dynamic)
        codes, walked = _FLOAT64_DIGESTS[rel, radius, dynamic]
        assert _digest(res.codes, res.outliers.indices,
                       res.outliers.values) == codes
        bare = interp.decompress(dataclasses.replace(
            res, patch_index=None, patch_value=None))
        assert _digest(bare) == walked
        got = interp.decompress(res)
        keep = np.ones(x.size, dtype=bool)
        keep[res.patch_index] = False
        assert got.reshape(-1)[keep].tobytes() == \
            bare.reshape(-1)[keep].tobytes()
        assert got.reshape(-1)[res.patch_index].tobytes() == \
            x.reshape(-1)[res.patch_index].tobytes()
        assert np.abs(x - got).max() <= eb
        assert res.patch_index.size == (1 if not dynamic else 0)


class TestStencilOverflow:
    """A float32 field whose stencil overflows float32 (``9.0 * l`` past
    the dtype's limit) is compressed on the float64 walk instead."""

    def test_float32_near_its_limit_walks_in_float64(self, rng):
        big = float(np.finfo(np.float32).max)
        data = (rng.uniform(0.6, 0.9, (33, 40)) * big).astype(np.float32)
        eb = eb_abs_for(data, 1e-3)
        res = interp.compress(data, eb)
        assert res.walk_dtype == np.float64
        codes, outliers, _, _, pidx, pval = _reference_compress(
            data, eb, q.DEFAULT_RADIUS, res.max_level, False,
            walk=np.float64)
        np.testing.assert_array_equal(res.codes, codes)
        np.testing.assert_array_equal(res.outliers.indices, outliers.indices)
        np.testing.assert_array_equal(res.patch_index, pidx)
        assert res.patch_value.tobytes() == pval.tobytes()
        got = interp.decompress(res)
        assert got.tobytes() == _reference_decompress(res).tobytes()
        assert np.abs(data.astype(np.float64) - got).max() <= eb


class TestSpans:
    def test_kernel_spans_count_outliers_and_patches(self):
        x = _integer_field()
        eb = 1e-3 * float(np.ptp(x))
        prev = set_telemetry(True)
        try:
            with GLOBAL_TRACER.capture() as buf:
                res = interp.compress(x, eb, 4)
                interp.decompress(res)
        finally:
            set_telemetry(prev)
        spans = {r.name: r.attrs for r in buf}
        assert res.outliers.count > 0 and res.patch_index.size > 0
        for name in ("kernel.interp.compress", "kernel.interp.decompress"):
            assert spans[name]["outliers"] == res.outliers.count
            assert spans[name]["patches"] == res.patch_index.size


class TestBatchSchedule:
    @pytest.mark.parametrize("shape", [(33,), (17, 12), (9, 10, 11), (8, 8),
                                       (1, 5), (257,)])
    def test_every_point_covered_exactly_once(self, shape):
        """Anchors + all batch target views must partition the index set."""
        max_level = interp.default_max_level(len(shape))
        seen = np.zeros(shape, dtype=np.int64)
        seen[interp._anchor_slices(shape, 1 << max_level)] += 1
        for _axis, _known, targets in interp._schedule(shape, max_level):
            assert seen[targets].size
            seen[targets] += 1
        np.testing.assert_array_equal(seen, np.ones(shape, dtype=np.int64))

    def test_batches_consume_known_neighbors_only(self):
        """Every tap is a slice of the batch's ``known`` view, and that view
        never holds a target of the same or a later batch."""
        shape, max_level = (33, 17, 9), 4
        never = 1 << 30
        written_by = np.full(shape, never, dtype=np.int64)
        written_by[interp._anchor_slices(shape, 1 << max_level)] = -1
        schedule = interp._schedule(shape, max_level)
        for batch_no, (axis, known, targets) in enumerate(schedule):
            assert written_by[known].max() < batch_no
            assert written_by[targets].min() == never
            # targets interleave the known points along ``axis`` only
            n_even = written_by[known].shape[axis]
            n_odd = written_by[targets].shape[axis]
            assert n_odd in (n_even, n_even - 1)
            written_by[targets] = batch_no
        assert written_by.max() < len(schedule)
        assert schedule == interp._schedule(shape, max_level)


def _assert_matches_reference(data, eb, max_level, dynamic=False):
    radius = q.DEFAULT_RADIUS
    res = interp.compress(data, eb, radius, max_level=max_level,
                          dynamic=dynamic)
    codes, outliers, anchors, choices, pidx, pval = _reference_compress(
        data, eb, radius, max_level, dynamic)
    np.testing.assert_array_equal(res.codes, codes)
    np.testing.assert_array_equal(res.outliers.indices, outliers.indices)
    np.testing.assert_array_equal(res.outliers.values, outliers.values)
    np.testing.assert_array_equal(res.patch_index, pidx)
    assert res.patch_value.tobytes() == pval.tobytes()
    assert res.anchors.tobytes() == anchors.tobytes()
    assert res.choices == choices
    want = _reference_decompress(res).tobytes()
    assert interp.decompress(res).tobytes() == want
    out = np.empty(data.shape, dtype=data.dtype)
    assert interp.decompress(res, out=out).tobytes() == want


class TestSlabWalk:
    """The fine levels run slab by slab along axis 0; the seams between
    slabs must not show in the codes, the outliers or the reconstruction."""

    @staticmethod
    def _field(rng, shape):
        return np.cumsum(rng.standard_normal(shape), axis=0).astype(np.float32)

    @pytest.mark.parametrize("shape,slab_elems,height", [
        ((37, 12, 10), 480, 4),      # 37 rows: the last slab has 1 row
        ((23, 9, 14), 3 * 126, 3),   # odd height: slabs start on odd rows
        ((47, 33), 5 * 33, 5),       # 2-D
    ])
    def test_rows_not_a_multiple_of_the_slab_height(
            self, rng, monkeypatch, shape, slab_elems, height):
        monkeypatch.setattr(interp, "_SLAB_ELEMS", slab_elems)
        finest = interp._slab_starts(shape, 1, True)
        assert finest.step == height and shape[0] % height
        data = self._field(rng, shape)
        _assert_matches_reference(data, eb_abs_for(data, 1e-3),
                                  interp.default_max_level(len(shape)))

    def test_rows_fewer_than_one_slab(self, rng):
        shape = (3, 20, 20)
        finest = interp._slab_starts(shape, 1, True)
        assert (finest.step, len(finest)) == (3, 1)
        data = self._field(rng, shape)
        _assert_matches_reference(data, eb_abs_for(data, 1e-3), 4)

    @pytest.mark.parametrize("shape", [(9, 17, 13), (13, 70)])
    def test_plane_larger_than_a_slab_gives_one_row_slabs(
            self, rng, monkeypatch, shape):
        monkeypatch.setattr(interp, "_SLAB_ELEMS", 64)
        assert math.prod(shape[1:]) > interp._SLAB_ELEMS
        assert interp._slab_starts(shape, 1, True).step == 1
        data = self._field(rng, shape)
        for rel in (1e-2, 1e-5):
            _assert_matches_reference(data, eb_abs_for(data, rel),
                                      interp.default_max_level(len(shape)))

    def test_default_slab_size_on_a_slabbed_field(self, rng):
        """At the shipped ``_SLAB_ELEMS`` the finest level of a
        128 x 128-plane field runs in more than one slab."""
        shape = (11, 128, 128)
        finest = interp._slab_starts(shape, 1, True)
        assert len(finest) > 1 and shape[0] % finest.step
        data = self._field(rng, shape)
        _assert_matches_reference(data, eb_abs_for(data, 1e-4), 4)

    def test_1d_and_dynamic_run_as_one_slab(self, rng, monkeypatch):
        monkeypatch.setattr(interp, "_SLAB_ELEMS", 8)
        assert len(interp._slab_starts((300,), 1, False)) == 1
        assert len(interp._slab_starts((21, 10, 12), 1, False)) == 1
        data = self._field(rng, (300,))
        _assert_matches_reference(data, eb_abs_for(data, 1e-3), 8)
        data = rng.standard_normal((21, 10, 12)).astype(np.float32)
        _assert_matches_reference(data, eb_abs_for(data, 1e-4), 4,
                                  dynamic=True)

    def test_pieces_tile_each_batch_and_the_stream(self, monkeypatch):
        """Every slab piece is a run of its batch's codes: the pieces of a
        batch are contiguous, in order, and cover the stream once."""
        monkeypatch.setattr(interp, "_SLAB_ELEMS", 100)
        shape = (19, 11, 9)
        batches = interp._schedule(shape, 4)
        recon = np.zeros(shape, dtype=np.float32)
        stream = np.arange(recon.size - recon[::16, ::16, ::16].size)
        seen = np.zeros(shape, dtype=np.int64)
        ends = {}
        for (b, _axis, _known, _lo, targets, start, codes, pred, tmp,
             work) in interp._walk(recon, stream, batches, True):
            assert codes.shape == pred.shape == recon[targets].shape
            assert pred.dtype == tmp.dtype == np.float32
            assert all(w.dtype == np.float32 for w in work)
            first = int(codes.reshape(-1)[0])
            assert first == start
            assert ends.get(b, first) == first
            ends[b] = int(codes.reshape(-1)[-1]) + 1
            seen[targets] += 1
        assert max(ends.values()) == stream.size
        assert seen.sum() == stream.size and seen.max() == 1


class TestPredictWorkaround:
    """``_predict`` forms ``-fl + 9.0*l`` as ``9.0*l - fl``: NumPy 2.4.6's
    ``np.negative`` returns wrong values for a large-stride input with a
    strided ``out=``, e.g. ``np.negative(np.arange(64.)[::8][:5],
    out=np.zeros(64)[::2][:5])`` gives ``-0, -1, -2, ...``.  The
    workaround must stay bit for bit the scalar stencil, in the walk's
    own dtype, on the strided slab views the walk hands out."""

    @staticmethod
    def _scalar(known, axis, k, rest, n_even, linear_only):
        # NumPy scalars of the walk dtype: every operation rounds to it
        def at(i):
            return known[rest[:axis] + (i,) + rest[axis:]]
        if not linear_only and 1 <= k <= n_even - 3:
            return (-at(k - 1) + 9.0 * at(k) + 9.0 * at(k + 1)
                    - at(k + 2)) / 16.0
        if k <= n_even - 2:
            return (at(k) + at(k + 1)) * 0.5
        return at(k)

    @pytest.mark.parametrize("linear_only", [False, True])
    def test_matches_scalar_stencil_on_slab_views(self, monkeypatch,
                                                  linear_only):
        monkeypatch.setattr(interp, "_SLAB_ELEMS", 64)
        shape = (27, 24, 22)
        for dtype in (np.float32, np.float64):
            recon = (np.random.default_rng(5).standard_normal(shape)
                     * 1e3).astype(dtype)
            stream = np.empty(recon.size, dtype=np.uint16)
            batches = interp._schedule(shape, 4)
            checked = 0
            for (_b, axis, known, lo, _t, _start, _codes, pred, _tmp,
                 work) in interp._walk(recon, stream, batches, True):
                pred.fill(np.nan)
                interp._predict(known, axis, lo, pred, work, linear_only)
                n_even = known.shape[axis]
                for ix in np.ndindex(pred.shape):
                    rest = ix[:axis] + ix[axis + 1:]
                    want = self._scalar(known, axis, lo + ix[axis], rest,
                                        n_even, linear_only)
                    assert want.dtype == dtype
                    assert pred[ix].tobytes() == want.tobytes()
                checked += pred.size
            assert checked == recon.size - recon[::16, ::16, ::16].size


class TestRoundTrip:
    @pytest.mark.parametrize("rel", [1e-2, 1e-3, 1e-5])
    def test_error_bound_2d(self, smooth_2d, rel):
        eb = eb_abs_for(smooth_2d, rel)
        res = interp.compress(smooth_2d, eb)
        recon = interp.decompress(res)
        assert np.abs(smooth_2d.astype(np.float64)
                      - recon.astype(np.float64)).max() <= eb

    def test_1d(self, smooth_1d):
        eb = eb_abs_for(smooth_1d, 1e-4)
        recon = interp.decompress(interp.compress(smooth_1d, eb))
        assert np.abs(smooth_1d.astype(np.float64)
                      - recon.astype(np.float64)).max() <= eb

    def test_3d(self, smooth_3d):
        eb = eb_abs_for(smooth_3d, 1e-3)
        recon = interp.decompress(interp.compress(smooth_3d, eb))
        assert np.abs(smooth_3d - recon).max() <= eb

    def test_noisy(self, noisy_2d):
        eb = eb_abs_for(noisy_2d, 1e-3)
        recon = interp.decompress(interp.compress(noisy_2d, eb))
        assert np.abs(noisy_2d.astype(np.float64)
                      - recon.astype(np.float64)).max() <= eb

    @pytest.mark.parametrize("shape", [(8,), (9,), (31,), (32,), (33,),
                                       (5, 5), (16, 17), (7, 8, 9)])
    def test_awkward_shapes(self, rng, shape):
        data = rng.standard_normal(shape).astype(np.float32)
        eb = eb_abs_for(data, 1e-3)
        recon = interp.decompress(interp.compress(data, eb))
        assert np.abs(data.astype(np.float64)
                      - recon.astype(np.float64)).max() <= eb

    def test_dtype_preserved(self, smooth_2d, dtype):
        data = smooth_2d.astype(dtype)
        res = interp.compress(data, eb_abs_for(data, 1e-3))
        assert interp.decompress(res).dtype == dtype

    def test_anchors_are_exact(self, smooth_2d):
        res = interp.compress(smooth_2d, eb_abs_for(smooth_2d, 1e-2))
        recon = interp.decompress(res)
        stride = 1 << res.max_level
        sl = tuple(slice(0, n, stride) for n in smooth_2d.shape)
        np.testing.assert_array_equal(recon[sl], smooth_2d[sl])

    def test_code_stream_length(self, smooth_3d):
        res = interp.compress(smooth_3d, eb_abs_for(smooth_3d, 1e-3))
        assert res.codes.size + res.anchors.size == smooth_3d.size

    @given(st.integers(1, 3), st.integers(0, 10), st.floats(1e-4, 1e-1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, ndim, seed, rel):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(4, 20, ndim))
        data = np.cumsum(rng.standard_normal(shape), axis=0).astype(np.float32)
        eb = eb_abs_for(data, rel)
        recon = interp.decompress(interp.compress(data, eb))
        assert np.abs(data.astype(np.float64)
                      - recon.astype(np.float64)).max() <= eb


class TestDynamicSelection:
    """Per-batch linear/cubic selection (dynamic spline interpolation)."""

    def test_roundtrip_with_choices(self, noisy_2d):
        eb = eb_abs_for(noisy_2d, 1e-3)
        res = interp.compress(noisy_2d, eb, dynamic=True)
        assert len(res.choices) > 0
        recon = interp.decompress(res)
        assert np.abs(noisy_2d.astype(np.float64)
                      - recon.astype(np.float64)).max() <= eb

    def test_static_result_has_no_choices(self, smooth_2d):
        res = interp.compress(smooth_2d, eb_abs_for(smooth_2d, 1e-3))
        assert res.choices == ()

    def test_choices_are_binary(self, noisy_2d):
        res = interp.compress(noisy_2d, eb_abs_for(noisy_2d, 1e-3),
                              dynamic=True)
        assert set(res.choices) <= {0, 1}

    def test_wrong_choices_break_reconstruction(self, noisy_2d):
        """The decoder must replay the encoder's choices: flipping them
        yields a different (wrong) reconstruction when they matter."""
        eb = eb_abs_for(noisy_2d, 1e-4)
        res = interp.compress(noisy_2d, eb, dynamic=True)
        if not any(res.choices):
            pytest.skip("all batches chose cubic on this input")
        flipped = interp.InterpResult(
            codes=res.codes, outliers=res.outliers, anchors=res.anchors,
            radius=res.radius, eb_abs=res.eb_abs, max_level=res.max_level,
            shape=res.shape, dtype=res.dtype,
            choices=tuple(1 - c for c in res.choices))
        good = interp.decompress(res)
        bad = interp.decompress(flipped)
        assert not np.array_equal(good, bad)

    def test_dynamic_choices_pick_linear_on_jagged_data(self, rng):
        """Jagged data defeats the cubic stencil, so linear must win at
        least some batches."""
        data = rng.standard_normal((64, 64)).astype(np.float32)
        res = interp.compress(data, eb_abs_for(data, 1e-4), dynamic=True)
        assert any(c == 1 for c in res.choices)


class TestQualityVsLorenzo:
    def test_interp_beats_lorenzo_on_smooth_data(self, smooth_2d):
        """The FZMod-Quality premise: interp residual entropy < Lorenzo's."""
        from repro.kernels import histogram, lorenzo
        eb = eb_abs_for(smooth_2d, 1e-4)
        res_i = interp.compress(smooth_2d, eb)
        res_l = lorenzo.compress(smooth_2d, eb)
        h_i = histogram.histogram(res_i.codes, 1024).entropy_bits()
        h_l = histogram.histogram(res_l.codes.reshape(-1), 1024).entropy_bits()
        assert h_i < h_l


class TestValidation:
    def test_rejects_bad_eb(self, smooth_2d):
        with pytest.raises(CodecError):
            interp.compress(smooth_2d, 0.0)

    def test_rejects_bad_level(self, smooth_2d):
        with pytest.raises(CodecError):
            interp.compress(smooth_2d, 0.1, max_level=0)

    @pytest.mark.parametrize("level", [0, -1, 63, 70, 2.5, "x", None, True])
    def test_rejects_level_out_of_range_both_ways(self, smooth_2d, level):
        if level is not None:  # None asks compress for the rank's default
            with pytest.raises(CodecError, match="max_level"):
                interp.compress(smooth_2d, 0.1, max_level=level)
        res = interp.compress(smooth_2d, 0.1)
        with pytest.raises(CodecError, match="max_level"):
            interp.decompress(dataclasses.replace(res, max_level=level))

    def test_stream_length_mismatch_detected(self, smooth_2d):
        """A short stream is a ``CodecError`` raised before any batch is
        written, like a long one."""
        res = interp.compress(smooth_2d, eb_abs_for(smooth_2d, 1e-3))
        for cut in (slice(None, -5), slice(5, None), slice(0, 0)):
            out = np.full(smooth_2d.shape, 7, dtype=smooth_2d.dtype)
            bad = dataclasses.replace(res, codes=res.codes[cut])
            with pytest.raises(CodecError, match="stream length mismatch"):
                interp.decompress(bad, out=out)
            assert (out == 7).all()

    def test_long_stream_detected(self, smooth_2d):
        res = interp.compress(smooth_2d, eb_abs_for(smooth_2d, 1e-3))
        longer = np.concatenate([res.codes, res.codes[:3]])
        with pytest.raises(CodecError, match="stream length mismatch"):
            interp.decompress(dataclasses.replace(res, codes=longer))

    @pytest.mark.parametrize("level", [1, 4, 40])
    def test_anchor_count_must_match_level(self, smooth_2d, level):
        """A level other than the encoder's changes the anchor grid."""
        res = interp.compress(smooth_2d, 0.1)
        assert res.max_level != level
        with pytest.raises(CodecError, match="anchor count"):
            interp.decompress(dataclasses.replace(res, max_level=level))

    @pytest.mark.parametrize("make, match", [
        (lambda s: np.empty(s, dtype=np.float64), "float64"),
        (lambda s: np.empty(s, dtype=np.int16), "int16"),
        (lambda s: np.empty((s[0] + 1,) + s[1:], dtype=np.float32), "shape"),
        (lambda s: np.empty(s, dtype=np.float32).T.copy().T,
         "C-contiguous"),
        (lambda s: np.empty((s[0], s[1] * 2), dtype=np.float32)[:, ::2],
         "C-contiguous"),
    ], ids=["float64", "int16", "shape", "fortran", "strided"])
    def test_bad_out_refused_before_decoding(self, smooth_2d, make, match):
        """``out=`` is checked before anything else: a broken stream behind
        it is never reached."""
        res = interp.compress(smooth_2d, eb_abs_for(smooth_2d, 1e-3))
        out = make(smooth_2d.shape)
        before = out.copy()
        for r in (res, dataclasses.replace(res, codes=res.codes[:-5])):
            with pytest.raises(CodecError, match=match):
                interp.decompress(r, out=out)
        assert out.tobytes() == before.tobytes()

    def test_read_only_out_refused_before_decoding(self, smooth_2d):
        res = interp.compress(smooth_2d, eb_abs_for(smooth_2d, 1e-3))
        out = np.zeros(smooth_2d.shape, dtype=smooth_2d.dtype)
        out.flags.writeable = False
        for r in (res, dataclasses.replace(res, codes=res.codes[:-5])):
            with pytest.raises(CodecError, match="not writable"):
                interp.decompress(r, out=out)

    @pytest.mark.parametrize("edit", [
        lambda i, v: (np.append(i, 10**9), np.append(v, v[:1])),
        lambda i, v: (np.append(-1, i), np.append(v[:1], v)),
        lambda i, v: (i[::-1].copy(), v),
        lambda i, v: (np.append(i, i[-1:]), np.append(v, v[-1:])),
        lambda i, v: (i, v[:-1]),
        lambda i, v: (i, v.astype(np.float64)),
        lambda i, v: (i.astype(np.float32), v),
        lambda i, v: (i, None),
        lambda i, v: (None, v),
    ], ids=["past-the-end", "negative", "unsorted", "duplicated",
            "counts-differ", "value-dtype", "index-dtype", "no-values",
            "no-index"])
    def test_lying_patches_refused_before_decoding(self, smooth_2d, edit):
        res = interp.compress(smooth_2d, eb_abs_for(smooth_2d, 1e-3))
        idx = np.array([3, 40, 41], dtype=np.int64)
        val = smooth_2d.reshape(-1)[idx]
        good = dataclasses.replace(res, patch_index=idx, patch_value=val)
        assert interp.decompress(good).reshape(-1)[idx].tobytes() == \
            val.tobytes()
        pidx, pval = edit(idx, val)
        out = np.full(smooth_2d.shape, 7, dtype=smooth_2d.dtype)
        with pytest.raises(CodecError, match="patch"):
            interp.decompress(dataclasses.replace(
                res, patch_index=pidx, patch_value=pval), out=out)
        assert (out == 7).all()

    @pytest.mark.parametrize("indices", [[5, 3], [-1], [10**9], [4, 4]],
                             ids=repr)
    def test_lying_outlier_indices_refused(self, smooth_2d, indices):
        res = interp.compress(smooth_2d, eb_abs_for(smooth_2d, 1e-3))
        idx = np.array(indices, dtype=np.int64)
        bad = q.OutlierSet(indices=idx, values=np.full(idx.size, 600))
        with pytest.raises(CodecError, match="outlier"):
            interp.decompress(dataclasses.replace(res, outliers=bad))

    @pytest.mark.parametrize("walk", [np.float16, np.int64])
    def test_walk_dtype_must_be_float32_or_float64(self, smooth_2d, walk):
        res = interp.compress(smooth_2d, eb_abs_for(smooth_2d, 1e-3))
        with pytest.raises(CodecError, match="walk"):
            interp.decompress(dataclasses.replace(res, walk_dtype=walk))

    def test_choices_must_cover_the_schedule(self, noisy_2d):
        res = interp.compress(noisy_2d, 0.1, dynamic=True)
        with pytest.raises(CodecError, match="choices"):
            interp.decompress(
                dataclasses.replace(res, choices=res.choices[:-1]))
