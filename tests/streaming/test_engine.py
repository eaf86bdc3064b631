"""Streaming engines: byte-compatibility, round trips, guard rails.

``compress_stream``'s compat layout must be byte-identical to the
in-memory sharded engine at every worker count and codebook mode, and
``decompress_stream`` must reconstruct any FZMS version — including
into a caller-supplied (possibly memory-mapped) output array.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core import decompress
from repro.core.pipeline import Pipeline
from repro.errors import CodecError, ConfigError, DataError, HeaderError
from repro.obs import GLOBAL_TRACER, set_telemetry
from repro.parallel.executor import compress_sharded, decompress_sharded
from repro.streaming import MemmapSource, ShardReader, SlabIterSource
from repro.streaming.engine import compress_stream, decompress_stream
from repro.types import EbMode


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    z, y, x = np.mgrid[0:24, 0:20, 0:16].astype(np.float64)
    f = (np.sin(x / 5.0) * 20.0 + np.cos(y / 7.0) * 10.0
         + np.sin(z / 3.0) * 5.0)
    return f.astype(np.float32)


@pytest.fixture(scope="module")
def pipe() -> Pipeline:
    return Pipeline.from_names()


def _stream(field_or_source, pipe, path, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("shard_mb", 0.01)
    return compress_stream(field_or_source, pipe, 1e-3, EbMode.REL,
                          out_path=str(path), **kw)


class TestByteIdentity:
    @pytest.mark.parametrize("workers,codebook",
                             [(1, "per-shard"), (2, "per-shard"),
                              (3, "per-shard"), (2, "shared")])
    def test_compat_layout_matches_compress_sharded(self, tmp_path, field,
                                                    pipe, workers, codebook):
        ref = compress_sharded(field, pipe, 1e-3, EbMode.REL,
                               workers=workers, shard_mb=0.01,
                               codebook=codebook)
        path = tmp_path / "stream.fzms"
        cf = _stream(field, pipe, path, workers=workers, codebook=codebook)
        assert path.read_bytes() == ref.blob
        assert cf.nbytes == len(ref.blob)
        assert cf.stats.eb_abs == ref.stats.eb_abs

    def test_memmap_source_matches_in_memory(self, tmp_path, field, pipe):
        raw = tmp_path / "field.f32"
        raw.write_bytes(field.tobytes())
        ref = compress_sharded(field, pipe, 1e-3, EbMode.REL, workers=2,
                               shard_mb=0.01)
        path = tmp_path / "stream.fzms"
        with MemmapSource(str(raw), field.shape) as source:
            _stream(source, pipe, path)
        assert path.read_bytes() == ref.blob


class TestRoundTrip:
    def _within_eb(self, out, field, cf):
        eps = float(np.finfo(np.float32).eps)
        err = float(np.abs(out.astype(np.float64)
                           - field.astype(np.float64)).max())
        assert err <= cf.stats.eb_abs * (1 + 1e-9) + float(
            np.abs(out).max()) * eps

    def test_stream_then_stream_decompress(self, tmp_path, field, pipe):
        path = tmp_path / "f.fzms"
        cf = _stream(field, pipe, path)
        out = decompress_stream(str(path), workers=2)
        assert out.shape == field.shape and out.dtype == field.dtype
        assert np.array_equal(out, decompress(path.read_bytes()))
        self._within_eb(out, field, cf)

    def test_stream_layout_round_trips(self, tmp_path, field, pipe):
        path = tmp_path / "f.fzms"
        compat = tmp_path / "compat.fzms"
        _stream(field, pipe, compat)
        _stream(field, pipe, path, layout="stream")
        assert np.array_equal(decompress_stream(str(path)),
                              decompress(compat.read_bytes()))

    @pytest.mark.parametrize("codebook", ["per-shard", "shared"])
    def test_header_first_versions_decode(self, tmp_path, field, pipe,
                                          codebook):
        """v1 and v2 blobs flow through the streaming reader unchanged."""
        ref = compress_sharded(field, pipe, 1e-3, EbMode.REL, workers=2,
                               shard_mb=0.01, codebook=codebook)
        path = tmp_path / "ref.fzms"
        path.write_bytes(ref.blob)
        assert np.array_equal(decompress_stream(str(path), workers=2),
                              decompress(ref.blob))

    def test_decompress_into_caller_memmap(self, tmp_path, field, pipe):
        path = tmp_path / "f.fzms"
        _stream(field, pipe, path)
        recon = tmp_path / "recon.f32"
        out = np.memmap(recon, dtype=field.dtype, mode="w+",
                        shape=field.shape)
        ret = decompress_stream(str(path), out=out, workers=2)
        assert ret is out
        on_disk = np.fromfile(recon, dtype=field.dtype).reshape(field.shape)
        assert np.array_equal(on_disk, decompress(path.read_bytes()))

    def test_sequential_source_with_abs_bound(self, tmp_path, field, pipe):
        def chunks():
            for r in range(0, field.shape[0], 5):
                yield field[r:r + 5]

        src = SlabIterSource(chunks(), field.shape, field.dtype)
        path = tmp_path / "seq.fzms"
        compress_stream(src, pipe, 0.05, EbMode.ABS, out_path=str(path),
                        workers=2, shard_mb=0.01)
        ref = compress_sharded(field, pipe, 0.05, EbMode.ABS, workers=2,
                               shard_mb=0.01)
        assert path.read_bytes() == ref.blob


class TestGuardRails:
    def test_rel_needs_a_rescannable_source(self, tmp_path, field, pipe):
        src = SlabIterSource(iter([field]), field.shape, field.dtype)
        with pytest.raises(ConfigError, match="sequential-only"):
            _stream(src, pipe, tmp_path / "x.fzms")

    def test_shared_codebook_needs_a_rescannable_source(self, tmp_path,
                                                        field, pipe):
        src = SlabIterSource(iter([field]), field.shape, field.dtype)
        with pytest.raises(ConfigError, match="sequential-only"):
            compress_stream(src, pipe, 0.05, EbMode.ABS,
                            out_path=str(tmp_path / "x.fzms"),
                            codebook="shared")

    def test_unknown_codebook_mode(self, tmp_path, field, pipe):
        with pytest.raises(ConfigError, match="codebook"):
            _stream(field, pipe, tmp_path / "x.fzms", codebook="psychic")

    def test_workers_must_be_positive(self, tmp_path, field, pipe):
        with pytest.raises(ConfigError, match="workers"):
            _stream(field, pipe, tmp_path / "x.fzms", workers=0)

    def test_out_shape_dtype_writeable_validation(self, tmp_path, field,
                                                  pipe):
        path = tmp_path / "f.fzms"
        _stream(field, pipe, path)
        with pytest.raises(DataError, match="shape"):
            decompress_stream(str(path), out=np.empty((1, 2, 3), "f4"))
        with pytest.raises(DataError, match="float64"):
            decompress_stream(str(path),
                              out=np.empty(field.shape, np.float64))
        frozen = np.empty(field.shape, field.dtype)
        frozen.flags.writeable = False
        with pytest.raises(ConfigError, match="writable"):
            decompress_stream(str(path), out=frozen)


class TestOverlapPlumbing:
    def test_decode_spans_cover_every_shard(self, tmp_path, field, pipe):
        """The trace carries per-shard fetch/decode/scatter spans — the
        raw material of the overlap measurement in bench_streaming."""
        path = tmp_path / "f.fzms"
        cf = _stream(field, pipe, path)
        prev = set_telemetry(True)
        try:
            GLOBAL_TRACER.clear()
            decompress_stream(str(path), workers=2)
            records = GLOBAL_TRACER.records()
        finally:
            set_telemetry(prev)
            GLOBAL_TRACER.clear()
        for name in ("stream.fetch", "stream.huffman_decode",
                     "stream.outlier_scatter"):
            matching = [r for r in records
                        if r.name.split(":", 1)[0] == name]
            shards = sorted(r.attrs["shard"] for r in matching)
            assert shards == list(range(cf.shard_count))
            # deterministic lane ids: the span name embeds the shard
            # index, so traces diff cleanly across runs
            for r in matching:
                assert r.name == f"{name}:{r.attrs['shard']}"


class TestDecodeWindow:
    """The decode window is ``workers + 1`` shards on an ordered queue."""

    @pytest.mark.parametrize("layout", ["compat", "stream"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_matches_decompress_sharded_past_the_window(self, tmp_path,
                                                        field, pipe,
                                                        workers, layout):
        path = tmp_path / "f.fzms"
        # 3-row shards: 8 of them, more than the widest window (4)
        cf = _stream(field, pipe, path, shard_mb=3 * 20 * 16 * 4 / (1 << 20),
                     layout=layout)
        assert cf.shard_count > workers + 1
        ref = decompress_sharded(path.read_bytes(), workers=workers)
        out = decompress_stream(str(path), workers=workers)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_corrupt_shard_raises_and_joins_the_pool(self, tmp_path, field,
                                                     pipe, workers):
        """One error class per fault on every layout (v1 per-shard and v2
        shared codebook, both ``compat``; v3 ``stream``), through both
        decode engines: a flipped payload byte fails the member's FZMD
        body CRC (``HeaderError``); a truncated file overruns the v1/v2
        shard table (``HeaderError``) or loses the v3 trailer
        (``CodecError``).  No pool thread outlives the failure."""
        flip = (HeaderError, "body CRC mismatch")
        for layout, codebook, cut in [
                ("compat", "per-shard", (HeaderError, "exceeds container")),
                ("compat", "shared", (HeaderError, "exceeds container")),
                ("stream", None, (CodecError, "end magic"))]:
            path = tmp_path / f"{layout}-{codebook}.fzms"
            # 5-row shards: 5 of them; the faults land in shard 2
            cf = _stream(field, pipe, path,
                         shard_mb=5 * 20 * 16 * 4 / (1 << 20),
                         layout=layout, codebook=codebook)
            assert cf.shard_count == 5
            with ShardReader(str(path)) as reader:
                shard2 = reader.shard(2)
            good = path.read_bytes()
            at = good.index(shard2)
            flipped = bytearray(good)
            flipped[at + len(shard2) - 3] ^= 0x40
            for blob, (exc, match) in [(bytes(flipped), flip),
                                       (good[:at + len(shard2) // 2], cut)]:
                bad = tmp_path / "bad.fzms"
                bad.write_bytes(blob)
                threads_before = threading.active_count()
                with pytest.raises(exc, match=match):
                    decompress_stream(str(bad), workers=workers)
                with pytest.raises(exc, match=match):
                    decompress_sharded(blob, workers=workers)
                assert threading.active_count() == threads_before


def test_stream_round_trip_imports_no_stf(tmp_path):
    """No ``repro`` module loads ``networkx``, and there is no ``repro.stf``
    left to load: a fresh interpreter imports every ``repro`` submodule,
    runs a facade streaming round trip, and still has neither."""
    code = (
        "import pkgutil, sys\n"
        "import numpy as np\n"
        "import repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not m.name.endswith('.__main__'):\n"
        "        __import__(m.name)\n"
        "x = np.arange(120 * 90, dtype=np.float32).reshape(120, 90)\n"
        "cf = repro.compress(x, 'fzmod-default', 1e-3, stream=True,"
        " out=sys.argv[1], shard_mb=0.02)\n"
        "assert cf.shard_count > 1\n"
        "repro.decompress(sys.argv[1])\n"
        "loaded = [m for m in sys.modules"
        " if m.partition('.')[0] == 'networkx' or m.startswith('repro.stf')]\n"
        "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code, str(tmp_path / "f.fzms")],
                   check=True, env={**os.environ,
                                    "PYTHONPATH": os.pathsep.join(sys.path)})
