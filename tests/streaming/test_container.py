"""Incremental FZMS container I/O and version negotiation.

:class:`ShardReader` must serve all three wire versions — header-first
v1/v2 written by the in-memory engine and the trailing-index v3 written
by the single-pass streaming layout — and every structural defect in a
v3 container must surface as :class:`~repro.errors.CodecError`, never a
bare ``struct.error``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import decompress, fzmod_default
from repro.errors import CodecError, ConfigError, HeaderError
from repro.parallel.executor import compress_sharded
from repro.streaming import ShardReader, ShardStreamWriter
from repro.types import EbMode


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    y, x = np.mgrid[0:64, 0:48]
    return (np.sin(x / 7.0) * np.cos(y / 5.0) * 30.0).astype(np.float32)


@pytest.fixture(scope="module")
def v1_blob(field) -> bytes:
    return compress_sharded(field, fzmod_default(), 1e-3, EbMode.REL,
                            workers=2, shard_mb=0.01).blob


@pytest.fixture(scope="module")
def v2_blob(field) -> bytes:
    return compress_sharded(field, fzmod_default(), 1e-3, EbMode.REL,
                            workers=2, shard_mb=0.01, codebook="shared").blob


@pytest.fixture
def v3_path(tmp_path, v1_blob) -> str:
    """Rewrite the v1 container's shards into a stream-layout file."""
    src = tmp_path / "v1.fzms"
    src.write_bytes(v1_blob)
    path = str(tmp_path / "v3.fzms")
    with ShardReader(str(src)) as reader:
        with ShardStreamWriter(path, reader.index, layout="stream") as w:
            for k in range(reader.shard_count):
                w.append(reader.shard(k))
    return path


class TestVersionNegotiation:
    def test_v1_header_first(self, tmp_path, v1_blob, field):
        path = tmp_path / "v1.fzms"
        path.write_bytes(v1_blob)
        with ShardReader(str(path)) as reader:
            assert reader.version == 1
            assert tuple(reader.index.shape) == field.shape
            # per-shard containers decode standalone: reassembling the
            # row ranges reproduces the whole-blob decompression
            whole = decompress(v1_blob)
            for k, (start, stop) in enumerate(reader.index.bounds):
                assert np.array_equal(decompress(reader.shard(k)),
                                      whole[start:stop])

    def test_v2_shared_codebook(self, tmp_path, v2_blob, field):
        path = tmp_path / "v2.fzms"
        path.write_bytes(v2_blob)
        with ShardReader(str(path)) as reader:
            assert reader.version == 2
            assert reader.index.shared_lengths() is not None
            assert reader.shard_count == len(reader.index.bounds)

    def test_v3_round_trips_the_same_shards(self, tmp_path, v1_blob,
                                            v3_path):
        src = tmp_path / "v1.fzms"
        src.write_bytes(v1_blob)
        with ShardReader(str(src)) as ref, ShardReader(v3_path) as v3:
            assert v3.version == 3
            assert v3.index.bounds == ref.index.bounds
            for k in range(ref.shard_count):
                assert v3.shard(k) == ref.shard(k)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.fzms"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(HeaderError, match="magic"):
            ShardReader(str(path))

    def test_too_short(self, tmp_path):
        path = tmp_path / "short.fzms"
        path.write_bytes(b"\x00" * 3)
        with pytest.raises(HeaderError, match="too short"):
            ShardReader(str(path))


class TestTrailingIndexDefects:
    """Every truncation/corruption of a v3 file is a clean CodecError."""

    def test_truncation_anywhere_is_a_codec_error(self, v3_path):
        data = open(v3_path, "rb").read()
        prefix = 14  # _PREFIX.size: anything shorter is a HeaderError
        for keep in (len(data) - 1, len(data) - 8, len(data) // 2, prefix):
            with open(v3_path, "wb") as fh:
                fh.write(data[:keep])
            with pytest.raises(CodecError):
                ShardReader(v3_path)

    def test_corrupt_trailer_magic(self, v3_path):
        data = bytearray(open(v3_path, "rb").read())
        data[-4:] = b"XXXX"
        with open(v3_path, "wb") as fh:
            fh.write(data)
        with pytest.raises(CodecError):
            ShardReader(v3_path)

    def test_corrupt_index_payload(self, v3_path):
        data = bytearray(open(v3_path, "rb").read())
        data[-30] ^= 0xFF  # inside the JSON index: CRC must catch it
        with open(v3_path, "wb") as fh:
            fh.write(data)
        with pytest.raises(CodecError):
            ShardReader(v3_path)


class TestShardStreamWriter:
    def test_unknown_layout(self, tmp_path):
        with pytest.raises(ConfigError, match="layout"):
            ShardStreamWriter(str(tmp_path / "x.fzms"), index=None,
                              layout="sideways")

    def test_append_after_close_is_refused(self, tmp_path, v1_blob):
        src = tmp_path / "v1.fzms"
        src.write_bytes(v1_blob)
        with ShardReader(str(src)) as reader:
            w = ShardStreamWriter(str(tmp_path / "out.fzms"), reader.index,
                                  layout="stream")
            w.append(reader.shard(0))
            w.close()
            with pytest.raises(CodecError, match="sealed"):
                w.append(reader.shard(0))

    def test_abort_removes_partial_output(self, tmp_path, v1_blob):
        src = tmp_path / "v1.fzms"
        src.write_bytes(v1_blob)
        out = str(tmp_path / "partial.fzms")
        with ShardReader(str(src)) as reader:
            with pytest.raises(RuntimeError, match="boom"):
                with ShardStreamWriter(out, reader.index,
                                       layout="stream") as w:
                    w.append(reader.shard(0))
                    raise RuntimeError("boom")
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".spill")

    def test_compat_abort_removes_spill_too(self, tmp_path, v1_blob):
        src = tmp_path / "v1.fzms"
        src.write_bytes(v1_blob)
        out = str(tmp_path / "partial.fzms")
        with ShardReader(str(src)) as reader:
            with pytest.raises(RuntimeError):
                with ShardStreamWriter(out, reader.index,
                                       layout="compat") as w:
                    w.append(reader.shard(0))
                    raise RuntimeError("boom")
        assert not os.path.exists(out)
        assert not os.path.exists(out + ".spill")
