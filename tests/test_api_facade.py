"""Dispatch matrix tests for the ``repro.api`` facade.

``repro.compress`` / ``repro.decompress`` are the public front door:
they pick the engine from the argument shape.  These tests pin the
dispatch table and the ``out=`` contracts.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.pipeline import CompressedField
from repro.errors import ConfigError, DataError
from repro.parallel.executor import ShardedCompressedField
from repro.streaming.engine import StreamedCompressedField


@pytest.fixture
def field(rng) -> np.ndarray:
    base = np.cumsum(rng.standard_normal((32, 24, 24)), axis=0)
    return (base * 2.0).astype(np.float32)


# --------------------------------------------------------------------- #
# dispatch matrix
# --------------------------------------------------------------------- #
class TestCompressDispatch:
    def test_plain_array_uses_single_engine(self, field):
        cf = repro.compress(field, "fzmod-default", 1e-3)
        assert isinstance(cf, CompressedField)

    def test_workers_selects_sharded(self, field):
        cf = repro.compress(field, "fzmod-default", 1e-3, workers=2)
        assert isinstance(cf, ShardedCompressedField)

    def test_shard_mb_selects_sharded(self, field):
        cf = repro.compress(field, "fzmod-default", 1e-3, shard_mb=0.125)
        assert isinstance(cf, ShardedCompressedField)

    def test_codebook_selects_sharded(self, field):
        cf = repro.compress(field, "fzmod-default", 1e-3, codebook="shared")
        assert isinstance(cf, ShardedCompressedField)

    def test_stream_flag_selects_streaming(self, field, tmp_path):
        path = tmp_path / "f.fzms"
        sf = repro.compress(field, "fzmod-default", 1e-3,
                            stream=True, out=path)
        assert isinstance(sf, StreamedCompressedField)
        assert path.exists()

    def test_memmap_input_selects_streaming(self, field, tmp_path):
        raw = tmp_path / "f.f32"
        field.tofile(raw)
        mm = np.memmap(raw, dtype=field.dtype, mode="r", shape=field.shape)
        sf = repro.compress(mm, "fzmod-default", 1e-3,
                            out=tmp_path / "f.fzms")
        assert isinstance(sf, StreamedCompressedField)

    def test_stream_without_out_path_rejected(self, field):
        with pytest.raises(ConfigError, match="destination path"):
            repro.compress(field, "fzmod-default", 1e-3, stream=True)
        with pytest.raises(ConfigError, match="destination path"):
            repro.compress(field, "fzmod-default", 1e-3, stream=True,
                           out=np.empty_like(field))

    def test_out_array_rejected_for_in_memory(self, field):
        with pytest.raises(ConfigError, match="destination path"):
            repro.compress(field, "fzmod-default", 1e-3,
                           out=np.empty_like(field))

    def test_out_path_writes_blob(self, field, tmp_path):
        path = tmp_path / "f.fzmod"
        cf = repro.compress(field, "fzmod-default", 1e-3, out=path)
        assert path.read_bytes() == cf.blob

    def test_spec_and_pipeline_inputs(self, field):
        from repro import get_preset, get_preset_spec
        by_name = repro.compress(field, "fzmod-speed", 1e-3)
        by_spec = repro.compress(field, get_preset_spec("fzmod-speed"), 1e-3)
        by_pipe = repro.compress(field, get_preset("fzmod-speed"), 1e-3)
        assert by_name.blob == by_spec.blob == by_pipe.blob

    def test_unknown_preset_rejected(self, field):
        with pytest.raises(ConfigError):
            repro.compress(field, "no-such-preset", 1e-3)
        with pytest.raises(ConfigError, match="Pipeline"):
            repro.compress(field, 42, 1e-3)


class TestDecompressDispatch:
    def test_bytes_round_trip(self, field):
        cf = repro.compress(field, "fzmod-default", 1e-3)
        recon = repro.decompress(cf.blob)
        assert recon.shape == field.shape
        assert recon.dtype == field.dtype

    def test_result_object_accepted(self, field):
        cf = repro.compress(field, "fzmod-default", 1e-3)
        assert np.array_equal(repro.decompress(cf), repro.decompress(cf.blob))

    def test_sharded_blob_round_trip(self, field):
        cf = repro.compress(field, "fzmod-default", 1e-3, workers=2)
        recon = repro.decompress(cf.blob, workers=2)
        assert recon.shape == field.shape

    def test_single_container_path(self, field, tmp_path):
        path = tmp_path / "f.fzmod"
        repro.compress(field, "fzmod-default", 1e-3, out=path)
        recon = repro.decompress(path)
        assert recon.shape == field.shape

    def test_streamed_container_path(self, field, tmp_path):
        path = tmp_path / "f.fzms"
        sf = repro.compress(field, "fzmod-default", 1e-3, stream=True,
                            out=path, workers=2)
        by_path = repro.decompress(str(path))
        by_result = repro.decompress(sf)  # carries .path, decoded streamed
        assert np.array_equal(by_path, by_result)

    def test_out_array_filled_and_returned(self, field):
        cf = repro.compress(field, "fzmod-default", 1e-3)
        dst = np.empty_like(field)
        ret = repro.decompress(cf.blob, out=dst)
        assert ret is dst
        assert np.array_equal(dst, repro.decompress(cf.blob))

    def test_out_array_shape_validated(self, field):
        cf = repro.compress(field, "fzmod-default", 1e-3)
        with pytest.raises(DataError, match="shape"):
            repro.decompress(cf.blob, out=np.empty((2, 2), dtype=np.float32))
        with pytest.raises(ConfigError, match="writable array"):
            repro.decompress(cf.blob, out="not-an-array")

    @pytest.mark.parametrize("bad_out", [((2, 2), np.float32),
                                         ((32, 24, 24), np.float64)])
    def test_out_mismatch_same_error_for_path_and_blob(self, field, tmp_path,
                                                       bad_out):
        """Every engine checks ``out=`` through ``check_decode_out``, so
        a streamed path and the same bytes in memory fail alike."""
        path = tmp_path / "f.fzms"
        repro.compress(field, "fzmod-default", 1e-3, stream=True, out=path,
                       shard_mb=0.125)
        for source in (path, path.read_bytes()):
            with pytest.raises(DataError, match="container holds"):
                repro.decompress(source, out=np.empty(*bad_out))

    def test_garbage_input_rejected(self):
        with pytest.raises(ConfigError, match="container bytes"):
            repro.decompress(12345)


class TestDecompressBlobShapes:
    """Every blob shape x delivery (bytes vs path) x out=/workers=.

    The containers: FZMD single, FZMS v1 (per-shard codebooks), FZMS v2
    (shared codebook), FZMS v3 (streaming trailing index).  ``out=``
    must be written through on every one of them — never silently
    ignored, never stale.
    """

    def _blob(self, field, kind, tmp_path):
        if kind == "single":
            return repro.compress(field, "fzmod-default", 1e-3).blob
        if kind == "fzms-v1":
            return repro.compress(field, "fzmod-default", 1e-3, workers=2,
                                  shard_mb=0.125).blob
        if kind == "fzms-v2":
            return repro.compress(field, "fzmod-default", 1e-3, workers=2,
                                  shard_mb=0.125, codebook="shared").blob
        assert kind == "fzms-v3"
        path = tmp_path / "v3.fzms"
        repro.compress(field, "fzmod-default", 1e-3, stream=True,
                       out=path, shard_mb=0.125, layout="stream")
        return path.read_bytes()

    @pytest.mark.parametrize("kind",
                             ["single", "fzms-v1", "fzms-v2", "fzms-v3"])
    @pytest.mark.parametrize("delivery", ["bytes", "path"])
    def test_out_written_through_everywhere(self, field, tmp_path, kind,
                                            delivery):
        blob = self._blob(field, kind, tmp_path)
        ref = repro.decompress(blob)
        source = blob
        if delivery == "path":
            source = tmp_path / f"{kind}.bin"
            source.write_bytes(blob)
        dst = np.full(field.shape, np.nan, dtype=field.dtype)
        ret = repro.decompress(source, out=dst)
        assert ret is dst
        assert dst.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("kind", ["fzms-v1", "fzms-v2", "fzms-v3"])
    def test_workers_kwarg_value_identical(self, field, tmp_path, kind):
        blob = self._blob(field, kind, tmp_path)
        serial = repro.decompress(blob, workers=1)
        parallel = repro.decompress(blob, workers=4)
        assert serial.tobytes() == parallel.tobytes()

    def test_bytearray_and_memoryview_accepted(self, field):
        blob = repro.compress(field, "fzmod-default", 1e-3).blob
        ref = repro.decompress(blob)
        assert repro.decompress(bytearray(blob)).tobytes() == ref.tobytes()
        assert repro.decompress(memoryview(blob)).tobytes() == ref.tobytes()

    def test_readonly_out_rejected_before_any_decode(self, field):
        blob = repro.compress(field, "fzmod-default", 1e-3).blob
        frozen = np.empty_like(field)
        frozen.flags.writeable = False
        with pytest.raises(ConfigError, match="writable"):
            repro.decompress(blob, out=frozen)


class TestCompileKwarg:
    """``compile=`` selects nothing any more: the facade accepts the three
    values it used to take (``bench/harness.py`` passes ``"auto"``) and
    ignores them.  What the keyword used to switch between is checked
    against the module-call twin instead."""

    def test_facade_compile_modes_byte_identical(self, field,
                                                 module_call_twin):
        ref = repro.compress(
            field, module_call_twin(repro.api.resolve_pipeline(
                "fzmod-default")), 1e-3).blob
        for preset in ("fzmod-default", "fzmod-quality"):
            blobs = {flag: repro.compress(field, preset, 1e-3,
                                          compile=flag).blob
                     for flag in ("auto", True, False)}
            assert blobs["auto"] == blobs[True] == blobs[False]
        assert repro.compress(field, "fzmod-default", 1e-3).blob == ref

    def test_decompress_compile_modes_value_identical(self, field, tmp_path,
                                                      module_call_registry):
        cf = repro.compress(field, "fzmod-default", 1e-3)
        fields = {flag: repro.decompress(cf.blob, compile=flag)
                  for flag in ("auto", True, False)}
        assert (fields["auto"].tobytes() == fields[True].tobytes()
                == fields[False].tobytes()
                == repro.decompress(
                    cf.blob, registry=module_call_registry).tobytes())
        # formerly "declined": compile=True is as inert there as anywhere
        path = tmp_path / "q.fzms"
        repro.compress(field, "fzmod-quality", 1e-3, stream=True, out=path,
                       shard_mb=0.125)
        assert repro.decompress(path, compile=True).shape == field.shape

    def test_anything_else_is_a_config_error(self, field):
        blob = repro.compress(field, "fzmod-default", 1e-3).blob
        for junk in ("yes-please", None, 1, 0):
            with pytest.raises(ConfigError, match="compile"):
                repro.compress(field, "fzmod-default", 1e-3, compile=junk)
            with pytest.raises(ConfigError, match="compile"):
                repro.decompress(blob, compile=junk)
