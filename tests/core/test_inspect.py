"""Tests for container inspection."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import ArchiveWriter, fzmod_default
from repro.core.inspect import describe, render
from repro.errors import HeaderError


@pytest.fixture
def field(rng):
    return np.cumsum(rng.standard_normal((10, 14)), axis=0).astype(np.float32)


@pytest.fixture
def tall(rng):
    return np.cumsum(rng.standard_normal((40, 14)), axis=0).astype(np.float32)


def _write_v3(path, tall):
    """Three-shard FZMS v3 (trailing-index) file, written in one pass."""
    repro.compress(tall, "fzmod-default", 1e-3, stream=True, out=path,
                   workers=1, shard_mb=0.001, layout="stream")
    return path


class TestDescribe:
    def test_container(self, field):
        blob = fzmod_default().compress(field, 1e-3).blob
        d = describe(blob)
        assert d.kind == "container"
        assert d.detail["shape"] == [10, 14]
        assert d.detail["modules"]["predictor"] == "lorenzo"
        assert any(s["name"] == "enc.payload" for s in d.detail["sections"])

    def test_archive(self, field):
        w = ArchiveWriter()
        w.add("a", field, 1e-3, fzmod_default())
        w.add("b", field * 2, 1e-3, fzmod_default())
        d = describe(w.to_bytes())
        assert d.kind == "archive"
        assert len(d.members) == 2
        assert d.detail["fields"] == 2

    def test_specialised_archive_kinds(self, field):
        from repro.core import compress_tiled
        from repro.core.temporal import TemporalCompressor
        tiled = compress_tiled(field, fzmod_default(), 1e-3, tile=(8, 8))
        assert describe(tiled).kind == "tiled-field archive"
        tc = TemporalCompressor(fzmod_default(), 1e-3)
        tc.add_frame(field)
        blob, _ = tc.finish()
        assert describe(blob).kind == "temporal-stream archive"

    @pytest.mark.parametrize("version, codebook",
                             [(1, "per-shard"), (2, "shared"),
                              (3, "per-shard")])
    def test_multi_shard_container(self, tall, tmp_path, version, codebook):
        if version == 3:
            blob = _write_v3(tmp_path / "v3.fzms", tall).read_bytes()
        else:
            blob = repro.compress(
                tall, "fzmod-default", 1e-3, workers=1, shard_mb=0.001,
                codebook="shared" if version == 2 else None).blob
        assert blob[:6] == b"FZMS" + bytes([version, 0])
        d = describe(blob)
        assert d.kind == "multi-shard container"
        assert d.detail["shape"] == [40, 14]
        assert d.detail["codebook"] == codebook
        assert len(d.members) == 3
        assert sum(m["shape"][0] for m in d.members) == 40

    def test_foreign_data_rejected(self):
        with pytest.raises(HeaderError):
            describe(b"GIF89a....")
        with pytest.raises(HeaderError):
            describe(b"xy")
        # the seed-era slab-stream magic is no longer a known container
        with pytest.raises(HeaderError, match="unrecognised magic"):
            describe(b"FZST" + b"\0" * 16)

    def test_render(self, field):
        blob = fzmod_default().compress(field, 1e-3).blob
        text = render(blob)
        assert "kind: container" in text
        assert "enc.payload" in text

    def test_cli_inspect(self, tmp_path, field, capsys):
        from repro.cli import main
        path = tmp_path / "x.fzmod"
        path.write_bytes(fzmod_default().compress(field, 1e-3).blob)
        assert main(["inspect", str(path)]) == 0
        assert "kind: container" in capsys.readouterr().out

    def test_cli_inspect_streamed_file(self, tmp_path, tall, capsys):
        from repro.cli import main
        path = _write_v3(tmp_path / "v3.fzms", tall)
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "kind: multi-shard container" in out
        assert "codebook: per-shard" in out
        assert "shard2" in out
