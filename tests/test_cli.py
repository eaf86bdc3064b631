"""Tests for the ``fzmod`` command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.data import load_field


@pytest.fixture
def raw_field(tmp_path):
    data = load_field("hurr", "P", scale=0.06)
    path = tmp_path / "field.f32"
    data.tofile(path)
    return path, data


class TestCompressDecompress:
    def test_round_trip_raw_file(self, tmp_path, raw_field, capsys):
        path, data = raw_field
        out = tmp_path / "out.fzmod"
        dims = ",".join(str(d) for d in data.shape)
        rc = main(["compress", str(path), "--dims", dims, "--eb", "1e-3",
                   "-o", str(out)])
        assert rc == 0
        assert "CR=" in capsys.readouterr().out

        recon_path = tmp_path / "recon.f32"
        rc = main(["decompress", str(out), "-o", str(recon_path)])
        assert rc == 0
        recon = np.fromfile(recon_path, dtype=np.float32).reshape(data.shape)
        rng = float(data.max() - data.min())
        assert np.abs(data - recon).max() <= 1e-3 * rng * 1.01

    def test_synthetic_dataset_input(self, tmp_path, capsys):
        out = tmp_path / "nyx.fzmod"
        rc = main(["compress", "--dataset", "nyx", "--field", "temperature",
                   "--scale", "0.04", "--eb", "1e-2", "-o", str(out)])
        assert rc == 0
        assert out.stat().st_size > 0

    def test_baseline_pipeline_choice(self, tmp_path, raw_field):
        path, data = raw_field
        out = tmp_path / "p.fzmod"
        dims = ",".join(str(d) for d in data.shape)
        rc = main(["compress", str(path), "--dims", dims, "--eb", "1e-3",
                   "--pipeline", "pfpl", "-o", str(out)])
        assert rc == 0
        recon_path = tmp_path / "r.f32"
        assert main(["decompress", str(out), "-o", str(recon_path)]) == 0

    def test_missing_dims_is_error(self, tmp_path, raw_field, capsys):
        path, _ = raw_field
        rc = main(["compress", str(path), "--eb", "1e-3",
                   "-o", str(tmp_path / "x.fzmod")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestOtherCommands:
    def test_modules_listing(self, capsys):
        assert main(["modules"]) == 0
        out = capsys.readouterr().out
        for name in ("lorenzo", "interp", "huffman", "bitshuffle",
                     "deflate"):
            assert name in out

    @pytest.mark.parametrize("preset,front", [
        ("fzmod-default", "fused"), ("fzmod-speed", "fused"),
        ("fzmod-quality", "module call")])
    def test_compile_prints_the_step_list(self, capsys, preset, front):
        assert main(["compile", preset]) == 0
        steps = {line.split()[1]: line for line in
                 capsys.readouterr().out.splitlines()[1:]}
        assert front in steps["predictor[%s]" % (
            "interp" if preset == "fzmod-quality" else "lorenzo")]
        if preset == "fzmod-quality":
            for step in ("preprocess[rel-eb]", "statistics[histogram-topk]"):
                assert steps[step].endswith("module call")
        assert steps["encoder[%s]" % (
            "bitshuffle" if preset == "fzmod-speed" else "huffman")]

    def test_compress_has_no_compile_flag(self, tmp_path, raw_field, capsys):
        path, data = raw_field
        dims = ",".join(str(d) for d in data.shape)
        with pytest.raises(SystemExit):
            main(["compress", str(path), "--dims", dims, "--eb", "1e-3",
                  "--no-compile", "-o", str(tmp_path / "x.fzmod")])

    def test_eval(self, capsys):
        rc = main(["eval", "--dataset", "hurr", "--field", "P",
                   "--scale", "0.05", "--eb", "1e-2",
                   "--compressors", "fzmod-speed,cuszp2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fzmod-speed" in out and "cuszp2" in out and "ok" in out

    def test_autotune(self, capsys):
        rc = main(["autotune", "--dataset", "hurr", "--field", "P",
                   "--scale", "0.05", "--eb", "1e-3",
                   "--objective", "ratio"])
        assert rc == 0
        assert "winner" in capsys.readouterr().out

    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "H100" in out and "V100" in out

    def test_analyze(self, tmp_path, raw_field, capsys):
        path, data = raw_field
        recon = tmp_path / "recon.f32"
        (data + 0.01).astype(np.float32).tofile(recon)
        dims = ",".join(str(d) for d in data.shape)
        rc = main(["analyze", str(path), str(recon), "--dims", dims])
        assert rc == 0
        out = capsys.readouterr().out
        for metric in ("PSNR", "SSIM", "spectral", "gradient", "histogram"):
            assert metric in out


class TestArchiveCommand:
    def test_create_list_extract(self, tmp_path, capsys):
        path = tmp_path / "snap.fzar"
        rc = main(["archive", "create", str(path), "--dataset", "hurr",
                   "--scale", "0.05", "--eb", "1e-3"])
        assert rc == 0
        assert path.stat().st_size > 0

        rc = main(["archive", "list", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total CR" in out and "QVAPOR" in out

        dst = tmp_path / "p.f32"
        rc = main(["archive", "extract", str(path), "--field", "P",
                   "-o", str(dst)])
        assert rc == 0
        assert dst.stat().st_size > 0

    def test_extract_needs_field_and_output(self, tmp_path, capsys):
        path = tmp_path / "snap.fzar"
        main(["archive", "create", str(path), "--dataset", "nyx",
              "--scale", "0.03", "--eb", "1e-2"])
        rc = main(["archive", "extract", str(path)])
        assert rc == 1

    def test_create_needs_dataset(self, tmp_path):
        rc = main(["archive", "create", str(tmp_path / "x.fzar")])
        assert rc == 1
