"""Tests for the four baseline compressors and the uniform adapter."""

from __future__ import annotations

import base64
import dataclasses
import hashlib

import numpy as np
import pytest

from repro.baselines import (ALL_COMPRESSOR_NAMES, BASELINE_NAMES, CuSZp2,
                             FZGPU, PFPL, SZ3, get_compressor)
from repro.core import parse
from repro.errors import ConfigError, HeaderError
from repro.kernels import interp
from repro.metrics import psnr, verify_error_bound
from repro.types import EbMode, ErrorBound
from tests.conftest import eb_abs_for

BASELINES = [CuSZp2, FZGPU, PFPL, SZ3]


@pytest.mark.parametrize("cls", BASELINES, ids=[c.name for c in BASELINES])
class TestRoundTrips:
    @pytest.mark.parametrize("rel", [1e-2, 1e-4])
    def test_2d_bound(self, cls, smooth_2d, rel):
        comp = cls()
        cf = comp.compress(smooth_2d, rel)
        recon = comp.decompress(cf)
        assert verify_error_bound(smooth_2d, recon, eb_abs_for(smooth_2d, rel))

    def test_3d(self, cls, smooth_3d):
        comp = cls()
        recon = comp.decompress(comp.compress(smooth_3d, 1e-3))
        assert verify_error_bound(smooth_3d, recon, eb_abs_for(smooth_3d, 1e-3))

    def test_1d(self, cls, smooth_1d):
        comp = cls()
        recon = comp.decompress(comp.compress(smooth_1d, 1e-3))
        assert verify_error_bound(smooth_1d, recon, eb_abs_for(smooth_1d, 1e-3))

    def test_noisy(self, cls, noisy_2d):
        comp = cls()
        recon = comp.decompress(comp.compress(noisy_2d, 1e-3))
        assert verify_error_bound(noisy_2d, recon, eb_abs_for(noisy_2d, 1e-3))

    def test_spiky(self, cls, spiky_1d):
        comp = cls()
        recon = comp.decompress(comp.compress(spiky_1d, 1e-3))
        assert verify_error_bound(spiky_1d, recon, eb_abs_for(spiky_1d, 1e-3))

    def test_constant(self, cls, constant_3d):
        comp = cls()
        cf = comp.compress(constant_3d, 1e-3)
        recon = comp.decompress(cf)
        np.testing.assert_allclose(recon, constant_3d, atol=1e-3)
        assert cf.stats.cr > 10

    def test_abs_mode(self, cls, smooth_2d):
        comp = cls()
        cf = comp.compress(smooth_2d, ErrorBound(0.07, EbMode.ABS))
        recon = comp.decompress(cf)
        assert verify_error_bound(smooth_2d, recon, 0.07)

    def test_float64(self, cls, smooth_2d):
        comp = cls()
        data = smooth_2d.astype(np.float64)
        recon = comp.decompress(comp.compress(data, 1e-5))
        assert recon.dtype == np.float64
        assert verify_error_bound(data, recon, eb_abs_for(data, 1e-5))

    def test_shape_restored(self, cls, smooth_3d):
        comp = cls()
        recon = comp.decompress(comp.compress(smooth_3d, 1e-3))
        assert recon.shape == smooth_3d.shape

    def test_blob_tagged_by_name(self, cls, smooth_2d):
        comp = cls()
        cf = comp.compress(smooth_2d, 1e-3)
        assert cf.header.modules["baseline"] == comp.name

    def test_rejects_foreign_blob(self, cls, smooth_2d):
        comp = cls()
        other = next(c for c in BASELINES if c is not cls)()
        blob = other.compress(smooth_2d, 1e-3).blob
        with pytest.raises(HeaderError):
            comp.decompress(blob)


class TestGetCompressor:
    def test_all_seven_resolve(self, smooth_2d):
        for name in ALL_COMPRESSOR_NAMES:
            comp = get_compressor(name)
            cf = comp.compress(smooth_2d, 1e-3)
            recon = comp.decompress(cf)
            assert verify_error_bound(smooth_2d, recon,
                                      eb_abs_for(smooth_2d, 1e-3)), name

    def test_unknown_rejected(self):
        with pytest.raises(ConfigError):
            get_compressor("zipzap")

    def test_baseline_names_subset(self):
        assert set(BASELINE_NAMES) < set(ALL_COMPRESSOR_NAMES)


class TestTable3Orderings:
    """The structural CR orderings Table 3 demonstrates."""

    @pytest.fixture
    def smooth_field(self):
        from repro.data import load_field
        return load_field("hurr", "P", scale=0.12)

    def test_sz3_leads_on_smooth(self, smooth_field):
        crs = {n: get_compressor(n).compress(smooth_field, 1e-2).stats.cr
               for n in ALL_COMPRESSOR_NAMES}
        assert crs["sz3"] == max(crs.values())

    def test_speed_trades_ratio_for_throughput(self, smooth_field):
        crs = {n: get_compressor(n).compress(smooth_field, 1e-2).stats.cr
               for n in ("fzmod-speed", "fzmod-default")}
        assert crs["fzmod-speed"] < crs["fzmod-default"]

    def test_pfpl_beats_cuszp2_on_smooth_loose(self, smooth_field):
        cr_p = get_compressor("pfpl").compress(smooth_field, 1e-2).stats.cr
        cr_c = get_compressor("cuszp2").compress(smooth_field, 1e-2).stats.cr
        assert cr_p > cr_c

    def test_sz3_variant_selection_works(self, noisy_2d, smooth_field):
        """SZ3 must auto-pick different variants for different data."""
        import json
        sz3 = SZ3()
        blobs = [sz3.compress(noisy_2d, 1e-2), sz3.compress(smooth_field, 1e-2)]
        variants = {cf.header.stage_meta["baseline"]["variant"] for cf in blobs}
        assert variants <= {"interp", "lorenzo", "delta"}

    def test_quality_reconstruction_ranks(self, smooth_field):
        """At a matched bit budget, sz3 reconstructs better than cuszp2 (the
        Figure-4 rate-distortion ordering) — proxied here by PSNR at equal
        error bound with much smaller output."""
        eb = 1e-3
        sz3 = get_compressor("sz3").compress(smooth_field, eb)
        cus = get_compressor("cuszp2").compress(smooth_field, eb)
        assert sz3.stats.output_bytes < cus.stats.output_bytes


#: an ``sz3`` interp-variant container (radius 512) of the golden 12 x 16
#: field at eb=1e-3 REL, written by the float64 walk at commit de90049,
#: and the sha256 of the float32 bytes it decoded to there
GOLDEN_SZ3_INTERP_BLOB = base64.b64decode(
    "RlpNRAEA+AEAAEbCvYx7InNoYXBlIjpbMTIsMTZdLCJkdHlwZSI6IjxmNCIsImViX3ZhbHVl"
    "IjowLjAwMSwiZWJfbW9kZSI6InJlbCIsImViX2FicyI6MC4wMTE5MTE5NTIwMTg3Mzc3OTMs"
    "InJhZGl1cyI6MCwibW9kdWxlcyI6eyJiYXNlbGluZSI6InN6MyJ9LCJzdGFnZV9tZXRhIjp7"
    "ImJhc2VsaW5lIjp7InZhcmlhbnQiOiJpbnRlcnAiLCJyYWRpdXMiOjUxMiwiY291bnQiOjE5"
    "MSwibWF4X2xlbiI6MjAsIm5jaHVua3MiOjEsIm1heF9sZXZlbCI6NSwib3V0bGllcl9jb3Vu"
    "dCI6MCwiY2hvaWNlcyI6WzAsMCwwLDAsMCwxLDEsMV0sImNvZGVfZnJhY3Rpb24iOjAuNDk3"
    "Mzk1ODMzMzMzMzMzM319LCJzZWN0aW9ucyI6W1sicGF5bG9hZCIsMCwxOTFdLFsibGVuZ3Ro"
    "cyIsMTkxLDEzNV0sWyJjaHVua19zeW1zIiwzMjYsOF0sWyJjaHVua19iaXRzIiwzMzQsOF0s"
    "WyJhbmNob3JzIiwzNDIsMjBdLFsib3V0bGllci5pZHgiLDM2MiwwXSxbIm91dGxpZXIudmFs"
    "IiwzNjIsMF1dLCJib2R5X2NyYyI6MjY1OTcwNDM2MX2sAAAAAAAAAHicAawAU//cCyi6XRE8"
    "wBTBg/nu3X6bB+/kBY2hMRS/v5d5EAL3RKrt1WdhPn3MbTNksVBMkFDcsv4qme0nCN4t/EoP"
    "kCzVhHjHoZWlByAYaTJHA3s9T74fHVJTcGUd9jJNqca2AhCHhXBvg/fY8OdvQrFkmYJ5HgcD"
    "4L6ZHrikLPcc0lIi3NwDFGgN46M6+Oc65/ip2r3Ue0UO3Ir4fH/zm2/Mq4un61pfBGu5Nnm1"
    "Ju1UCtVVJAAEAAAAAAAAeJzlT1sOgCAM29fa+59Y9mCiYIKfxoWEbmtLEfl68S2RHPtnOWvJ"
    "mUbeqAOljHkOHGLKTPehD2rrcywyDonUG8INGD60EthB5WtGsNP8gLg0UMNqr2Ks6FOSmopm"
    "UDR56D8K2nXgl+QQXX75YicXmnerwgruyrGB/1UH/ocES78AAAAAAAAAYAUAAAAAAAAEAAAA"
    "AAAAAHicUyqQsAMAAkoA6Q=="
)
GOLDEN_SZ3_INTERP_DIGEST = (
    "b755f1e23991565872d80d43aa412394b90ada7e8f3812edf86f8b556c5d0783")


class _InterpOnly(SZ3):
    """SZ3 restricted to its interp variant."""

    def _encode(self, data, eb_abs):
        return self._encode_interp(data, eb_abs)


class TestSZ3StorageWalk:
    """The interp variant walks in the storage dtype, marks it, and ships
    every miss of the bound as a ``patch.idx`` / ``patch.val`` pair."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_marker_and_exact_bound(self, rng, dtype):
        data = np.cumsum(rng.standard_normal((40, 50)), axis=0).astype(dtype)
        comp = _InterpOnly()
        blob = comp.compress(data, 1e-3).blob
        header, _ = parse(blob)
        assert header.stage_meta["baseline"]["walk"] == "storage"
        recon = comp.decompress(blob)
        assert recon.dtype == dtype
        assert np.abs(data.astype(np.float64) - recon).max() <= header.eb_abs

    def test_patches_travel_in_their_sections(self, monkeypatch):
        """A patch the kernel hands over is carried by the container and
        written back by the decoder."""
        real = interp.compress

        def with_patch(*args, **kwargs):
            res = real(*args, **kwargs)
            idx = np.array([7], dtype=np.int64)
            return dataclasses.replace(
                res, patch_index=idx,
                patch_value=np.asarray(args[0]).reshape(-1)[idx] + 1)

        monkeypatch.setattr(interp, "compress", with_patch)
        data = np.cumsum(np.ones((20, 30)), axis=1).astype(np.float32)
        comp = _InterpOnly()
        blob = comp.compress(data, 1e-3).blob
        header, body = parse(blob)
        assert {"patch.idx", "patch.val"} <= {name for name, *_ in
                                               header.sections}
        assert comp.decompress(blob).reshape(-1)[7] == data.reshape(-1)[7] + 1

    def test_old_container_decodes_on_the_float64_walk(self):
        header, _ = parse(GOLDEN_SZ3_INTERP_BLOB)
        assert "walk" not in header.stage_meta["baseline"]
        recon = SZ3().decompress(GOLDEN_SZ3_INTERP_BLOB)
        assert hashlib.sha256(recon.tobytes()).hexdigest() == \
            GOLDEN_SZ3_INTERP_DIGEST
