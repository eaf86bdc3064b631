"""Shared-codebook sharding: determinism, compatibility, self-description.

The contract: ``codebook="shared"`` containers are byte-identical across
worker counts, reconstruct exactly like per-shard
containers, are smaller (one stored codebook instead of one per shard),
and decode from the blob alone.  Per-shard mode keeps writing version-1
containers bit-compatible with blobs from before this mode existed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import decompress, fzmod_default, get_preset
from repro.errors import ConfigError
from repro.parallel.executor import (_PREFIX, SHARD_VERSION,
                                     compress_sharded, decompress_sharded,
                                     describe_sharded, parse_sharded)
from repro.types import EbMode


@pytest.fixture(scope="module")
def field() -> np.ndarray:
    y, x = np.mgrid[0:160, 0:90]
    return (np.sin(x / 9.0) * np.cos(y / 7.0) * 40.0 + 250.0
            ).astype(np.float32)


def _shared(field, workers):
    return compress_sharded(field, fzmod_default(), 1e-3, EbMode.REL,
                            workers=workers, shard_mb=0.01, codebook="shared")


class TestDeterminism:
    def test_byte_identical_across_worker_counts(self, field):
        blobs = {w: _shared(field, w).blob for w in (1, 2, 4)}
        assert blobs[2] == blobs[1]
        assert blobs[4] == blobs[1]


class TestRoundTrip:
    def test_matches_per_shard_reconstruction(self, field):
        shared = _shared(field, 2)
        per_shard = compress_sharded(field, fzmod_default(), 1e-3, EbMode.REL,
                                     workers=2, shard_mb=0.01)
        a = decompress(shared.blob)
        b = decompress(per_shard.blob)
        assert np.array_equal(a, b)
        eb_abs = 1e-3 * float(field.max() - field.min())
        assert np.abs(a - field).max() <= eb_abs * (1 + 1e-9)

    def test_parallel_decode_from_blob_alone(self, field):
        blob = _shared(field, 2).blob
        recon = decompress_sharded(blob, workers=2)
        assert np.array_equal(recon, decompress(blob))

    def test_container_is_smaller(self, field):
        shared = _shared(field, 2)
        per_shard = compress_sharded(field, fzmod_default(), 1e-3, EbMode.REL,
                                     workers=2, shard_mb=0.01)
        assert shared.shard_count > 1
        assert shared.nbytes < per_shard.nbytes


class TestSelfDescription:
    def test_index_records_mode_and_lengths(self, field):
        blob = _shared(field, 2).blob
        index, _ = parse_sharded(blob)
        assert index.codebook_mode == "shared"
        lengths = index.shared_lengths()
        assert lengths is not None and lengths.dtype == np.uint8
        assert int(lengths.max()) > 0
        assert describe_sharded(blob)["codebook"] == "shared"

    def test_shared_writes_version_2(self, field):
        # the wire version of shared-codebook blobs stays pinned at 2
        # even though the reader now accepts up to SHARD_VERSION (the
        # streaming trailing-index layout) — bumping it would silently
        # break byte-compatibility with PR-3 era decoders
        blob = _shared(field, 2).blob
        _, version, _, _ = _PREFIX.unpack_from(blob, 0)
        assert version == 2
        assert SHARD_VERSION >= version

    def test_per_shard_still_writes_version_1(self, field):
        cf = compress_sharded(field, fzmod_default(), 1e-3, EbMode.REL,
                              workers=2, shard_mb=0.01)
        _, version, _, _ = _PREFIX.unpack_from(cf.blob, 0)
        assert version == 1                          # PR-1 compatible
        index, _ = parse_sharded(cf.blob)
        assert index.codebook_mode == "per-shard"
        assert index.shared_lengths() is None
        assert "codebook_mode" not in index.to_json()

    def test_mode_surfaces_on_the_result(self, field):
        assert _shared(field, 2).codebook_mode == "shared"


class TestValidation:
    def test_shared_requires_huffman(self, field):
        with pytest.raises(ConfigError, match="huffman"):
            compress_sharded(field, get_preset("fzmod-speed"), 1e-3,
                             EbMode.REL, workers=2, shard_mb=0.01,
                             codebook="shared")

    def test_unknown_mode_rejected(self, field):
        with pytest.raises(ConfigError, match="codebook"):
            compress_sharded(field, fzmod_default(), 1e-3, EbMode.REL,
                             workers=2, codebook="global")

    def test_pipeline_compress_routes_codebook(self, field):
        cf = fzmod_default().compress(field, 1e-3, EbMode.REL, workers=2,
                                      shard_mb=0.01, codebook="shared")
        assert cf.codebook_mode == "shared"
        assert np.array_equal(decompress(cf.blob),
                              decompress(_shared(field, 2).blob))
