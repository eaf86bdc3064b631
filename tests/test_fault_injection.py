"""Fault-injection tests: corrupted containers must fail *loudly*.

An error-bounded compressor that silently returns wrong data on a
corrupted input is worse than useless in an HPC I/O stack.  The container
carries CRCs over both the header and the stored body, so every
single-byte corruption must either raise an :class:`FZModError` subclass
or (never) succeed — a successful decode of a tampered blob is a test
failure.
"""

from __future__ import annotations

from dataclasses import replace

import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines import get_compressor
from repro.core import (decompress, fzmod_default, fzmod_quality,
                        fzmod_speed)
from repro.core.header import assemble, parse, split_sections
from repro.errors import (CodecError, FZModError, HeaderError,
                          ModuleNotFoundInRegistry)
from repro.kernels import deflate
from repro.parallel.executor import describe_sharded

#: stands for a key deleted from re-sealed metadata
_MISSING = "<deleted>"


@pytest.fixture(scope="module")
def blob() -> bytes:
    rng = np.random.default_rng(42)
    data = np.cumsum(rng.standard_normal((32, 40)), axis=0).astype(np.float32)
    return fzmod_default().compress(data, 1e-3).blob


def _assert_resealed_codec_error(header, sections,
                                 entries=(decompress, repro.decompress)):
    """Re-seal (valid CRCs) and demand ``CodecError`` at every entry point."""
    head, body = assemble(header, sections)
    for entry in entries:
        with pytest.raises(CodecError):
            entry(head + body)


class TestSingleByteCorruption:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_flip_detected(self, blob, data):
        pos = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        bad = bytearray(blob)
        bad[pos] ^= flip
        with pytest.raises(FZModError):
            decompress(bytes(bad))

    def test_truncation_at_every_region(self, blob):
        for cut in (2, 8, len(blob) // 2, len(blob) - 1):
            with pytest.raises(FZModError):
                decompress(blob[:cut])

    def test_appended_garbage_detected(self, blob):
        with pytest.raises(FZModError):
            decompress(blob + b"\x00" * 10)

    def test_empty_and_tiny_inputs(self):
        for junk in (b"", b"F", b"FZMD", b"FZMD" + b"\x00" * 6):
            with pytest.raises(FZModError):
                decompress(junk)


class TestResealedChunkTable:
    """CRCs stop accidents, not authors: a container re-sealed around a
    lying Huffman chunk table must still end in ``CodecError``."""

    @pytest.mark.parametrize("section,value", [
        ("enc.chunk_syms", -5), ("enc.chunk_syms", 1 << 40),
        ("enc.chunk_syms", 1281), ("enc.chunk_bits", -8),
        ("enc.chunk_bits", 1 << 40)])
    def test_tampered_table_is_a_codec_error(self, blob, section, value):
        header, body = parse(blob)
        sections = dict(split_sections(header, body))
        sections[section] = np.array([value], dtype=np.int64).tobytes()
        head, body = assemble(header, sections)
        with pytest.raises(CodecError):
            decompress(head + body)
        with pytest.raises(CodecError):
            repro.decompress(head + body)


class TestResealedHuffmanMeta:
    """A ``fzmod-default`` container re-sealed (valid CRCs) around lying
    Huffman encoder metadata must end in ``CodecError`` -- not in whatever
    ``int()``, ``np.frombuffer`` or a dict lookup raises on it, and not in
    a quiet decode."""

    @pytest.fixture(scope="class")
    def parts(self, blob):
        header, body = parse(blob)
        assert header.stage_meta["encoder"]["nchunks"] == 1
        return header, dict(split_sections(header, body))

    @pytest.mark.parametrize("key,value", [
        ("nchunks", 5), ("nchunks", 2.5), ("nchunks", 1 << 40),
        ("nchunks", 0), ("nchunks", -1), ("nchunks", True),
        ("nchunks", "x"), ("nchunks", None),
        ("count", "x"), ("count", None), ("count", 2.5),
        ("max_len", "x"), ("max_len", None), ("max_len", True)])
    def test_lying_value(self, parts, key, value):
        header, sections = parts
        encoder = {**header.stage_meta["encoder"], key: value}
        meta = {**header.stage_meta, "encoder": encoder}
        _assert_resealed_codec_error(replace(header, stage_meta=meta), sections)

    @pytest.mark.parametrize("key", ["nchunks", "count", "max_len"])
    def test_missing_value(self, parts, key):
        header, sections = parts
        encoder = dict(header.stage_meta["encoder"])
        del encoder[key]
        meta = {**header.stage_meta, "encoder": encoder}
        _assert_resealed_codec_error(replace(header, stage_meta=meta), sections)

    @pytest.mark.parametrize("name", ["enc.lengths", "enc.payload",
                                      "enc.chunk_syms", "enc.chunk_bits"])
    def test_missing_section(self, parts, name):
        header, sections = parts
        _assert_resealed_codec_error(
            header, {k: v for k, v in sections.items() if k != name})

    @pytest.mark.parametrize("name", ["enc.lengths", "enc.chunk_syms",
                                      "enc.chunk_bits"])
    @pytest.mark.parametrize("resize", [lambda b: b[:-1], lambda b: b + b],
                             ids=["truncated", "doubled"])
    def test_section_of_the_wrong_length(self, parts, name, resize):
        header, sections = parts
        _assert_resealed_codec_error(
            header, {**sections, name: resize(bytes(sections[name]))})

    @pytest.mark.parametrize("max_len", [20, 24])
    def test_declared_max_len_does_not_size_the_tables(self, blob, parts,
                                                       max_len):
        # a limit above the longest code is a valid container: it decodes
        # as written, with tables the size of the book's longest code
        header, sections = parts
        encoder = {**header.stage_meta["encoder"], "max_len": max_len}
        meta = {**header.stage_meta, "encoder": encoder}
        head, body = assemble(replace(header, stage_meta=meta), sections)
        resealed = head + body
        repro.decompress(resealed)                      # warm-up
        tracemalloc.start()
        try:
            out = repro.decompress(resealed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(out, repro.decompress(blob))
        assert peak <= 16 * len(blob)


class TestResealedBitshuffleMeta:
    """A ``fzmod-speed`` container re-sealed (valid CRCs) around lying
    bitshuffle encoder metadata must end in ``CodecError`` -- not in
    whatever ``int()``, a modulo or a dict lookup raises on it, not in a
    quiet decode, and not after an allocation the metadata sized."""

    @pytest.fixture(scope="class")
    def parts(self):
        rng = np.random.default_rng(42)
        data = np.cumsum(rng.standard_normal((32, 40)),
                         axis=0).astype(np.float32)
        header, body = parse(fzmod_speed().compress(data, 1e-3).blob)
        assert header.stage_meta["encoder"] == {
            "count": 1280, "orig_len": 8192, "word_bytes": 32, "width": 16}
        return header, dict(split_sections(header, body))

    @staticmethod
    def _with_encoder_meta(header, **changes):
        encoder = {**header.stage_meta["encoder"], **changes}
        return replace(header,
                       stage_meta={**header.stage_meta, "encoder": encoder})

    @pytest.mark.parametrize("value", ["x", None, [16], True, 2.5],
                             ids=repr)
    @pytest.mark.parametrize("key", ["orig_len", "word_bytes", "width"])
    def test_value_of_the_wrong_type(self, parts, key, value):
        header, sections = parts
        _assert_resealed_codec_error(
            self._with_encoder_meta(header, **{key: value}), sections)

    @pytest.mark.parametrize("key,value", [
        ("word_bytes", 32.5), ("word_bytes", 32.0), ("word_bytes", 0),
        ("word_bytes", -32), ("word_bytes", 16), ("word_bytes", 1 << 40),
        ("width", 16.0), ("width", 32), ("width", 8), ("width", 0),
        ("orig_len", 8192.0), ("orig_len", 0), ("orig_len", -8192),
        ("orig_len", 8191), ("orig_len", 8224), ("orig_len", 16384),
        ("orig_len", 1 << 40)])
    def test_lying_value(self, parts, key, value):
        header, sections = parts
        _assert_resealed_codec_error(
            self._with_encoder_meta(header, **{key: value}), sections)

    @pytest.mark.parametrize("key", ["orig_len", "word_bytes", "width"])
    def test_missing_value(self, parts, key):
        header, sections = parts
        encoder = dict(header.stage_meta["encoder"])
        del encoder[key]
        meta = {**header.stage_meta, "encoder": encoder}
        _assert_resealed_codec_error(replace(header, stage_meta=meta), sections)

    @pytest.mark.parametrize("name", ["enc.bitmap2", "enc.bitmap1",
                                      "enc.words"])
    def test_missing_section(self, parts, name):
        header, sections = parts
        _assert_resealed_codec_error(
            header, {k: v for k, v in sections.items() if k != name})

    @pytest.mark.parametrize("name", ["enc.bitmap1", "enc.words"])
    @pytest.mark.parametrize("resize", [lambda b: b[:-1], lambda b: b + b],
                             ids=["truncated", "doubled"])
    def test_section_of_the_wrong_length(self, parts, name, resize):
        header, sections = parts
        _assert_resealed_codec_error(
            header, {**sections, name: resize(bytes(sections[name]))})

    @pytest.mark.parametrize("bitmap2", [b"\x00", b"\xff" * 3, bytes(4096)],
                             ids=["short", "one-byte-short", "all-zero"])
    def test_level_two_bitmap_that_does_not_fit(self, parts, bitmap2):
        """The speed pipeline writes a flat bitmap (empty ``enc.bitmap2``);
        a non-empty one switches ``restore`` to the two-level reading,
        which must then account for all 32 bytes of ``enc.bitmap1``."""
        header, sections = parts
        _assert_resealed_codec_error(header, {**sections, "enc.bitmap2": bitmap2})

    def test_orig_len_does_not_size_an_allocation(self, parts):
        """1 MiB of zero bitmap, no words, ``orig_len`` = 256 MiB: the flat
        bitmap has exactly the length that stream implies, so the only
        thing standing between the header and a 256 MiB ``np.zeros`` is
        the check against the element count."""
        import tracemalloc
        header, sections = parts
        header = self._with_encoder_meta(header, orig_len=256 << 20)
        head, body = assemble(header, {**sections,
                                       "enc.bitmap1": bytes(1 << 20),
                                       "enc.words": b""})
        blob = head + body
        for entry in (decompress, repro.decompress):
            tracemalloc.start()
            try:
                with pytest.raises(CodecError):
                    entry(blob)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * len(blob)


class TestResealedInterpMeta:
    """A ``fzmod-quality`` container re-sealed (valid CRCs) around lying
    interpolation metadata must end in ``CodecError`` — not in whatever a
    shift, a slice or a reshape sized by that metadata raises."""

    @pytest.fixture(scope="class")
    def parts(self):
        rng = np.random.default_rng(7)
        data = np.cumsum(rng.standard_normal((24, 20, 18)),
                         axis=0).astype(np.float32)
        header, body = parse(fzmod_quality().compress(data, 1e-3).blob)
        assert header.stage_meta["predictor"] == {"max_level": 4}
        return header, dict(split_sections(header, body))

    @pytest.mark.parametrize("level", [0, -1, 40, 70, 2.5, "x", None, True,
                                       3, 5])
    def test_lying_max_level(self, parts, level):
        header, sections = parts
        meta = {**header.stage_meta, "predictor": {"max_level": level}}
        _assert_resealed_codec_error(replace(header, stage_meta=meta), sections)

    def test_missing_max_level(self, parts):
        header, sections = parts
        meta = {**header.stage_meta, "predictor": {}}
        _assert_resealed_codec_error(replace(header, stage_meta=meta), sections)

    @pytest.mark.parametrize("keep", [0, 4, -4, 3, -1])
    def test_anchor_section_of_the_wrong_length(self, parts, keep):
        """Dropped, truncated or padded anchors: the Huffman stream then
        holds a symbol count other than the one the header implies, or the
        anchor grid does not match ``max_level``."""
        header, sections = parts
        anchors = sections["anchors"]
        sections = {**sections,
                    "anchors": anchors[:keep] if keep >= 0
                    else anchors + anchors[keep:]}
        _assert_resealed_codec_error(header, sections)


class TestResealedContainerMeta:
    """A container re-sealed (valid CRCs) around lying *container-level*
    metadata -- the outlier count, the predictor's stream length, the aux
    channel table -- must end in ``CodecError`` at the one place that
    reads them (``CompiledDecodePlan.decode_entropy``)."""

    @pytest.fixture(scope="class", params=["fzmod-default", "fzmod-quality"])
    def parts(self, request):
        rng = np.random.default_rng(7)
        data = np.cumsum(rng.standard_normal((24, 20, 18)),
                         axis=0).astype(np.float32)
        blob = repro.compress(data, request.param, 1e-3).blob
        header, body = parse(blob)
        assert header.stage_meta["outliers"] == {"count": 0}
        assert header.stage_meta["aux"] == {}
        return (header, dict(split_sections(header, body)),
                (decompress, repro.decompress))

    @staticmethod
    def _with_meta(header, stage, **changes):
        meta = {**header.stage_meta,
                stage: {**header.stage_meta[stage], **changes}}
        return replace(header, stage_meta=meta)

    @pytest.mark.parametrize("count", ["x", None, [3], 2.5, -1, 1 << 40,
                                       True, 1], ids=repr)
    def test_lying_outlier_count(self, parts, count):
        header, sections, entries = parts
        _assert_resealed_codec_error(
            self._with_meta(header, "outliers", count=count), sections,
            entries)

    @pytest.mark.parametrize("length", ["x", None, [3], 2.5, -1, True],
                             ids=repr)
    def test_lying_stream_length(self, parts, length):
        header, sections, entries = parts
        _assert_resealed_codec_error(
            self._with_meta(header, "predictor", stream_length=length),
            sections, entries)

    @pytest.mark.parametrize("aux", [
        {"a": 1}, {"a": ["<f4"]}, {"a": ["<f4", [2]]}, {"a": ["nope", [2]]},
        {"a": ["<f4", ["x"]]}, {"a": [None, [2]]}, {"a": ["O", [1]]},
        {"a": ["<f4,<f4", [1]]}, {"a": ["<f4", [-2]]}, {"a": ["<f4", 2]},
        {"a": ["<f4", [3]]}, {"a": ["<f4", [1 << 40]]}], ids=repr)
    def test_lying_aux_table(self, parts, aux):
        """``aux.a`` holds eight bytes: two ``<f4``, whatever the table
        says."""
        header, sections, entries = parts
        meta = {**header.stage_meta, "aux": aux}
        for extra in ({}, {"aux.a": bytes(8)}):
            if aux == {"a": ["<f4", [2]]} and extra:
                continue  # the one honest table
            _assert_resealed_codec_error(replace(header, stage_meta=meta),
                                         {**sections, **extra}, entries)

    def test_outlier_sections_that_contradict_the_count(self):
        data = np.random.default_rng(5).standard_normal(4000) \
            .astype(np.float32)
        data[::400] *= 1e6
        header, body = parse(fzmod_default().compress(data, 1e-6).blob)
        sections = dict(split_sections(header, body))
        count = header.stage_meta["outliers"]["count"]
        assert count > 0
        entries = (decompress, repro.decompress)
        for lie in (0, count + 1, 1 << 40):
            _assert_resealed_codec_error(
                self._with_meta(header, "outliers", count=lie), sections,
                entries)
        for name in ("outlier.idx", "outlier.val"):
            for stump in (b"", b"\x00" * 5):
                _assert_resealed_codec_error(
                    header, {**sections, name: stump}, entries)

    def test_outlier_count_does_not_size_an_allocation(self, parts):
        import tracemalloc
        header, sections, entries = parts
        head, body = assemble(
            self._with_meta(header, "outliers", count=1 << 40), sections)
        blob = head + body
        for entry in entries:
            tracemalloc.start()
            try:
                with pytest.raises(CodecError):
                    entry(blob)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * len(blob)


class TestResealedPreprocessRange:
    """A rel-mode container re-sealed (valid CRCs) around a lying or
    missing ``preprocess`` ``min``/``max`` decodes to exactly what the
    untouched container decodes to: the fused read pass picks its grid
    width from a proof over the decoded deltas, never from the header's
    range.  At ``1e-10`` every delta is an outlier and the sweep needs
    ``int64``; a narrow range claimed over it must not wrap the field."""

    @pytest.mark.parametrize("lie", [
        {"min": 0.0, "max": 1e-6}, {"min": -1.0, "max": 1.0}, {}],
        ids=["narrow", "unit", "removed"])
    @pytest.mark.parametrize("rel", [1e-3, 1e-10])
    def test_range_does_not_steer_the_decode(self, lie, rel):
        rng = np.random.default_rng(3)
        data = np.cumsum(rng.standard_normal((24, 30)), axis=0)
        blob = repro.compress(data, "fzmod-default", rel).blob
        header, body = parse(blob)
        assert header.stage_meta["preprocess"]["mode"] == "rel"
        ref = repro.decompress(blob)
        meta = {**header.stage_meta, "preprocess": {"mode": "rel", **lie}}
        head, body = assemble(replace(header, stage_meta=meta),
                              dict(split_sections(header, body)))
        for entry in (decompress, repro.decompress):
            assert entry(head + body).tobytes() == ref.tobytes()


class TestResealedSecondary:
    """An ``fzmod-default`` + ``deflate`` container re-sealed (valid CRCs)
    around a hostile stored body must end in ``CodecError`` -- and a bomb
    must be refused before it inflates."""

    @pytest.fixture(scope="class")
    def parts(self):
        rng = np.random.default_rng(42)
        data = np.cumsum(rng.standard_normal((32, 40)),
                         axis=0).astype(np.float32)
        blob = fzmod_default(secondary="deflate").compress(data, 1e-3).blob
        header, stored = parse(blob)
        assert header.modules["secondary"] == "deflate"
        sections = dict(split_sections(header, deflate.decompress(stored)))
        return blob, header, sections, stored

    @staticmethod
    def _resealed(header, sections, stored):
        head, _ = assemble(replace(header), sections, stored_body=stored)
        return head + stored

    @pytest.mark.parametrize("hostile", [
        lambda s: s[:0], lambda s: s[:7], lambda s: s[:17],
        lambda s: struct.pack("<Q", struct.unpack_from("<Q", s)[0] - 1) + s[8:],
        lambda s: struct.pack("<Q", struct.unpack_from("<Q", s)[0] + 1) + s[8:],
        lambda s: s + b"\x00", lambda s: s[:8] + b"this is not zlib"],
        ids=["empty", "7B", "17B", "declared-short", "declared-long",
             "trailing", "not-zlib"])
    def test_hostile_body(self, parts, hostile):
        _, header, sections, stored = parts
        bad = self._resealed(header, sections, hostile(stored))
        for entry in (decompress, repro.decompress):
            with pytest.raises((CodecError, HeaderError)):
                entry(bad)

    def test_bomb_does_not_inflate(self, parts):
        """64 MiB of zeros deflated, declared as 1 KiB."""
        import tracemalloc
        blob, header, sections, _ = parts
        packer = zlib.compressobj(deflate.LEVEL)
        zeros = bytes(1 << 20)
        bomb = (struct.pack("<Q", 1 << 10)
                + b"".join(packer.compress(zeros) for _ in range(64))
                + packer.flush())
        bad = self._resealed(header, sections, bomb)
        for entry in (decompress, repro.decompress):
            entry(blob)  # plan and caches warm outside the measurement
            tracemalloc.start()
            try:
                with pytest.raises(CodecError):
                    entry(bad)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1 << 20

    @pytest.mark.parametrize("name", ["zstd-like", "rle", "bitcomp-like"])
    def test_removed_secondary_module(self, parts, name, tmp_path, capsys):
        """A header naming a secondary this library no longer ships ends in
        the registry's own error, and the CLI says so in one line."""
        from repro.cli import main
        _, header, sections, stored = parts
        header = replace(header, modules={**header.modules, "secondary": name},
                         pipeline={**header.pipeline, "secondary": name})
        bad = self._resealed(header, sections, stored)
        with pytest.raises(ModuleNotFoundInRegistry, match=name):
            repro.decompress(bad)
        path = tmp_path / "old.fzmod"
        path.write_bytes(bad)
        assert main(["decompress", str(path),
                     "-o", str(tmp_path / "out.f32")]) != 0
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and name in err
        assert "Traceback" not in err
        assert not (tmp_path / "out.f32").exists()


class TestResealedSZ3:
    """An ``sz3`` container re-sealed (valid CRCs) around lying baseline
    metadata must end in ``CodecError`` -- not in ``KeyError``,
    ``ValueError`` or a quiet decode -- before the metadata sizes a read."""

    @pytest.fixture(scope="class")
    def parts(self):
        """variant -> (header, sections) of a container of that variant."""
        from repro.baselines.sz3 import SZ3
        rng = np.random.default_rng(7)
        data = np.cumsum(rng.standard_normal((24, 20, 18)),
                         axis=0).astype(np.float32)
        out = {}
        for variant in ("interp", "lorenzo", "delta"):
            class OneVariant(SZ3):
                def _encode(self, data, eb_abs, variant=variant):
                    return getattr(self, f"_encode_{variant}")(data, eb_abs)

            header, body = parse(OneVariant().compress(data, 1e-3).blob)
            assert header.stage_meta["baseline"]["variant"] == variant
            out[variant] = header, dict(split_sections(header, body))
        return out

    @staticmethod
    def _assert_refused(parts, variant, key, value):
        header, sections = parts[variant]
        meta = {**header.stage_meta["baseline"], key: value}
        meta = {k: v for k, v in meta.items() if v != _MISSING}
        head, body = assemble(replace(header, stage_meta={"baseline": meta}),
                              sections)
        with pytest.raises((CodecError, HeaderError)):
            get_compressor("sz3").decompress(head + body)

    @pytest.mark.parametrize("key,value", [
        ("nchunks", 10**6), ("nchunks", -1), ("nchunks", True),
        ("count", "x"), ("max_len", _MISSING), ("max_len", "x"),
        ("outlier_count", "x"), ("outlier_count", _MISSING),
        ("variant", _MISSING)], ids=repr)
    @pytest.mark.parametrize("variant", ["interp", "lorenzo"])
    def test_lying_huffman_meta(self, parts, variant, key, value):
        self._assert_refused(parts, variant, key, value)

    @pytest.mark.parametrize("key,value", [
        ("radius", _MISSING), ("radius", "x"), ("radius", 0),
        ("radius", 1 << 16), ("max_level", _MISSING), ("max_level", "x"),
        ("choices", "x"), ("choices", ["x"]), ("choices", _MISSING)],
        ids=repr)
    def test_lying_interp_meta(self, parts, key, value):
        self._assert_refused(parts, "interp", key, value)

    @pytest.mark.parametrize("key,value", [
        ("word_bytes", _MISSING), ("orig_len", _MISSING), ("orig_len", "x"),
        ("count", _MISSING), ("variant", _MISSING)], ids=repr)
    def test_lying_delta_meta(self, parts, key, value):
        self._assert_refused(parts, "delta", key, value)


def _reseal_shard_index(blob: bytes, edit) -> bytes:
    """Apply ``edit`` to an FZMS container's JSON index; re-seal its CRC."""
    magic, version, hlen, _ = struct.unpack_from("<4sHII", blob)
    if version < 3:
        obj = json.loads(blob[14:14 + hlen])
        edit(obj)
        hjson = json.dumps(obj, separators=(",", ":")).encode()
        return (struct.pack("<4sHII", magic, version, len(hjson),
                            zlib.crc32(hjson)) + hjson + blob[14 + hlen:])
    ioff, ilen, _, tmagic = struct.unpack_from("<QII4s", blob, len(blob) - 20)
    obj = json.loads(blob[ioff:ioff + ilen])
    edit(obj)
    hjson = json.dumps(obj, separators=(",", ":")).encode()
    return blob[:ioff] + hjson + struct.pack("<QII4s", ioff, len(hjson),
                                             zlib.crc32(hjson), tmagic)


def _overlap(obj):
    obj["bounds"][-1] = list(obj["bounds"][-2])


def _shifted(obj):
    obj["bounds"][0][1] -= 10
    obj["bounds"][1][0] -= 10


def _dropped(obj):
    obj["bounds"].pop()
    obj["table"].pop()


def _repeated_table_entry(obj):
    obj["table"][1] = list(obj["table"][0])


def _bool_bound(obj):
    obj["bounds"][0][0] = False


def _wide_dtype(obj):
    obj["dtype"] = "<f8"


def _oversized(obj):
    obj["shape"][0] = 10 ** 12


class TestResealedShardIndex:
    """A 3-shard ``fzmod-default`` FZMS container re-sealed (valid CRCs)
    around an index that does not tile the field, or that disagrees with
    its shards' own headers, must be refused before the output is sized --
    not decoded into uninitialised rows.  v1/v2 blobs raise
    ``HeaderError`` and v3 files ``CodecError``, as for their other
    index defects."""

    @pytest.fixture(scope="class")
    def blobs(self, tmp_path_factory):
        rng = np.random.default_rng(3)
        x = np.cumsum(rng.standard_normal((120, 90)), axis=0).astype(np.float32)
        kw = dict(workers=1, shard_mb=0.014)
        path = tmp_path_factory.mktemp("fzms") / "v3.fzms"
        repro.compress(x, "fzmod-default", 1e-3, stream=True, out=path,
                       layout="stream", **kw)
        out = {"v1": repro.compress(x, "fzmod-default", 1e-3, **kw).blob,
               "v2": repro.compress(x, "fzmod-default", 1e-3,
                                    codebook="shared", **kw).blob,
               "v3": path.read_bytes()}
        for version, blob in out.items():
            assert blob[4] == int(version[1])
            assert len(describe_sharded(blob)["shards"]) == 3
        return out

    @staticmethod
    def _entries(version, bad, tmp_path):
        """(decode callable, expected error) per entry point of a version."""
        if version == "v3":
            path = tmp_path / "bad.fzms"
            path.write_bytes(bad)
            return [(lambda w=w: repro.decompress(path, workers=w), CodecError)
                    for w in (1, 2)]
        return [(lambda w=w: repro.decompress(bad, workers=w), HeaderError)
                for w in (1, 2)]

    @pytest.mark.parametrize("edit", [
        _overlap, _shifted, _dropped, _repeated_table_entry, _bool_bound,
        _wide_dtype, _oversized],
        ids=["overlap", "shifted", "dropped", "repeated-table-entry",
             "bool-bound", "wide-dtype", "oversized-shape"])
    @pytest.mark.parametrize("version", ["v1", "v2", "v3"])
    def test_refused(self, blobs, version, edit, tmp_path):
        bad = _reseal_shard_index(blobs[version], edit)
        for entry, error in self._entries(version, bad, tmp_path):
            with pytest.raises(error):
                entry()

    @pytest.mark.parametrize("version", ["v1", "v2", "v3"])
    def test_oversized_shape_does_not_size_an_allocation(self, blobs, version,
                                                         tmp_path):
        import tracemalloc
        bad = _reseal_shard_index(blobs[version], _oversized)
        for entry, error in self._entries(version, bad, tmp_path):
            repro.decompress(blobs[version])  # plan and caches warm
            tracemalloc.start()
            try:
                with pytest.raises(error):
                    entry()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * len(bad)


class TestBaselineCorruption:
    @pytest.mark.parametrize("name", ["cuszp2", "fzgpu", "pfpl", "sz3"])
    def test_baseline_blob_flip_detected(self, name, rng):
        data = np.cumsum(rng.standard_normal(2000)).astype(np.float32)
        comp = get_compressor(name)
        blob = bytearray(comp.compress(data, 1e-3).blob)
        for pos in (5, len(blob) // 2, len(blob) - 2):
            bad = bytearray(blob)
            bad[pos] ^= 0xA5
            with pytest.raises(FZModError):
                comp.decompress(bytes(bad))


    @pytest.mark.parametrize("block", [0, -256, 12])
    @pytest.mark.parametrize("name", ["fzgpu", "pfpl"])
    def test_resealed_shuffle_block(self, name, block, rng):
        """``meta["block"]`` reaches ``bitshuffle.unshuffle`` as read: zero
        used to divide, a negative one to reshape."""
        data = np.cumsum(rng.standard_normal(2000)).astype(np.float32)
        comp = get_compressor(name)
        header, body = parse(comp.compress(data, 1e-3).blob)
        baseline = {**header.stage_meta["baseline"], "block": block}
        head, body = assemble(
            replace(header, stage_meta={"baseline": baseline}),
            dict(split_sections(header, body)))
        with pytest.raises(CodecError):
            comp.decompress(head + body)


class TestCrossContainerConfusion:
    def test_speed_blob_decodes_via_generic_path_only(self, rng):
        """Pipelines route by header: a speed blob handed to another
        preset's ``decompress`` decodes exactly as the generic path does,
        never as garbage."""
        data = rng.standard_normal(500).astype(np.float32)
        blob = fzmod_speed().compress(data, 1e-2).blob
        out = decompress(blob)  # generic path: fine
        assert out.shape == data.shape
        np.testing.assert_array_equal(fzmod_default().decompress(blob), out)
