"""STF-backed FZMod-Default pipeline (the experimental §3.3.1 constructor).

Instead of calling modules sequentially, the pipeline is *declared* as
tasks over logical data and handed to the STF engine, which infers the
dependency DAG, inserts host<->device transfers, and exposes the
branch-level concurrency the paper highlights:

* **compression** — the histogram+Huffman branch and the outlier-packing
  branch are independent after prediction, so they run concurrently (GPU
  histogram + CPU packing);
* **decompression** — CPU Huffman decode of the quant codes overlaps with
  GPU outlier unpacking/scatter preparation, exactly the example of
  §3.3.1.

Task durations on the simulated timeline come from the same calibrated
cost model that regenerates the paper's figures, so the reported makespan
is "what an H100 node would see", while the data itself is produced by the
real kernels (results are bit-identical to the serial pipeline).
"""

from __future__ import annotations

import numpy as np

from ..errors import PipelineError
from ..kernels import histogram as khist
from ..kernels import huffman, lorenzo, quantize
from ..perf.costmodel import CALIBRATION, cpu_rate
from ..perf.platform import H100, PlatformSpec
from ..runtime.device import DeviceRegistry, default_node
from ..stf import ExecutionReport, StfContext
from ..types import EbMode, ErrorBound, check_field
from .header import ContainerHeader, assemble, parse, split_sections
from .module import EncodedStream
from .modules_std import HuffmanEncoder
from .pipeline import (DEFAULT_RADIUS, CompressedField, CompressionStats,
                       _outlier_count)


def _registry_for(platform: PlatformSpec) -> DeviceRegistry:
    return default_node(gpu_mem_bw=platform.gpu_mem_bw,
                        gpu_link_bw=platform.measured_link_bw,
                        cpu_mem_bw=platform.cpu_mem_bw,
                        gpu_launch=platform.gpu_launch_overhead)


def _gpu_seconds(platform: PlatformSpec, traffic_bytes: float,
                 eff: float) -> float:
    return traffic_bytes / (platform.gpu_mem_bw * eff * platform.gpu_eff_scale)


class StfDefaultPipeline:
    """FZMod-Default expressed as a sequential task flow."""

    name = "fzmod-default-stf"

    def __init__(self, platform: PlatformSpec = H100,
                 radius: int = DEFAULT_RADIUS, mode: str = "async") -> None:
        self.platform = platform
        self.radius = radius
        self.mode = mode
        self.last_report: ExecutionReport | None = None

    # ------------------------------------------------------------------ #
    def compress(self, data: np.ndarray, eb: ErrorBound | float,
                 mode: EbMode | str = EbMode.REL) -> CompressedField:
        """Compress ``data`` by declaring the pipeline as an STF task graph."""
        if not isinstance(eb, ErrorBound):
            eb = ErrorBound(float(eb), EbMode(mode))
        data = check_field(data)
        eb_abs = eb.absolute(float(data.min()), float(data.max()))
        cal = CALIBRATION
        plat = self.platform
        nbytes = data.nbytes

        ctx = StfContext(registry=_registry_for(plat))
        ld_data = ctx.logical_data(data, "field")
        ld_codes = ctx.logical_data_empty("codes")
        ld_oidx = ctx.logical_data_empty("outlier-idx")
        ld_oval = ctx.logical_data_empty("outlier-val")
        ld_hist = ctx.logical_data_empty("histogram")
        ld_payload = ctx.logical_data_empty("huffman-payload")
        ld_book = ctx.logical_data_empty("codebook-lengths")
        ld_chunks = ctx.logical_data_empty("chunk-table")
        ld_packed = ctx.logical_data_empty("packed-outliers")

        radius = self.radius

        def t_predict(field: np.ndarray):
            res = lorenzo.compress(field, eb_abs, radius)
            return (res.codes.reshape(-1), res.outliers.indices,
                    res.outliers.values)

        ctx.task("lorenzo-quantize", t_predict,
                 [ld_data.read(), ld_codes.write(), ld_oidx.write(),
                  ld_oval.write()], device="gpu0",
                 duration=_gpu_seconds(plat, 1.5 * nbytes, cal.gpu_eff_kernel))

        def t_hist(codes: np.ndarray):
            return (khist.histogram(codes, 2 * radius).counts,)

        ctx.task("histogram", t_hist, [ld_codes.read(), ld_hist.write()],
                 device="gpu0",
                 duration=_gpu_seconds(plat, 0.5 * nbytes,
                                       cal.gpu_eff_irregular))

        def t_huffman(codes: np.ndarray, counts: np.ndarray):
            book = huffman.build_codebook(counts)
            enc = huffman.encode(codes, book)
            chunk_table = np.concatenate([enc.chunk_symbols, enc.chunk_bits])
            return (np.frombuffer(enc.payload, dtype=np.uint8),
                    enc.lengths, chunk_table)

        huff_rate = cpu_rate(cal.cpu_huffman_encode_per_core, plat, cal)
        ctx.task("huffman-encode", t_huffman,
                 [ld_codes.read(), ld_hist.read(), ld_payload.write(),
                  ld_book.write(), ld_chunks.write()], device="cpu0",
                 duration=0.5 * nbytes / huff_rate)

        def t_pack(oidx: np.ndarray, oval: np.ndarray):
            idx, val, count = quantize.pack_outliers(
                quantize.OutlierSet(indices=oidx, values=oval))
            framed = (np.asarray([count, len(idx), len(val)], dtype=np.int64)
                      .tobytes() + idx + val)
            return (np.frombuffer(framed, dtype=np.uint8),)

        ctx.task("pack-outliers", t_pack,
                 [ld_oidx.read(), ld_oval.read(), ld_packed.write()],
                 device="cpu0", duration=1e-4)

        report = ctx.run(mode=self.mode)
        self.last_report = report

        payload = ld_payload.get().tobytes()
        lengths = ld_book.get()
        chunk_table = ld_chunks.get()
        nchunks = chunk_table.size // 2
        packed = ld_packed.get().tobytes()
        ocount, ilen, vlen = np.frombuffer(packed[:24], dtype=np.int64)
        sections = {
            "enc.payload": payload,
            "enc.lengths": np.asarray(lengths, dtype=np.uint8).tobytes(),
            "enc.chunk_syms": chunk_table[:nchunks].astype(np.int64).tobytes(),
            "enc.chunk_bits": chunk_table[nchunks:].astype(np.int64).tobytes(),
        }
        if ocount:
            sections["outlier.idx"] = packed[24:24 + ilen]
            sections["outlier.val"] = packed[24 + ilen:24 + ilen + vlen]
        codes = ld_codes.get()
        header = ContainerHeader(
            shape=data.shape, dtype=data.dtype.str, eb_value=eb.value,
            eb_mode=eb.mode.value, eb_abs=eb_abs, radius=radius,
            modules={"preprocess": "rel-eb", "predictor": "lorenzo",
                     "statistics": "histogram", "encoder": "huffman",
                     "secondary": "none"},
            stage_meta={"predictor": {}, "preprocess": {},
                        "encoder": {"count": int(codes.size),
                                    "max_len": huffman.DEFAULT_MAX_LEN,
                                    "nchunks": int(nchunks)},
                        "outliers": {"count": int(ocount)}})
        header_bytes, body = assemble(header, sections)
        blob = header_bytes + body
        stats = CompressionStats(
            input_bytes=data.nbytes, output_bytes=len(blob),
            element_count=data.size, eb_abs=eb_abs,
            code_fraction=codes.nbytes / data.nbytes,
            outlier_fraction=(len(packed) - 24) / data.nbytes,
            outlier_count=int(ocount),
            section_sizes={k: len(v) for k, v in sections.items()},
            stage_seconds={"stf-makespan": report.makespan})
        return CompressedField(blob=blob, stats=stats, header=header)

    # ------------------------------------------------------------------ #
    def decompress(self, blob: bytes | CompressedField) -> np.ndarray:
        """STF decompression with the §3.3.1 overlap: Huffman decode (CPU)
        runs concurrently with outlier unpacking (GPU)."""
        if isinstance(blob, CompressedField):
            blob = blob.blob
        header, body = parse(blob)
        if header.modules.get("encoder") != "huffman" \
                or header.modules.get("predictor") != "lorenzo":
            raise PipelineError("StfDefaultPipeline decodes only "
                                "lorenzo+huffman containers")
        sections = split_sections(header, body)
        cal = CALIBRATION
        plat = self.platform
        nbytes = header.element_count * header.np_dtype.itemsize
        # the module checks the container's encoder metadata and sections
        # against each other (CodecError) before any of them sizes a read
        stream = EncodedStream(
            sections={k: v for k, v in sections.items()
                      if k.startswith("enc.")},
            meta=header.stage_meta.get("encoder", {}))
        ocount = _outlier_count(header, sections)

        ctx = StfContext(registry=_registry_for(plat))
        ld_payload = ctx.logical_data(
            np.frombuffer(stream.sections.get("enc.payload", b"\0"),
                          dtype=np.uint8), "payload")
        ld_oidx_raw = ctx.logical_data(
            np.frombuffer(sections.get("outlier.idx", b"\0"), dtype=np.uint8),
            "outlier-idx-packed")
        ld_oval_raw = ctx.logical_data(
            np.frombuffer(sections.get("outlier.val", b"\0"), dtype=np.uint8),
            "outlier-val-packed")
        ld_codes = ctx.logical_data_empty("codes")
        ld_oidx = ctx.logical_data_empty("outlier-idx")
        ld_oval = ctx.logical_data_empty("outlier-val")
        ld_out = ctx.logical_data_empty("reconstruction")

        def t_decode(_payload: np.ndarray):
            return (HuffmanEncoder().decode(stream, header.element_count,
                                            2 * header.radius),)

        huff_rate = cpu_rate(cal.cpu_huffman_decode_per_core, plat, cal)
        ctx.task("huffman-decode", t_decode,
                 [ld_payload.read(), ld_codes.write()], device="cpu0",
                 duration=0.5 * nbytes / huff_rate)

        def t_unpack(idx_raw: np.ndarray, val_raw: np.ndarray):
            out = quantize.unpack_outliers(idx_raw.tobytes(),
                                           val_raw.tobytes(), ocount)
            return (out.indices, out.values)

        ctx.task("unpack-outliers", t_unpack,
                 [ld_oidx_raw.read(), ld_oval_raw.read(), ld_oidx.write(),
                  ld_oval.write()], device="gpu0",
                 duration=_gpu_seconds(plat, max(1, ocount) * 16,
                                       cal.gpu_eff_irregular))

        def t_reconstruct(codes: np.ndarray, oidx: np.ndarray,
                          oval: np.ndarray):
            outliers = quantize.OutlierSet(indices=oidx.astype(np.int64),
                                           values=oval.astype(np.int64))
            recon = lorenzo.decompress_parts(
                codes=codes.reshape(header.shape), outliers=outliers,
                radius=header.radius, eb_abs=header.eb_abs,
                shape=header.shape, dtype=header.np_dtype)
            return (recon,)

        ctx.task("scatter+inverse-lorenzo", t_reconstruct,
                 [ld_codes.read(), ld_oidx.read(), ld_oval.read(),
                  ld_out.write()], device="gpu0",
                 duration=_gpu_seconds(plat, 1.5 * nbytes,
                                       cal.gpu_eff_kernel))

        report = ctx.run(mode=self.mode)
        self.last_report = report
        return ld_out.get()


class StfAdaptivePipeline:
    """Runtime module selection via speculative branch concurrency.

    §3.3.1 names "dynamic module selection based on observed runtime
    compression results" as a task-level-concurrency use case.  This
    pipeline realises it: after prediction, *both* encoder branches run
    concurrently — the FZ-GPU-style bitshuffle encoder on the GPU and the
    histogram+Huffman branch on the CPU — and a final selection task keeps
    whichever produced fewer bytes.  On a heterogeneous node the slower
    branch hides behind the faster one, so trying both costs roughly the
    max, not the sum (the report's overlap numbers show exactly that).

    Decompression needs nothing special: the winning branch's container is
    a standard pipeline container.
    """

    name = "fzmod-adaptive-stf"

    def __init__(self, platform: PlatformSpec = H100,
                 radius: int = DEFAULT_RADIUS, mode: str = "async") -> None:
        self.platform = platform
        self.radius = radius
        self.mode = mode
        self.last_report: ExecutionReport | None = None
        self.last_choice: str | None = None

    def compress(self, data: np.ndarray, eb: ErrorBound | float,
                 mode: EbMode | str = EbMode.REL) -> CompressedField:
        """Compress ``data`` by declaring the pipeline as an STF task graph."""
        from .modules_std import BitshuffleEncoder, HuffmanEncoder
        if not isinstance(eb, ErrorBound):
            eb = ErrorBound(float(eb), EbMode(mode))
        data = check_field(data)
        eb_abs = eb.absolute(float(data.min()), float(data.max()))
        cal = CALIBRATION
        plat = self.platform
        nbytes = data.nbytes
        radius = self.radius

        ctx = StfContext(registry=_registry_for(plat))
        ld_data = ctx.logical_data(data, "field")
        ld_codes = ctx.logical_data_empty("codes")
        ld_oidx = ctx.logical_data_empty("outlier-idx")
        ld_oval = ctx.logical_data_empty("outlier-val")
        ld_hist = ctx.logical_data_empty("histogram")
        results: dict[str, object] = {}

        def t_predict(field: np.ndarray):
            res = lorenzo.compress(field, eb_abs, radius)
            return (res.codes.reshape(-1), res.outliers.indices,
                    res.outliers.values)

        ctx.task("lorenzo-quantize", t_predict,
                 [ld_data.read(), ld_codes.write(), ld_oidx.write(),
                  ld_oval.write()], device="gpu0",
                 duration=_gpu_seconds(plat, 1.5 * nbytes,
                                       cal.gpu_eff_kernel))

        # branch A: bitshuffle encoder on the GPU
        ld_bs = ctx.logical_data_empty("bitshuffle-size")

        def t_bitshuffle(codes: np.ndarray):
            stream = BitshuffleEncoder().encode(codes, 2 * radius, None)
            results["bitshuffle"] = stream
            return (np.asarray([stream.nbytes()], dtype=np.int64),)

        ctx.task("enc-bitshuffle", t_bitshuffle,
                 [ld_codes.read(), ld_bs.write()], device="gpu0",
                 duration=_gpu_seconds(plat, 2.0 * 0.5 * nbytes,
                                       cal.gpu_eff_kernel))

        # branch B: histogram (GPU) + Huffman (CPU)
        ld_hu = ctx.logical_data_empty("huffman-size")

        def t_hist(codes: np.ndarray):
            return (khist.histogram(codes, 2 * radius).counts,)

        ctx.task("histogram", t_hist, [ld_codes.read(), ld_hist.write()],
                 device="gpu0",
                 duration=_gpu_seconds(plat, 0.5 * nbytes,
                                       cal.gpu_eff_irregular))

        def t_huffman(codes: np.ndarray, counts: np.ndarray):
            hist = khist.HistogramResult(counts=counts.astype(np.int64),
                                         num_bins=2 * radius)
            stream = HuffmanEncoder().encode(codes, 2 * radius, hist)
            results["huffman"] = stream
            return (np.asarray([stream.nbytes()], dtype=np.int64),)

        huff_rate = cpu_rate(cal.cpu_huffman_encode_per_core, plat, cal)
        ctx.task("enc-huffman", t_huffman,
                 [ld_codes.read(), ld_hist.read(), ld_hu.write()],
                 device="cpu0", duration=0.5 * nbytes / huff_rate)

        # runtime selection on the observed sizes
        ld_choice = ctx.logical_data_empty("choice")

        def t_select(bs_size: np.ndarray, hu_size: np.ndarray):
            return (np.asarray([0 if int(bs_size[0]) < int(hu_size[0]) else 1],
                               dtype=np.int64),)

        ctx.task("select-encoder", t_select,
                 [ld_bs.read(), ld_hu.read(), ld_choice.write()],
                 device="cpu0", duration=1e-6)

        report = ctx.run(mode=self.mode)
        self.last_report = report

        won = "bitshuffle" if int(ld_choice.get()[0]) == 0 else "huffman"
        self.last_choice = won
        stream = results[won]

        sections: dict[str, bytes] = dict(stream.sections)
        outliers = quantize.OutlierSet(
            indices=ld_oidx.get().astype(np.int64),
            values=ld_oval.get().astype(np.int64))
        idx, val, ocount = quantize.pack_outliers(outliers)
        if ocount:
            sections["outlier.idx"] = idx
            sections["outlier.val"] = val
        header = ContainerHeader(
            shape=data.shape, dtype=data.dtype.str, eb_value=eb.value,
            eb_mode=eb.mode.value, eb_abs=eb_abs, radius=radius,
            modules={"preprocess": "rel-eb", "predictor": "lorenzo",
                     "encoder": won, "secondary": "none",
                     **({"statistics": "histogram"} if won == "huffman"
                        else {})},
            stage_meta={"predictor": {}, "preprocess": {},
                        "encoder": dict(stream.meta),
                        "outliers": {"count": int(ocount)}})
        header_bytes, body = assemble(header, sections)
        blob = header_bytes + body
        stats = CompressionStats(
            input_bytes=data.nbytes, output_bytes=len(blob),
            element_count=data.size, eb_abs=eb_abs,
            code_fraction=ld_codes.get().nbytes / data.nbytes,
            outlier_fraction=(len(idx) + len(val)) / data.nbytes,
            outlier_count=int(ocount),
            section_sizes={k: len(v) for k, v in sections.items()},
            stage_seconds={"stf-makespan": report.makespan})
        return CompressedField(blob=blob, stats=stats, header=header)
