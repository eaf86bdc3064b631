"""Per-layer part: the ladder, timed from outside.

Each pass down the ladder calls the facade, then the same work one rung
down through each layer's public functions, with a span around every call
and a fresh field for every rung.  Spans live in memory until the run
ends.  Every rate is field-equivalent MB/s (bytes of the float32 field
over busy seconds), so the layers' rates compose harmonically into the
end-to-end rate.

Two ways a metric can have no value:

* *not exercised*: the workload's preset does not use the layer
  (Huffman on ``fzmod-speed``); that is a fact about the workload.
* *unavailable*: the call raised ``ImportError``/``AttributeError``/
  ``TypeError`` because the function was renamed or deleted; the layer is
  listed under ``layers_unavailable`` with the reason and the run goes on.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from counters import hit_rate
from harness import (Ops, TimedRun, check_output, child_env, mb_per_s,
                     median, percentile, resolve_eb_abs)
from workloads import EB, EB_MODE, Workload

#: passes of the traced run (fewer when the time budget runs out first)
TRACE_PASSES = 8
CLI_REPEATS = 3


class LayerUnavailable(Exception):
    """A layer reached through a subprocess is gone (bad exit status)."""


MISSING = (ImportError, AttributeError, TypeError, LayerUnavailable)

#: every per-layer metric: (name, unit, better, layer that produces it)
METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("api.compress_ms", "ms", "lower", "api"),
    ("api.decompress_ms", "ms", "lower", "api"),
    ("api.compress_p75_ms", "ms", "lower", "api"),
    ("api.decompress_p75_ms", "ms", "lower", "api"),
    ("api.max_err_over_eb", "ratio", "lower", "api"),
    ("api.overhead_share", "share", "lower", "stage"),
    ("pipeline.interp_compress_mb_s", "MB/s", "higher", "pipeline.interp"),
    ("pipeline.interp_decompress_mb_s", "MB/s", "higher", "pipeline.interp"),
    ("compile.plan_compress_mb_s", "MB/s", "higher", "compile.plan"),
    ("compile.plan_decompress_mb_s", "MB/s", "higher", "compile.plan"),
    ("compile.declined", "count", "lower", "compile.plan"),
    ("compile.fused_predict_quantize_mb_s", "MB/s", "higher",
     "compile.fused"),
    ("compile.fused_decode_reconstruct_mb_s", "MB/s", "higher",
     "compile.fused"),
    ("stage.preprocess_share", "share", "lower", "stage"),
    ("stage.predictor_encode_share", "share", "lower", "stage"),
    ("stage.statistics_share", "share", "lower", "stage"),
    ("stage.encoder_encode_share", "share", "lower", "stage"),
    ("stage.container_pack_share", "share", "lower", "stage"),
    ("stage.container_parse_share", "share", "lower", "stage"),
    ("stage.encoder_decode_share", "share", "lower", "stage"),
    ("stage.predictor_decode_share", "share", "lower", "stage"),
    ("stage.sum_over_api_compress", "ratio", "lower", "stage"),
    ("stage.sum_over_api_decompress", "ratio", "lower", "stage"),
    ("kernels.lorenzo.compress_mb_s", "MB/s", "higher", "kernels.lorenzo"),
    ("kernels.lorenzo.decompress_mb_s", "MB/s", "higher", "kernels.lorenzo"),
    ("kernels.quantize.outlier_fraction", "count", "lower",
     "kernels.quantize"),
    ("kernels.interp.compress_mb_s", "MB/s", "higher", "kernels.interp"),
    ("kernels.interp.decompress_mb_s", "MB/s", "higher", "kernels.interp"),
    ("kernels.histogram.histogram_mb_s", "MB/s", "higher",
     "kernels.histogram"),
    ("kernels.histogram.topk_mb_s", "MB/s", "higher", "kernels.histogram"),
    ("kernels.huffman.build_codebook_ms", "ms", "lower", "kernels.huffman"),
    ("kernels.huffman.encode_mb_s", "MB/s", "higher", "kernels.huffman"),
    ("kernels.huffman.decode_mb_s", "MB/s", "higher", "kernels.huffman"),
    ("kernels.huffman.bits_per_symbol", "count", "lower", "kernels.huffman"),
    ("kernels.bitshuffle.shuffle_mb_s", "MB/s", "higher",
     "kernels.bitshuffle"),
    ("kernels.bitshuffle.unshuffle_mb_s", "MB/s", "higher",
     "kernels.bitshuffle"),
    ("kernels.dictionary.eliminate_mb_s", "MB/s", "higher",
     "kernels.bitshuffle"),
    ("kernels.dictionary.restore_mb_s", "MB/s", "higher",
     "kernels.bitshuffle"),
    ("header.assemble_ms", "ms", "lower", "stage"),
    ("header.parse_ms", "ms", "lower", "stage"),
    ("header.overhead_bytes", "B", "lower", "stage"),
    ("plancache.encode_stream_hit_rate", "share", "lower", "plancache"),
    ("plancache.decode_stream_hit_rate", "share", "lower", "plancache"),
    ("plancache.codebook_hit_rate", "share", "higher", "plancache"),
    ("plancache.plan_hit_rate", "share", "higher", "plancache"),
    ("plancache.pinned_mb", "MB", "lower", "plancache"),
    ("memory.pool_reuse_rate", "share", "higher", "memory"),
    ("memory.pool_pooled_mb", "MB", "lower", "memory"),
    ("threads.width", "count", "higher", "threads"),
    ("threads.speedup_compress", "ratio", "higher", "threads"),
    ("threads.speedup_decompress", "ratio", "higher", "threads"),
    ("parallel.compress_sharded_mb_s", "MB/s", "higher", "parallel"),
    ("parallel.decompress_sharded_mb_s", "MB/s", "higher", "parallel"),
    ("streaming.compress_stream_mb_s", "MB/s", "higher", "streaming"),
    ("streaming.decompress_stream_mb_s", "MB/s", "higher", "streaming"),
    ("streaming.shards", "count", "lower", "streaming"),
    ("streaming.container_overhead_bytes", "B", "lower", "streaming"),
    ("io.write_mb_s", "MB/s", "higher", "io"),
    ("io.read_mb_s", "MB/s", "higher", "io"),
    ("cli.import_s", "s", "lower", "cli"),
    ("cli.startup_s", "s", "lower", "cli"),
    ("cli.compress_file_s", "s", "lower", "cli"),
    ("cli.decompress_file_s", "s", "lower", "cli"),
    ("trace.overhead_share", "share", "lower", "api"),
)


class Tracer:
    """In-memory spans: name, start, end, parent, op id, bytes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: int, nbytes: int):
        rec = {"id": len(self.spans), "name": name, "start": None,
               "end": None, "parent": self._open[-1] if self._open else None,
               "op_id": op_id, "bytes": int(nbytes)}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> list[float]:
        """Duration of every finished span called ``name``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class Ladder:
    """Runs the rungs of each traced pass and turns spans into metrics."""

    def __init__(self, wl: Workload, ops: Ops, tmp: Path) -> None:
        self.wl = wl
        self.ops = ops
        self.tmp = tmp
        tmp.mkdir(parents=True, exist_ok=True)
        self.tracer = Tracer()
        self.unavailable: dict[str, str] = {}
        #: quantities that repeat exactly for a seed, one entry per pass
        self.counts: dict[str, list[float]] = {}

    # ------------------------------------------------------------------ #
    def _rung(self, layer: str, fn, *args):
        """Run one layer's probe; a missing function disables the layer."""
        if layer in self.unavailable:
            return None
        try:
            return fn(*args)
        except MISSING as exc:
            self.unavailable[layer] = f"{type(exc).__name__}: {exc}"
            return None

    def _count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))

    def run_op(self, op_id: int, fresh) -> None:
        """One pass down the ladder.

        ``fresh()`` returns a field the process has never seen, and every
        rung takes its own: a rung repeating the facade's work on the same
        bytes would be served by the content-addressed caches.  The fields
        of a workload are one class of work, so medians per rung compare.
        """
        first = fresh()

        def span(name: str):
            return self.tracer.span(name, op_id, first.nbytes)

        with span("op"):
            self._rung("api", self._api, span, first)
            if self.wl.threads == "nproc":
                self._rung("threads", self._threads, span, fresh())
            if self.wl.kind == "stream_file":
                self._rung("parallel", self._parallel, span, fresh())
                self._rung("io", self._io, span, first)
            pipeline = self._rung("pipeline.resolve", self._resolve)
            if pipeline is None:
                return
            self._rung("pipeline.interp", self._interp, span, fresh(),
                       pipeline)
            self._rung("compile.plan", self._plan, span, fresh(), pipeline)
            self._rung("stage", self._stages, span, fresh(), pipeline)
            self._rung("kernels", self._kernels, span, fresh(), pipeline)

    # -- rung 0: the facade, exactly as the timed run calls it ----------- #
    def _api(self, span, x):
        src = self.ops.prepare(x)
        with span("api.compress"):
            compressed = self.ops.compress(src)
        with span("api.decompress"):
            y = self.ops.decompress(compressed)
        violation, _ = check_output(x, y)
        if violation is not None:
            raise RuntimeError(f"traced facade call: {violation}")
        if self.wl.kind == "stream_file":
            self._count("streaming.shards", compressed.shard_count)
            self._count("streaming.container_overhead_bytes",
                        compressed.nbytes - sum(s.output_bytes for s in
                                                compressed.shard_stats))

    def _threads(self, span, x):
        from repro.runtime.threads import resolve_threads
        self._count("threads.width", resolve_threads(self.ops.threads))
        single = Ops(self.wl, self.tmp, threads=1)
        with span("threads.compress_t1"):
            compressed = single.compress(x)
        with span("threads.decompress_t1"):
            single.decompress(compressed)

    def _parallel(self, span, x):
        import repro
        with span("parallel.compress_sharded"):
            sharded = repro.compress(x, self.wl.preset, EB, mode=EB_MODE,
                                     workers=1, shard_mb=2)
        with span("parallel.decompress_sharded"):
            repro.decompress(sharded.blob, workers=1)

    def _io(self, span, x):
        path = self.tmp / "io_floor.f32"
        with span("io.write"):
            x.tofile(path)
        with span("io.read"):
            np.fromfile(path, dtype=x.dtype)

    # -- rung 1 and 2: whole pipeline, interpreter then compiled plan ---- #
    def _resolve(self):
        from repro.api import resolve_pipeline
        return resolve_pipeline(self.wl.preset)

    def _interp(self, span, x, pipeline):
        with span("pipeline.interp.compress"):
            cf = pipeline.compress(x, EB, EB_MODE, compile=False, threads=1)
        with span("pipeline.interp.decompress"):
            pipeline.decompress(cf.blob, compile=False)

    def _plan(self, span, x, pipeline):
        from repro.compile import plan_for
        declined = plan_for(pipeline) is None
        self._count("compile.declined", declined)
        if declined:
            return
        with span("compile.plan.compress"):
            cf = pipeline.compress(x, EB, EB_MODE, compile=True, threads=1)
        with span("compile.plan.decompress"):
            pipeline.decompress(cf.blob, compile=True, threads=1)

    # -- rung 3: the stage interfaces of the resolved pipeline ----------- #
    def _stages(self, span, x, p):
        from repro.core.header import (ContainerHeader, as_bytes_view,
                                       assemble, parse, split_sections)
        from repro.core.module import EncodedStream, PredictorArtifacts
        from repro.kernels.quantize import pack_outliers, unpack_outliers
        from repro.types import EbMode, ErrorBound

        with span("stage.preprocess"):
            pre = p.preprocess.forward(x, ErrorBound(EB, EbMode(EB_MODE)))
        with span("stage.predictor_encode"):
            arts = p.predictor.encode(pre.data, pre.eb_abs, p.radius)
        hist = None
        if p.encoder.needs_statistics:
            with span("stage.statistics"):
                hist = p.statistics.collect(arts.codes, p.num_bins)
        with span("stage.encoder_encode"):
            stream = p.encoder.encode(arts.codes, p.num_bins, hist)
        with span("stage.container_pack"):
            sections = dict(stream.sections)
            idx, val, outlier_count = pack_outliers(arts.outliers)
            if outlier_count:
                sections["outlier.idx"] = idx
                sections["outlier.val"] = val
            if arts.anchors is not None:
                sections["anchors"] = as_bytes_view(arts.anchors)
            header = ContainerHeader(
                shape=x.shape, dtype=x.dtype.str, eb_value=EB,
                eb_mode=EB_MODE, eb_abs=pre.eb_abs, radius=p.radius,
                modules=p.module_names(), pipeline=p.spec.to_json(),
                stage_meta={"predictor": dict(arts.meta),
                            "encoder": dict(stream.meta),
                            "preprocess": dict(pre.meta),
                            "outliers": {"count": outlier_count},
                            "aux": {}})
            with span("header.assemble"):
                _, body = assemble(header, sections)
                stored = p.secondary.encode(body)
                header_bytes, _ = assemble(header, sections,
                                           stored_body=stored)
            blob = header_bytes + stored
        self._count("header.overhead_bytes",
                    len(blob) - sum(len(v) for v in sections.values()))

        with span("stage.container_parse"):
            with span("header.parse"):
                header, stored = parse(blob)
            body = p.secondary.decode(stored)
            sections = split_sections(header, body, zero_copy=True)
            outliers = unpack_outliers(sections.get("outlier.idx", b""),
                                       sections.get("outlier.val", b""),
                                       outlier_count)
            anchors = None
            if "anchors" in sections:
                anchors = np.frombuffer(sections["anchors"],
                                        dtype=header.np_dtype)
        with span("stage.encoder_decode"):
            enc = EncodedStream(
                sections={k: v for k, v in sections.items()
                          if k.startswith("enc.")},
                meta=header.stage_meta["encoder"])
            codes = p.encoder.decode(enc, arts.codes.size, 2 * header.radius)
        with span("stage.predictor_decode"):
            back = PredictorArtifacts(codes=codes, outliers=outliers,
                                      anchors=anchors,
                                      meta=header.stage_meta["predictor"])
            y = p.predictor.decode(back, header.shape, header.np_dtype,
                                   header.eb_abs, header.radius)
            y = p.preprocess.backward(y, header.stage_meta["preprocess"])
        violation, _ = check_output(x, y)
        if violation is not None:
            raise RuntimeError(f"stage rung: {violation}")

    # -- rung 4: the kernels the preset is built from -------------------- #
    def _kernels(self, span, x, p) -> None:
        eb_abs = resolve_eb_abs(x)
        if p.predictor.name == "lorenzo":
            res = self._rung("kernels.lorenzo", self._lorenzo, span, x,
                             eb_abs, p)
            self._rung("compile.fused", self._fused, span, x, eb_abs, p)
        else:
            res = self._rung("kernels.interp", self._interp_kernel, span, x,
                             eb_abs, p)
        if res is None:
            return
        codes = res.codes.reshape(-1)
        self._count("kernels.quantize.outlier_fraction",
                    res.outliers.count / x.size)
        if p.encoder.needs_statistics:
            self._rung("kernels.histogram", self._histogram, span, codes, p)
        if p.encoder.name == "huffman":
            self._rung("kernels.huffman", self._huffman, span, codes,
                       p.num_bins)
        elif p.encoder.name == "bitshuffle":
            self._rung("kernels.bitshuffle", self._bitshuffle, span, codes,
                       p)

    def _lorenzo(self, span, x, eb_abs, p):
        from repro.kernels import lorenzo
        with span("kernels.lorenzo.compress"):
            res = lorenzo.compress(x, eb_abs, p.radius)
        with span("kernels.lorenzo.decompress"):
            lorenzo.decompress(res)
        return res

    def _fused(self, span, x, eb_abs, p):
        from repro.compile.fused import (fused_decode_reconstruct,
                                         fused_predict_quantize)
        with span("compile.fused_predict_quantize"):
            codes, outliers, _ = fused_predict_quantize(
                x, eb_abs, p.radius, p.num_bins,
                collect_counts=p.encoder.needs_statistics, threads=1)
        with span("compile.fused_decode_reconstruct"):
            fused_decode_reconstruct(codes, outliers, p.radius, eb_abs,
                                     x.shape, x.dtype, threads=1)

    def _interp_kernel(self, span, x, eb_abs, p):
        from repro.kernels import interp
        with span("kernels.interp.compress"):
            res = interp.compress(x, eb_abs, p.radius)
        with span("kernels.interp.decompress"):
            interp.decompress(res)
        return res

    def _histogram(self, span, codes, p):
        from repro.kernels import histogram
        if p.statistics.name == "histogram-topk":
            with span("kernels.histogram.topk"):
                histogram.histogram_topk(codes, p.num_bins)
        else:
            with span("kernels.histogram.histogram"):
                histogram.histogram(codes, p.num_bins)

    def _huffman(self, span, codes, num_bins):
        from repro.kernels import huffman
        counts = np.bincount(codes, minlength=num_bins)
        with span("kernels.huffman.build_codebook"):
            book = huffman.build_codebook(counts)
        with span("kernels.huffman.encode"):
            enc = huffman.encode(codes, book)
        with span("kernels.huffman.decode"):
            huffman.decode(enc)
        self._count("kernels.huffman.bits_per_symbol",
                    int(enc.chunk_bits.sum()) / codes.size)

    def _bitshuffle(self, span, codes, p):
        from repro.kernels import bitshuffle, dictionary
        zz = bitshuffle.zigzag(codes.astype(np.int64) - p.radius)
        with span("kernels.bitshuffle.shuffle"):
            shuffled = bitshuffle.shuffle(zz.astype(np.uint16), 16)
        with span("kernels.dictionary.eliminate"):
            z = dictionary.eliminate(shuffled, two_level=False)
        with span("kernels.dictionary.restore"):
            restored = dictionary.restore(z)
        with span("kernels.bitshuffle.unshuffle"):
            bitshuffle.unshuffle(restored, codes.size, 16)

    # -- the command line, as a user runs it ----------------------------- #
    def cli_probe(self, x: np.ndarray, repeats: int = CLI_REPEATS) -> None:
        """Start-up and file-to-file times of ``python -m repro.cli``."""
        self._rung("cli", self._cli, x, repeats)

    def _cli(self, x, repeats):
        src, blob, rec = (self.tmp / n for n in
                          ("cli_in.f32", "cli.fzmod", "cli_rec.f32"))
        x.tofile(src)
        py = sys.executable
        commands = {
            "cli.import": [py, "-c", "import repro"],
            "cli.startup": [py, "-m", "repro.cli", "modules"],
            "cli.compress_file": [
                py, "-m", "repro.cli", "compress", str(src), "--dims",
                ",".join(str(n) for n in x.shape), "--eb", str(EB),
                "--mode", EB_MODE, "--pipeline", self.wl.preset,
                "--threads", "1", "-o", str(blob)],
            "cli.decompress_file": [py, "-m", "repro.cli", "decompress",
                                    str(blob), "--threads", "1", "-o",
                                    str(rec)],
        }
        for k in range(repeats):
            for name, argv in commands.items():
                with self.tracer.span(name, -1 - k, x.nbytes):
                    proc = subprocess.run(argv, capture_output=True,
                                          text=True, timeout=120,
                                          env=child_env())
                if proc.returncode != 0:
                    # argparse exits 2 when a subcommand or flag is gone
                    raise LayerUnavailable(
                        f"{' '.join(argv[1:4])} exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-200:]}")
        y = np.fromfile(rec, dtype=x.dtype).reshape(x.shape)
        violation, _ = check_output(x, y)
        if violation is not None:
            raise RuntimeError(f"cli file round trip: {violation}")

    # ------------------------------------------------------------------ #
    def metrics(self, run: TimedRun) -> dict[str, float | None]:
        """Every per-layer metric; ``None`` when it has no value here."""
        n = run.field_bytes
        sec = lambda name: median(self.tracer.seconds(name))  # noqa: E731
        rate = lambda name: mb_per_s(n, sec(name))  # noqa: E731

        def ms(seconds):
            return None if seconds is None else seconds * 1e3

        def ratio(num, den):
            return None if num is None or not den else num / den

        def count(name):
            values = self.counts.get(name)
            return float(np.mean(values)) if values else None

        api_c, api_d = sec("api.compress"), sec("api.decompress")
        enc_side = ("stage.preprocess", "stage.predictor_encode",
                    "stage.statistics", "stage.encoder_encode",
                    "stage.container_pack")
        dec_side = ("stage.container_parse", "stage.encoder_decode",
                    "stage.predictor_decode")
        m: dict[str, float | None] = {}

        timed_c, timed_d = run.good("compress_s"), run.good("decompress_s")
        m["api.compress_ms"] = ms(median(timed_c))
        m["api.decompress_ms"] = ms(median(timed_d))
        m["api.compress_p75_ms"] = ms(percentile(timed_c, 75))
        m["api.decompress_p75_ms"] = ms(percentile(timed_d, 75))
        errs = run.good("max_err_over_eb")
        m["api.max_err_over_eb"] = max(errs) if errs else None
        if None not in (api_c, api_d) and timed_c and timed_d:
            untraced = median(timed_c) + median(timed_d)
            m["trace.overhead_share"] = (api_c + api_d - untraced) / untraced

        m["pipeline.interp_compress_mb_s"] = rate("pipeline.interp.compress")
        m["pipeline.interp_decompress_mb_s"] = rate(
            "pipeline.interp.decompress")
        m["compile.plan_compress_mb_s"] = rate("compile.plan.compress")
        m["compile.plan_decompress_mb_s"] = rate("compile.plan.decompress")
        m["compile.declined"] = count("compile.declined")
        m["compile.fused_predict_quantize_mb_s"] = rate(
            "compile.fused_predict_quantize")
        m["compile.fused_decode_reconstruct_mb_s"] = rate(
            "compile.fused_decode_reconstruct")

        if sec("stage.preprocess") is not None:
            for name in enc_side:
                # a stage the preset has no module for did no work: share 0
                m[f"{name}_share"] = ratio(sec(name) or 0.0, api_c)
            for name in dec_side:
                m[f"{name}_share"] = ratio(sec(name) or 0.0, api_d)
            sum_c = sum(sec(name) or 0.0 for name in enc_side)
            sum_d = sum(sec(name) or 0.0 for name in dec_side)
            m["stage.sum_over_api_compress"] = ratio(sum_c, api_c)
            m["stage.sum_over_api_decompress"] = ratio(sum_d, api_d)
            if api_c is not None and api_d is not None:
                m["api.overhead_share"] = 1.0 - (sum_c + sum_d) / (api_c
                                                                   + api_d)
            m["header.assemble_ms"] = ms(sec("header.assemble"))
            m["header.parse_ms"] = ms(sec("header.parse"))
            m["header.overhead_bytes"] = count("header.overhead_bytes")

        for kernel in ("lorenzo", "interp"):
            for direction in ("compress", "decompress"):
                m[f"kernels.{kernel}.{direction}_mb_s"] = rate(
                    f"kernels.{kernel}.{direction}")
        m["kernels.quantize.outlier_fraction"] = count(
            "kernels.quantize.outlier_fraction")
        m["kernels.histogram.histogram_mb_s"] = rate(
            "kernels.histogram.histogram")
        m["kernels.histogram.topk_mb_s"] = rate("kernels.histogram.topk")
        m["kernels.huffman.build_codebook_ms"] = ms(
            sec("kernels.huffman.build_codebook"))
        m["kernels.huffman.encode_mb_s"] = rate("kernels.huffman.encode")
        m["kernels.huffman.decode_mb_s"] = rate("kernels.huffman.decode")
        m["kernels.huffman.bits_per_symbol"] = count(
            "kernels.huffman.bits_per_symbol")
        for name in ("bitshuffle.shuffle", "bitshuffle.unshuffle",
                     "dictionary.eliminate", "dictionary.restore"):
            m[f"kernels.{name}_mb_s"] = rate(f"kernels.{name}")

        before = run.counters_before["plan_caches"]
        after = run.counters_after["plan_caches"]
        for metric, cache in (("encode_stream", "huffman.encode_streams"),
                              ("decode_stream", "huffman.decode_streams"),
                              ("codebook", "huffman.codebook"),
                              ("plan", "compile.plans")):
            m[f"plancache.{metric}_hit_rate"] = hit_rate(
                before.get(cache, {}), after.get(cache, {}))
        m["plancache.pinned_mb"] = sum(
            c.get("bytes", 0) for c in after.values()) / 1e6
        pool = run.counters_after["buffer_pool"]
        m["memory.pool_reuse_rate"] = hit_rate(
            run.counters_before["buffer_pool"], pool)
        m["memory.pool_pooled_mb"] = pool.get("pooled_bytes", 0) / 1e6

        m["threads.width"] = count("threads.width")
        m["threads.speedup_compress"] = ratio(sec("threads.compress_t1"),
                                              api_c)
        m["threads.speedup_decompress"] = ratio(sec("threads.decompress_t1"),
                                                api_d)
        m["parallel.compress_sharded_mb_s"] = rate(
            "parallel.compress_sharded")
        m["parallel.decompress_sharded_mb_s"] = rate(
            "parallel.decompress_sharded")
        if self.wl.kind == "stream_file":
            m["streaming.compress_stream_mb_s"] = rate("api.compress")
            m["streaming.decompress_stream_mb_s"] = rate("api.decompress")
        m["streaming.shards"] = count("streaming.shards")
        m["streaming.container_overhead_bytes"] = count(
            "streaming.container_overhead_bytes")
        m["io.write_mb_s"] = rate("io.write")
        m["io.read_mb_s"] = rate("io.read")
        for name in ("import", "startup", "compress_file",
                     "decompress_file"):
            m[f"cli.{name}_s"] = sec(f"cli.{name}")

        out = {}
        for name, _unit, _better, layer in METRICS:
            value = m.get(name)
            out[name] = None if layer in self.unavailable else value
        return out
