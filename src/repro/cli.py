"""``fzmod`` command-line interface.

Subcommands
-----------
``compress``    compress a raw .f32/.f64 field (or a synthetic dataset
                field) with a preset or custom pipeline
``decompress``  reconstruct a field from a ``.fzmod`` container
``compile``     trace a preset/spec into its execution plan and print
                the step list (fused pass or module call, per stage)
``eval``        run compressors over a dataset and print CR/PSNR rows
``report``      full comparison (CR/PSNR/SSIM/speedups) for one field
``analyze``     trace analytics for a recorded span trace (critical
                path, per-stage bandwidth, stragglers) — or fidelity
                metrics for an original/reconstructed field pair
``verify``      contract check battery for any pipeline
``inspect``     describe any .fzmod/.fzar/.fzst blob without decoding
``archive``     create/list/extract multi-field snapshot archives
``gen``         export a synthetic dataset as raw .f32 + manifest
``modules``     list every registered module per stage
``lint``        contract-aware static analysis (kernel purity, out=
                contract, plan-cache safety, shard determinism, ...)
``stats``       print hot-path cache, telemetry and sanitizer counters
``trace``       compress a field with telemetry on and export the span
                trace (Chrome trace-event JSON for Perfetto, JSONL,
                Prometheus metrics)
``autotune``    pick the best pipeline for a field and objective
``platforms``   print the Table-1 platform specs

Examples::

    fzmod compress --dataset nyx --field temperature --eb 1e-4 -o t.fzmod
    fzmod compress input.f32 --dims 512,512,512 --eb 1e-3 --pipeline \\
        fzmod-quality -o out.fzmod
    fzmod decompress out.fzmod -o recon.f32
    fzmod eval --dataset hurr --eb 1e-2,1e-4 --compressors sz3,pfpl
    fzmod autotune --dataset cesm --field T --eb 1e-4 --objective speedup
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import numpy as np

from . import __version__
from .api import compress as api_compress, decompress as api_decompress
from .baselines import ALL_COMPRESSOR_NAMES, get_compressor
from .core import DEFAULT_REGISTRY, Pipeline
from .core.autotune import OBJECTIVES, autotune
from .core.presets import PRESET_NAMES, get_preset
from .data import get_dataset, load_raw_file
from .errors import FZModError
from .metrics import psnr, verify_error_bound
from .perf.platform import get_platform, table1_rows
from .types import EbMode


def _load_input(args: argparse.Namespace, *, mmap: bool = False) -> np.ndarray:
    if args.dataset:
        spec = get_dataset(args.dataset)
        return spec.load(field=args.field, scale=args.scale)
    if not args.input:
        raise FZModError("either an input file or --dataset is required")
    if not args.dims:
        raise FZModError("--dims is required for raw input files")
    dims = tuple(int(d) for d in args.dims.split(","))
    return load_raw_file(args.input, dims, dtype=args.dtype, mmap=mmap)


def _resolve_pipeline(name: str) -> object:
    if name in PRESET_NAMES:
        return get_preset(name)
    return get_compressor(name)


def cmd_compress(args: argparse.Namespace) -> int:
    """``fzmod compress``: compress one field to a container file."""
    if args.stream:
        return _compress_stream(args)
    data = _load_input(args)
    comp = _resolve_pipeline(args.pipeline)
    parallel = (args.workers is not None or args.shard_mb is not None
                or args.shared_codebook)
    if not isinstance(comp, Pipeline):
        if parallel:
            raise FZModError(
                f"--workers/--shard-mb need a modular pipeline "
                f"(one of {PRESET_NAMES}), not baseline {args.pipeline!r}")
        cf = comp.compress(data, args.eb, EbMode(args.mode))
        with open(args.output, "wb") as fh:
            fh.write(cf.blob)
    else:
        cf = api_compress(
            data, comp, args.eb, mode=EbMode(args.mode),
            workers=args.workers, shard_mb=args.shard_mb,
            codebook=("shared" if args.shared_codebook else None),
            out=args.output, threads=args.threads)
    s = cf.stats
    print(f"{args.pipeline}: {s.input_bytes} -> {s.output_bytes} bytes  "
          f"CR={s.cr:.2f}  bitrate={s.bit_rate:.3f} b/val  "
          f"eb_abs={s.eb_abs:.3g}")
    if parallel:
        print(f"parallel engine: {cf.shard_count} shards, "
              f"{cf.workers} worker(s), codebook={cf.codebook_mode}, "
              f"{cf.wall_seconds:.3f}s wall")
    return 0


def _compress_stream(args: argparse.Namespace) -> int:
    """The ``--stream`` arm of ``fzmod compress``: out-of-core engine."""
    from .streaming import as_source
    comp = _resolve_pipeline(args.pipeline)
    if not isinstance(comp, Pipeline):
        raise FZModError(
            f"--stream needs a modular pipeline (one of {PRESET_NAMES}), "
            f"not baseline {args.pipeline!r}")
    # raw input files are memory-mapped, never read whole: pages fault
    # in per slab and the prefetcher drops them once consumed
    data = _load_input(args, mmap=True)
    with as_source(data) as source:
        cf = api_compress(
            source, comp, args.eb, mode=EbMode(args.mode),
            stream=True, out=args.output, workers=args.workers,
            shard_mb=args.shard_mb, layout=args.layout,
            codebook=("shared" if args.shared_codebook else None))
    s = cf.stats
    print(f"{args.pipeline}: {s.input_bytes} -> {s.output_bytes} bytes  "
          f"CR={s.cr:.2f}  bitrate={s.bit_rate:.3f} b/val  "
          f"eb_abs={s.eb_abs:.3g}")
    print(f"streaming engine: {cf.shard_count} shards, "
          f"{cf.workers} worker(s), "
          f"layout={cf.layout}, codebook={cf.codebook_mode}, "
          f"{cf.wall_seconds:.3f}s wall -> {cf.path}")
    return 0


def cmd_decompress(args: argparse.Namespace) -> int:
    """``fzmod decompress``: reconstruct a raw field from a container."""
    if args.stream:
        from .streaming import ShardReader
        with ShardReader(args.input) as reader:
            shape = tuple(reader.index.shape)
            dtype = np.dtype(reader.index.dtype)
        out = np.memmap(args.output, dtype=dtype, mode="w+", shape=shape)
        try:
            api_decompress(args.input, out=out, workers=args.workers,
                           threads=args.threads)
        except BaseException:
            # never leave a partially scattered field behind — the
            # in-memory path only writes its output after a clean decode
            del out
            with contextlib.suppress(OSError):
                os.remove(args.output)
            raise
        print(f"reconstructed {shape} {dtype} -> {args.output} (streamed)")
        return 0
    with open(args.input, "rb") as fh:
        blob = fh.read()
    from .parallel.executor import is_sharded
    if not is_sharded(blob):
        from .core.header import parse
        header, _ = parse(blob)
        if "baseline" in header.modules:
            out = get_compressor(header.modules["baseline"]).decompress(blob)
            out.tofile(args.output)
            print(f"reconstructed {out.shape} {out.dtype} -> {args.output}")
            return 0
    out = api_decompress(blob, workers=args.workers, threads=args.threads)
    out.tofile(args.output)
    print(f"reconstructed {out.shape} {out.dtype} -> {args.output}")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    """``fzmod compile``: trace a preset/spec to its execution plan."""
    import json
    from .core.spec import PipelineSpec
    target = args.pipeline
    if target in PRESET_NAMES:
        pipe = get_preset(target)
    elif os.path.exists(target):
        with open(target, "r", encoding="utf-8") as fh:
            pipe = Pipeline.from_spec(PipelineSpec.from_json(json.load(fh)))
    else:
        raise FZModError(
            f"{target!r} is neither a preset ({PRESET_NAMES}) nor a "
            f"spec JSON file")
    print(pipe.compile().describe())
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    """``fzmod eval``: CR/PSNR rows for compressors over a dataset."""
    spec = get_dataset(args.dataset)
    fields = ([args.field] if args.field else list(spec.fields)[:args.max_fields])
    names = (args.compressors.split(",") if args.compressors
             else list(ALL_COMPRESSOR_NAMES))
    ebs = [float(e) for e in args.eb.split(",")]
    print(f"dataset={spec.name} fields={fields} scale={args.scale}")
    print(f"{'compressor':<16} {'eb':>8} {'CR':>10} {'PSNR dB':>9} {'bound':>6}")
    for name in names:
        comp = get_compressor(name)
        for eb in ebs:
            crs, qs, ok = [], [], True
            for f in fields:
                x = spec.load(field=f, scale=args.scale)
                cf = comp.compress(x, eb)
                y = comp.decompress(cf)
                rng = float(x.max() - x.min())
                ok = ok and verify_error_bound(x, y, eb * rng)
                crs.append(cf.stats.cr)
                qs.append(psnr(x, y))
            print(f"{name:<16} {eb:>8g} {np.mean(crs):>10.2f} "
                  f"{np.mean(qs):>9.2f} {'ok' if ok else 'FAIL':>6}")
    return 0


def cmd_modules(_args: argparse.Namespace) -> int:
    """``fzmod modules``: list the registered module catalog."""
    for stage, mods in DEFAULT_REGISTRY.catalog().items():
        print(f"[{stage}]")
        for name, desc in mods:
            print(f"  {name:<16} {desc}")
    return 0


def cmd_autotune(args: argparse.Namespace) -> int:
    """``fzmod autotune``: pick the best pipeline for a field."""
    data = _load_input(args)
    platform = get_platform(args.platform)
    pipe, report = autotune(data, args.eb, objective=args.objective,
                            platform=platform)
    print(report.table())
    print(f"\nwinner: {report.winner.name} "
          f"(objective={args.objective}, platform={platform.name})")
    return 0


def cmd_platforms(_args: argparse.Namespace) -> int:
    """``fzmod platforms``: print the Table-1 platform specs."""
    for row in table1_rows():
        print("; ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """``fzmod diff``: compare two compressed containers."""
    from .core.diff import diff_containers
    with open(args.a, "rb") as fh:
        blob_a = fh.read()
    with open(args.b, "rb") as fh:
        blob_b = fh.read()
    diff = diff_containers(blob_a, blob_b,
                           compare_values=not args.no_values)
    print(diff.render())
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    """``fzmod gen``: export a synthetic dataset as raw files."""
    from .data import export_dataset
    manifest = export_dataset(args.dataset, args.output, scale=args.scale,
                              seed=args.seed)
    print(f"wrote {len(manifest['fields'])} fields of "
          f"{manifest['dataset']} to {args.output}")
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """``fzmod inspect``: describe a blob without decompressing."""
    from .core.inspect import render
    with open(args.input, "rb") as fh:
        print(render(fh.read()))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """``fzmod lint``: run the contract rules (see repro.analysis)."""
    from .analysis.cli import run_lint
    return run_lint(args)


def cmd_stats(_args: argparse.Namespace) -> int:
    """``fzmod stats``: hot-path cache, telemetry and sanitizer counters."""
    from .core.inspect import render_hotpath
    print(render_hotpath())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``fzmod trace``: compress with telemetry on, export the trace."""
    from .obs import (GLOBAL_METRICS, GLOBAL_TRACER, prometheus_text,
                      render_summary, set_telemetry, write_chrome_trace,
                      write_span_jsonl)
    if args.dataset or args.input:
        data = _load_input(args)
    else:
        from .data.synthetic import gaussian_random_field
        data = gaussian_random_field((96, 96, 96), slope=3.0,
                                     seed=7).astype(np.float32)
    name = args.preset
    if name not in PRESET_NAMES and f"fzmod-{name}" in PRESET_NAMES:
        name = f"fzmod-{name}"
    pipeline = get_preset(name)
    shard_mb = args.shard_mb
    if args.workers is not None and shard_mb is None:
        # aim for ~2 shards per worker so every lane has work to show
        shard_mb = max(data.nbytes / (1 << 20) / (2 * args.workers), 0.25)
    prev = set_telemetry(True)
    GLOBAL_TRACER.clear()
    try:
        if args.stream:
            # streaming round trip: the decode window is where shard k's
            # outlier scatter (calling thread) overlaps shard k+1's
            # Huffman decode (pool) — each thread is its own Perfetto row
            import tempfile
            from .streaming import as_source
            workers = args.workers or 4
            if shard_mb is None:
                shard_mb = max(data.nbytes / (1 << 20) / (2 * workers),
                               0.25)
            fd, tmp = tempfile.mkstemp(suffix=".fzms")
            os.close(fd)
            try:
                with as_source(data) as source:
                    cf = api_compress(source, pipeline, args.eb,
                                      mode=EbMode(args.mode), stream=True,
                                      out=tmp, workers=workers,
                                      shard_mb=shard_mb)
                api_decompress(tmp, workers=workers)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        elif args.workers is not None or shard_mb is not None:
            cf = pipeline.compress(data, args.eb, EbMode(args.mode),
                                   workers=args.workers, shard_mb=shard_mb)
        else:
            cf = pipeline.compress(data, args.eb, EbMode(args.mode))
        if args.decompress and not args.stream:
            api_decompress(cf.blob)
        records = GLOBAL_TRACER.records()
    finally:
        set_telemetry(prev)
    with open(args.output, "w", encoding="utf-8") as fh:
        doc = write_chrome_trace(records, fh)
    s = cf.stats
    print(f"{name}: {s.input_bytes} -> {s.output_bytes} bytes  "
          f"CR={s.cr:.2f}")
    lanes = {r.lane for r in records if r.lane}
    print(f"{len(records)} spans ({len(doc['traceEvents'])} trace events, "
          f"{len(lanes) + 1} lanes) -> {args.output}")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as fh:
            write_span_jsonl(records, fh)
        print(f"span log -> {args.jsonl}")
    if args.prom:
        with open(args.prom, "w", encoding="utf-8") as fh:
            fh.write(prometheus_text(GLOBAL_METRICS))
        print(f"metrics exposition -> {args.prom}")
    print(render_summary(records), end="")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """``fzmod verify``: run the pipeline contract battery."""
    from .core import verify_pipeline
    from .core.builder import PipelineBuilder
    if args.predictor or args.encoder:
        if not (args.predictor and args.encoder):
            raise FZModError("custom verification needs both --predictor "
                             "and --encoder")
        b = (PipelineBuilder("custom").with_predictor(args.predictor)
             .with_encoder(args.encoder))
        if args.secondary:
            b = b.with_secondary(args.secondary)
        pipe = b.build()
    else:
        pipe = get_preset(args.pipeline)
    report = verify_pipeline(pipe)
    print(report.table())
    return 0 if report.passed else 1


def cmd_report(args: argparse.Namespace) -> int:
    """``fzmod report``: full comparison report for one field."""
    from .report import evaluate
    data = _load_input(args)
    ebs = tuple(float(e) for e in args.eb.split(","))
    comps = (tuple(args.compressors.split(","))
             if args.compressors else ALL_COMPRESSOR_NAMES)
    full = None
    if args.dataset:
        full = get_dataset(args.dataset).field_size_bytes
    rep = evaluate(data, ebs=ebs, compressors=comps, full_size_bytes=full)
    print(f"field {rep.field_shape}, {rep.field_bytes / 1e6:.2f} MB "
          f"(throughput modelled at "
          f"{(full or rep.field_bytes) / 1e6:.0f} MB)")
    print(rep.table())
    for eb in ebs:
        best_cr = rep.best_by("cr", eb)
        best_sp = rep.best_by("speedup_h100", eb)
        print(f"eb={eb:g}: best CR {best_cr.compressor} "
              f"({best_cr.cr:.1f}); best H100 speedup "
              f"{best_sp.compressor} ({best_sp.speedup_h100:.2f})")
    return 0


def _analyze_trace(args: argparse.Namespace) -> int:
    """The trace arm of ``fzmod analyze``: span forest analytics."""
    import json
    from .obs.analyze import (analyze, load_trace_path, render_analysis,
                              render_analysis_markdown)
    records = load_trace_path(args.original)
    if not records:
        raise FZModError(f"no spans found in {args.original!r}")
    kw = {}
    if args.straggler_k is not None:
        kw["straggler_k"] = args.straggler_k
    report = analyze(records, **kw)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.format == "markdown":
        print(render_analysis_markdown(report))
    else:
        print(render_analysis(report))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """``fzmod analyze``: trace analytics or reconstruction fidelity.

    One positional ending ``.jsonl``/``.json`` is a recorded span trace
    (JSONL span log or Chrome trace-event doc) — critical path, per-stage
    bandwidth, stragglers.  Two positionals plus ``--dims`` keep the
    original fidelity-metrics behaviour.
    """
    if args.reconstructed is None:
        if not args.original.endswith((".jsonl", ".json")):
            raise FZModError(
                "analyze needs either a span trace (.jsonl/.json) or an "
                "original+reconstructed raw field pair with --dims")
        return _analyze_trace(args)
    from .metrics import (gradient_fidelity, histogram_intersection,
                          max_abs_error, nrmse, spectral_fidelity, ssim)
    if not args.dims:
        raise FZModError("--dims is required for fidelity analysis of "
                         "raw field files")
    dims = tuple(int(d) for d in args.dims.split(","))
    a = load_raw_file(args.original, dims, dtype=args.dtype)
    b = load_raw_file(args.reconstructed, dims, dtype=args.dtype)
    print(f"{'metric':<24} {'value':>12}")
    print(f"{'max abs error':<24} {max_abs_error(a, b):>12.5g}")
    print(f"{'NRMSE':<24} {nrmse(a, b):>12.5g}")
    print(f"{'PSNR (dB)':<24} {psnr(a, b):>12.2f}")
    if min(dims) >= 8:
        print(f"{'SSIM':<24} {ssim(a, b):>12.4f}")
    print(f"{'spectral fidelity':<24} {spectral_fidelity(a, b):>12.4f}")
    print(f"{'gradient PSNR (dB)':<24} {gradient_fidelity(a, b):>12.2f}")
    print(f"{'histogram overlap':<24} {histogram_intersection(a, b):>12.4f}")
    return 0


def cmd_archive(args: argparse.Namespace) -> int:
    """``fzmod archive``: create/list/extract snapshot archives."""
    from .core import Archive, ArchiveWriter

    if args.action == "create":
        if not args.dataset:
            raise FZModError("--dataset is required for 'archive create'")
        spec = get_dataset(args.dataset)
        pipe = _resolve_pipeline(args.pipeline)
        w = ArchiveWriter()
        for field in spec.fields:
            data = spec.load(field=field, scale=args.scale)
            if hasattr(pipe, "pipeline") or hasattr(pipe, "compress"):
                cf = pipe.compress(data, args.eb)
            w.add_compressed(field, cf, pipeline_name=args.pipeline)
        nbytes = w.write(args.path)
        print(f"wrote {w.field_count} fields, {nbytes / 1e6:.2f} MB "
              f"-> {args.path}")
        return 0
    ar = Archive.open(args.path)
    if args.action == "list":
        stats = ar.total_stats()
        print(f"{'field':<16} {'shape':<18} {'CR':>8} {'eb':>9} {'pipeline'}")
        for name in ar.names():
            e = ar.entry(name)
            dims = "x".join(str(d) for d in e.shape)
            print(f"{name:<16} {dims:<18} {e.cr:>8.2f} {e.eb_value:>9g} "
                  f"{e.pipeline}")
        print(f"total CR {stats['cr']:.2f} over {int(stats['fields'])} fields")
        return 0
    # extract
    if not args.field or not args.output:
        raise FZModError("'archive extract' needs --field and -o")
    data = ar.read(args.field)
    data.tofile(args.output)
    print(f"extracted {args.field} {data.shape} {data.dtype} -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI tree."""
    p = argparse.ArgumentParser(prog="fzmod",
                                description="FZModules reproduction CLI")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_input_opts(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("input", nargs="?", help="raw .f32/.f64 input file")
        sp.add_argument("--dims", help="comma-separated dims for raw input")
        sp.add_argument("--dtype", default="f4", choices=["f4", "f8"])
        sp.add_argument("--dataset", help="synthetic dataset name")
        sp.add_argument("--field", help="dataset field name")
        sp.add_argument("--scale", type=float, default=None,
                        help="synthetic dataset scale (0, 1]")

    sp = sub.add_parser("compress", help="compress a field")
    add_input_opts(sp)
    sp.add_argument("--eb", type=float, required=True)
    sp.add_argument("--mode", default="rel", choices=["rel", "abs"])
    sp.add_argument("--pipeline", default="fzmod-default",
                    help=f"one of {PRESET_NAMES + ('cuszp2', 'fzgpu', 'pfpl', 'sz3')}")
    sp.add_argument("--workers", type=int, default=None,
                    help="compress shard-parallel on this many workers "
                         "(writes a multi-shard container)")
    sp.add_argument("--threads", type=int, default=None,
                    help="slab-parallel thread width for the single-stream "
                         "compiled path (container bytes identical at any "
                         "width; default: FZMOD_THREADS, then auto by "
                         "input size)")
    sp.add_argument("--shard-mb", type=float, default=None,
                    help="target shard size in MiB (implies the parallel "
                         "engine; default 32)")
    sp.add_argument("--stream", action="store_true",
                    help="out-of-core engine: memory-map the input and "
                         "pump slabs through the shard threads (peak RSS "
                         "O(window x shard), not O(field))")
    sp.add_argument("--layout", default="compat",
                    choices=["compat", "stream"],
                    help="--stream container layout: compat is "
                         "byte-identical to the in-memory engine, stream "
                         "is single-pass append-only (FZMS v3)")
    sp.add_argument("--shared-codebook", action="store_true",
                    help="build one global Huffman codebook for all shards "
                         "(implies the parallel engine; huffman pipelines "
                         "only)")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(fn=cmd_compress)

    sp = sub.add_parser("compile", help="trace a preset or spec JSON file "
                                        "into its execution plan and print "
                                        "the step list")
    sp.add_argument("pipeline",
                    help=f"preset name (one of {PRESET_NAMES}) or a path "
                         "to a PipelineSpec JSON file")
    sp.set_defaults(fn=cmd_compile)

    sp = sub.add_parser("decompress", help="decompress a container")
    sp.add_argument("input")
    sp.add_argument("--workers", type=int, default=None,
                    help="worker count for multi-shard containers "
                         "(default: one per CPU)")
    sp.add_argument("--threads", type=int, default=None,
                    help="slab-parallel decode width for single-stream "
                         "containers (values identical at any width; "
                         "default: FZMOD_THREADS, then auto by field size)")
    sp.add_argument("--stream", action="store_true",
                    help="decode shard-by-shard into a memory-mapped "
                         "output file with overlapped decode/scatter "
                         "stages (multi-shard containers only)")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(fn=cmd_decompress)

    sp = sub.add_parser("eval", help="evaluate compressors on a dataset")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--field")
    sp.add_argument("--scale", type=float, default=None)
    sp.add_argument("--max-fields", type=int, default=3)
    sp.add_argument("--eb", default="1e-2,1e-4")
    sp.add_argument("--compressors")
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("modules", help="list registered modules")
    sp.set_defaults(fn=cmd_modules)

    sp = sub.add_parser("autotune", help="auto-select a pipeline")
    add_input_opts(sp)
    sp.add_argument("--eb", type=float, required=True)
    sp.add_argument("--objective", default="speedup", choices=list(OBJECTIVES))
    sp.add_argument("--platform", default="h100", choices=["h100", "v100"])
    sp.set_defaults(fn=cmd_autotune)

    sp = sub.add_parser("platforms", help="print Table-1 platform specs")
    sp.set_defaults(fn=cmd_platforms)

    sp = sub.add_parser("diff", help="compare two compressed containers")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--no-values", action="store_true",
                    help="skip decoding/value comparison")
    sp.set_defaults(fn=cmd_diff)

    sp = sub.add_parser("gen", help="export a synthetic dataset as raw "
                                    ".f32 files + manifest")
    sp.add_argument("--dataset", required=True)
    sp.add_argument("--scale", type=float, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("-o", "--output", required=True, help="directory")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("inspect", help="describe any .fzmod/.fzar/.fzst "
                                        "blob without decompressing")
    sp.add_argument("input")
    sp.set_defaults(fn=cmd_inspect)

    sp = sub.add_parser("lint", help="contract-aware static analysis "
                                     "(fzlint rules FZL001-FZL020)")
    from .analysis.cli import add_arguments as add_lint_arguments
    add_lint_arguments(sp)
    sp.set_defaults(fn=cmd_lint)

    sp = sub.add_parser("stats", help="print hot-path cache, telemetry and "
                                      "sanitizer counters for this process")
    sp.set_defaults(fn=cmd_stats)

    sp = sub.add_parser("trace", help="compress a field with telemetry "
                                      "enabled and export the span trace "
                                      "(Chrome trace-event JSON for "
                                      "Perfetto/chrome://tracing)")
    add_input_opts(sp)
    sp.add_argument("--preset", default="fzmod-default",
                    help=f"pipeline preset {PRESET_NAMES} (short names "
                         "like 'default' are accepted)")
    sp.add_argument("--eb", type=float, default=1e-3)
    sp.add_argument("--mode", default="rel", choices=["rel", "abs"])
    sp.add_argument("--workers", type=int, default=None,
                    help="trace the sharded engine with this many workers "
                         "(shards appear as separate trace process lanes)")
    sp.add_argument("--shard-mb", type=float, default=None,
                    help="shard size in MiB (default: sized for ~2 shards "
                         "per worker when --workers is given)")
    sp.add_argument("--decompress", action="store_true",
                    help="also trace decompression of the result")
    sp.add_argument("--stream", action="store_true",
                    help="trace a streaming round trip instead: the "
                         "decode window's stream.huffman_decode and "
                         "stream.outlier_scatter spans overlap across "
                         "shards (one Perfetto row per thread)")
    sp.add_argument("-o", "--output", default="trace.json",
                    help="Chrome trace-event JSON path (default trace.json)")
    sp.add_argument("--jsonl", help="also write a JSONL span log here")
    sp.add_argument("--prom", help="also write the Prometheus text "
                                   "exposition of the metrics registry here")
    sp.set_defaults(fn=cmd_trace)

    sp = sub.add_parser("verify", help="run the contract check battery "
                                       "against a pipeline")
    sp.add_argument("--pipeline", default="fzmod-default")
    sp.add_argument("--predictor")
    sp.add_argument("--encoder")
    sp.add_argument("--secondary")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("report", help="full comparison report for a field "
                                       "(all compressors, both platforms)")
    add_input_opts(sp)
    sp.add_argument("--eb", default="1e-2,1e-4")
    sp.add_argument("--compressors")
    sp.set_defaults(fn=cmd_report)

    sp = sub.add_parser("analyze",
                        help="trace analytics (critical path, per-stage "
                             "MB/s, stragglers) for a .jsonl/.json span "
                             "trace, or a fidelity report (PSNR, SSIM, "
                             "spectra) for an original/reconstructed "
                             "field pair")
    sp.add_argument("original",
                    help="span trace (.jsonl/.json from 'fzmod trace') "
                         "or raw original field (.f32/.f64)")
    sp.add_argument("reconstructed", nargs="?",
                    help="raw reconstructed field (fidelity mode)")
    sp.add_argument("--dims", help="comma-separated dims (fidelity mode)")
    sp.add_argument("--dtype", default="f4", choices=["f4", "f8"])
    sp.add_argument("--format", default="text",
                    choices=["text", "json", "markdown"],
                    help="trace-mode output format")
    sp.add_argument("--straggler-k", type=float, default=None,
                    help="MAD multiplier for straggler detection "
                         "(default 3.0)")
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("archive", help="create/list/extract snapshot archives")
    sp.add_argument("action", choices=["create", "list", "extract"])
    sp.add_argument("path", help="archive file (.fzar)")
    sp.add_argument("--dataset", help="dataset for 'create'")
    sp.add_argument("--scale", type=float, default=None)
    sp.add_argument("--eb", type=float, default=1e-3)
    sp.add_argument("--pipeline", default="fzmod-default")
    sp.add_argument("--field", help="member name for 'extract'")
    sp.add_argument("-o", "--output", help="output .f32 file for 'extract'")
    sp.set_defaults(fn=cmd_archive)
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    ``FZMOD_PROFILE=1`` runs the whole invocation under the sampling
    profiler (:mod:`repro.obs.profile`) and writes a collapsed-stack
    flamegraph file on exit (``FZMOD_PROFILE_OUT``, default
    ``fzmod-profile.collapsed``).
    """
    from .obs.profile import maybe_start_from_env, stop_profiler
    args = build_parser().parse_args(argv)
    prof = maybe_start_from_env()
    try:
        return args.fn(args)
    except FZModError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if prof is not None:
            stop_profiler()
            out = os.environ.get("FZMOD_PROFILE_OUT",
                                 "fzmod-profile.collapsed")
            with open(out, "w", encoding="utf-8") as fh:
                prof.write_collapsed(fh)
            print(f"profile: {prof.sample_count} samples "
                  f"({len(prof.samples)} stacks) -> {out}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
