"""Streaming engine bench: memory ceiling, byte-identity, stage overlap.

Exercises the three claims of :mod:`repro.streaming`:

* **Memory ceiling** — compressing a memory-mapped field (generated
  slab-by-slab, never fully resident) must grow this process's
  ``ru_maxrss`` high-water mark by less than half the field's size.
  The input is written and consumed out-of-core; only the prefetch
  window and in-flight shards are ever resident.
* **Byte-identity** — the streaming engine's compat-layout container
  must be byte-identical to the in-memory sharded engine's for the
  same input at every worker count, in both codebook modes.
* **Stage overlap** — the streaming decompress trace must show shard
  ``k``'s ``stream.outlier_scatter`` span running concurrently with
  shard ``k+1``'s ``stream.huffman_decode`` span.

Two entry points:

* under pytest (``pytest benchmarks/bench_streaming.py``) it runs the
  quick suite and asserts every check;
* as a script it prints the report (``--out PATH`` also writes the
  section as JSON) and exits non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time

import numpy as np

from repro import compress, decompress
from repro.core.pipeline import Pipeline
from repro.obs import GLOBAL_TRACER, set_telemetry
from repro.streaming import MemmapSource
from repro.types import EbMode

#: streaming compress must keep its peak-RSS delta under this fraction
#: of the (memory-mapped, never fully resident) input field
STREAM_RSS_CEILING = 0.5

#: attempts for the (scheduling-dependent) overlap measurement
OVERLAP_RETRIES = 3


def _rss_bytes() -> int:
    """Lifetime peak RSS of this process (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _write_field_slabwise(path: str, shape: tuple[int, ...],
                          slab_rows: int = 32) -> None:
    """Generate the bench field on disk one slab at a time.

    Smooth sums of sines (realistic compressibility), never
    materialised whole — the point of this bench is that nothing, input
    included, is ever field-sized in memory.
    """
    with open(path, "wb") as fh:
        for r0 in range(0, shape[0], slab_rows):
            r1 = min(shape[0], r0 + slab_rows)
            idx = np.indices((r1 - r0,) + shape[1:]).astype(np.float64)
            idx[0] += r0
            f = np.zeros((r1 - r0,) + shape[1:])
            for k, g in enumerate(idx):
                f += np.sin(g / (11.0 + 2 * k)) * (30.0 / (k + 1))
            f += 0.01 * idx[0]
            fh.write(f.astype("<f4").tobytes())


def _overlap_counts(records) -> tuple[int, int]:
    """(adjacent, any) wall-clock overlaps of scatter(k) x decode(k+1).

    Task spans are named ``stream.<task>:<k>`` (deterministic lane ids);
    match on the base name before the colon.
    """
    sc = {r.attrs["shard"]: (r.start, r.end) for r in records
          if r.name.split(":", 1)[0] == "stream.outlier_scatter"}
    de = {r.attrs["shard"]: (r.start, r.end) for r in records
          if r.name.split(":", 1)[0] == "stream.huffman_decode"}
    adjacent = sum(1 for k, (s0, s1) in sc.items()
                   if k + 1 in de and s0 < de[k + 1][1] and de[k + 1][0] < s1)
    anyp = sum(1 for k, (s0, s1) in sc.items()
               for j, (d0, d1) in de.items()
               if j > k and s0 < d1 and d0 < s1)
    return adjacent, anyp


def streaming_check_results(section: dict) -> dict:
    """Pass/fail flags for a streaming report section.

    ``compress.peak_rss_delta_bytes`` is the ``ru_maxrss`` growth over
    one out-of-core compress of ``config.field_bytes`` input,
    ``identity.identical`` records byte-equality against the in-memory
    sharded engine, and ``overlap.adjacent_overlaps`` counts shard-``k``
    outlier scatters that ran concurrently with shard-``k+1`` Huffman
    decodes.
    """
    field_bytes = section["config"]["field_bytes"]
    return {
        "stream_rss_below_half_field":
            section["compress"]["peak_rss_delta_bytes"]
            <= STREAM_RSS_CEILING * field_bytes,
        "stream_blob_identical": bool(section["identity"]["identical"]),
        "stream_overlap_observed":
            section["overlap"]["adjacent_overlaps"] > 0,
    }


def run_streaming_suite(*, quick: bool = False, workers: int = 2,
                        eb: float = 1e-3) -> dict:
    """Measure the streaming engine and return the report section."""
    shape = (256, 128, 128) if quick else (1024, 128, 128)
    shard_mb = 1.0 if quick else 2.0
    pipe = Pipeline.from_names()
    field_bytes = int(np.prod(shape)) * 4
    section: dict = {
        "suite": "streaming",
        "quick": quick,
        "config": {"shape": list(shape), "dtype": "float32",
                   "field_bytes": field_bytes,
                   "field_mb": field_bytes / 1e6,
                   "eb_rel": eb, "workers": workers,
                   "shard_mb": shard_mb},
    }
    with tempfile.TemporaryDirectory(prefix="fzmod-stream-") as tmp:
        raw = os.path.join(tmp, "field.f32")
        packed = os.path.join(tmp, "field.fzms")
        recon = os.path.join(tmp, "recon.f32")
        _write_field_slabwise(raw, shape)

        # ---- memory ceiling: baseline AFTER generation, measure the
        # compress delta before anything else can raise the high-water —
        # ru_maxrss is a lifetime maximum, order matters ---------------- #
        rss0 = _rss_bytes()
        t0 = time.perf_counter()
        with MemmapSource(raw, shape) as source:
            cf = compress(source, pipe, eb, mode=EbMode.REL, stream=True,
                          out=packed, workers=workers,
                          shard_mb=shard_mb)
        compress_s = time.perf_counter() - t0
        compress_delta = max(0, _rss_bytes() - rss0)
        section["compress"] = {
            "seconds": compress_s,
            "mb_s": field_bytes / 1e6 / compress_s,
            "shards": cf.shard_count,
            "output_bytes": cf.nbytes,
            "cr": cf.stats.cr,
            "peak_rss_delta_bytes": compress_delta,
        }

        # ---- streaming decompress into a memory-mapped output --------- #
        rss1 = _rss_bytes()
        out = np.memmap(recon, dtype="<f4", mode="w+", shape=shape)
        t0 = time.perf_counter()
        decompress(packed, out=out, workers=workers)
        decompress_s = time.perf_counter() - t0
        section["decompress"] = {
            "seconds": decompress_s,
            "mb_s": field_bytes / 1e6 / decompress_s,
            "peak_rss_delta_bytes": max(0, _rss_bytes() - rss1),
        }

        # slab-wise error-bound verification (still never whole-field),
        # with the ulp-aware tolerance of repro.metrics.quality
        src = np.memmap(raw, dtype="<f4", mode="r", shape=shape)
        eb_abs = cf.stats.eb_abs
        eps = float(np.finfo(np.float32).eps)
        step = max(1, (32 << 20) // (int(np.prod(shape[1:])) * 4))
        for r0 in range(0, shape[0], step):
            r1 = min(shape[0], r0 + step)
            err = float(np.abs(src[r0:r1].astype(np.float64)
                               - out[r0:r1].astype(np.float64)).max())
            tol = eb_abs * (1 + 1e-9) + float(np.abs(out[r0:r1]).max()) * eps
            if err > tol:
                raise AssertionError(
                    f"rows {r0}:{r1} exceed eb_abs: {err} > {tol}")
        del out, src

        # ---- byte-identity vs the in-memory sharded engine (small
        # field: this side deliberately materialises) ------------------- #
        small = os.path.join(tmp, "small.f32")
        sshape = (64, 96, 80)
        _write_field_slabwise(small, sshape)
        data = np.fromfile(small, dtype="<f4").reshape(sshape)
        cases = [(w, "per-shard") for w in (1, 2, 3)] + [(2, "shared")]
        identical = True
        for w, codebook in cases:
            ref = compress(data, pipe, eb, mode=EbMode.REL, workers=w,
                           shard_mb=0.25, codebook=codebook)
            spath = os.path.join(tmp, f"small-{w}-{codebook}.fzms")
            with MemmapSource(small, sshape) as source:
                compress(source, pipe, eb, mode=EbMode.REL, stream=True,
                         out=spath, workers=w, shard_mb=0.25,
                         codebook=codebook)
            with open(spath, "rb") as fh:
                identical = identical and fh.read() == ref.blob
        section["identity"] = {
            "identical": identical,
            "cases": [f"workers={w} codebook={c}" for w, c in cases],
        }

        # ---- stage overlap (scheduling-dependent: retry a few times) -- #
        adjacent = anyp = 0
        ov_workers = max(2, workers)
        prev = set_telemetry(True)
        try:
            for _ in range(OVERLAP_RETRIES):
                GLOBAL_TRACER.clear()
                decompress(packed, workers=ov_workers)
                adjacent, anyp = _overlap_counts(GLOBAL_TRACER.records())
                if adjacent > 0:
                    break
        finally:
            set_telemetry(prev)
            GLOBAL_TRACER.clear()
        section["overlap"] = {
            "workers": ov_workers,
            "adjacent_overlaps": adjacent,
            "any_pair_overlaps": anyp,
        }

    section["checks"] = streaming_check_results(section)
    return section


def render_streaming(section: dict) -> str:
    """Human-readable summary of a streaming section."""
    c, d, o = section["compress"], section["decompress"], section["overlap"]
    ident = ("byte-identical" if section["identity"]["identical"]
             else "DIVERGED")
    lines = [
        f"streaming suite ({section['config']['field_mb']:.0f} MB "
        f"memmapped field, {c['shards']} shards, "
        f"{section['config']['workers']} workers)",
        f"  compress    {c['seconds']:.2f}s  {c['mb_s']:.1f} MB/s  "
        f"CR={c['cr']:.2f}  peak-RSS delta "
        f"{c['peak_rss_delta_bytes'] / 1e6:.1f} MB "
        f"(ceiling {section['config']['field_mb'] / 2:.1f} MB)",
        f"  decompress  {d['seconds']:.2f}s  {d['mb_s']:.1f} MB/s  "
        f"extra RSS {d['peak_rss_delta_bytes'] / 1e6:.1f} MB",
        f"  overlap     {o['adjacent_overlaps']} adjacent "
        f"scatter(k) x decode(k+1) pairs "
        f"({o['any_pair_overlaps']} any-pair) at {o['workers']} workers",
        f"  identity    {ident} across "
        f"{len(section['identity']['cases'])} engine configs",
    ]
    for name, ok in section["checks"].items():
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {name}")
    return "\n".join(lines)


def test_streaming_smoke():
    from _common import emit
    section = run_streaming_suite(quick=True)
    emit("streaming", render_streaming(section))
    failures = [name for name, ok in section["checks"].items() if not ok]
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="measure the streaming engine's memory ceiling, "
                    "byte-identity and stage overlap")
    parser.add_argument("--quick", action="store_true",
                        help="16 MB field instead of 64 MB (CI smoke)")
    parser.add_argument("--workers", type=int, default=2,
                        help="streaming worker count (default 2)")
    parser.add_argument("--out", help="also write the section as JSON here")
    args = parser.parse_args(argv)

    section = run_streaming_suite(quick=args.quick,
                                  workers=max(1, args.workers))
    print(render_streaming(section))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(section, fh, indent=2, sort_keys=True)
            fh.write("\n")
    failures = [name for name, ok in section["checks"].items() if not ok]
    for name in failures:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
