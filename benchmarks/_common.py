"""Shared infrastructure for the paper-reproduction benchmarks.

Every bench regenerates one table or figure of the paper.  The expensive
part — compressing every (dataset, field, error-bound, compressor) cell —
is computed once per session in :func:`eval_grid` and shared by the
Table-3 / Figure-2 / Figure-3 / Figure-4 benches.

Scale is controlled by ``FZMOD_BENCH_SCALE`` (a multiplier on the default
per-dataset scales; raise it toward 1.0 to push the synthetic grids toward
the real SDRBench sizes — measured CRs converge toward the paper's as the
grids grow, see DESIGN.md §2).

Each bench writes its rendered table to ``benchmarks/results/<name>.txt``
in addition to stdout, so results survive pytest's capture.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import ALL_COMPRESSOR_NAMES, get_compressor
from repro.data import get_dataset
from repro.metrics import psnr

RESULTS_DIR = Path(__file__).parent / "results"


@dataclass(frozen=True)
class TimingOpts:
    """Median-of-N timing knobs, set by ``--warmup`` / ``--repeat``.

    Defaults keep the suite as cheap as a single-shot run; raise both on
    quiet machines for stabler medians (``pytest benchmarks --repeat 5``).
    """

    warmup: int = 0
    repeat: int = 1


def timed_median(fn, opts: TimingOpts):
    """``(median_seconds, last_result)`` of ``fn()`` under ``opts``."""
    result = None
    for _ in range(opts.warmup):
        result = fn()
    times = []
    for _ in range(max(1, opts.repeat)):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


#: error bounds of Table 3 / Figures 2-4
EBS = (1e-2, 1e-4, 1e-6)

#: fields evaluated per dataset (first three of each catalog entry)
FIELDS_PER_DATASET = 3

#: baseline per-dataset scales, tuned so one field is a few hundred KB
BASE_SCALES = {"cesm": 0.06, "hacc": 0.0015, "hurr": 0.15, "nyx": 0.09}


def bench_scale(dataset: str) -> float:
    mult = float(os.environ.get("FZMOD_BENCH_SCALE", "1.0"))
    return min(1.0, BASE_SCALES[dataset] * mult)


@dataclass(frozen=True)
class Cell:
    """One (dataset, field, eb, compressor) evaluation result."""

    dataset: str
    field: str
    eb: float
    compressor: str
    cr: float
    psnr_db: float
    code_fraction: float
    outlier_fraction: float
    interp_levels: int
    input_bytes: int
    compress_seconds: float
    decompress_seconds: float


class EvalGrid:
    """All cells, with aggregation helpers used by several benches."""

    def __init__(self, cells: list[Cell]) -> None:
        self.cells = cells

    def mean_cr(self, dataset: str, eb: float, compressor: str) -> float:
        vals = [c.cr for c in self.cells
                if (c.dataset, c.eb, c.compressor) == (dataset, eb, compressor)]
        return float(np.mean(vals))

    def mean_stats(self, dataset: str, eb: float, compressor: str) -> Cell:
        sel = [c for c in self.cells
               if (c.dataset, c.eb, c.compressor) == (dataset, eb, compressor)]
        first = sel[0]
        return Cell(dataset=dataset, field="<mean>", eb=eb,
                    compressor=compressor,
                    cr=float(np.mean([c.cr for c in sel])),
                    psnr_db=float(np.mean([c.psnr_db for c in sel])),
                    code_fraction=float(np.mean([c.code_fraction for c in sel])),
                    outlier_fraction=float(np.mean([c.outlier_fraction
                                                    for c in sel])),
                    interp_levels=first.interp_levels,
                    input_bytes=first.input_bytes,
                    compress_seconds=float(np.mean([c.compress_seconds
                                                    for c in sel])),
                    decompress_seconds=float(np.mean([c.decompress_seconds
                                                      for c in sel])))


def _build_grid() -> EvalGrid:
    """Delegates to the library sweep harness (repro.sweep)."""
    from repro.sweep import run_sweep
    sources = {}
    for ds in ("cesm", "hacc", "hurr", "nyx"):
        spec = get_dataset(ds)
        scale = bench_scale(ds)
        sources[ds] = [(f, spec.load(field=f, scale=scale))
                       for f in spec.fields[:FIELDS_PER_DATASET]]
    sweep = run_sweep(sources, ebs=EBS, compressors=ALL_COMPRESSOR_NAMES)
    cells = [Cell(dataset=c.source, field=c.field, eb=c.eb,
                  compressor=c.compressor, cr=c.cr, psnr_db=c.psnr_db,
                  code_fraction=c.code_fraction,
                  outlier_fraction=c.outlier_fraction,
                  interp_levels=c.interp_levels, input_bytes=c.input_bytes,
                  compress_seconds=c.compress_seconds,
                  decompress_seconds=c.decompress_seconds)
             for c in sweep.cells]
    assert sweep.all_bounds_ok(), "sweep produced a bound violation"
    return EvalGrid(cells)


def emit(name: str, text: str) -> None:
    """Print a rendered table and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")
