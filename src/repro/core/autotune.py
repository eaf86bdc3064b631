"""Pipeline auto-selection (the paper's future-work item 3, implemented).

§5 of the paper proposes "an auto-selection mechanism for compression
modules based on data characteristics, intended hardware environment, and
needed quality metrics of the end user".  This module provides it:

1. a cheap, representative **sample** of the field is taken (strided
   blocks, preserving local structure so predictors behave as they would
   on the full field);
2. every candidate pipeline compresses the sample, giving a measured CR
   and PSNR;
3. the calibrated cost model prices each candidate on the *target
   platform* (which may not be the machine running the tuner);
4. candidates are scored by the user's objective — end-to-end
   ``speedup`` (Equation 1 on the platform's measured link bandwidth),
   ``ratio``, or ``quality`` (PSNR per bit) — and the winner is returned
   with the full scoreboard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..metrics.quality import psnr
from ..metrics.speedup import overall_speedup
from ..perf.estimator import RunStats, estimate_throughput
from ..perf.platform import H100, PlatformSpec
from ..types import EbMode, ErrorBound
from .pipeline import Pipeline, decompress
from .presets import fzmod_default, fzmod_quality, fzmod_speed

OBJECTIVES = ("speedup", "ratio", "quality")


@dataclass(frozen=True)
class CandidateScore:
    """One candidate's sample measurements and objective score."""

    name: str
    cr: float
    psnr_db: float
    modeled_compress_gbps: float
    score: float


@dataclass
class TuneReport:
    """Scoreboard of an auto-tuning run."""

    objective: str
    platform: str
    eb: float
    scores: list[CandidateScore] = field(default_factory=list)

    @property
    def winner(self) -> CandidateScore:
        return max(self.scores, key=lambda s: s.score)

    def table(self) -> str:
        """Render the scoreboard as an aligned text table."""
        lines = [f"{'pipeline':<16} {'CR':>9} {'PSNR dB':>9} "
                 f"{'modelled GB/s':>14} {'score':>10}"]
        for s in sorted(self.scores, key=lambda s: -s.score):
            lines.append(f"{s.name:<16} {s.cr:>9.2f} {s.psnr_db:>9.2f} "
                         f"{s.modeled_compress_gbps:>14.1f} {s.score:>10.4f}")
        return "\n".join(lines)


def sample_blocks(data: np.ndarray, fraction: float = 0.05,
                  block: int = 4096, seed: int = 0) -> np.ndarray:
    """A structure-preserving sample: contiguous blocks at strided offsets.

    Contiguity matters — predictors exploit local correlation, so random
    scalar sampling would misestimate every candidate equally badly.  The
    sample keeps the original rank by slicing along the leading axis where
    possible.
    """
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if data.ndim > 1:
        n0 = data.shape[0]
        take = max(1, int(round(n0 * fraction)))
        stride = max(1, n0 // take)
        return np.ascontiguousarray(data[::stride][:take])
    flat = data.reshape(-1)
    nblocks = max(1, int(flat.size * fraction) // block)
    stride = max(block, flat.size // max(nblocks, 1))
    pieces = [flat[s:s + block] for s in range(0, flat.size - block + 1, stride)]
    if not pieces:
        return flat.copy()
    return np.concatenate(pieces[:nblocks]) if nblocks > 1 else pieces[0].copy()


def default_candidates() -> list[Pipeline]:
    """The stock candidate set: the three presets plus default+deflate."""
    return [fzmod_default(), fzmod_speed(), fzmod_quality(),
            fzmod_default(secondary="deflate")]


def autotune(data: np.ndarray, eb: ErrorBound | float,
             objective: str = "speedup", platform: PlatformSpec = H100,
             candidates: list[Pipeline] | None = None,
             sample_fraction: float = 0.05
             ) -> tuple[Pipeline, TuneReport]:
    """Pick the best pipeline for ``data`` under ``objective``.

    Returns ``(winning_pipeline, report)``.  The winner is a fresh pipeline
    instance ready for the full field.
    """
    if objective not in OBJECTIVES:
        raise ConfigError(f"objective must be one of {OBJECTIVES}")
    if not isinstance(eb, ErrorBound):
        eb = ErrorBound(float(eb), EbMode.REL)
    if candidates is None:
        candidates = default_candidates()
    sample = sample_blocks(np.asarray(data), fraction=sample_fraction)

    report = TuneReport(objective=objective, platform=platform.name,
                        eb=eb.value)
    by_name: dict[str, Pipeline] = {}
    for pipe in candidates:
        key = pipe.name if pipe.name not in by_name else \
            f"{pipe.name}+{pipe.secondary.name}"
        by_name[key] = pipe
        cf = pipe.compress(sample, eb)
        recon = decompress(cf.blob)
        q = psnr(sample, recon)
        stats = RunStats(input_bytes=sample.nbytes, cr=cf.stats.cr,
                         code_fraction=cf.stats.code_fraction,
                         outlier_fraction=cf.stats.outlier_fraction,
                         interp_levels=max(1, cf.stats.interp_levels))
        model_name = pipe.name if pipe.name.startswith("fzmod") \
            else "fzmod-default"
        th = estimate_throughput(model_name, stats, platform)
        if objective == "speedup":
            score = overall_speedup(cf.stats.cr, th.compress_bps,
                                    platform.measured_link_bw)
        elif objective == "ratio":
            score = cf.stats.cr
        else:  # quality: fidelity per stored bit
            bitrate = cf.stats.bit_rate
            score = (q / bitrate) if np.isfinite(q) else 1e9
        report.scores.append(CandidateScore(
            name=key, cr=cf.stats.cr, psnr_db=float(q),
            modeled_compress_gbps=th.compress_gbps, score=float(score)))
    winner = report.winner
    return by_name[winner.name], report
