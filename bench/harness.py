"""End-to-end part: ops through the facade, verification, freshness, set-up.

Touches the program only through ``repro.compress``, ``repro.decompress``
and ``repro.metrics`` (field generation, in ``workloads``, adds
``repro.data``); cache counters are read through ``counters``, which
reports nothing when they are gone.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from counters import hits, snapshot
from workloads import EB, EB_MODE, FieldStream, Workload

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
TMP_ROOT = BENCH_DIR / ".tmp"

#: child interpreters the set-up time is the median over (with 3, two
#: same-seed runs of identical code differed by up to 25% on the shared box)
SETUP_CHILDREN = 5


# --------------------------------------------------------------------- #
# statistics helpers                                                     #
# --------------------------------------------------------------------- #
def median(values) -> float | None:
    values = list(values)
    return float(statistics.median(values)) if values else None


def percentile(values, q: float) -> float | None:
    """Linear-interpolated percentile, ``q`` in 0..100."""
    values = list(values)
    return float(np.percentile(values, q)) if values else None


def mb_per_s(nbytes: int, seconds: float | None) -> float | None:
    """Field-equivalent rate; 1 MB = 1e6 B."""
    if not seconds:
        return None
    return nbytes / 1e6 / seconds


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# --------------------------------------------------------------------- #
# one op                                                                 #
# --------------------------------------------------------------------- #
@dataclass
class OpResult:
    index: int
    ok: bool = False
    error: str | None = None
    compress_s: float | None = None
    decompress_s: float | None = None
    container_bytes: int | None = None
    container_sha256: str | None = None
    psnr_db: float | None = None
    max_err_over_eb: float | None = None


def resolve_eb_abs(x: np.ndarray) -> float:
    """The absolute bound ``EB`` (value-range relative) means for ``x``."""
    return EB * (float(x.max()) - float(x.min()))


def check_output(x: np.ndarray, y) -> tuple[str | None, float | None]:
    """``(violation, max_err / eb_abs)`` for one reconstruction.

    The bound is resolved here from the input's own range, not taken from
    the program's report, and compared with the cast tolerance of
    ``repro.metrics.error_bound_tolerance``.
    """
    from repro.metrics import error_bound_tolerance
    if not isinstance(y, np.ndarray):
        return f"returned {type(y).__name__}, not an array", None
    if y.shape != x.shape or y.dtype != x.dtype:
        return (f"returned {y.shape}/{y.dtype}, expected "
                f"{x.shape}/{x.dtype}"), None
    eb_abs = resolve_eb_abs(x)
    err = float(np.abs(x.astype(np.float64) - y.astype(np.float64)).max())
    if not err <= error_bound_tolerance(y, eb_abs):
        return (f"max error {err:.6g} exceeds bound {eb_abs:.6g}",
                err / eb_abs)
    return None, err / eb_abs


class Ops:
    """The two timed calls of a workload, exactly as a caller makes them.

    ``prepare`` does what the caller did before the clock started (for the
    file workload: the input file exists and both files are mapped).
    """

    def __init__(self, wl: Workload, tmp: Path,
                 threads: int | None = None) -> None:
        self.wl = wl
        self.threads = wl.thread_count() if threads is None else threads
        self.tmp = tmp
        self._dst = None
        if wl.kind == "stream_file":
            tmp.mkdir(parents=True, exist_ok=True)

    def prepare(self, x: np.ndarray):
        if self.wl.kind == "memory":
            return x
        src_path = self.tmp / "in.f32"
        x.tofile(src_path)
        self._dst = np.memmap(self.tmp / "rec.f32", dtype=x.dtype,
                              mode="w+", shape=x.shape)
        return np.memmap(src_path, dtype=x.dtype, mode="r", shape=x.shape)

    def compress(self, src):
        import repro
        if self.wl.kind == "memory":
            return repro.compress(src, self.wl.preset, EB, mode=EB_MODE,
                                  compile="auto", threads=self.threads)
        return repro.compress(src, self.wl.preset, EB, mode=EB_MODE,
                              stream=True, out=self.tmp / "out.fzms",
                              layout="stream", shard_mb=2, workers=1)

    def decompress(self, compressed):
        import repro
        if self.wl.kind == "memory":
            return repro.decompress(compressed.blob, compile="auto",
                                    threads=self.threads)
        return repro.decompress(compressed.path, out=self._dst, workers=1)

    def container(self, compressed) -> bytes:
        if self.wl.kind == "memory":
            return compressed.blob
        return Path(compressed.path).read_bytes()

    def roundtrip(self, x: np.ndarray):
        """``(y, container bytes, compress seconds, decompress seconds)``."""
        src = self.prepare(x)
        t0 = time.perf_counter()
        compressed = self.compress(src)
        t1 = time.perf_counter()
        y = self.decompress(compressed)
        t2 = time.perf_counter()
        return y, self.container(compressed), t1 - t0, t2 - t1


def run_op(ops: Ops, index: int, x: np.ndarray) -> OpResult:
    """One compress + decompress, then verification outside the timing."""
    from repro.metrics import psnr
    res = OpResult(index=index)
    try:
        y, container, res.compress_s, res.decompress_s = ops.roundtrip(x)
        res.container_bytes = len(container)
        res.container_sha256 = hashlib.sha256(container).hexdigest()
        violation, res.max_err_over_eb = check_output(x, y)
        if violation is None:
            res.psnr_db = float(psnr(x, np.asarray(y)))
            res.ok = True
        else:
            res.error = violation
    except Exception:  # an op that raises is a failed op, not a dead run
        res.error = traceback.format_exc(limit=6)
    if not res.ok:
        # a failed op contributes no timing
        res.compress_s = res.decompress_s = None
    return res


# --------------------------------------------------------------------- #
# freshness                                                              #
# --------------------------------------------------------------------- #
STREAM_CACHES = ("huffman.encode_streams", "huffman.decode_streams")


def freshness_violations(results: list[OpResult],
                         before: dict, after: dict) -> list[str]:
    """Why a run measured a memo, if it did.

    ``before``/``after`` are ``counters.snapshot()`` readings; a cache
    that no longer exists counts as zero hits.
    """
    out = []
    digests = [r.container_sha256 for r in results if r.container_sha256]
    if len(set(digests)) != len(digests):
        out.append(f"{len(digests) - len(set(digests))} op(s) produced a "
                   "container byte-identical to an earlier op's")
    for name in STREAM_CACHES:
        served = hits(before["plan_caches"].get(name, {}),
                      after["plan_caches"].get(name, {}))
        if served:
            out.append(f"{name} served {served} hit(s) during the run")
    return out


# --------------------------------------------------------------------- #
# the timed run                                                          #
# --------------------------------------------------------------------- #
@dataclass
class TimedRun:
    results: list[OpResult] = field(default_factory=list)
    field_bytes: int = 0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    #: ``counters.snapshot()`` around the timed ops
    counters_before: dict = field(default_factory=dict)
    counters_after: dict = field(default_factory=dict)
    freshness: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r.ok for r in self.results)

    def good(self, attr: str) -> list[float]:
        """One value per verified *timed* op (the warm-up op is left out)."""
        return [getattr(r, attr) for r in self.results[1:] if r.ok]


def timed_run(ops: Ops, stream: FieldStream, seconds: float,
              max_ops: int | None = None) -> TimedRun:
    """Closed loop, one client: fresh field, compress, decompress, verify.

    The first op is a warm-up (plans compile, tables and pools fill): it is
    verified and counted but gives no timing sample.  The loop then runs
    until ``seconds`` have passed, at least three ops, at most ``max_ops``.
    """
    run = TimedRun(field_bytes=stream.field_bytes)
    run.results.append(run_op(ops, *stream.next()))
    run.counters_before = snapshot()
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        timed = len(run.results) - 1
        if max_ops is not None and timed >= max_ops:
            break
        if timed >= 3 and time.perf_counter() >= deadline:
            break
        run.results.append(run_op(ops, *stream.next()))
    run.wall_s = time.perf_counter() - start
    run.counters_after = snapshot()
    run.peak_rss_mb = peak_rss_mb()
    run.freshness = freshness_violations(run.results, run.counters_before,
                                         run.counters_after)
    return run


def end_to_end_metrics(run: TimedRun) -> dict[str, float | None]:
    n = run.field_bytes
    ratios = [n / b for b in run.good("container_bytes")]
    psnrs = run.good("psnr_db")
    return {
        "compress_mb_s": mb_per_s(n, median(run.good("compress_s"))),
        "decompress_mb_s": mb_per_s(n, median(run.good("decompress_s"))),
        "compression_ratio": float(np.mean(ratios)) if ratios else None,
        "psnr_db": float(np.mean(psnrs)) if psnrs else None,
        "failed_ops_share": run.failed / run.attempted,
        "peak_rss_mb": run.peak_rss_mb,
    }


# --------------------------------------------------------------------- #
# set-up time                                                            #
# --------------------------------------------------------------------- #
def measure_setup(wl: Workload, stream: FieldStream, tmp: Path,
                  children: int = SETUP_CHILDREN) -> dict[str, float]:
    """Cold start as a user pays it, median over fresh interpreters.

    Each child times ``import repro`` and then the first complete round
    trip (preset resolution, cold plan compile, codebook and decode
    tables, pools) on a throw-away fresh field it loads from a file, so
    field generation stays out of the number.
    """
    tmp.mkdir(parents=True, exist_ok=True)
    field_path = tmp / "setup_field.npy"
    np.save(field_path, stream.throwaway())
    samples = []
    for k in range(children):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_child.py"), wl.name,
             str(field_path), str(tmp / f"setup{k}")],
            capture_output=True, text=True, timeout=170, env=child_env())
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": median(s["import_s"] + s["first_roundtrip_s"]
                          for s in samples),
        "setup.import_s": median(s["import_s"] for s in samples),
        "setup.first_roundtrip_s": median(s["first_roundtrip_s"]
                                          for s in samples),
    }


def child_env() -> dict[str, str]:
    """Environment for child interpreters: this checkout's ``src`` first."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC_DIR) + (os.pathsep + extra if extra else "")
    return env


def scratch_dir() -> Path:
    """A per-process directory under ``bench/.tmp`` (inside the checkout)."""
    path = TMP_ROOT / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass
