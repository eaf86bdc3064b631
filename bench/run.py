#!/usr/bin/env python3
"""Fresh-content benchmark of ``repro.compress`` / ``repro.decompress``.

    python bench/run.py                      # all six workloads, all metrics
    python bench/run.py --workload default_3d --seed 3
    python bench/run.py --check-repeat       # the suite twice, same seed
    python bench/run.py --smoke              # 2 ops per workload

One workload runs in one process (the suite starts a fresh interpreter per
workload, so no workload warms another's caches, pools or plans).  A
single-workload run ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics for ``--trace 0``, the
per-layer ones for ``--trace 1``, both when ``--trace`` is not given.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

#: end-to-end metrics every workload reports: (name, unit, better)
END_TO_END = (
    ("compress_mb_s", "MB/s", "higher"),
    ("decompress_mb_s", "MB/s", "higher"),
    ("compression_ratio", "ratio", "higher"),
    ("psnr_db", "dB", "higher"),
    ("failed_ops_share", "share", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

DEFAULT_SECONDS = 20


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload in this process "
                    "(default: each of the six in a fresh interpreter)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="length of the timed run (default %(default)s)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics only; 1: per-layer metrics "
                    "only; not given: both")
    ap.add_argument("--smoke", action="store_true",
                    help="2 ops per workload, 1 traced field, 1 repeat")
    ap.add_argument("--check-repeat", action="store_true",
                    help="run the suite twice and compare against the bounds")
    return ap.parse_args(argv)


def contract() -> dict:
    """``BENCHMARK.json``: the metrics the driver expects, and the bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment() -> dict:
    import numpy
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "git_commit": commit,
            "fzmod_env": {k: v for k, v in os.environ.items()
                          if k.startswith("FZMOD_")}}


# --------------------------------------------------------------------- #
# one workload, in this process                                          #
# --------------------------------------------------------------------- #
def run_workload(args: argparse.Namespace) -> int:
    from counters import snapshot
    from harness import (SETUP_CHILDREN, Ops, end_to_end_metrics,
                         freshness_violations, measure_setup, remove_scratch,
                         scratch_dir, timed_run)
    from layers import CLI_REPEATS, METRICS, TRACE_PASSES, Ladder
    from workloads import WORKLOADS, FieldStream

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; have "
                 f"{', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    want_e2e = args.trace in (None, 0)
    want_layers = args.trace in (None, 1)
    RESULTS_DIR.mkdir(exist_ok=True)
    tmp = scratch_dir()
    started = time.perf_counter()
    try:
        stream = FieldStream(wl, args.seed)
        ops = Ops(wl, tmp / "ops")
        setup = {}
        if want_e2e:
            setup = measure_setup(
                wl, stream, tmp / "setup",
                children=1 if args.smoke else SETUP_CHILDREN)
        # a run that reports only layers spends half its time on the ladder
        timed_s = args.seconds if want_e2e else args.seconds / 2
        run = timed_run(ops, stream, timed_s,
                        max_ops=2 if args.smoke else None)
        e2e = end_to_end_metrics(run)
        e2e["setup_s"] = setup.get("setup_s")

        layers, ladder = {}, None
        if want_layers:
            ladder = Ladder(wl, ops, tmp / "ladder")
            before = snapshot()
            deadline = time.perf_counter() + args.seconds / 2
            for k in range(1 if args.smoke else TRACE_PASSES):
                if k >= 1 and time.perf_counter() >= deadline:
                    break
                ladder.run_op(k, lambda: stream.next()[1])
            if wl.name == "default_3d":
                ladder.cli_probe(stream.next()[1],
                                 1 if args.smoke else CLI_REPEATS)
            layers = ladder.metrics(run)
            # no rung may have been served by a memo either
            run.freshness += freshness_violations([], before, snapshot())
            ladder.tracer.write(RESULTS_DIR / f"trace-{wl.name}.jsonl")
    finally:
        remove_scratch(tmp)

    correct = (run.failed == 0 and not run.freshness
               and len(run.good("compress_s")) > 0)
    units = {n: u for n, u, _ in END_TO_END}
    units.update({n: u for n, u, _, _ in METRICS})
    result = {
        "workload": wl.name, "why": wl.why, "preset": wl.preset,
        "threads": ops.threads, "seed": args.seed, "seconds": args.seconds,
        "smoke": args.smoke, "trace": args.trace, "valid": correct,
        "ops_attempted": run.attempted, "ops_failed": run.failed,
        "timed_samples": len(run.good("compress_s")),
        "timed_wall_s": run.wall_s, "total_wall_s": None,
        "field_bytes": run.field_bytes,
        "distinct_containers": len({r.container_sha256 for r in run.results
                                    if r.container_sha256}),
        "freshness_violations": run.freshness,
        "failures": [{"op": r.index, "error": r.error}
                     for r in run.results if not r.ok],
        "samples": {"compress_s": run.good("compress_s"),
                    "decompress_s": run.good("decompress_s")},
        "end_to_end": e2e if want_e2e else {},
        "setup_parts": {k: v for k, v in setup.items() if k != "setup_s"},
        "per_layer": layers,
        "traced_passes": len(ladder.tracer.seconds("op")) if ladder else 0,
        "layers_unavailable": ladder.unavailable if ladder else {},
        "units": units, "input_sha256": stream.input_sha256(),
        "environment": environment(),
    }
    result["total_wall_s"] = time.perf_counter() - started
    (RESULTS_DIR / f"{wl.name}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print_workload(result)
    print(json.dumps(contract_line(result)))
    return 0 if correct else 1


def print_workload(result: dict) -> None:
    print(f"== {result['workload']} ({result['preset']}, threads="
          f"{result['threads']}, nproc={result['environment']['nproc']}, "
          f"seed={result['seed']}): {result['timed_samples']} timed ops in "
          f"{result['timed_wall_s']:.1f} s, {result['traced_passes']} traced "
          f"passes, {result['distinct_containers']} distinct containers")
    metrics = {**result["end_to_end"], **result["per_layer"]}
    unavailable = result["layers_unavailable"]
    for name, value in metrics.items():
        unit = result["units"][name]
        if value is None:
            print(f"  {name:<42} {'null':>14}  "
                  f"({null_reason(name, unavailable)})")
        else:
            print(f"  {name:<42} {value:>14.6g}  {unit}")
    for line in result["freshness_violations"]:
        print(f"  INVALID: {line}")
    for failure in result["failures"]:
        print(f"  FAILED op {failure['op']}: {failure['error']}")


def null_reason(name: str, unavailable: dict[str, str]) -> str:
    from layers import METRICS
    layer = {n: layer for n, _, _, layer in METRICS}.get(name)
    if layer in unavailable:
        return f"layer {layer} unavailable: {unavailable[layer]}"
    if "pipeline.resolve" in unavailable:
        return f"unavailable: {unavailable['pipeline.resolve']}"
    return "not measured" if layer is None else "not exercised"


def contract_line(result: dict) -> dict:
    """The driver's result line.

    It lists the metrics ``BENCHMARK.json`` names.  A layer the workload
    does not exercise moved no bytes: the driver wants a number for every
    metric on every workload, so such a metric reads 0 there (the result
    file keeps ``null`` and the reason).
    """
    spec = contract()
    wanted = []
    if result["trace"] in (None, 0):
        wanted += spec["end_to_end"]
    if result["trace"] in (None, 1):
        wanted += spec["per_layer"]
    values = {**result["end_to_end"], **result["per_layer"]}
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        metrics[m["name"]] = {"value": 0.0 if value is None else value,
                              "unit": m["unit"]}
    return {"correct": result["valid"],
            "attempted": result["ops_attempted"],
            "failed": result["ops_failed"], "metrics": metrics}


# --------------------------------------------------------------------- #
# the suite: one fresh interpreter per workload                          #
# --------------------------------------------------------------------- #
def run_suite(args: argparse.Namespace, trace: int | None) -> dict | None:
    """Run every workload; ``{name: result}`` or ``None`` if one failed."""
    from workloads import WORKLOADS
    results, ok = {}, True
    started = time.perf_counter()
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                name, "--seed", str(args.seed), "--seconds",
                str(args.seconds)]
        if trace is not None:
            argv += ["--trace", str(trace)]
        if args.smoke:
            argv.append("--smoke")
        sys.stdout.flush()
        ok &= subprocess.run(argv).returncode == 0
        path = RESULTS_DIR / f"{name}.json"
        if path.exists():
            results[name] = json.loads(path.read_text())
    print(f"\n== summary (seed {args.seed}, "
          f"{time.perf_counter() - started:.0f} s)")
    names = [n for n, _, _ in END_TO_END]
    print(f"{'workload':<20}" + "".join(f"{n:>19}" for n in names))
    for name, res in results.items():
        cells = (res["end_to_end"].get(n) for n in names)
        print(f"{name:<20}" + "".join(
            f"{'-':>19}" if c is None else f"{c:>19.6g}" for c in cells))
    return results if ok and len(results) == len(WORKLOADS) else None


def check_repeat(args: argparse.Namespace) -> int:
    """Two runs of the same code and seed must agree within the bounds."""
    bounds = {m["name"]: m for m in contract()["end_to_end"]}
    first = run_suite(args, trace=0)
    second = run_suite(args, trace=0)
    if first is None or second is None:
        print("check-repeat: a workload failed")
        return 1
    lines = [f"check-repeat: seed {args.seed}, {args.seconds:g} s per "
             f"workload, nproc {os.cpu_count()}",
             f"{'workload':<20}{'metric':<20}{'run 1':>14}{'run 2':>14}"
             f"{'worse by':>10}{'bound':>8}"]
    bad = 0
    for name in first:
        for metric, spec in bounds.items():
            a = first[name]["end_to_end"][metric]
            b = second[name]["end_to_end"][metric]
            # how much worse the worse of the two reads, as a share
            worse = abs(a - b) / (min(a, b) if spec["better"] == "higher"
                                  else max(a, b))
            verdict = "" if worse <= spec["bound"] else "  EXCEEDS"
            bad += bool(verdict)
            lines.append(f"{name:<20}{metric:<20}{a:>14.6g}{b:>14.6g}"
                         f"{worse:>10.4f}{spec['bound']:>8.4g}{verdict}")
        for res in (first[name], second[name]):
            bad += res["end_to_end"]["failed_ops_share"] != 0
    lines.append(f"check-repeat: {bad} pairing(s) outside their bound")
    text = "\n".join(lines)
    print("\n" + text)
    (RESULTS_DIR / "check-repeat.txt").write_text(text + "\n")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    forbidden = sorted(k for k in os.environ if k.startswith("FZMOD_"))
    if forbidden:
        sys.exit("refusing to measure with " + ", ".join(forbidden)
                 + " set: the benchmark runs the program's defaults")
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"no program to measure: {SRC_DIR / 'repro'} is missing")
    # this checkout's source, ahead of any installed copy
    sys.path.insert(0, str(SRC_DIR))
    if args.check_repeat:
        return check_repeat(args)
    if args.workload is None:
        return 0 if run_suite(args, args.trace) is not None else 1
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
