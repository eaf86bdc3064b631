"""Trace analytics: the read side of the telemetry layer.

``repro.obs.spans`` records; this module answers questions about what
was recorded.  Given a span set (in-memory :class:`SpanRecord` list, a
JSONL span log, or a Chrome trace-event document) it reconstructs the
span forest and computes:

* **inclusive/exclusive time** per stage/kernel/shard-lane span name
  (exclusive = inclusive minus time covered by child spans), plus
  achieved MB/s wherever the span carries ``bytes_in``/``bytes_out``;
* the **critical path**: the chain of leaf (exclusive) segments that a
  backward walk from the last span end to the first span start passes
  through, across every lane — the sequence of work that actually
  bounded the wall time.  Its coverage (critical seconds / wall
  seconds) is the headline health number: < 1 means untraced gaps;
* **overlap efficiency** for the streaming decode window: the union of
  busy time across lanes divided by wall time, minus one — > 0 proves
  scatter(k) genuinely overlapped decode(k+1) rather than serialising,
  plus an explicit count of overlapping scatter/decode shard pairs;
* **straggler shards**: per task, shards whose duration sits more than
  ``k`` robust standard deviations (MAD · 1.4826) above the median,
  reported with their plan keys and byte counts.

Everything is pure computation on plain data — no clocks, no globals —
so the same code grades a live run (``GLOBAL_TRACER.records()``), a CI
artifact, or a fixture committed to the test tree.

Used by ``fzmod analyze`` and the CI ``analyze-smoke`` job.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

from .export import MAIN_LANE
from .spans import SpanRecord

#: Default straggler threshold: duration > median + k · 1.4826 · MAD.
STRAGGLER_MAD_K = 3.0

#: Ignore straggler candidates within this ratio of the median even when
#: the MAD is tiny (uniform lanes make MAD ~ 0 and would flag noise).
STRAGGLER_MIN_RATIO = 1.2

_MB = 1e6


def base_name(name: str) -> str:
    """Span name with any ``:<shard_k>`` lane suffix stripped.

    Streaming task spans are named ``stream.<task>:<k>`` so traces diff
    cleanly per shard; analytics aggregate over the base task name.
    """
    return name.split(":", 1)[0]


# --------------------------------------------------------------------- #
# loading                                                               #
# --------------------------------------------------------------------- #

def records_from_jsonl(lines: Iterable[str]) -> list[SpanRecord]:
    """Parse a span JSONL log (inverse of ``span_jsonl_lines``)."""
    out: list[SpanRecord] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        start = float(obj["start"])
        lane = obj.get("lane")
        out.append(SpanRecord(
            name=obj["name"],
            start=start,
            end=start + float(obj["duration"]),
            span_id=int(obj["span_id"]),
            parent_id=(None if obj.get("parent_id") is None
                       else int(obj["parent_id"])),
            thread=obj.get("thread", "main"),
            lane=None if lane in (None, MAIN_LANE) else lane,
            attrs=obj.get("attrs") or {},
        ))
    return out


def records_from_chrome(doc: dict) -> list[SpanRecord]:
    """Parse a Chrome trace-event document (inverse of ``chrome_trace``)."""
    lane_of_pid: dict[int, str | None] = {}
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") == "M" and ev.get("name") == "process_name":
            name = ev["args"]["name"]
            lane_of_pid[ev["pid"]] = None if name == MAIN_LANE else name
    out: list[SpanRecord] = []
    fallback_ids = 0
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args") or {})
        span_id = args.pop("span_id", None)
        parent_id = args.pop("parent_id", None)
        if span_id is None:
            fallback_ids -= 1          # synthetic ids stay out of the way
            span_id = fallback_ids
        start = float(ev["ts"]) / 1e6
        out.append(SpanRecord(
            name=ev["name"],
            start=start,
            end=start + float(ev["dur"]) / 1e6,
            span_id=int(span_id),
            parent_id=None if parent_id is None else int(parent_id),
            thread=f"tid:{ev.get('tid', 0)}",
            lane=lane_of_pid.get(ev.get("pid", 0)),
            attrs=args,
        ))
    return out


def load_trace(fp: IO[str]) -> list[SpanRecord]:
    """Load a trace from a file object: span JSONL or Chrome trace JSON."""
    head = fp.read(1)
    while head and head.isspace():
        head = fp.read(1)
    rest = fp.read()
    text = head + rest
    if not text.strip():
        return []
    if text.lstrip().startswith("{"):
        first = text.lstrip().splitlines()[0]
        try:
            obj = json.loads(first)
        except json.JSONDecodeError:
            obj = None
        if obj is not None and "name" in obj and "duration" in obj:
            return records_from_jsonl(text.splitlines())
        return records_from_chrome(json.loads(text))
    return records_from_jsonl(text.splitlines())


def load_trace_path(path: str) -> list[SpanRecord]:
    """Load a trace file by path (JSONL span log or Chrome trace JSON)."""
    with open(path, encoding="utf-8") as fp:
        return load_trace(fp)


# --------------------------------------------------------------------- #
# span forest                                                           #
# --------------------------------------------------------------------- #

@dataclass
class TraceNode:
    """One span plus its children, in start order."""

    record: SpanRecord
    children: list["TraceNode"] = field(default_factory=list)

    @property
    def exclusive(self) -> float:
        """Seconds not covered by child spans (clipped at zero)."""
        covered = sum(min(c.record.end, self.record.end)
                      - max(c.record.start, self.record.start)
                      for c in self.children)
        return max(0.0, self.record.duration - covered)

    def self_segments(self) -> list[tuple[float, float]]:
        """Intervals inside this span not covered by any child."""
        segs: list[tuple[float, float]] = []
        cursor = self.record.start
        for c in self.children:
            lo = max(c.record.start, self.record.start)
            if lo > cursor:
                segs.append((cursor, lo))
            cursor = max(cursor, min(c.record.end, self.record.end))
        if self.record.end > cursor:
            segs.append((cursor, self.record.end))
        return segs


@dataclass
class SpanForest:
    """The reconstructed span forest for one recorded run."""

    records: list[SpanRecord]
    roots: list[TraceNode]
    nodes: list[TraceNode]

    @property
    def wall(self) -> tuple[float, float]:
        start = min(r.start for r in self.records)
        end = max(r.end for r in self.records)
        return start, end

    @property
    def wall_seconds(self) -> float:
        start, end = self.wall
        return end - start


def build_forest(records: Sequence[SpanRecord]) -> SpanForest:
    """Reconstruct parent/child structure from finished spans.

    ``span_id``s are only unique within one (lane, thread): shard
    workers each run their own id counter, so parents are resolved
    within the same lane+thread — exactly the scope a thread-local
    span stack can nest in.
    """
    if not records:
        raise ValueError("no spans to analyze")
    by_key: dict[tuple[str | None, str, int], TraceNode] = {}
    nodes: list[TraceNode] = []
    for r in records:
        node = TraceNode(r)
        nodes.append(node)
        by_key[(r.lane, r.thread, r.span_id)] = node
    roots: list[TraceNode] = []
    for node in nodes:
        r = node.record
        parent = (by_key.get((r.lane, r.thread, r.parent_id))
                  if r.parent_id is not None else None)
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes:
        node.children.sort(key=lambda n: (n.record.start, -n.record.end))
    roots.sort(key=lambda n: (n.record.start, -n.record.end))
    return SpanForest(list(records), roots, nodes)


# --------------------------------------------------------------------- #
# stage table (inclusive / exclusive / bandwidth)                       #
# --------------------------------------------------------------------- #

def stage_table(forest: SpanForest) -> list[dict]:
    """Aggregate by base span name: count, inclusive/exclusive seconds,
    byte totals and achieved MB/s (None when no bytes were recorded)."""
    agg: dict[str, dict] = {}
    for node in forest.nodes:
        r = node.record
        row = agg.setdefault(base_name(r.name), {
            "name": base_name(r.name), "count": 0,
            "inclusive_s": 0.0, "exclusive_s": 0.0,
            "bytes_in": 0, "bytes_out": 0,
            "lanes": set(),
        })
        row["count"] += 1
        row["inclusive_s"] += r.duration
        row["exclusive_s"] += node.exclusive
        row["bytes_in"] += int(r.attrs.get("bytes_in") or 0)
        row["bytes_out"] += int(r.attrs.get("bytes_out") or 0)
        row["lanes"].add(r.lane or MAIN_LANE)
    out = []
    for name in sorted(agg, key=lambda n: -agg[n]["exclusive_s"]):
        row = agg[name]
        moved = max(row["bytes_in"], row["bytes_out"])
        row["mb_s"] = (moved / _MB / row["inclusive_s"]
                       if moved and row["inclusive_s"] > 0 else None)
        row["lanes"] = sorted(row["lanes"])
        out.append(row)
    return out


# --------------------------------------------------------------------- #
# critical path                                                         #
# --------------------------------------------------------------------- #

def _subtract(segs: list[tuple[float, float]],
              cover: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Remove the union of ``cover`` from each interval in ``segs``."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(cover):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    out: list[tuple[float, float]] = []
    for lo, hi in segs:
        cursor = lo
        for clo, chi in merged:
            if chi <= cursor or clo >= hi:
                continue
            if clo > cursor:
                out.append((cursor, clo))
            cursor = max(cursor, chi)
            if cursor >= hi:
                break
        if cursor < hi:
            out.append((cursor, hi))
    return out


def critical_path(forest: SpanForest) -> dict:
    """Backward walk over leaf (exclusive) segments across all lanes.

    Starting from the last span end, repeatedly pick the segment that is
    open at the cursor and started most recently, charge its span for
    the covered interval, and jump the cursor to the segment's start.
    When nothing is open (an untraced gap), jump to the latest segment
    end before the cursor.  The result is the chain of work that bounded
    the wall time; ``coverage`` is the traced fraction of the wall.

    Engine/pipeline *umbrella* spans (roots spanning ≥ half the wall)
    only contribute the intervals not covered by work they fanned out to
    other lanes/threads — the thread-local span stack cannot record
    cross-process parentage, so containment stands in for it.  Without
    this, `engine.compress_sharded` would absorb the whole path and hide
    the shard-level chain the analysis exists to expose.
    """
    wall_start, wall_end = forest.wall
    wall = wall_end - wall_start
    umbrella_cut = 0.5 * wall
    segments: list[tuple[float, float, TraceNode]] = []
    for node in forest.nodes:
        segs = node.self_segments()
        r = node.record
        if (r.parent_id is None and r.duration >= umbrella_cut
                and wall > 0):
            foreign = [
                (o.start, o.end) for o in forest.records
                if (o.lane, o.thread) != (r.lane, r.thread)
                and o.start >= r.start - 1e-12 and o.end <= r.end + 1e-12
                and o.duration < r.duration]
            if foreign:
                segs = _subtract(segs, foreign)
        for lo, hi in segs:
            if hi > lo:
                # rebase to trace-relative time: absolute perf-counter
                # stamps are huge, so a wall-relative epsilon would fall
                # below their float ULP and the walk could stop moving
                segments.append((lo - wall_start, hi - wall_start, node))
    if not segments or wall <= 0:
        return {"steps": [], "seconds": 0.0, "coverage": 0.0,
                "wall_seconds": max(wall, 0.0)}

    segments.sort(key=lambda s: s[0])
    starts = [s[0] for s in segments]

    steps: list[dict] = []
    covered = 0.0
    cursor = wall
    eps = wall * 1e-12
    while cursor > eps:
        # candidates: segments open at (just before) the cursor
        best = None
        hi_idx = bisect.bisect_right(starts, cursor - eps)
        for i in range(hi_idx - 1, -1, -1):
            lo, hi, node = segments[i]
            if hi >= cursor - eps:
                best = (lo, hi, node)
                break           # most recent start wins; list is start-sorted
        if best is None:
            # untraced gap: jump to the latest segment end before cursor
            prev_end = max((hi for lo, hi, _ in segments
                            if hi < cursor - eps), default=0.0)
            if prev_end >= cursor:
                break           # no representable progress left
            cursor = max(prev_end, 0.0)
            continue
        lo, hi, node = best
        step_end = min(hi, cursor)
        step_start = lo
        if step_start >= step_end or step_start >= cursor:
            break               # degenerate segment; cannot make progress
        r = node.record
        steps.append({
            "name": r.name, "base": base_name(r.name),
            "lane": r.lane or MAIN_LANE,
            "start": step_start,
            "end": step_end,
            "seconds": step_end - step_start,
        })
        covered += step_end - step_start
        cursor = step_start

    steps.reverse()
    # merge adjacent steps from the same span name for readability
    merged: list[dict] = []
    for s in steps:
        if (merged and merged[-1]["name"] == s["name"]
                and merged[-1]["lane"] == s["lane"]
                and abs(merged[-1]["end"] - s["start"]) <= 2 * eps + 1e-9):
            merged[-1]["end"] = s["end"]
            merged[-1]["seconds"] += s["seconds"]
        else:
            merged.append(dict(s))
    return {"steps": merged, "seconds": covered,
            "coverage": covered / wall, "wall_seconds": wall}


# --------------------------------------------------------------------- #
# overlap                                                               #
# --------------------------------------------------------------------- #

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    last_end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= last_end:
            continue
        total += hi - max(lo, last_end)
        last_end = hi
    return total


def overlap_metrics(forest: SpanForest) -> dict:
    """Concurrency across lanes/threads plus the streaming engine's
    scatter↔decode overlap, proven numerically.

    ``efficiency`` = busy-union-across-lanes / wall − 1 (clipped at 0):
    the mean number of *extra* busy lanes.  ``scatter_decode`` counts
    shard pairs where ``stream.outlier_scatter:<k>`` overlapped a decode
    of a *different* shard — the pipelining the streaming engine exists
    to provide.
    """
    busy: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for node in forest.roots:
        r = node.record
        busy.setdefault((r.lane or MAIN_LANE, r.thread), []).append(
            (r.start, r.end))
    busy_total = sum(_union_length(iv) for iv in busy.values())
    wall = forest.wall_seconds
    concurrency = busy_total / wall if wall > 0 else 0.0

    scatters: list[tuple[int, float, float]] = []
    decodes: list[tuple[int, float, float]] = []
    for r in forest.records:
        base = base_name(r.name)
        shard = r.attrs.get("shard")
        if shard is None:
            continue
        if base == "stream.outlier_scatter":
            scatters.append((int(shard), r.start, r.end))
        elif base == "stream.huffman_decode":
            decodes.append((int(shard), r.start, r.end))
    adjacent = 0
    any_pairs = 0
    for sk, slo, shi in scatters:
        for dk, dlo, dhi in decodes:
            if dk != sk and min(shi, dhi) > max(slo, dlo):
                any_pairs += 1
                if dk == sk + 1:
                    adjacent += 1
    return {
        "busy_seconds": busy_total,
        "wall_seconds": wall,
        "concurrency": concurrency,
        "efficiency": max(0.0, concurrency - 1.0),
        "scatter_decode": {
            "scatter_spans": len(scatters),
            "decode_spans": len(decodes),
            "overlapping_pairs": any_pairs,
            "adjacent_pairs": adjacent,
        },
    }


# --------------------------------------------------------------------- #
# stragglers                                                            #
# --------------------------------------------------------------------- #

def _median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def stragglers(forest: SpanForest, k: float = STRAGGLER_MAD_K,
               min_lanes: int = 4) -> list[dict]:
    """Per task, shards whose duration exceeds median + k·1.4826·MAD.

    Groups spans carrying a ``shard`` attribute by base name; needs at
    least ``min_lanes`` shards to judge.  Each flagged row carries the
    plan key and byte counts from the span attrs so the report answers
    *which* shard, *which* plan, *how much data*.
    """
    groups: dict[str, list[tuple[int, SpanRecord]]] = {}
    for r in forest.records:
        shard = r.attrs.get("shard")
        if shard is None and r.lane and r.lane.startswith("shard:"):
            try:
                shard = int(r.lane.split(":", 1)[1])
            except ValueError:
                shard = None
        if shard is not None:
            groups.setdefault(base_name(r.name), []).append((int(shard), r))
    flagged: list[dict] = []
    for task in sorted(groups):
        recs = groups[task]
        if len(recs) < min_lanes:
            continue
        durs = [r.duration for _, r in recs]
        med = _median(durs)
        mad = _median([abs(d - med) for d in durs])
        threshold = med + k * 1.4826 * mad
        for shard, r in recs:
            d = r.duration
            if d > threshold and med > 0 and d > STRAGGLER_MIN_RATIO * med:
                flagged.append({
                    "task": task,
                    "shard": shard,
                    "lane": r.lane or MAIN_LANE,
                    "seconds": d,
                    "median_seconds": med,
                    "ratio": d / med,
                    "plan": r.attrs.get("plan"),
                    "bytes_in": r.attrs.get("bytes_in"),
                    "bytes_out": r.attrs.get("bytes_out"),
                })
    flagged.sort(key=lambda f: -f["ratio"])
    return flagged


# --------------------------------------------------------------------- #
# one-call analysis + renderers                                         #
# --------------------------------------------------------------------- #

def analyze(records: Sequence[SpanRecord], *,
            straggler_k: float = STRAGGLER_MAD_K) -> dict:
    """Full analysis of one recorded run.  Returns a plain-data report:
    stage table, critical path, overlap metrics and stragglers."""
    forest = build_forest(records)
    stages = stage_table(forest)
    lanes = sorted({r.lane or MAIN_LANE for r in forest.records})
    threads = {(r.lane, r.thread) for r in forest.records}
    return {
        "wall_seconds": forest.wall_seconds,
        "span_count": len(forest.records),
        "lane_count": len(lanes),
        "thread_count": len(threads),
        "lanes": lanes,
        "stages": stages,
        "critical_path": critical_path(forest),
        "overlap": overlap_metrics(forest),
        "stragglers": stragglers(forest, k=straggler_k),
    }


def _fmt_secs(s: float) -> str:
    return f"{s * 1e3:.3f}ms" if s < 1.0 else f"{s:.3f}s"


def _fmt_mbs(row: dict) -> str:
    return "-" if row.get("mb_s") is None else f"{row['mb_s']:.1f}"


def render_analysis(report: dict) -> str:
    """Human-readable text report (``fzmod analyze`` default output)."""
    lines: list[str] = []
    lines.append(
        f"wall {_fmt_secs(report['wall_seconds'])}  "
        f"spans {report['span_count']}  lanes {report['lane_count']}  "
        f"threads {report['thread_count']}")
    lines.append("")
    lines.append("stage table (by exclusive time)")
    name_w = max((len(r["name"]) for r in report["stages"]), default=5)
    name_w = max(name_w, 5)
    header = (f"  {'stage':<{name_w}}  {'count':>5}  {'incl':>10}  "
              f"{'excl':>10}  {'MB/s':>8}  lanes")
    lines.append(header)
    for row in report["stages"]:
        lanes = ",".join(row["lanes"][:3])
        if len(row["lanes"]) > 3:
            lanes += f",+{len(row['lanes']) - 3}"
        lines.append(
            f"  {row['name']:<{name_w}}  {row['count']:>5}  "
            f"{_fmt_secs(row['inclusive_s']):>10}  "
            f"{_fmt_secs(row['exclusive_s']):>10}  "
            f"{_fmt_mbs(row):>8}  {lanes}")

    cp = report["critical_path"]
    lines.append("")
    lines.append(f"critical path: {_fmt_secs(cp['seconds'])} "
                 f"({cp['coverage'] * 100:.1f}% of wall, "
                 f"{len(cp['steps'])} steps)")
    for step in cp["steps"]:
        lines.append(f"  {step['start'] * 1e3:>10.3f}ms  "
                     f"{_fmt_secs(step['seconds']):>10}  "
                     f"{step['name']}  [{step['lane']}]")

    ov = report["overlap"]
    sd = ov["scatter_decode"]
    lines.append("")
    lines.append(
        f"overlap: concurrency {ov['concurrency']:.2f}x, "
        f"efficiency {ov['efficiency']:.2f} extra busy lanes"
        + (f"; scatter/decode pairs {sd['overlapping_pairs']} "
           f"({sd['adjacent_pairs']} adjacent)"
           if sd["scatter_spans"] or sd["decode_spans"] else ""))

    lines.append("")
    if report["stragglers"]:
        lines.append(f"stragglers ({len(report['stragglers'])})")
        for f in report["stragglers"]:
            extras = []
            if f.get("plan"):
                extras.append(f"plan={f['plan']}")
            if f.get("bytes_in"):
                extras.append(f"bytes_in={f['bytes_in']}")
            if f.get("bytes_out"):
                extras.append(f"bytes_out={f['bytes_out']}")
            lines.append(
                f"  {f['task']} shard={f['shard']}  "
                f"{_fmt_secs(f['seconds'])} "
                f"({f['ratio']:.2f}x median {_fmt_secs(f['median_seconds'])})"
                + (("  " + " ".join(extras)) if extras else ""))
    else:
        lines.append("stragglers: none")
    return "\n".join(lines) + "\n"


def render_analysis_markdown(report: dict) -> str:
    """GitHub-flavoured markdown report (``fzmod analyze --format markdown``)."""
    lines: list[str] = []
    lines.append("# Trace analysis")
    lines.append("")
    lines.append(f"- wall: {_fmt_secs(report['wall_seconds'])}")
    lines.append(f"- spans: {report['span_count']} across "
                 f"{report['lane_count']} lanes / "
                 f"{report['thread_count']} threads")
    cp = report["critical_path"]
    lines.append(f"- critical path: {_fmt_secs(cp['seconds'])} "
                 f"({cp['coverage'] * 100:.1f}% of wall)")
    ov = report["overlap"]
    lines.append(f"- overlap efficiency: {ov['efficiency']:.2f} "
                 f"extra busy lanes (concurrency {ov['concurrency']:.2f}x)")
    lines.append("")
    lines.append("## Stages")
    lines.append("")
    lines.append("| stage | count | inclusive | exclusive | MB/s | lanes |")
    lines.append("|---|---:|---:|---:|---:|---|")
    for row in report["stages"]:
        lines.append(
            f"| `{row['name']}` | {row['count']} | "
            f"{_fmt_secs(row['inclusive_s'])} | "
            f"{_fmt_secs(row['exclusive_s'])} | "
            f"{_fmt_mbs(row)} | {', '.join(row['lanes'][:3])} |")
    lines.append("")
    lines.append("## Critical path")
    lines.append("")
    lines.append("| t | seconds | span | lane |")
    lines.append("|---:|---:|---|---|")
    for step in cp["steps"]:
        lines.append(f"| {step['start'] * 1e3:.3f}ms | "
                     f"{_fmt_secs(step['seconds'])} | "
                     f"`{step['name']}` | {step['lane']} |")
    lines.append("")
    lines.append("## Stragglers")
    lines.append("")
    if report["stragglers"]:
        lines.append("| task | shard | seconds | vs median | plan |")
        lines.append("|---|---:|---:|---:|---|")
        for f in report["stragglers"]:
            lines.append(f"| `{f['task']}` | {f['shard']} | "
                         f"{_fmt_secs(f['seconds'])} | {f['ratio']:.2f}x | "
                         f"{f.get('plan') or '-'} |")
    else:
        lines.append("none")
    return "\n".join(lines) + "\n"
