"""Exporters: JSONL span log, Chrome trace-event JSON, Prometheus text.

All three read the same inputs — :class:`~repro.obs.spans.SpanRecord`
lists and the :class:`~repro.obs.metrics.MetricsRegistry` — so the
default engine, the sharded engine and the streaming engine all flow
through one code path.

Chrome trace-event output is the JSON object form
(``{"traceEvents": [...]}``) with "X" complete events, which Perfetto
and ``chrome://tracing`` both load.  Lanes map to trace *processes*:
pid 0 is the main process, each shard/slab lane gets its own pid, so
shard workers appear as separate swimlanes.
"""

from __future__ import annotations

import json
from typing import Iterable, TextIO

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import SpanRecord

MAIN_LANE = "main"


def _sorted_records(records: Iterable[SpanRecord]) -> list[SpanRecord]:
    # (start, -end) so parents sort before the children they enclose
    return sorted(records, key=lambda r: (r.start, -r.end, r.span_id))


# --------------------------------------------------------------------- #
# JSONL                                                                 #
# --------------------------------------------------------------------- #

def span_jsonl_lines(records: Iterable[SpanRecord]) -> Iterable[str]:
    """One JSON object per span, start-ordered, times relative to the
    earliest span (seconds)."""
    recs = _sorted_records(records)
    t0 = recs[0].start if recs else 0.0
    for r in recs:
        yield json.dumps({
            "name": r.name,
            "start": r.start - t0,
            "duration": r.duration,
            "span_id": r.span_id,
            "parent_id": r.parent_id,
            "lane": r.lane or MAIN_LANE,
            "thread": r.thread,
            "attrs": r.attrs,
        }, sort_keys=True)


def write_span_jsonl(records: Iterable[SpanRecord], fp: TextIO) -> int:
    """Write the JSONL span log to ``fp``; returns the line count."""
    n = 0
    for line in span_jsonl_lines(records):
        fp.write(line + "\n")
        n += 1
    return n


# --------------------------------------------------------------------- #
# Chrome trace-event JSON (Perfetto)                                    #
# --------------------------------------------------------------------- #

def chrome_trace(records: Iterable[SpanRecord]) -> dict:
    """Build a Chrome trace-event document from finished spans.

    * one trace *process* (pid) per lane — pid 0 = main, shard/slab lanes
      in sorted-name order after it;
    * one trace *thread* (tid) per distinct thread name within a lane;
    * "X" complete events with ``ts``/``dur`` in microseconds relative
      to the earliest span.
    """
    recs = _sorted_records(records)
    lanes = sorted({r.lane for r in recs if r.lane})
    pid_of: dict[str | None, int] = {None: 0}
    pid_of.update({lane: i + 1 for i, lane in enumerate(lanes)})

    tid_of: dict[tuple[int, str], int] = {}
    for r in recs:
        key = (pid_of[r.lane], r.thread)
        if key not in tid_of:
            tid_of[key] = sum(1 for k in tid_of if k[0] == key[0]) + 1

    events: list[dict] = []
    for lane, pid in sorted(pid_of.items(), key=lambda kv: kv[1]):
        events.append({"ph": "M", "pid": pid, "tid": 0,
                       "name": "process_name",
                       "args": {"name": lane or MAIN_LANE}})
    for (pid, thread), tid in sorted(tid_of.items(),
                                     key=lambda kv: (kv[0][0], kv[1])):
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name", "args": {"name": thread}})

    t0 = recs[0].start if recs else 0.0
    for r in recs:
        pid = pid_of[r.lane]
        args = dict(r.attrs)
        args["span_id"] = r.span_id
        if r.parent_id is not None:
            args["parent_id"] = r.parent_id
        events.append({
            "ph": "X",
            "name": r.name,
            "cat": r.name.split(".", 1)[0],
            "pid": pid,
            "tid": tid_of[(pid, r.thread)],
            "ts": (r.start - t0) * 1e6,
            "dur": r.duration * 1e6,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: Iterable[SpanRecord], fp: TextIO) -> dict:
    """Write the Chrome trace-event document to ``fp``; returns it."""
    doc = chrome_trace(records)
    json.dump(doc, fp, indent=1)
    fp.write("\n")
    return doc


# --------------------------------------------------------------------- #
# Prometheus text exposition                                            #
# --------------------------------------------------------------------- #

def _prom_name(name: str, kind: str) -> str:
    base = "fzmod_" + name.replace(".", "_")
    if kind == "counter" and not base.endswith("_total"):
        base += "_total"
    return base


def _prom_escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _prom_labels(labels: dict[str, str], extra: dict[str, str] | None = None,
                 ) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(f'{k}="{_prom_escape(str(v))}"'
                     for k, v in sorted(merged.items()))
    return "{" + inner + "}"


def _prom_value(value: int | float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in Prometheus text exposition format 0.0.4."""
    registry.collect()
    lines: list[str] = []
    seen_header: set[str] = set()
    for metric in registry.snapshot():
        pname = _prom_name(metric.name, metric.kind)
        if pname not in seen_header:
            seen_header.add(pname)
            lines.append(f"# HELP {pname} fzmod metric {metric.name}")
            lines.append(f"# TYPE {pname} {metric.kind}")
        if isinstance(metric, (Counter, Gauge)):
            lines.append(f"{pname}{_prom_labels(metric.labels)} "
                         f"{_prom_value(metric.value)}")
        elif isinstance(metric, Histogram):
            counts = metric.bucket_counts()
            cumulative = 0
            for edge, count in zip(metric.buckets, counts):
                cumulative += count
                lab = _prom_labels(metric.labels, {"le": repr(edge)})
                lines.append(f"{pname}_bucket{lab} {cumulative}")
            lab = _prom_labels(metric.labels, {"le": "+Inf"})
            lines.append(f"{pname}_bucket{lab} {metric.count}")
            lines.append(f"{pname}_sum{_prom_labels(metric.labels)} "
                         f"{_prom_value(metric.sum)}")
            lines.append(f"{pname}_count{_prom_labels(metric.labels)} "
                         f"{metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------- #
# summaries (for `fzmod trace` output)                                  #
# --------------------------------------------------------------------- #

def summarize_spans(records: Iterable[SpanRecord]) -> list[dict]:
    """Aggregate spans by name: count, total/mean seconds, lanes seen."""
    agg: dict[str, dict] = {}
    for r in records:
        row = agg.setdefault(r.name, {"name": r.name, "count": 0,
                                      "seconds": 0.0, "lanes": set()})
        row["count"] += 1
        row["seconds"] += r.duration
        row["lanes"].add(r.lane or MAIN_LANE)
    out = []
    for name in sorted(agg, key=lambda n: -agg[n]["seconds"]):
        row = agg[name]
        out.append({"name": name, "count": row["count"],
                    "seconds": row["seconds"],
                    "mean_seconds": row["seconds"] / row["count"],
                    "lanes": sorted(row["lanes"])})
    return out


def render_summary(records: Iterable[SpanRecord]) -> str:
    """Text table of :func:`summarize_spans` (backs ``fzmod trace``)."""
    rows = summarize_spans(records)
    if not rows:
        return "(no spans recorded)\n"
    name_w = max(len(r["name"]) for r in rows)
    lines = [f"{'span':<{name_w}}  {'count':>5}  {'total':>10}  "
             f"{'mean':>10}  lanes"]
    for r in rows:
        lanes = ",".join(r["lanes"][:4])
        if len(r["lanes"]) > 4:
            lanes += f",+{len(r['lanes']) - 4}"
        lines.append(f"{r['name']:<{name_w}}  {r['count']:>5}  "
                     f"{r['seconds'] * 1e3:>8.3f}ms  "
                     f"{r['mean_seconds'] * 1e3:>8.3f}ms  {lanes}")
    return "\n".join(lines) + "\n"
