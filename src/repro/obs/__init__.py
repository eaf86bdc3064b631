"""Unified telemetry layer: spans, metrics, exporters.

Quick use::

    from repro.obs import span, GLOBAL_METRICS

    with span("stage.encoder", bytes_in=data.nbytes) as sp:
        blob = encode(data)
        sp.set(bytes_out=len(blob))
    GLOBAL_METRICS.counter("pipeline.bytes_out").inc(len(blob))

Disable with ``FZMOD_TELEMETRY=0`` (or :func:`set_telemetry`): ``span``
then returns a shared no-op and instrumented code pays one bool check.
See docs/OBSERVABILITY.md for the span taxonomy and exporter formats.
"""

from .analyze import (analyze, build_forest, critical_path, load_trace_path,
                      overlap_metrics, records_from_chrome,
                      records_from_jsonl, render_analysis,
                      render_analysis_markdown, stage_table, stragglers)
from .export import (chrome_trace, prometheus_text, render_summary,
                     span_jsonl_lines, summarize_spans, write_chrome_trace,
                     write_span_jsonl)
from .metrics import (GLOBAL_METRICS, METRIC_NAME_RE, Counter, Gauge,
                      Histogram, MetricsRegistry)
from .profile import (Profiler, active_profiler, maybe_start_from_env,
                      start_profiler, stop_profiler)
from .spans import (GLOBAL_TRACER, NOOP_SPAN, SpanRecord, Tracer,
                    absorb_capture, set_telemetry, span, telemetry_enabled)

__all__ = [
    "GLOBAL_METRICS", "GLOBAL_TRACER", "METRIC_NAME_RE", "NOOP_SPAN",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "Profiler",
    "SpanRecord", "Tracer", "absorb_capture", "active_profiler", "analyze",
    "build_forest", "chrome_trace", "critical_path", "load_trace_path", "maybe_start_from_env", "overlap_metrics",
    "prometheus_text", "records_from_chrome", "records_from_jsonl",
    "render_analysis", "render_analysis_markdown", "render_summary",
    "set_telemetry", "span", "span_jsonl_lines", "stage_table",
    "stragglers", "start_profiler", "stop_profiler", "summarize_spans",
    "telemetry_enabled", "write_chrome_trace", "write_span_jsonl",
]
