"""Container inspection (no decompression).

``describe(blob)`` classifies any bytes this library produces — pipeline
or baseline containers, multi-shard containers, archives, tiled fields,
temporal streams — and returns a structured description;
``render(blob)`` pretty-prints it.  Backs ``fzmod inspect``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import HeaderError
from .archive import ARCHIVE_MAGIC, Archive
from .header import MAGIC as CONTAINER_MAGIC
from .header import parse


@dataclass
class Description:
    """What a blob is and what's inside."""

    kind: str                      # container | multi-shard container | archive
    detail: dict = field(default_factory=dict)
    members: list[dict] = field(default_factory=list)


def _describe_container(blob: bytes) -> Description:
    header, stored = parse(blob)
    return Description(
        kind="container",
        detail={
            "shape": list(header.shape),
            "dtype": header.dtype,
            "eb": f"{header.eb_value:g} ({header.eb_mode})",
            "eb_abs": header.eb_abs,
            "radius": header.radius,
            "modules": dict(header.modules),
            "stored_body_bytes": len(stored),
            "sections": [{"name": n, "bytes": l}
                         for n, _, l in header.sections],
        })


def _describe_archive(blob: bytes) -> Description:
    ar = Archive(blob)
    names = ar.names()
    kind = "archive"
    if any(n.startswith("tile_") for n in names):
        kind = "tiled-field archive"
    elif any(n.startswith("frame_") for n in names):
        kind = "temporal-stream archive"
    stats = ar.total_stats()
    d = Description(kind=kind,
                    detail={"fields": int(stats["fields"]),
                            "uncompressed_bytes": int(stats["uncompressed_bytes"]),
                            "compressed_bytes": int(stats["compressed_bytes"]),
                            "cr": round(stats["cr"], 3)})
    for name in names:
        e = ar.entry(name)
        d.members.append({"name": name, "shape": list(e.shape),
                          "bytes": e.length, "cr": round(e.cr, 2),
                          "pipeline": e.pipeline})
    return d


def _describe_sharded(blob: bytes) -> Description:
    from ..parallel.executor import describe_sharded
    info = describe_sharded(blob)
    shards = info.pop("shards")
    d = Description(kind="multi-shard container", detail=info)
    for k, s in enumerate(shards):
        a, b = s["rows"]
        d.members.append({"name": f"shard{k}",
                          "shape": [b - a, *info["shape"][1:]],
                          "bytes": s["bytes"], "cr": "-",
                          "pipeline": info["pipeline"].get("name", "?")})
    return d


def describe(blob: bytes) -> Description:
    """Classify and describe ``blob``; raises HeaderError for foreign data."""
    if len(blob) < 4:
        raise HeaderError("blob too short to classify")
    magic = blob[:4]
    if magic == CONTAINER_MAGIC:
        return _describe_container(blob)
    if magic == ARCHIVE_MAGIC:
        return _describe_archive(blob)
    from ..parallel.executor import SHARD_MAGIC
    if magic == SHARD_MAGIC:
        return _describe_sharded(blob)
    raise HeaderError(f"unrecognised magic {magic!r}")


def hotpath_stats() -> dict:
    """Live counters of every hot-path amortisation layer in the process.

    Returns a JSON-ready dict with one entry per plan cache (hits, misses,
    evictions, occupancy — see :mod:`repro.kernels.plancache`), the span
    tracer's counts and the sanitizer's ``out=`` aliasing count.  The
    benchmark (``bench/``) reads its ``plancache.*`` layer metrics from
    here.

    This is a *view*: the counters themselves live in the unified
    telemetry registry (:data:`repro.obs.GLOBAL_METRICS`), which the
    Prometheus exporter scrapes directly.  Keys here are kept stable for
    the benchmark.
    """
    from ..kernels.plancache import cache_stats
    from ..obs.metrics import GLOBAL_METRICS
    from ..obs.spans import GLOBAL_TRACER, telemetry_enabled
    return {
        "plan_caches": cache_stats(),
        "telemetry": {"enabled": telemetry_enabled(),
                      "spans_emitted": GLOBAL_TRACER.emitted,
                      "spans_in_ring": len(GLOBAL_TRACER.records()),
                      "spans_dropped": GLOBAL_TRACER.dropped},
        "sanitizer": {
            "aliasing": int(GLOBAL_METRICS.value("sanitizer.aliasing") or 0),
        },
    }


def render_hotpath() -> str:
    """Human-readable ``hotpath_stats()`` report (backs ``fzmod stats``)."""
    s = hotpath_stats()
    lines = ["plan caches:"]
    for name, cs in s["plan_caches"].items():
        lines.append(f"  {name:<24} {cs['entries']:>4} entries "
                     f"hit rate {cs['hit_rate']:.2%} "
                     f"({cs['hits']} hits / {cs['misses']} misses, "
                     f"{cs['evictions']} evicted)")
        # caches holding plans for several directions (compress vs
        # decode) report each group on its own sub-line
        for grp, g in cs.get("by_group", {}).items():
            lines.append(f"    {grp:<22} {g['entries']:>4} entries "
                         f"({g['hits']} hits / "
                         f"{g['misses']} misses, "
                         f"{g['evictions']} evicted)")
    tel = s["telemetry"]
    lines.append(f"telemetry ({'on' if tel['enabled'] else 'off'}): "
                 f"{tel['spans_emitted']} spans emitted, "
                 f"{tel['spans_in_ring']} in ring, "
                 f"{tel['spans_dropped']} dropped")
    san = s["sanitizer"]
    total = sum(san.values())
    state = "clean" if total == 0 else f"{total} finding(s)"
    lines.append(f"sanitizer ({state}): " + ", ".join(
        f"{k}={v}" for k, v in san.items()))
    return "\n".join(lines)


def render(blob: bytes) -> str:
    """Human-readable inspection report."""
    d = describe(blob)
    lines = [f"kind: {d.kind}"]
    for key, value in d.detail.items():
        if key == "sections":
            lines.append("sections:")
            for s in value:
                lines.append(f"  {s['name']:<16} {s['bytes']:>10} B")
        elif key == "modules":
            lines.append("modules: " + ", ".join(
                f"{k}={v}" for k, v in value.items()))
        else:
            lines.append(f"{key}: {value}")
    if d.members:
        lines.append("members:")
        for m in d.members:
            dims = "x".join(str(x) for x in m["shape"])
            lines.append(f"  {m['name']:<16} {dims:<16} {m['bytes']:>10} B "
                         f"CR {m['cr']:>8} via {m['pipeline']}")
    return "\n".join(lines)
