"""Trace analytics: forest building, critical path, overlap, stragglers.

All fixtures are hand-built :class:`SpanRecord` lists with deterministic
timestamps, so every number the analyzer reports is checkable by hand.
"""

import io
import json
import threading

import pytest

from repro.obs.analyze import (
    analyze,
    base_name,
    build_forest,
    critical_path,
    load_trace_path,
    overlap_metrics,
    records_from_chrome,
    records_from_jsonl,
    render_analysis,
    render_analysis_markdown,
    stage_table,
    stragglers,
)
from repro.obs.export import chrome_trace, write_chrome_trace, write_span_jsonl
from repro.obs.spans import SpanRecord


def rec(name, start, end, *, sid, parent=None, thread="main", lane=None,
        **attrs):
    return SpanRecord(name=name, start=start, end=end, span_id=sid,
                      parent_id=parent, thread=thread, lane=lane, attrs=attrs)


def sharded_trace(base=0.0):
    """An engine umbrella fanning out to 4 shard lanes, plus a straggler.

    Layout (seconds, relative to ``base``):

    * ``engine.compress_sharded``    0.0 .. 1.0   (main lane, root)
    * shard k work                   0.1 .. 0.3   (lanes shard:0..2)
    * shard 3 work (straggler)       0.1 .. 0.9
    * kernel child inside shard 0    0.15 .. 0.25
    """
    recs = [rec("engine.compress_sharded", base + 0.0, base + 1.0, sid=1,
                bytes_in=4_000_000, bytes_out=1_000_000)]
    for k in range(4):
        end = 0.9 if k == 3 else 0.3
        recs.append(rec(f"shard.compress:{k}", base + 0.1, base + end,
                        sid=1, lane=f"shard:{k}", thread="w",
                        shard=k, plan=f"plan-{k}", bytes_in=1_000_000))
    recs.append(rec("kernel.lorenzo", base + 0.15, base + 0.25, sid=2,
                    parent=1, lane="shard:0", thread="w",
                    bytes_in=1_000_000, bytes_out=250_000))
    return recs


class TestForest:
    def test_nesting_and_exclusive(self):
        recs = [rec("outer", 0.0, 10.0, sid=1),
                rec("inner", 2.0, 5.0, sid=2, parent=1)]
        forest = build_forest(recs)
        assert len(forest.roots) == 1
        root = forest.roots[0]
        assert [c.record.name for c in root.children] == ["inner"]
        assert root.exclusive == pytest.approx(7.0)
        assert root.children[0].exclusive == pytest.approx(3.0)
        assert forest.wall_seconds == pytest.approx(10.0)

    def test_span_ids_scoped_per_lane_and_thread(self):
        # shard workers restart their id counters: span_id collides across
        # lanes, and a child must attach to the root in *its* lane only
        recs = [rec("a", 0.0, 1.0, sid=1, lane="shard:0", thread="w"),
                rec("b", 0.0, 1.0, sid=1, lane="shard:1", thread="w"),
                rec("a.child", 0.2, 0.8, sid=2, parent=1,
                    lane="shard:0", thread="w")]
        forest = build_forest(recs)
        assert len(forest.roots) == 2
        by_name = {n.record.name: n for n in forest.roots}
        assert [c.record.name for c in by_name["a"].children] == ["a.child"]
        assert by_name["b"].children == []

    def test_orphan_parent_id_becomes_root(self):
        recs = [rec("lonely", 0.0, 1.0, sid=7, parent=99)]
        forest = build_forest(recs)
        assert len(forest.roots) == 1

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            build_forest([])


class TestStageTable:
    def test_base_name_strips_shard_suffix(self):
        assert base_name("stream.huffman_decode:3") == "stream.huffman_decode"
        assert base_name("kernel.lorenzo") == "kernel.lorenzo"

    def test_aggregation_and_bandwidth(self):
        recs = [rec("stage.encode", 0.0, 1.0, sid=1, bytes_in=2_000_000),
                rec("stage.encode", 1.0, 2.0, sid=2, bytes_in=2_000_000),
                rec("stage.misc", 2.0, 2.5, sid=3)]
        rows = stage_table(build_forest(recs))
        by_name = {r["name"]: r for r in rows}
        enc = by_name["stage.encode"]
        assert enc["count"] == 2
        assert enc["inclusive_s"] == pytest.approx(2.0)
        assert enc["exclusive_s"] == pytest.approx(2.0)
        assert enc["bytes_in"] == 4_000_000
        # 4 MB over 2 s inclusive
        assert enc["mb_s"] == pytest.approx(2.0)
        assert by_name["stage.misc"]["mb_s"] is None
        # sorted by exclusive time, largest first
        assert rows[0]["name"] == "stage.encode"

    def test_shard_lanes_aggregate_under_base_name(self):
        rows = stage_table(build_forest(sharded_trace()))
        by_name = {r["name"]: r for r in rows}
        shard = by_name["shard.compress"]
        assert shard["count"] == 4
        assert len(shard["lanes"]) == 4
        # kernel child time is excluded from shard 0's exclusive total
        assert shard["exclusive_s"] == pytest.approx(
            0.2 + 0.2 + 0.2 + 0.8 - 0.1)


class TestCriticalPath:
    def test_sequential_full_coverage(self):
        recs = [rec("stage.a", 0.0, 1.0, sid=1),
                rec("stage.b", 1.0, 2.0, sid=2)]
        cp = critical_path(build_forest(recs))
        assert cp["coverage"] == pytest.approx(1.0)
        assert cp["seconds"] == pytest.approx(2.0)
        assert [s["name"] for s in cp["steps"]] == ["stage.a", "stage.b"]
        # steps come back in forward time order, trace-relative
        assert cp["steps"][0]["start"] == pytest.approx(0.0)
        assert cp["steps"][1]["start"] == pytest.approx(1.0)

    def test_untraced_gap_reduces_coverage(self):
        recs = [rec("stage.a", 0.0, 1.0, sid=1),
                rec("stage.b", 2.0, 3.0, sid=2)]
        cp = critical_path(build_forest(recs))
        assert cp["seconds"] == pytest.approx(2.0)
        assert cp["coverage"] == pytest.approx(2.0 / 3.0)

    def test_child_charged_instead_of_parent(self):
        recs = [rec("stage.outer", 0.0, 3.0, sid=1),
                rec("kernel.inner", 1.0, 2.0, sid=2, parent=1)]
        cp = critical_path(build_forest(recs))
        assert cp["coverage"] == pytest.approx(1.0)
        names = [s["name"] for s in cp["steps"]]
        assert names == ["stage.outer", "kernel.inner", "stage.outer"]

    def test_umbrella_root_yields_to_shard_lanes(self):
        # the engine root spans the whole wall; the walk must pass through
        # the shard-lane work it fanned out, not absorb it
        cp = critical_path(build_forest(sharded_trace()))
        assert cp["coverage"] == pytest.approx(1.0)
        names = [s["name"] for s in cp["steps"]]
        assert "shard.compress:3" in names      # the straggler bounds the wall
        assert names[0] == "engine.compress_sharded"
        assert names[-1] == "engine.compress_sharded"

    def test_terminates_on_absolute_perf_counter_timestamps(self):
        # regression: with raw perf_counter-scale offsets (~1e5 s) a
        # wall-relative epsilon falls below the float ULP of the absolute
        # timestamps and the backward walk could stop making progress;
        # segments are rebased to trace-relative time to avoid this
        recs = sharded_trace(base=431_997.318)
        result = {}

        def run():
            result["cp"] = critical_path(build_forest(recs))

        t = threading.Thread(target=run, daemon=True)
        t.start()
        t.join(timeout=10.0)
        assert not t.is_alive(), "critical_path did not terminate"
        assert result["cp"]["coverage"] == pytest.approx(1.0)

    def test_empty_wall(self):
        recs = [rec("stage.a", 1.0, 1.0, sid=1)]
        cp = critical_path(build_forest(recs))
        assert cp["steps"] == []
        assert cp["coverage"] == 0.0


class TestOverlap:
    def test_two_concurrent_lanes(self):
        recs = [rec("a", 0.0, 1.0, sid=1, lane="shard:0", thread="w"),
                rec("b", 0.0, 1.0, sid=1, lane="shard:1", thread="w")]
        ov = overlap_metrics(build_forest(recs))
        assert ov["concurrency"] == pytest.approx(2.0)
        assert ov["efficiency"] == pytest.approx(1.0)

    def test_serial_lanes_have_zero_efficiency(self):
        recs = [rec("a", 0.0, 1.0, sid=1),
                rec("b", 1.0, 2.0, sid=2)]
        ov = overlap_metrics(build_forest(recs))
        assert ov["efficiency"] == 0.0

    def test_scatter_decode_pairs(self):
        recs = [rec("stream.outlier_scatter:0", 1.0, 2.0, sid=1,
                    lane="shard:0", thread="w", shard=0),
                rec("stream.huffman_decode:1", 1.5, 2.5, sid=1,
                    lane="shard:1", thread="w", shard=1),
                # same shard overlapping itself must not count
                rec("stream.huffman_decode:0", 1.2, 1.8, sid=2,
                    lane="shard:0", thread="w", shard=0)]
        sd = overlap_metrics(build_forest(recs))["scatter_decode"]
        assert sd["scatter_spans"] == 1
        assert sd["decode_spans"] == 2
        assert sd["overlapping_pairs"] == 1
        assert sd["adjacent_pairs"] == 1

    def test_no_shard_attr_no_pairs(self):
        recs = [rec("stream.outlier_scatter", 0.0, 1.0, sid=1)]
        sd = overlap_metrics(build_forest(recs))["scatter_decode"]
        assert sd["scatter_spans"] == 0
        assert sd["overlapping_pairs"] == 0


class TestStragglers:
    def _shards(self, durations, **extra_attrs):
        return [rec(f"stream.decode:{k}", 0.0, d, sid=1,
                    lane=f"shard:{k}", thread="w", shard=k, **extra_attrs)
                for k, d in enumerate(durations)]

    def test_flags_outlier_with_plan_and_bytes(self):
        recs = self._shards([1.0, 1.0, 1.05, 0.95, 3.0],
                            plan="p0", bytes_in=1024)
        flagged = stragglers(build_forest(recs))
        assert len(flagged) == 1
        f = flagged[0]
        assert f["task"] == "stream.decode"
        assert f["shard"] == 4
        assert f["ratio"] == pytest.approx(3.0)
        assert f["plan"] == "p0"
        assert f["bytes_in"] == 1024

    def test_lane_fallback_when_no_shard_attr(self):
        recs = [rec(f"stream.decode:{k}", 0.0, d, sid=1,
                    lane=f"shard:{k}", thread="w")
                for k, d in enumerate([1.0, 1.0, 1.05, 0.95, 3.0])]
        flagged = stragglers(build_forest(recs))
        assert [f["shard"] for f in flagged] == [4]

    def test_uniform_lanes_not_flagged(self):
        flagged = stragglers(build_forest(self._shards([1.0] * 8)))
        assert flagged == []

    def test_needs_min_lanes(self):
        flagged = stragglers(build_forest(self._shards([1.0, 1.0, 5.0])))
        assert flagged == []

    def test_k_controls_threshold(self):
        recs = self._shards([1.0, 1.0, 1.1, 0.9, 1.5])
        loose = stragglers(build_forest(recs), k=100.0)
        tight = stragglers(build_forest(recs), k=0.5)
        assert loose == []
        assert [f["shard"] for f in tight] == [4]


class TestRoundTrips:
    def test_jsonl_round_trip_preserves_analysis(self):
        recs = sharded_trace(base=1234.5)
        buf = io.StringIO()
        n = write_span_jsonl(recs, buf)
        assert n == len(recs)
        back = records_from_jsonl(buf.getvalue().splitlines())
        assert len(back) == len(recs)
        a, b = analyze(recs), analyze(back)
        assert b["wall_seconds"] == pytest.approx(a["wall_seconds"])
        assert b["lanes"] == a["lanes"]
        assert ([r["name"] for r in b["stages"]]
                == [r["name"] for r in a["stages"]])
        assert (b["critical_path"]["coverage"]
                == pytest.approx(a["critical_path"]["coverage"]))
        by_name = {r["name"]: r for r in b["stages"]}
        assert by_name["kernel.lorenzo"]["bytes_out"] == 250_000

    def test_chrome_round_trip_preserves_analysis(self):
        recs = sharded_trace()
        back = records_from_chrome(chrome_trace(recs))
        assert len(back) == len(recs)
        a, b = analyze(recs), analyze(back)
        assert b["lanes"] == a["lanes"]
        assert b["wall_seconds"] == pytest.approx(a["wall_seconds"],
                                                  abs=1e-5)
        assert (b["critical_path"]["coverage"]
                == pytest.approx(a["critical_path"]["coverage"], abs=1e-3))
        assert len(b["stragglers"]) == len(a["stragglers"])

    def test_load_trace_path_dispatches_on_content(self, tmp_path):
        recs = sharded_trace()
        jsonl = tmp_path / "spans.jsonl"
        with jsonl.open("w") as fp:
            write_span_jsonl(recs, fp)
        chrome = tmp_path / "trace.json"
        with chrome.open("w") as fp:
            write_chrome_trace(recs, fp)
        for path in (jsonl, chrome):
            back = load_trace_path(str(path))
            assert len(back) == len(recs)
            assert {r.name for r in back} == {r.name for r in recs}

    def test_load_trace_path_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert load_trace_path(str(p)) == []


class TestAnalyzeReport:
    def test_report_shape_and_coverage(self):
        rep = analyze(sharded_trace())
        assert rep["span_count"] == 6
        assert rep["lane_count"] == 5          # main + 4 shard lanes
        assert rep["critical_path"]["coverage"] >= 0.95
        assert rep["overlap"]["efficiency"] > 0
        assert [f["shard"] for f in rep["stragglers"]] == [3]

    def test_renderers_cover_every_section(self):
        rep = analyze(sharded_trace())
        text = render_analysis(rep)
        md = render_analysis_markdown(rep)
        for out in (text, md):
            assert "engine.compress_sharded" in out
            assert "shard.compress" in out
            assert "critical path" in out.lower()
        assert "stragglers" in text
        assert "| stage |" in md
        # markdown straggler table names the flagged shard
        assert "| `shard.compress` | 3 |" in md

    def test_straggler_free_render(self):
        rep = analyze([rec("stage.a", 0.0, 1.0, sid=1)])
        assert "stragglers: none" in render_analysis(rep)
        assert json.dumps(rep)                 # report is JSON-serialisable

    def test_no_interpreted_section(self):
        """Every run is a plan run: the report has no section for the
        others, whatever attributes an old trace carries."""
        recs = [rec("pipeline.compress", 0.0, 1.0, sid=1, compiled=False,
                    decline_reason="predictor 'interp' has no fused kernel"),
                rec("pipeline.compress", 1.0, 2.0, sid=2, plan="p0")]
        rep = analyze(recs)
        assert "interpreted" not in rep
        for out in (render_analysis(rep), render_analysis_markdown(rep)):
            assert "nterpreted" not in out
