"""Checks of the benchmark's own guards and helpers.

Run with ``PYTHONPATH=src python -m pytest bench/`` (tier-1 collects only
``tests/``).  Everything here runs on the small CESM-like workload.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import run as bench_run  # noqa: E402
from counters import snapshot  # noqa: E402
from workloads import EB, WORKLOADS, FieldStream  # noqa: E402

SMALL = WORKLOADS["default_small"]


@pytest.fixture(scope="module")
def stream():
    return FieldStream(SMALL, seed=7)


def test_fields_are_fresh_and_seeded(stream):
    again = FieldStream(SMALL, seed=7)
    assert np.array_equal(stream.field(3), again.field(3))
    assert not np.array_equal(stream.field(3), stream.field(4))
    assert stream.input_sha256() == again.input_sha256()
    assert stream.input_sha256() != FieldStream(SMALL, 8).input_sha256()


def test_freshness_guard_trips_on_a_repeated_field(stream, tmp_path):
    ops = harness.Ops(SMALL, tmp_path)
    x = stream.field(0)
    before = snapshot()
    results = [harness.run_op(ops, i, x) for i in range(2)]
    why = harness.freshness_violations(results, before, snapshot())
    assert all(r.ok for r in results)
    assert any("byte-identical" in line for line in why)
    # while the stream caches exist, the repeat is also seen as their hits
    if "huffman.encode_streams" in before["plan_caches"]:
        assert any("huffman.encode_streams" in line for line in why)


def test_distinct_fields_pass_the_freshness_guard(stream, tmp_path):
    run = harness.timed_run(harness.Ops(SMALL, tmp_path), stream,
                            seconds=0, max_ops=2)
    assert run.attempted == 3 and run.failed == 0
    assert run.freshness == []
    assert len(run.good("compress_s")) == 2  # the warm-up gives no sample


def test_missing_counters_count_as_zero_hits():
    ok = harness.OpResult(index=0, ok=True, container_sha256="a")
    gone = {"plan_caches": {}, "buffer_pool": {}}
    assert harness.freshness_violations([ok], gone, gone) == []


class _LooseOps(harness.Ops):
    """Returns a reconstruction three error bounds off."""

    def decompress(self, compressed):
        y = super().decompress(compressed)
        return y + np.float32(3 * EB * np.ptp(y))


def test_bound_violation_is_a_failed_op(stream, tmp_path):
    run = harness.timed_run(_LooseOps(SMALL, tmp_path), stream,
                            seconds=0, max_ops=2)
    assert run.failed == run.attempted == 3
    assert "exceeds bound" in run.results[1].error
    assert run.good("compress_s") == []  # a failed op contributes no timing
    assert harness.end_to_end_metrics(run)["failed_ops_share"] == 1.0


def test_wrong_dtype_is_a_failed_op(stream):
    x = stream.field(0)
    violation, _ = harness.check_output(x, x.astype(np.float64))
    assert "float64" in violation
    assert harness.check_output(x, x.copy()) == (None, 0.0)


def test_median_and_percentile_on_known_samples():
    data = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0]
    assert harness.median(data) == 3.5
    assert harness.median([]) is None
    assert harness.percentile([], 75) is None
    for q in (0, 25, 50, 75, 100):
        assert harness.percentile(data, q) == pytest.approx(
            np.percentile(data, q))
    assert harness.mb_per_s(4_000_000, 0.5) == 8.0
    assert harness.mb_per_s(4_000_000, None) is None


def test_unavailable_layer_reports_null(stream, tmp_path, monkeypatch):
    import repro.compile.fused as fused
    # the plan bound this function at import; only the ladder looks it up
    monkeypatch.delattr(fused, "fused_decode_reconstruct")
    ops = harness.Ops(SMALL, tmp_path)
    run = harness.timed_run(ops, stream, seconds=0, max_ops=2)
    ladder = layers.Ladder(SMALL, ops, tmp_path)
    ladder.run_op(0, lambda: stream.next()[1])
    metrics = ladder.metrics(run)
    assert "compile.fused" in ladder.unavailable
    assert metrics["compile.fused_predict_quantize_mb_s"] is None
    assert metrics["compile.fused_decode_reconstruct_mb_s"] is None
    # the other layers are untouched
    assert metrics["kernels.huffman.encode_mb_s"] > 0
    assert metrics["kernels.lorenzo.compress_mb_s"] > 0
    assert 0.5 < metrics["stage.sum_over_api_compress"] < 2.0
    assert metrics["kernels.interp.compress_mb_s"] is None  # not exercised
    assert metrics["plancache.encode_stream_hit_rate"] == 0
    assert set(metrics) == {name for name, *_ in layers.METRICS}
    reason = bench_run.null_reason("compile.fused_predict_quantize_mb_s",
                                   ladder.unavailable)
    assert "unavailable" in reason and "fused_decode_reconstruct" in reason


def test_trace_spans_nest(tmp_path):
    tracer = layers.Tracer()
    with tracer.span("op", 0, 8):
        with tracer.span("child", 0, 8):
            pass
    tracer.write(tmp_path / "t.jsonl")
    op, child = (json.loads(line) for line in
                 (tmp_path / "t.jsonl").read_text().splitlines())
    assert child["parent"] == op["id"] and op["parent"] is None
    assert op["start"] <= child["start"] <= child["end"] <= op["end"]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    code = {n: (u, b) for n, u, b in bench_run.END_TO_END}
    for m in spec["end_to_end"]:
        assert code[m["name"]] == (m["unit"], m["better"])
        assert 0 < m["bound"] <= 0.25
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(n, u, b) for n, u, b, _ in layers.METRICS]


def test_contract_line_has_a_number_for_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = {"trace": 1, "valid": True, "ops_attempted": 4, "ops_failed": 0,
              "end_to_end": {}, "per_layer": {"api.compress_ms": 1.5,
                                              "cli.import_s": None}}
    line = bench_run.contract_line(result)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert line["metrics"]["api.compress_ms"] == {"value": 1.5, "unit": "ms"}
    assert line["metrics"]["cli.import_s"]["value"] == 0.0
