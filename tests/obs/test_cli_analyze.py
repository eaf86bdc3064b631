"""``fzmod analyze`` (trace mode) CLI tests.

The analyze test is a *golden* test: the fixture trace and the expected
text report are both committed, so any drift in the analyzer's numbers
or the renderer's layout fails loudly.
"""

from __future__ import annotations

import json
import pathlib

from repro.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
TRACE = FIXTURES / "trace_sharded.jsonl"
GOLDEN = FIXTURES / "analyze_golden.txt"


class TestAnalyzeTraceCli:
    def test_golden_text_output(self, capsys):
        assert main(["analyze", str(TRACE)]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_json_output_is_a_full_report(self, capsys):
        assert main(["analyze", str(TRACE), "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["span_count"] == 9
        assert rep["critical_path"]["coverage"] >= 0.95
        assert rep["overlap"]["efficiency"] > 0
        assert rep["overlap"]["scatter_decode"]["adjacent_pairs"] == 3
        assert [f["shard"] for f in rep["stragglers"]] == [3]

    def test_markdown_output(self, capsys):
        assert main(["analyze", str(TRACE), "--format", "markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Trace analysis")
        assert "| `stream.huffman_decode` |" in out

    def test_straggler_k_flag(self, capsys):
        assert main(["analyze", str(TRACE), "--straggler-k", "1e9",
                     "--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        # a huge k still flags shard 3: uniform lanes make MAD zero, so
        # the min-ratio guard, not k, is what filters noise
        assert [f["shard"] for f in rep["stragglers"]] == [3]

    def test_empty_trace_is_an_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["analyze", str(empty)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_raw_field_pair_still_needs_dims(self, tmp_path, capsys):
        a = tmp_path / "a.f32"
        a.write_bytes(b"\0" * 16)
        assert main(["analyze", str(a), str(a)]) == 1
        assert "--dims" in capsys.readouterr().err
