"""Dataflow rule FZL016 (hidden out= aliasing), plus the SARIF
codeFlows rendering of its step traces."""

from __future__ import annotations

import json

from repro.analysis import all_rules
from repro.analysis.output import render_sarif

from conftest import rules_fired

# -- FZL016: hidden out= aliasing ---------------------------------------- #

HIDDEN_ALIAS = """\
import numpy as np

def stage(kernel, data):
    flat = data.reshape(-1)
    return kernel(data, out=flat)
"""

VISIBLE_INPLACE = """\
import numpy as np

def stage(kernel, grid):
    return kernel(grid, out=grid)
"""

DISTINCT_BUFFERS = """\
import numpy as np

def stage(kernel, data):
    out = np.empty(data.shape, np.int64)
    return kernel(data, out=out)
"""


class TestHiddenOutAliasing:
    def test_view_alias_flagged(self, lint):
        res = lint({"kernels/k.py": HIDDEN_ALIAS}, select=["FZL016"])
        assert rules_fired(res) == {"FZL016"}

    def test_visible_inplace_is_exempt(self, lint):
        res = lint({"kernels/k.py": VISIBLE_INPLACE}, select=["FZL016"])
        assert rules_fired(res) == set()

    def test_distinct_buffers_are_clean(self, lint):
        res = lint({"kernels/k.py": DISTINCT_BUFFERS}, select=["FZL016"])
        assert rules_fired(res) == set()

    def test_finding_carries_flow_steps(self, lint):
        res = lint({"kernels/k.py": HIDDEN_ALIAS}, select=["FZL016"])
        (finding,) = res.findings
        assert len(finding.flow) >= 2           # origin ... aliasing call
        assert finding.flow[0].line < finding.flow[-1].line


# -- SARIF codeFlows ----------------------------------------------------- #

class TestSarifCodeFlows:
    def test_out_aliasing_renders_code_flow(self, lint):
        res = lint({"kernels/k.py": HIDDEN_ALIAS}, select=["FZL016"])
        doc = json.loads(
            render_sarif(res, res.findings, [], all_rules()))
        (result,) = doc["runs"][0]["results"]
        (flow,) = result["codeFlows"]
        locations = flow["threadFlows"][0]["locations"]
        assert len(locations) >= 2
        for step in locations:
            phys = step["location"]["physicalLocation"]
            assert phys["artifactLocation"]["uri"].endswith("kernels/k.py")
            assert phys["region"]["startLine"] >= 1
            assert step["location"]["message"]["text"]
        messages = " ".join(
            s["location"]["message"]["text"] for s in locations)
        assert "out=" in messages

    def test_plain_findings_have_no_code_flow(self, lint):
        res = lint({"kernels/k.py": VISIBLE_INPLACE}, select=["FZL001"])
        doc = json.loads(render_sarif(res, res.findings, [], all_rules()))
        for result in doc["runs"][0]["results"]:
            assert "codeFlows" not in result
