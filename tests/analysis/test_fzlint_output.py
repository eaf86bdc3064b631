"""Report formats: text summary, JSON schema, SARIF 2.1.0 structure."""

from __future__ import annotations

import json

from repro.analysis import LintResult, all_rules
from repro.analysis.findings import Finding
from repro.analysis.output import render_json, render_sarif, render_text


def mk(rule="FZL001", line=3, baseline=False):
    return Finding(path="kernels/k.py", line=line, col=5, rule=rule,
                   message="mutates module state", scope="f",
                   snippet="_S[x] = x")


def result_with(new, baselined=(), suppressed=()):
    return LintResult(findings=list(new) + list(baselined),
                      suppressed=list(suppressed), files=1)


def test_text_format_lists_findings_and_summary():
    new = [mk(), mk(rule="FZL003")]
    out = render_text(result_with(new), new, [])
    assert "kernels/k.py:3:5: FZL001 mutates module state [f]" in out
    assert "2 new finding(s)" in out
    assert "FZL001=1, FZL003=1" in out


def test_text_format_hides_baselined_by_default():
    old = [mk()]
    out = render_text(result_with([], old), [], old)
    assert "FZL001 mutates" not in out
    assert "1 baselined" in out
    shown = render_text(result_with([], old), [], old, show_baselined=True)
    assert "[baselined]" in shown


def test_json_schema():
    new, old = [mk()], [mk(rule="FZL003")]
    doc = json.loads(render_json(result_with(new, old), new, old))
    assert doc["version"] == 1 and doc["tool"] == "fzlint"
    assert doc["files"] == 1
    assert doc["summary"] == {"new": 1, "baselined": 1, "suppressed": 0,
                              "by_rule": {"FZL001": 1}}
    by_rule = {f["rule"]: f for f in doc["findings"]}
    assert by_rule["FZL001"]["baselined"] is False
    assert by_rule["FZL003"]["baselined"] is True
    f = by_rule["FZL001"]
    assert set(f) == {"rule", "path", "line", "col", "message", "scope",
                      "snippet", "severity", "fingerprint", "baselined"}


def test_sarif_structure():
    new, old = [mk()], [mk(rule="FZL003")]
    doc = json.loads(
        render_sarif(result_with(new, old), new, old, all_rules()))
    assert doc["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in doc["$schema"]
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "fzlint"
    ids = [r["id"] for r in driver["rules"]]
    assert ids == sorted(ids) and "FZL001" in ids and len(ids) == 16
    for r in driver["rules"]:
        assert r["fullDescription"]["text"]  # contract paragraph present
    states = {r["ruleId"]: r["baselineState"] for r in run["results"]}
    assert states == {"FZL001": "new", "FZL003": "unchanged"}
    res = run["results"][0]
    loc = res["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "kernels/k.py"
    assert loc["region"] == {"startLine": 3, "startColumn": 5}
    assert res["partialFingerprints"]["fzlint/v1"] == mk().fingerprint
