"""Output formats for fzlint: human text, JSON, and SARIF 2.1.0.

SARIF is the format CI code-scanning UIs ingest; findings carry
``partialFingerprints`` (the same line-independent fingerprint the
baseline uses) and ``baselineState`` so a viewer can separate new debt
from accepted debt without re-deriving the baseline logic.
"""

from __future__ import annotations

import json

from .engine import LintResult, Rule
from .findings import Finding

SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")
SARIF_VERSION = "2.1.0"

FORMATS = ("text", "json", "sarif")


def render_text(result: LintResult, new: list[Finding],
                baselined: list[Finding], *,
                show_baselined: bool = False) -> str:
    """The default terminal report."""
    lines: list[str] = []
    for f in new:
        lines.append(f"{f.location()}: {f.rule} {f.message} [{f.scope}]")
    if show_baselined:
        for f in baselined:
            lines.append(f"{f.location()}: {f.rule} {f.message} "
                         f"[baselined]")
    per_rule = ", ".join(f"{r}={n}" for r, n in
                         _rule_counts(new).items()) or "none"
    lines.append(
        f"fzlint: {result.files} file(s), {len(new)} new finding(s) "
        f"({per_rule}), {len(baselined)} baselined, "
        f"{len(result.suppressed)} suppressed")
    return "\n".join(lines)


def render_json(result: LintResult, new: list[Finding],
                baselined: list[Finding]) -> str:
    """Machine-readable report (schema asserted by the test suite)."""
    doc = {
        "version": 1,
        "tool": "fzlint",
        "files": result.files,
        "findings": ([f.to_json(baselined=False) for f in new]
                     + [f.to_json(baselined=True) for f in baselined]),
        "summary": {
            "new": len(new),
            "baselined": len(baselined),
            "suppressed": len(result.suppressed),
            "by_rule": _rule_counts(new),
        },
    }
    return json.dumps(doc, indent=2)


def render_sarif(result: LintResult, new: list[Finding],
                 baselined: list[Finding], rules: list[Rule]) -> str:
    """SARIF 2.1.0 for code-scanning ingestion."""
    from .. import __version__

    rule_meta = [{
        "id": r.id,
        "name": _camel(r.title or r.id),
        "shortDescription": {"text": r.title or r.id},
        "fullDescription": {"text": r.contract or r.title or r.id},
        "defaultConfiguration": {"level": _level(r.severity)},
    } for r in sorted(rules, key=lambda r: r.id)]

    results = ([_sarif_result(f, "new") for f in new]
               + [_sarif_result(f, "unchanged") for f in baselined])
    doc = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {"driver": {
                "name": "fzlint",
                "informationUri":
                    "https://example.invalid/fzmodules/docs/STATIC_ANALYSIS",
                "version": __version__,
                "rules": rule_meta,
            }},
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2)


def _sarif_result(f: Finding, baseline_state: str) -> dict:
    result = {
        "ruleId": f.rule,
        "level": _level(f.severity),
        "message": {"text": f.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": f.path},
                "region": {"startLine": f.line, "startColumn": f.col},
            },
        }],
        "partialFingerprints": {"fzlint/v1": f.fingerprint},
        "baselineState": baseline_state,
    }
    if f.flow:
        # dataflow rules attach the path behind the finding
        # (origin -> aliasing call); render as one thread flow
        result["codeFlows"] = [{
            "threadFlows": [{
                "locations": [{
                    "location": {
                        "physicalLocation": {
                            "artifactLocation": {"uri": step.path},
                            "region": {"startLine": step.line},
                        },
                        "message": {"text": step.message},
                    },
                } for step in f.flow],
            }],
        }]
    return result


def _level(severity: str) -> str:
    return {"error": "error", "warning": "warning",
            "note": "note"}[severity]


def _camel(title: str) -> str:
    return "".join(w.capitalize() for w in title.replace("=", " ").split())


def _rule_counts(findings: list[Finding]) -> dict[str, int]:
    counts: dict[str, int] = {}
    for f in findings:
        counts[f.rule] = counts.get(f.rule, 0) + 1
    return dict(sorted(counts.items()))
