"""Finding objects produced by the fzlint rule engine.

A :class:`Finding` is one rule violation at one source location.  Findings
carry a *fingerprint* — a content hash over everything about the finding
**except** its line number — so the committed baseline survives unrelated
edits that shift code up or down a file.  Two findings on the same
(stripped) source line in the same scope hash identically; the baseline
stores occurrence *counts*, so duplicates are ratcheted correctly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

#: severity levels, mirroring SARIF's ``level`` values we emit
SEVERITIES = ("error", "warning", "note")


@dataclass(frozen=True, order=True)
class FlowStep:
    """One step of the execution path that produces a finding.

    Dataflow rules attach these so a reader can see *how* the bad state
    arises (origin -> aliasing call), and SARIF output renders them as
    ``codeFlows``/``threadFlows`` for code-scanning UIs.
    """

    path: str      #: posix path of the step (usually the finding's file)
    line: int      #: 1-based line
    message: str   #: what happens at this step ("allocated here", ...)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str       #: posix-style path as reported (relative when possible)
    line: int       #: 1-based line of the offending node
    col: int        #: 1-based column
    rule: str       #: rule id, e.g. ``"FZL003"``
    message: str    #: human-readable description of the violation
    scope: str = "<module>"   #: qualified enclosing function/class
    snippet: str = ""         #: stripped source line (fingerprint input)
    severity: str = "warning"
    #: execution path behind the finding (dataflow rules only); excluded
    #: from the fingerprint so flow wording can evolve without churning
    #: the baseline
    flow: tuple[FlowStep, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline."""
        h = hashlib.blake2b(digest_size=12)
        for part in (self.rule, self.path, self.scope,
                     " ".join(self.snippet.split())):
            h.update(part.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def location(self) -> str:
        """``path:line:col`` (the clickable prefix of the text format)."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self, *, baselined: bool | None = None) -> dict:
        """JSON-serialisable form (stable key order)."""
        obj = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "scope": self.scope,
            "snippet": self.snippet,
            "severity": self.severity,
            "fingerprint": self.fingerprint,
        }
        if self.flow:
            obj["flow"] = [{"path": s.path, "line": s.line,
                            "message": s.message} for s in self.flow]
        if baselined is not None:
            obj["baselined"] = baselined
        return obj
