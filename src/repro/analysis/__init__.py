"""fzlint: contract-aware static analysis for FZModules pipelines.

The framework's interchangeable-modules promise rests on implicit
contracts — kernel purity, the ``out=`` buffer protocol, read-only plan
caches, byte-deterministic shard serialization.  This package
machine-checks them: an AST rule engine (:mod:`.engine`), per-file rules
(:mod:`.rules`), a whole-program layer — module/import/call-graph index
(:mod:`.project`) and intra-procedural alias dataflow
(:mod:`.dataflow`) — feeding rules FZL016-FZL018
(:mod:`.rules_program`), a ratcheting baseline (:mod:`.baseline`) and
text/JSON/SARIF reporters with ``codeFlows`` traces (:mod:`.output`).

The runtime mirror of the dataflow contract lives in
:mod:`repro.runtime.memory`: ``FZMOD_SANITIZE=1`` enforces ``out=``
aliasing at execution time.

Run it as ``fzmod lint`` or ``python -m repro.analysis``; see
``docs/STATIC_ANALYSIS.md`` for the contract behind each rule.
"""

from .baseline import load_baseline, partition, save_baseline
from .engine import (LintContext, LintEngine, LintResult, ProjectRule,
                     Rule, all_rules, register_rule)
from .findings import Finding, FlowStep
from .output import render_json, render_sarif, render_text
from .project import ProjectContext
from . import rules  # noqa: F401 - registers the built-in rules
from . import rules_program  # noqa: F401 - registers FZL016-FZL018

__all__ = [
    "Finding",
    "FlowStep",
    "LintContext",
    "LintEngine",
    "LintResult",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "register_rule",
    "load_baseline",
    "partition",
    "save_baseline",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
]


def run_lint(paths, *, select=None) -> LintResult:
    """Convenience one-call API: lint ``paths`` with the built-in rules."""
    return LintEngine(select=select).run(paths)
