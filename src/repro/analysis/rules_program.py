"""fzlint v2 rules: dataflow (FZL016) and whole-program concurrency
rules (FZL017-FZL018).

The first consumes the intra-procedural alias analysis in
:mod:`.dataflow` (one CFG fixpoint per function, cached per file); the
last two consume the
:class:`~repro.analysis.project.ProjectContext` call graph.  All of them
attach :class:`~repro.analysis.findings.FlowStep` traces, which the
SARIF reporter renders as ``codeFlows``.

Rule text lives in ``docs/STATIC_ANALYSIS.md``; each ``contract``
docstring below is the canonical one-paragraph statement.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .dataflow import analyze_file
from .engine import (LintContext, ProjectRule, Rule, node_root_name,
                     register_rule)
from .findings import Finding, FlowStep
from .project import ProjectContext


@register_rule
class HiddenOutAliasing(Rule):
    id = "FZL016"
    title = "hidden out= aliasing"
    contract = (
        "An `out=` destination must not silently alias an input: when "
        "`b = a.view(...)` (or any alias-preserving chain, including "
        "through a call whose return aliases a parameter) and the call "
        "site says `f(a, out=b)`, the kernel reads elements it already "
        "overwrote.  Visible in-place use — the same name as input and "
        "`out=`, e.g. `lorenzo_forward(grid, out=grid)` — is a "
        "documented idiom and exempt; only aliasing hidden behind "
        "different names is flagged (must-alias, so ambiguous bindings "
        "stay quiet).  The runtime sanitizer enforces the same contract "
        "with np.shares_memory at kernel entry.")
    severity = "error"

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        for _fn, report in analyze_file(ctx):
            yield ctx.finding(self, report.node, report.message,
                              flow=report.flow)


@register_rule
class ForkSafety(ProjectRule):
    id = "FZL017"
    title = "fork-unsafe module state"
    contract = (
        "Code reachable from a shard-worker or STF-task entrypoint "
        "(anything handed to `*.submit(...)`/`*.task(...)`) runs after "
        "fork or on another thread: direct stores into module-level "
        "state (`GLOBAL[k] = v`, `MOD.attr = v`, `global NAME` "
        "rebinding) from that context race across threads and silently "
        "diverge across forked processes — each child mutates its own "
        "copy-on-write page while the parent's table stays stale.  "
        "Route per-process state through instance attributes or "
        "explicit result channels; deliberate per-process registries "
        "carry a suppression with a justification.")
    severity = "warning"

    def run_project(self, project: ProjectContext) -> Iterator[Finding]:
        reachable = project.reachable_from_entrypoints()
        for key in sorted(reachable):
            info = project.function(key)
            if info is None:
                continue
            yield from self._check_function(project, info)

    def _check_function(self, project: ProjectContext,
                        info) -> Iterator[Finding]:
        ctx = info.ctx
        module_names = ctx.module_level_names
        globals_declared: set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        # nested defs are walked too: a closure defined inside a
        # reachable worker runs in the same post-fork context
        for node in ast.walk(info.node):
            target: ast.AST | None = None
            what = ""
            if isinstance(node, (ast.Assign, ast.AugAssign,
                                 ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    if isinstance(t, (ast.Subscript, ast.Attribute)):
                        root = node_root_name(t)
                        if root is not None and root != "self" \
                                and root in module_names:
                            target, what = t, (f"store into module-level "
                                               f"`{root}`")
                            break
                    elif (isinstance(t, ast.Name)
                          and t.id in globals_declared):
                        target, what = t, (f"rebind of global "
                                           f"`{t.id}`")
                        break
            if target is None:
                continue
            flow = self._flow(project, info, target, what)
            yield ctx.finding(
                self, target,
                f"{what} in `{info.qual}`, which is reachable from a "
                f"worker/task entrypoint and runs post-fork or on "
                f"another thread", flow=flow)

    def _flow(self, project: ProjectContext, info, node: ast.AST,
              what: str) -> tuple[FlowStep, ...]:
        steps: list[FlowStep] = []
        prev = None
        for key, line in project.call_path(info.key):
            fi = project.function(key)
            if fi is None:
                continue
            if prev is None:
                steps.append(FlowStep(
                    path=fi.ctx.rel, line=fi.node.lineno,
                    message=f"`{fi.qual}` runs as a worker/task "
                            f"entrypoint"))
            else:
                # `line` is the call site inside the parent function
                steps.append(FlowStep(
                    path=prev.ctx.rel, line=line,
                    message=f"`{prev.qual}` calls `{fi.qual}`"))
            prev = fi
        steps.append(FlowStep(path=info.ctx.rel,
                              line=getattr(node, "lineno", 1),
                              message=what))
        return tuple(steps)


#: filesystem enumerators whose order is platform-dependent
_FS_ENUMERATORS = frozenset({
    "listdir", "scandir", "iterdir", "glob", "iglob", "rglob",
})

#: constructors of unordered collections
_SET_CALLS = frozenset({"set", "frozenset"})


@register_rule
class UnorderedLayout(ProjectRule):
    id = "FZL018"
    title = "unordered collection feeds layout"
    contract = (
        "Serialization-path code (parallel/, streaming/, core/header, "
        "core/archive) must not freeze an unordered iteration into "
        "container or shard layout: converting a set to a sequence "
        "(`list(s)`/`tuple(s)`/`''.join(s)`) bakes hash order into "
        "bytes, and unsorted filesystem enumeration (os.listdir, glob, "
        "Path.iterdir/glob/rglob) bakes in directory order — both break "
        "the byte-identical container guarantee across runs, platforms "
        "and PYTHONHASHSEED.  Wrap in `sorted(...)`.  FZL004 covers "
        "direct iteration over set literals; this rule covers "
        "conversions and filesystem order, project-wide on the "
        "serialization path.")
    severity = "warning"

    _SCOPE_DIRS = ("parallel", "streaming")
    _SCOPE_FILES = ("core/header.py", "core/archive.py")

    def _in_scope(self, ctx: LintContext) -> bool:
        if any(ctx.in_dir(d) for d in self._SCOPE_DIRS):
            return True
        posix = ctx.rel
        return any(posix.endswith(f) for f in self._SCOPE_FILES)

    def run_project(self, project: ProjectContext) -> Iterator[Finding]:
        for mod in sorted(project.modules.values(),
                          key=lambda m: m.ctx.rel):
            if self._in_scope(mod.ctx):
                yield from self._check_file(mod.ctx)

    def _check_file(self, ctx: LintContext) -> Iterator[Finding]:
        parents: dict[int, ast.AST] = {}
        set_vars: set[str] = set()
        for node in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
            if isinstance(node, ast.Assign) and self._is_set_expr(
                    node.value, set_vars):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        set_vars.add(t.id)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            # set -> sequence conversion
            name = fn.id if isinstance(fn, ast.Name) else None
            if (name in ("list", "tuple") and node.args
                    and self._is_set_expr(node.args[0], set_vars)):
                yield ctx.finding(
                    self, node,
                    f"`{name}(...)` of a set freezes hash order into "
                    f"the serialization path; use `sorted(...)`")
                continue
            if (isinstance(fn, ast.Attribute) and fn.attr == "join"
                    and node.args
                    and self._is_set_expr(node.args[0], set_vars)):
                yield ctx.finding(
                    self, node,
                    "`.join(...)` of a set freezes hash order into the "
                    "serialization path; use `sorted(...)`")
                continue
            # unsorted filesystem enumeration
            attr = fn.attr if isinstance(fn, ast.Attribute) else name
            if attr in _FS_ENUMERATORS and not self._sorted_parent(
                    node, parents):
                yield ctx.finding(
                    self, node,
                    f"`{attr}(...)` enumerates in platform-dependent "
                    f"directory order on the serialization path; wrap "
                    f"in `sorted(...)`")

    @staticmethod
    def _is_set_expr(expr: ast.AST, set_vars: set[str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return expr.func.id in _SET_CALLS
        if isinstance(expr, ast.Name):
            return expr.id in set_vars
        return False

    @staticmethod
    def _sorted_parent(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
        parent = parents.get(id(node))
        if isinstance(parent, ast.Call):
            fn = parent.func
            name = fn.id if isinstance(fn, ast.Name) else (
                fn.attr if isinstance(fn, ast.Attribute) else None)
            return name == "sorted"
        return False
