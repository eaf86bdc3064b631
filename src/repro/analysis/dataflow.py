"""Intra-procedural dataflow for fzlint: CFG + worklist alias analysis.

fzlint v1 rules were syntactic — one AST pattern, one finding.  An
``out=`` buffer that aliases an input through a chain of view
assignments is a *path* property.  This module builds a statement-level
control-flow graph per function and runs a worklist fixpoint over it,
tracking **origins**: every value-producing site (fresh allocation,
parameter) gets a stable identity; names map to *sets* of origins
(may-points-to), propagated through alias-preserving expressions only
(plain names, ``.reshape``/``.view``/… chains, slice subscripts,
conditional expressions, the ``out=`` keyword convention, and
cross-module ``returns-param`` summaries from the
:class:`~repro.analysis.project.ProjectContext`).

The analysis is deliberately conservative about what aliases: fancy
indexing (``a[idx]``), ``.astype``/``np.asarray`` and unknown calls all
produce fresh origins, so only must-alias view chains are reported.
Reports carry :class:`~repro.analysis.findings.FlowStep` traces (origin
→ call) that the SARIF reporter renders as ``codeFlows``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .findings import FlowStep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import LintContext

#: attribute calls that return a view of their receiver
VIEW_METHODS = frozenset({
    "view", "reshape", "ravel", "squeeze", "transpose", "swapaxes",
})

#: attribute names whose call hands work to another execution context —
#: a thread pool, process pool or STF graph
SUBMIT_ATTRS = frozenset({"submit", "task"})


def alias_load_roots(expr: ast.AST) -> set[str]:
    """Names whose storage ``expr``'s value may alias.

    Follows only alias-preserving syntax; anything that copies (fancy
    indexing, ``astype``, unknown calls) or is not rooted in a name
    yields no roots.  The empty set therefore means "fresh or unknown",
    never "aliases everything".
    """
    if isinstance(expr, ast.Name):
        return {expr.id}
    if isinstance(expr, ast.Attribute):
        if expr.attr == "T":
            return alias_load_roots(expr.value)
        return set()
    if isinstance(expr, ast.Call):
        fn = expr.func
        if isinstance(fn, ast.Attribute) and fn.attr in VIEW_METHODS:
            return alias_load_roots(fn.value)
        return set()
    if isinstance(expr, ast.Subscript):
        if _is_view_index(expr.slice):
            return alias_load_roots(expr.value)
        return set()
    if isinstance(expr, ast.IfExp):
        return alias_load_roots(expr.body) | alias_load_roots(expr.orelse)
    if isinstance(expr, ast.BoolOp):
        roots: set[str] = set()
        for v in expr.values:
            roots |= alias_load_roots(v)
        return roots
    if isinstance(expr, ast.NamedExpr):
        return alias_load_roots(expr.value)
    if isinstance(expr, ast.Starred):
        return alias_load_roots(expr.value)
    return set()


def _is_view_index(index: ast.AST) -> bool:
    """True when subscripting with ``index`` returns a view (basic
    indexing: slices, ellipsis, integer constants, tuples thereof).
    Name/Call indices may be fancy (copying) indexing — treated as
    fresh."""
    if isinstance(index, ast.Slice):
        return True
    if isinstance(index, ast.Constant):
        return index.value is Ellipsis or isinstance(index.value, int)
    if isinstance(index, ast.Tuple):
        return all(_is_view_index(e) for e in index.elts)
    return False


# ---------------------------------------------------------------------- #
# control-flow graph                                                      #
# ---------------------------------------------------------------------- #
class CFG:
    """Blocks of straight-line units with successor edges.

    A *unit* is a simple statement or the header expression of a
    compound one (an ``if``/``while`` test, a ``for`` iterable); the
    transfer function walks units in order within a block.
    """

    def __init__(self) -> None:
        self.units: list[list[ast.AST]] = []
        self.succs: list[set[int]] = []

    def new_block(self) -> int:
        """Append an empty block, returning its index."""
        self.units.append([])
        self.succs.append(set())
        return len(self.units) - 1

    def edge(self, a: int | None, b: int | None) -> None:
        """Add a successor edge (ignoring unreachable endpoints)."""
        if a is not None and b is not None:
            self.succs[a].add(b)


class _ForBind:
    """Synthetic unit binding a ``for`` target each iteration."""

    __slots__ = ("node",)

    def __init__(self, node: ast.For | ast.AsyncFor) -> None:
        self.node = node


class _CFGBuilder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.entry = self.cfg.new_block()
        self.exit = self.cfg.new_block()
        #: entries of handler/finally blocks exceptions can reach
        self._exc: list[int] = []
        #: innermost-first finally entries (for return/break edges)
        self._finally: list[int] = []
        #: (continue_target, break_target) stack
        self._loops: list[tuple[int, int]] = []

    # -- plumbing ------------------------------------------------------ #
    def _emit(self, block: int, unit: ast.AST) -> None:
        self.cfg.units[block].append(unit)
        for target in self._exc:
            self.cfg.edge(block, target)

    def _leave_via(self, block: int, target: int | None) -> None:
        """Edge for a jump statement, routed through any finally."""
        if self._finally:
            self.cfg.edge(block, self._finally[-1])
        self.cfg.edge(block, target)

    # -- statement sequencing ------------------------------------------ #
    def seq(self, stmts: Iterable[ast.stmt], cur: int | None) -> int | None:
        for stmt in stmts:
            if cur is None:
                cur = self.cfg.new_block()  # unreachable continuation
            cur = self.stmt(stmt, cur)
        return cur

    def stmt(self, stmt: ast.stmt, cur: int) -> int | None:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            self._emit(cur, stmt.test)
            then_e = cfg.new_block()
            else_e = cfg.new_block()
            cfg.edge(cur, then_e)
            cfg.edge(cur, else_e)
            then_x = self.seq(stmt.body, then_e)
            else_x = self.seq(stmt.orelse, else_e)
            if then_x is None and else_x is None:
                return None
            join = cfg.new_block()
            cfg.edge(then_x, join)
            cfg.edge(else_x, join)
            return join
        if isinstance(stmt, (ast.While,)):
            header = cfg.new_block()
            cfg.edge(cur, header)
            self._emit(header, stmt.test)
            body_e = cfg.new_block()
            after = cfg.new_block()
            cfg.edge(header, body_e)
            self._loops.append((header, after))
            body_x = self.seq(stmt.body, body_e)
            cfg.edge(body_x, header)
            self._loops.pop()
            if stmt.orelse:
                else_e = cfg.new_block()
                cfg.edge(header, else_e)
                cfg.edge(self.seq(stmt.orelse, else_e), after)
            else:
                cfg.edge(header, after)
            return after
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._emit(cur, stmt.iter)
            header = cfg.new_block()
            cfg.edge(cur, header)
            self._emit(header, _ForBind(stmt))
            body_e = cfg.new_block()
            after = cfg.new_block()
            cfg.edge(header, body_e)
            self._loops.append((header, after))
            body_x = self.seq(stmt.body, body_e)
            cfg.edge(body_x, header)
            self._loops.pop()
            if stmt.orelse:
                else_e = cfg.new_block()
                cfg.edge(header, else_e)
                cfg.edge(self.seq(stmt.orelse, else_e), after)
            else:
                cfg.edge(header, after)
            return after
        if isinstance(stmt, ast.Try):
            return self._try(stmt, cur)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._emit(cur, stmt)
            return self.seq(stmt.body, cur)
        if isinstance(stmt, ast.Return):
            self._emit(cur, stmt)
            self._leave_via(cur, self.exit)
            return None
        if isinstance(stmt, ast.Raise):
            self._emit(cur, stmt)
            self._leave_via(cur, self.exit)
            return None
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._leave_via(cur, self._loops[-1][1])
            return None
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._leave_via(cur, self._loops[-1][0])
            return None
        if isinstance(stmt, ast.Match):
            self._emit(cur, stmt.subject)
            after = cfg.new_block()
            any_open = False
            for case in stmt.cases:
                case_e = cfg.new_block()
                cfg.edge(cur, case_e)
                case_x = self.seq(case.body, case_e)
                if case_x is not None:
                    any_open = True
                cfg.edge(case_x, after)
            cfg.edge(cur, after)  # no case may match
            return after if (any_open or True) else None
        # simple statement (incl. nested FunctionDef/ClassDef, which the
        # transfer function treats as a binding + capture record)
        self._emit(cur, stmt)
        return cur

    def _try(self, stmt: ast.Try, cur: int) -> int | None:
        cfg = self.cfg
        body_e = cfg.new_block()
        cfg.edge(cur, body_e)
        handler_entries = [cfg.new_block() for _ in stmt.handlers]
        fin_e = cfg.new_block() if stmt.finalbody else None

        targets = list(handler_entries)
        if fin_e is not None:
            targets.append(fin_e)
        self._exc.extend(targets)
        if fin_e is not None:
            self._finally.append(fin_e)
        body_x = self.seq(stmt.body, body_e)
        body_x = self.seq(stmt.orelse, body_x) if stmt.orelse else body_x
        del self._exc[len(self._exc) - len(targets):]

        handler_exits: list[int | None] = []
        for handler, h_entry in zip(stmt.handlers, handler_entries):
            if fin_e is not None and fin_e not in self._exc:
                self._exc.append(fin_e)
                h_exit = self.seq(handler.body, h_entry)
                self._exc.pop()
            else:
                h_exit = self.seq(handler.body, h_entry)
            handler_exits.append(h_exit)
        if fin_e is not None:
            self._finally.pop()

        after = cfg.new_block()
        if fin_e is not None:
            cfg.edge(body_x, fin_e)
            for h_exit in handler_exits:
                cfg.edge(h_exit, fin_e)
            fin_x = self.seq(stmt.finalbody, fin_e)
            cfg.edge(fin_x, after)
            cfg.edge(fin_x, self.exit)  # re-raise / jump continuation
        else:
            cfg.edge(body_x, after)
            for h_exit in handler_exits:
                cfg.edge(h_exit, after)
        return after


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Statement-level CFG of one function body."""
    b = _CFGBuilder()
    last = b.seq(fn.body, b.entry)
    b.cfg.edge(last, b.exit)
    return b.cfg




# ---------------------------------------------------------------------- #
# origins                                                                 #
# ---------------------------------------------------------------------- #
@dataclass
class Origin:
    """One value-producing site tracked by the analysis."""

    oid: int
    kind: str              #: "alloc" | "param"
    line: int
    label: str             #: display text for flow steps


@dataclass
class Report:
    """One raw dataflow diagnostic (rule layer turns these into findings)."""

    kind: str              #: "out-aliasing"
    node: ast.AST          #: anchor node for the finding
    message: str
    flow: tuple[FlowStep, ...] = ()


class _FunctionAnalysis:
    """Worklist alias analysis of a single function."""

    def __init__(self, fn, ctx: "LintContext", project) -> None:
        self.fn = fn
        self.ctx = ctx
        self.project = project
        self.cfg = build_cfg(fn)
        self.origins: dict[int, Origin] = {}
        self._origin_by_node: dict[int, int] = {}
        self._next_oid = 0
        self.reports: list[Report] = []
        self._reported: set[tuple] = set()
        self._collecting = False

    # -- origin bookkeeping -------------------------------------------- #
    def _origin_for(self, node: ast.AST, kind: str, label: str) -> int:
        key = id(node)
        oid = self._origin_by_node.get(key)
        if oid is None:
            oid = self._next_oid
            self._next_oid += 1
            self._origin_by_node[key] = oid
            self.origins[oid] = Origin(
                oid=oid, kind=kind, line=getattr(node, "lineno", 1),
                label=label)
        return oid

    def _entry_state(self) -> dict:
        bind: dict[str, frozenset[int]] = {}
        args = self.fn.args
        for a in (args.posonlyargs + args.args + args.kwonlyargs):
            oid = self._origin_for(a, "param", f"parameter `{a.arg}`")
            bind[a.arg] = frozenset({oid})
        return bind

    # -- expression evaluation ----------------------------------------- #
    def _value_origins(self, expr: ast.AST, bind: dict) -> frozenset[int]:
        """Origin set of ``expr``'s value (may create new origins)."""
        if isinstance(expr, ast.Name):
            return bind.get(expr.id, frozenset())
        if isinstance(expr, ast.IfExp):
            return (self._value_origins(expr.body, bind)
                    | self._value_origins(expr.orelse, bind))
        if isinstance(expr, ast.BoolOp):
            out: frozenset[int] = frozenset()
            for v in expr.values:
                out |= self._value_origins(v, bind)
            return out
        if isinstance(expr, ast.NamedExpr):
            return self._value_origins(expr.value, bind)
        if isinstance(expr, ast.Call):
            fn = expr.func
            if isinstance(fn, ast.Attribute) and fn.attr in VIEW_METHODS:
                return self._value_origins(fn.value, bind)
            out: frozenset[int] = frozenset()
            # numpy/kernel convention: a call given `out=` returns it
            for kw in expr.keywords:
                if kw.arg == "out":
                    out |= self._value_origins(kw.value, bind)
            out |= self._summary_origins(expr, bind)
            if out:
                return out
            oid = self._origin_for(expr, "alloc", "allocated here")
            return frozenset({oid})
        if isinstance(expr, ast.Subscript):
            if _is_view_index(expr.slice):
                return self._value_origins(expr.value, bind)
            return frozenset()
        if isinstance(expr, ast.Attribute):
            if expr.attr == "T":
                return self._value_origins(expr.value, bind)
            return frozenset()
        if isinstance(expr, ast.Starred):
            return self._value_origins(expr.value, bind)
        return frozenset()

    def _summary_origins(self, call: ast.Call, bind: dict) -> frozenset[int]:
        """Cross-module returns-param aliasing via the project context."""
        if self.project is None:
            return frozenset()
        info = self.project.resolve_call(self.ctx, call)
        if info is None:
            return frozenset()
        out: frozenset[int] = frozenset()
        for actual in self.project.actuals_for(info, call,
                                               info.returns_params):
            out |= self._value_origins(actual, bind)
        return out

    # -- reporting ------------------------------------------------------ #
    def _report(self, kind: str, node: ast.AST, message: str,
                flow: tuple[FlowStep, ...]) -> None:
        key = (kind, getattr(node, "lineno", 0),
               getattr(node, "col_offset", 0), message)
        if key in self._reported:
            return
        self._reported.add(key)
        self.reports.append(Report(kind=kind, node=node, message=message,
                                   flow=flow))

    def _step(self, line: int, message: str) -> FlowStep:
        return FlowStep(path=self.ctx.rel, line=line, message=message)

    # -- transfer function --------------------------------------------- #

    def _check_out_aliasing(self, unit: ast.AST, bind: dict) -> None:
        for node in ast.walk(unit):
            if not isinstance(node, ast.Call):
                continue
            out_kw = next((kw for kw in node.keywords if kw.arg == "out"),
                          None)
            if out_kw is None:
                continue
            out_roots = alias_load_roots(out_kw.value)
            out_origins = self._value_origins(out_kw.value, bind)
            if len(out_origins) != 1:
                continue  # must-alias only: ambiguous targets stay quiet
            args = list(node.args) + [kw.value for kw in node.keywords
                                      if kw.arg not in (None, "out")]
            for arg in args:
                roots = alias_load_roots(arg)
                if not roots or roots & out_roots:
                    # visible in-place use (same name) is a documented
                    # idiom; only *hidden* aliasing is a contract bug
                    continue
                arg_origins = self._value_origins(arg, bind)
                if len(arg_origins) == 1 and arg_origins == out_origins:
                    oid = next(iter(arg_origins))
                    origin = self.origins[oid]
                    a_name = ", ".join(sorted(roots))
                    o_name = ", ".join(sorted(out_roots)) or "<expr>"
                    self._report(
                        "out-aliasing", node,
                        f"`out={o_name}` aliases input `{a_name}` "
                        f"through assignments; the kernel will read "
                        f"values it already overwrote",
                        (self._step(origin.line,
                                    f"both views originate here "
                                    f"({origin.label})"),
                         self._step(node.lineno,
                                    f"`{a_name}` and `out={o_name}` "
                                    f"reach the same call")))


    def _transfer(self, unit: ast.AST, bind: dict) -> None:
        """Apply one unit to ``bind`` in place, reporting when in the
        collecting pass."""
        if isinstance(unit, _ForBind):
            for n in ast.walk(unit.node.target):
                if isinstance(n, ast.Name):
                    bind.pop(n.id, None)
            return
        if isinstance(unit, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bind.pop(unit.name, None)
            return
        if isinstance(unit, (ast.Import, ast.ImportFrom, ast.Global,
                             ast.Nonlocal, ast.Pass)):
            return
        if isinstance(unit, ast.Delete):
            for t in unit.targets:
                if isinstance(t, ast.Name):
                    bind.pop(t.id, None)
            return
        if isinstance(unit, (ast.With, ast.AsyncWith)):
            for item in unit.items:
                if item.optional_vars is not None:
                    for n in ast.walk(item.optional_vars):
                        if isinstance(n, ast.Name):
                            bind.pop(n.id, None)
            return

        if self._collecting:
            self._check_out_aliasing(unit, bind)

        if isinstance(unit, (ast.Assign, ast.AnnAssign)):
            value = unit.value
            if value is None:
                return
            targets = (unit.targets if isinstance(unit, ast.Assign)
                       else [unit.target])
            if (len(targets) == 1 and isinstance(targets[0], ast.Tuple)
                    and isinstance(value, ast.Tuple)
                    and len(targets[0].elts) == len(value.elts)):
                # simultaneous (a, b = b, a): evaluate RHS first
                rhs = [self._value_origins(v, bind) for v in value.elts]
                for t, origins in zip(targets[0].elts, rhs):
                    if isinstance(t, ast.Name):
                        bind[t.id] = origins
                    else:
                        self._clobber(t, bind)
                return
            origins = self._value_origins(value, bind)
            for t in targets:
                if isinstance(t, ast.Name):
                    bind[t.id] = origins
                else:
                    self._clobber(t, bind)

    def _clobber(self, target: ast.AST, bind: dict) -> None:
        for n in ast.walk(target):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                bind.pop(n.id, None)

    # -- fixpoint ------------------------------------------------------- #
    @staticmethod
    def _join(a: dict, b: dict) -> dict:
        bind = dict(a)
        for k, v in b.items():
            bind[k] = bind.get(k, frozenset()) | v
        return bind

    def run(self) -> list[Report]:
        cfg = self.cfg
        n = len(cfg.units)
        in_states: dict[int, dict] = {0: self._entry_state()}
        work = [0]
        iterations = 0
        limit = max(200, n * 40)
        while work and iterations < limit:
            iterations += 1
            block = work.pop()
            state = in_states.get(block)
            if state is None:
                continue
            bind = dict(state)
            for unit in cfg.units[block]:
                self._transfer(unit, bind)
            for succ in cfg.succs[block]:
                prev = in_states.get(succ)
                merged = bind if prev is None else self._join(prev, bind)
                if prev is None or prev != merged:
                    in_states[succ] = dict(merged)
                    work.append(succ)
        # collecting pass over the final in-states
        self._collecting = True
        for block in range(n):
            state = in_states.get(block)
            if state is None:
                continue
            bind = dict(state)
            for unit in cfg.units[block]:
                self._transfer(unit, bind)
        return self.reports


def analyze_function(fn, ctx: "LintContext", project=None) -> list[Report]:
    """Alias dataflow reports for one function."""
    return _FunctionAnalysis(fn, ctx, project).run()


def analyze_file(ctx: "LintContext") -> list[tuple[ast.AST, Report]]:
    """Reports for every function in ``ctx``'s file, cached on the
    context so every dataflow rule shares one fixpoint run."""
    cached = getattr(ctx, "_dataflow_reports", None)
    if cached is not None:
        return cached
    from .engine import functions_of
    reports: list[tuple[ast.AST, Report]] = []
    seen: set[int] = set()
    for fn in functions_of(ctx.tree):
        if id(fn) in seen:
            continue
        seen.add(id(fn))
        for report in analyze_function(fn, ctx, ctx.project):
            reports.append((fn, report))
    ctx._dataflow_reports = reports
    return reports
