"""The fzlint rule engine: file walking, AST plumbing, suppressions.

The engine is deliberately small: it parses each file once, wraps the
tree in a :class:`LintContext` with the shared helpers every rule needs
(enclosing-scope lookup, module-level name tables, alias chasing), runs
each registered :class:`Rule` whose scope matches, and filters the
resulting findings through the suppression comments.

Suppression comments
--------------------
``# fzlint: disable=FZL001``            silences listed rules on that line
``# fzlint: disable``                   silences every rule on that line
``# fzlint: disable-next-line=FZL001``  same, for the following line
``# fzlint: disable-file=FZL004``       silences listed rules file-wide

A justification after the directive is encouraged and ignored by the
parser: ``# fzlint: disable=FZL004 -- shm names never reach a container``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import TYPE_CHECKING, Iterable, Iterator

from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .project import ProjectContext

#: pseudo-rule id for files the engine cannot parse
PARSE_ERROR_RULE = "FZL000"

_DIRECTIVE = re.compile(
    r"#\s*fzlint:\s*(disable(?:-next-line|-file)?)\s*"
    r"(?:=\s*([A-Z0-9, ]+))?")

#: sentinel meaning "every rule" in a suppression set
ALL_RULES = "*"


class Rule:
    """Base class for fzlint rules.

    Subclasses set the class attributes and implement :meth:`run`;
    :meth:`applies_to` narrows the rule to a file scope (paths are
    matched on their posix form, so rules can key off directory names
    like ``kernels`` regardless of where the tree is checked out).
    """

    id: str = ""
    title: str = ""
    #: the module contract the rule encodes (one paragraph, shown by
    #: ``fzmod lint --list-rules`` and embedded in SARIF rule metadata)
    contract: str = ""
    severity: str = "warning"

    def applies_to(self, ctx: "LintContext") -> bool:
        """Whether this rule runs on ``ctx``'s file (default: always)."""
        return True

    def run(self, ctx: "LintContext") -> Iterator[Finding]:
        """Yield the rule's findings for one file."""
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule that runs once per engine run over the whole program.

    Project rules see the :class:`~repro.analysis.project.ProjectContext`
    (symbol tables, import graph, call graph) instead of one file; their
    findings are attributed to whichever file each violation lives in,
    and per-file suppression directives apply as usual.
    """

    def run_project(self, project: "ProjectContext") -> Iterator[Finding]:
        """Yield findings across every analysed file."""
        raise NotImplementedError

    def run(self, ctx: "LintContext") -> Iterator[Finding]:
        return iter(())  # project rules do not run per file


_RULE_TYPES: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the engine's registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _RULE_TYPES:
        raise ValueError(f"duplicate rule id {cls.id}")
    _RULE_TYPES[cls.id] = cls
    return cls


def all_rules() -> list[Rule]:
    """One instance of every registered rule, sorted by id."""
    from . import rules  # noqa: F401 - registers the built-in rules
    from . import rules_program  # noqa: F401 - registers FZL016-FZL018
    return [_RULE_TYPES[rid]() for rid in sorted(_RULE_TYPES)]


# ---------------------------------------------------------------------- #
# per-file context                                                        #
# ---------------------------------------------------------------------- #
def node_root_name(node: ast.AST) -> str | None:
    """The base ``Name`` of an attribute/subscript/call chain.

    ``grid.reshape(x)[0].view`` -> ``grid``; bare names return
    themselves; anything not rooted in a name returns ``None``.
    """
    while True:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return None


def attribute_chain(node: ast.AST) -> list[str] | None:
    """``np.random.random`` -> ``["np", "random", "random"]`` (or None)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def assigned_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Parameter and locally-bound names of a function (its locals)."""
    args = fn.args
    names = {a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)}
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names |= {n.id for n in ast.walk(node.target)
                      if isinstance(n, ast.Name)}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def functions_of(tree: ast.AST) -> Iterator[ast.FunctionDef]:
    """Every (sync or async) function definition in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@dataclass
class LintContext:
    """Everything a rule needs to inspect one file."""

    path: Path             #: absolute path of the file
    rel: str               #: path as reported in findings (posix)
    tree: ast.Module
    lines: list[str]
    #: whole-program context, set by the engine once every file has been
    #: parsed; ``None`` when a context is built stand-alone (tests)
    project: "ProjectContext | None" = None
    _scopes: list[tuple[int, int, str]] = field(default_factory=list)
    _module_names: set[str] | None = None
    _imported_modules: set[str] | None = None

    @classmethod
    def for_source(cls, source: str, path: Path, rel: str) -> "LintContext":
        tree = ast.parse(source)
        ctx = cls(path=path, rel=rel, tree=tree,
                  lines=source.splitlines())
        ctx._index_scopes(tree, "")
        ctx._scopes.sort(key=lambda s: (s[0], -s[1]))
        return ctx

    def _index_scopes(self, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                self._scopes.append(
                    (child.lineno, child.end_lineno or child.lineno, qual))
                self._index_scopes(child, qual)
            else:
                self._index_scopes(child, prefix)

    # -- path scope helpers ------------------------------------------- #
    @property
    def parts(self) -> tuple[str, ...]:
        return PurePosixPath(self.path.as_posix()).parts

    def in_dir(self, dirname: str) -> bool:
        """True when any ancestor directory is named ``dirname``."""
        return dirname in self.parts[:-1]

    @property
    def filename(self) -> str:
        return self.path.name

    # -- module-level tables ------------------------------------------ #
    @property
    def module_level_names(self) -> set[str]:
        """Simple names bound by assignment at module scope."""
        if self._module_names is None:
            names: set[str] = set()
            for stmt in self.tree.body:
                targets: list[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets = list(stmt.targets)
                elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                    targets = [stmt.target]
                for t in targets:
                    for n in ast.walk(t):
                        if isinstance(n, ast.Name):
                            names.add(n.id)
            self._module_names = names
        return self._module_names

    @property
    def imported_modules(self) -> set[str]:
        """Names bound by ``import``/``from .. import`` anywhere."""
        if self._imported_modules is None:
            names: set[str] = set()
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        names.add(alias.asname or alias.name.split(".")[0])
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        if alias.name != "*":
                            names.add(alias.asname or alias.name)
            self._imported_modules = names
        return self._imported_modules

    # -- finding construction ----------------------------------------- #
    def scope_at(self, lineno: int) -> str:
        """Qualified name of the innermost function/class at ``lineno``."""
        best = "<module>"
        best_span = None
        for start, end, qual in self._scopes:
            if start <= lineno <= end:
                span = end - start
                if best_span is None or span <= best_span:
                    best, best_span = qual, span
        return best

    def snippet(self, lineno: int) -> str:
        """The stripped source text of ``lineno`` (fingerprint input)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: Rule, node: ast.AST, message: str,
                flow: tuple = ()) -> Finding:
        """Build a :class:`Finding` for ``rule`` anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(path=self.rel, line=line, col=col, rule=rule.id,
                       message=message, scope=self.scope_at(line),
                       snippet=self.snippet(line), severity=rule.severity,
                       flow=tuple(flow))


# ---------------------------------------------------------------------- #
# suppressions                                                            #
# ---------------------------------------------------------------------- #
@dataclass
class Suppressions:
    """Parsed ``# fzlint:`` directives of one file."""

    file_wide: set[str] = field(default_factory=set)
    by_line: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, source: str, lines: list[str]) -> "Suppressions":
        """Parse directives from *comment tokens* only.

        Tokenizing (rather than regex-scanning raw lines) means a
        directive-shaped string literal — test fixtures, docs, the
        directive regex itself — can never silence a finding.  Files
        that fail to tokenize (they will also fail to parse) fall back
        to the line scanner so FZL000 reporting still works.
        """
        try:
            comments = [
                (tok.start[0], tok.string)
                for tok in tokenize.generate_tokens(
                    io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT]
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return cls.parse(lines)
        return cls._from_directives(comments, lines)

    @classmethod
    def parse(cls, lines: list[str]) -> "Suppressions":
        """Line-regex fallback parser (tokenization unavailable)."""
        return cls._from_directives(list(enumerate(lines, start=1)), lines)

    @classmethod
    def _from_directives(cls, texts: list[tuple[int, str]],
                         lines: list[str]) -> "Suppressions":
        sup = cls()
        for i, text in texts:
            m = _DIRECTIVE.search(text)
            if not m:
                continue
            kind, spec = m.group(1), m.group(2)
            rules = ({r.strip() for r in spec.split(",") if r.strip()}
                     if spec else {ALL_RULES})
            if kind == "disable-file":
                sup.file_wide |= rules
            elif kind == "disable-next-line":
                # applies to the next *code* line, so multi-line
                # justification comments can sit between directive and code
                target = i + 1
                while (target <= len(lines)
                       and lines[target - 1].lstrip()[:1] in ("#", "")):
                    target += 1
                sup.by_line.setdefault(target, set()).update(rules)
            else:
                sup.by_line.setdefault(i, set()).update(rules)
        return sup

    def covers(self, finding: Finding) -> bool:
        """True when a directive silences ``finding``."""
        for rules in (self.file_wide, self.by_line.get(finding.line, ())):
            if rules and (ALL_RULES in rules or finding.rule in rules):
                return True
        return False


# ---------------------------------------------------------------------- #
# the engine                                                              #
# ---------------------------------------------------------------------- #
@dataclass
class LintResult:
    """Outcome of one engine run."""

    findings: list[Finding]      #: active findings, sorted by location
    suppressed: list[Finding]    #: findings silenced by directives
    files: int                   #: files analysed

    def by_rule(self) -> dict[str, int]:
        """Active finding counts per rule id, sorted by id."""
        counts: dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return dict(sorted(counts.items()))


#: directories the walker never descends into: bytecode caches, VCS
#: metadata, virtualenvs and build detritus are not source
_SKIP_DIRS = frozenset({
    "__pycache__", ".git", ".hg", ".svn", ".tox", ".nox", ".venv",
    "venv", "node_modules", "build", "dist", ".eggs", ".mypy_cache",
    ".pytest_cache", ".ruff_cache", ".hypothesis",
})


def _skipped(f: Path) -> bool:
    return any(part in _SKIP_DIRS or part.endswith(".egg-info")
               for part in f.parts)


def _iter_py_files(paths: Iterable[Path]) -> Iterator[Path]:
    seen: set[Path] = set()
    for p in paths:
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        else:
            candidates = [p]
        for f in candidates:
            f = f.resolve()
            # only real .py source: skip caches/VCS dirs and, for
            # explicitly-listed files, anything that is not python
            if f.suffix != ".py" or _skipped(f) or f in seen:
                continue
            seen.add(f)
            yield f


def _report_path(path: Path, cwd: Path) -> str:
    """cwd-relative posix path when the file lives under cwd, else
    absolute — keeps baselines portable for in-repo runs."""
    try:
        return path.relative_to(cwd).as_posix()
    except ValueError:
        return path.as_posix()


class LintEngine:
    """Runs a set of rules over a set of files."""

    def __init__(self, rules: Iterable[Rule] | None = None,
                 select: Iterable[str] | None = None) -> None:
        self.rules = list(rules) if rules is not None else all_rules()
        if select is not None:
            wanted = set(select)
            unknown = wanted - {r.id for r in self.rules}
            if unknown:
                raise ValueError(f"unknown rule ids: {sorted(unknown)}")
            self.rules = [r for r in self.rules if r.id in wanted]

    def run(self, paths: Iterable[str | Path], *,
            cwd: Path | None = None) -> LintResult:
        """Lint every ``.py`` file under ``paths``; report paths are
        made relative to ``cwd`` (default: the working directory)."""
        from .project import ProjectContext

        cwd = (Path.cwd() if cwd is None else Path(cwd)).resolve()
        findings: list[Finding] = []
        suppressed: list[Finding] = []
        files = 0
        # phase 1: parse everything, so project rules and cross-module
        # resolution see the whole tree before any rule runs
        parsed: list[tuple[LintContext, Suppressions]] = []
        for path in _iter_py_files(Path(p).resolve() for p in paths):
            files += 1
            rel = _report_path(path, cwd)
            source = path.read_text(encoding="utf-8")
            try:
                ctx = LintContext.for_source(source, path, rel)
            except SyntaxError as exc:
                findings.append(Finding(
                    path=rel, line=exc.lineno or 1, col=exc.offset or 1,
                    rule=PARSE_ERROR_RULE, severity="error",
                    message=f"file does not parse: {exc.msg}",
                    scope="<module>", snippet=""))
                continue
            parsed.append((ctx, Suppressions.from_source(source,
                                                         ctx.lines)))

        project = ProjectContext.build(ctx for ctx, _ in parsed)
        sup_by_rel = {ctx.rel: sup for ctx, sup in parsed}

        # phase 2: per-file rules
        for ctx, sup in parsed:
            ctx.project = project
            for rule in self.rules:
                if isinstance(rule, ProjectRule):
                    continue
                if not rule.applies_to(ctx):
                    continue
                for f in rule.run(ctx):
                    (suppressed if sup.covers(f) else findings).append(f)

        # phase 3: whole-program rules, suppressions applied per file
        for rule in self.rules:
            if not isinstance(rule, ProjectRule):
                continue
            for f in rule.run_project(project):
                sup = sup_by_rel.get(f.path)
                (suppressed if sup is not None and sup.covers(f)
                 else findings).append(f)
        findings.sort()
        suppressed.sort()
        return LintResult(findings=findings, suppressed=suppressed,
                          files=files)
