"""The FZModules contract rules (FZL001 - FZL012, FZL019, FZL020).

Each rule machine-checks one convention the framework's composability
story depends on.  The checks are deliberately heuristic — AST-local,
no data-flow solver — tuned so that every in-tree violation they report
is either a genuine bug or worth an explicit, documented suppression
comment.  See ``docs/STATIC_ANALYSIS.md`` for the contract behind each
rule and why it matters for byte-identical sharding.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import (LintContext, Rule, assigned_names, attribute_chain,
                     functions_of, node_root_name, register_rule)
from .findings import Finding

#: container-mutating method names (lists/dicts/sets/arrays)
_MUTATORS = frozenset({
    "append", "add", "update", "pop", "popitem", "clear", "extend",
    "insert", "remove", "discard", "setdefault", "sort", "reverse",
    "fill", "put", "resize", "setflags", "setfield", "byteswap",
})

#: broad exception type names for FZL005
_BROAD = frozenset({"Exception", "BaseException"})


def _stored_targets(node: ast.stmt) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


@register_rule
class KernelPurity(Rule):
    """FZL001: kernels must not write module or global state."""

    id = "FZL001"
    title = "kernel purity"
    contract = (
        "Functions under kernels/ are pure value transforms: the sharded "
        "engine calls them concurrently from thread workers and replays "
        "them in any order, so a kernel that writes a module-level table, "
        "an imported module's attribute, or declares `global` breaks both "
        "thread-safety and shard determinism.")

    def applies_to(self, ctx: LintContext) -> bool:
        """Kernel modules only (``kernels/*``, excluding ``__init__``)."""
        return ctx.in_dir("kernels") and ctx.filename != "__init__.py"

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag globals, stores, and mutator calls on shared state."""
        shared = ctx.module_level_names | ctx.imported_modules
        for fn in functions_of(ctx.tree):
            local = assigned_names(fn)
            for node in ast.walk(fn):
                if isinstance(node, ast.Global):
                    yield ctx.finding(
                        self, node,
                        f"kernel {fn.name}() declares "
                        f"global {', '.join(node.names)}; kernels must be "
                        "pure (pass state through arguments)")
                    continue
                for target in _stored_targets(node):
                    if not isinstance(target, (ast.Subscript, ast.Attribute)):
                        continue
                    root = node_root_name(target)
                    if root in shared and root not in local:
                        yield ctx.finding(
                            self, node,
                            f"kernel {fn.name}() writes module-level state "
                            f"{root!r}; kernels must be pure")
                # a mutator *call* only taints module-level variables;
                # np.add(...) calls a function of the module, it does not
                # mutate the module object itself
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _MUTATORS):
                    root = node_root_name(node.func.value)
                    if root in ctx.module_level_names and root not in local:
                        yield ctx.finding(
                            self, node,
                            f"kernel {fn.name}() mutates module-level state "
                            f"{root!r} via .{node.func.attr}(); kernels "
                            "must be pure")


@register_rule
class OutContract(Rule):
    """FZL002: functions accepting ``out=`` must use and return it."""

    id = "FZL002"
    title = "out= buffer contract"
    contract = (
        "A function whose signature accepts `out=None` promises the "
        "pooled-buffer protocol: when the caller supplies a buffer the "
        "function writes the result into it and returns it.  Ignoring "
        "`out` (or returning a silently allocated fresh array instead) "
        "makes the caller's pool accounting wrong and hides allocations "
        "on the hot path.")

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag ``out=``-accepting functions that ignore or drop it."""
        for fn in functions_of(ctx.tree):
            if not self._has_out_param(fn):
                continue
            used = any(isinstance(n, ast.Name) and n.id == "out"
                       and isinstance(n.ctx, ast.Load)
                       for n in ast.walk(fn))
            if not used:
                yield ctx.finding(
                    self, fn,
                    f"{fn.name}() accepts out= but never reads it; either "
                    "honour the buffer or drop the parameter")
                continue
            aliases = self._aliases_of_out(fn)
            returns = [n for n in ast.walk(fn) if isinstance(n, ast.Return)
                       and n.value is not None]
            if returns and not any(self._mentions(r.value, aliases)
                                   for r in returns):
                yield ctx.finding(
                    self, fn,
                    f"{fn.name}() accepts out= but no return path returns "
                    "it (or a view of it); callers cannot rely on the "
                    "buffer being filled")

    @staticmethod
    def _has_out_param(fn: ast.FunctionDef) -> bool:
        args = fn.args
        pools = ((args.args, args.defaults), (args.kwonlyargs,
                                              args.kw_defaults))
        for params, defaults in pools:
            pad = len(params) - len(defaults)
            for i, a in enumerate(params):
                if a.arg != "out":
                    continue
                d = defaults[i - pad] if i >= pad else None
                if isinstance(d, ast.Constant) and d.value is None:
                    return True
        return False

    @staticmethod
    def _aliases_of_out(fn: ast.FunctionDef) -> set[str]:
        def roots(expr: ast.expr) -> set[str | None]:
            # conditional values alias whatever either branch aliases
            if isinstance(expr, ast.IfExp):
                return roots(expr.body) | roots(expr.orelse)
            if isinstance(expr, ast.BoolOp):
                return {r for v in expr.values for r in roots(v)}
            return {node_root_name(expr)}

        aliases = {"out"}
        for _ in range(3):  # chase alias-of-alias chains a few levels
            grew = False
            for node in ast.walk(fn):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and roots(node.value) & aliases
                        and node.targets[0].id not in aliases):
                    aliases.add(node.targets[0].id)
                    grew = True
            if not grew:
                break
        return aliases

    @staticmethod
    def _mentions(expr: ast.expr, names: set[str]) -> bool:
        return any(isinstance(n, ast.Name) and n.id in names
                   for n in ast.walk(expr))


@register_rule
class PlanCacheSafety(Rule):
    """FZL003: plan-cache values are shared and must stay read-only."""

    id = "FZL003"
    title = "plan-cache safety"
    contract = (
        "Objects returned by PlanCache.get_or_build() are shared by every "
        "caller in the process; mutating one (item assignment, in-place "
        "ops, numpy out= aliasing, or re-enabling writes via "
        "setflags(write=True)) silently corrupts every other pipeline "
        "holding the same plan.")

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag mutations of values obtained from ``get_or_build``."""
        for fn in functions_of(ctx.tree):
            tainted = {
                node.targets[0].id
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "get_or_build"
            }
            if not tainted:
                continue
            for node in ast.walk(fn):
                for target in _stored_targets(node):
                    if (isinstance(target, (ast.Subscript, ast.Attribute))
                            and node_root_name(target) in tainted):
                        yield ctx.finding(
                            self, node,
                            f"mutation of cached plan "
                            f"{node_root_name(target)!r}; values from "
                            "get_or_build() are shared and read-only")
                if not isinstance(node, ast.Call):
                    continue
                if (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "setflags"
                        and node_root_name(node.func.value) in tainted
                        and self._enables_write(node)):
                    yield ctx.finding(
                        self, node,
                        f"setflags(write=True) on cached plan "
                        f"{node_root_name(node.func.value)!r}; cached "
                        "arrays must stay read-only")
                for kw in node.keywords:
                    if (kw.arg == "out" and isinstance(kw.value, ast.Name)
                            and kw.value.id in tainted):
                        yield ctx.finding(
                            self, node,
                            f"cached plan {kw.value.id!r} used as an out= "
                            "target; copy it before writing")

    @staticmethod
    def _enables_write(call: ast.Call) -> bool:
        for kw in call.keywords:
            if kw.arg == "write":
                return not (isinstance(kw.value, ast.Constant)
                            and kw.value.value is False)
        if call.args:
            first = call.args[0]
            return not (isinstance(first, ast.Constant)
                        and first.value is False)
        return False


@register_rule
class Determinism(Rule):
    """FZL004: serialization paths must be byte-deterministic."""

    id = "FZL004"
    title = "shard determinism"
    contract = (
        "The multi-shard container is specified to be byte-identical for "
        "any worker count, which is what makes compressed artifacts "
        "cacheable and diffable.  Wall-clock reads, global RNG draws and "
        "set-iteration order are the classic ways nondeterminism leaks "
        "into packed bytes, so they are banned in parallel/, core/header "
        "and container packing code.")

    def applies_to(self, ctx: LintContext) -> bool:
        """Serialization paths: ``parallel/*`` plus header/archive."""
        return (ctx.in_dir("parallel")
                or ctx.filename in ("header.py", "archive.py"))

    _BANNED_CHAINS: dict[tuple[str, ...], str] = {
        ("time", "time"): ("wall-clock read; use perf_counter for "
                           "durations or take timestamps as arguments"),
        ("os", "urandom"): "nondeterministic bytes",
        ("uuid", "uuid1"): "nondeterministic id",
        ("uuid", "uuid4"): "nondeterministic id",
    }

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag wall-clock, unseeded randomness, and set iteration."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                chain = attribute_chain(node.func)
                if not chain:
                    continue
                key = tuple(chain)
                if key in self._BANNED_CHAINS:
                    yield ctx.finding(
                        self, node,
                        f"{'.'.join(chain)}() in a serialization path: "
                        f"{self._BANNED_CHAINS[key]}")
                elif chain[0] == "random" and len(chain) > 1:
                    yield ctx.finding(
                        self, node,
                        f"global-RNG call {'.'.join(chain)}(); use an "
                        "explicitly seeded Generator passed in by the "
                        "caller")
                elif (len(chain) >= 3 and chain[0] in ("np", "numpy")
                        and chain[1] == "random"):
                    yield ctx.finding(
                        self, node,
                        f"{'.'.join(chain)}() draws from process-global "
                        "RNG state; use a seeded np.random.Generator")
                elif chain[0] == "secrets":
                    yield ctx.finding(
                        self, node,
                        f"{'.'.join(chain)}() is nondeterministic; keep "
                        "its output away from serialized bytes")
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if isinstance(it, ast.Set) or (
                        isinstance(it, ast.Call)
                        and isinstance(it.func, ast.Name)
                        and it.func.id in ("set", "frozenset")):
                    yield ctx.finding(
                        self, it,
                        "iteration over a set in a serialization path has "
                        "unstable order; sort it first")


@register_rule
class SwallowedExceptions(Rule):
    """FZL005: broad excepts must re-raise or record the error."""

    id = "FZL005"
    title = "swallowed exceptions"
    contract = (
        "A bare/broad `except` that neither re-raises nor records the "
        "error turns worker crashes, corrupt containers and programming "
        "bugs into silent wrong answers — the exact opposite of the "
        "fail-loudly container design (every section is CRC-checked so "
        "corruption surfaces *before* a codec runs).")

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag broad handlers that neither re-raise nor log."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles(node):
                continue
            caught = ("bare except" if node.type is None else
                      f"except {ast.unparse(node.type)}")
            yield ctx.finding(
                self, node,
                f"{caught} swallows the error; narrow the exception "
                "types, re-raise with context, or log the failure")

    @staticmethod
    def _is_broad(t: ast.expr | None) -> bool:
        if t is None:
            return True
        names = [t.id] if isinstance(t, ast.Name) else [
            e.id for e in getattr(t, "elts", []) if isinstance(e, ast.Name)]
        return any(n in _BROAD for n in names)

    @staticmethod
    def _handles(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                name = (node.func.attr if isinstance(node.func, ast.Attribute)
                        else node.func.id if isinstance(node.func, ast.Name)
                        else "")
                lowered = name.lower()
                if any(tag in lowered for tag in
                       ("log", "warn", "error", "exception", "fail",
                        "print", "record")):
                    return True
        return False


@register_rule
class DtypeDiscipline(Rule):
    """FZL006: hot kernels must not upcast to float64 implicitly."""

    id = "FZL006"
    title = "dtype discipline"
    contract = (
        "float64 intermediates on the hot path double memory traffic and "
        "quietly change rounding between code paths (a shard encoded via "
        "a float64 temporary and one encoded in float32 produce different "
        "bytes).  Reductions must pin their accumulator dtype and dtype "
        "conversions must name an explicit numpy type, not the platform "
        "`float`/`int` builtins.")

    _REDUCTIONS = frozenset({"mean", "average", "var", "std"})

    def applies_to(self, ctx: LintContext) -> bool:
        """Kernel modules only (``kernels/*``, excluding ``__init__``)."""
        return ctx.in_dir("kernels") and ctx.filename != "__init__.py"

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag dtype-less reductions and builtin float/int dtypes."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = (node.func.attr if isinstance(node.func, ast.Attribute)
                    else node.func.id if isinstance(node.func, ast.Name)
                    else "")
            kwargs = {kw.arg for kw in node.keywords}
            if (name in self._REDUCTIONS
                    and not kwargs & {"dtype", "out"}):
                yield ctx.finding(
                    self, node,
                    f"{name}() without an explicit dtype= upcasts integer "
                    "input to float64; pin the accumulator dtype")
            if name in ("astype", "asarray", "array", "dtype", "empty",
                        "zeros", "ones", "full"):
                for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                        if kw.arg == "dtype"]:
                    if (isinstance(arg, ast.Name)
                            and arg.id in ("float", "int")):
                        yield ctx.finding(
                            self, arg,
                            f"{name}({arg.id}) relies on the platform "
                            f"default width of builtin {arg.id!r}; name "
                            "an explicit numpy dtype (np.float64, "
                            "np.int64, ...)")


@register_rule
class RegistryContract(Rule):
    """FZL007: registered modules must satisfy their stage protocol."""

    id = "FZL007"
    title = "registry contract"
    contract = (
        "`@registry.module` wires a class into header-driven "
        "decompression: the container stores (stage, name) pairs and the "
        "decoder calls the stage protocol blind.  A registered module "
        "without a `name`, without a resolvable stage, or missing a "
        "protocol method fails at decode time on someone else's data "
        "instead of at registration time.")

    #: stage ABC -> methods (and their minimum non-self arity) the
    #: decompression path calls through the protocol
    _PROTOCOLS: dict[str, dict[str, int]] = {
        "PreprocessModule": {"forward": 2},
        "PredictorModule": {"encode": 3, "decode": 5},
        "StatisticsModule": {"collect": 2},
        "EncoderModule": {"encode": 3, "decode": 3},
        "SecondaryModule": {"encode": 1, "decode": 1},
    }

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag registered module classes violating their protocol."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(self._is_module_decorator(d)
                       for d in node.decorator_list):
                continue
            body_names = {s.name for s in node.body
                          if isinstance(s, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))}
            assigns = {t.id for s in node.body for t in _stored_targets(s)
                       if isinstance(t, ast.Name)}
            if "name" not in assigns:
                yield ctx.finding(
                    self, node,
                    f"registered module {node.name} does not declare a "
                    "`name` (the registry key stored in container "
                    "headers)")
            bases = {b.id if isinstance(b, ast.Name) else b.attr
                     for b in node.bases
                     if isinstance(b, (ast.Name, ast.Attribute))}
            known = bases & set(self._PROTOCOLS)
            if not known and "stage" not in assigns:
                yield ctx.finding(
                    self, node,
                    f"registered module {node.name} declares no stage: "
                    "subclass a stage ABC (PredictorModule, ...) or set "
                    "`stage` explicitly")
                continue
            for base in sorted(known):
                for meth, arity in self._PROTOCOLS[base].items():
                    if meth not in body_names:
                        if len(known) == 1 and not (bases - known):
                            yield ctx.finding(
                                self, node,
                                f"registered module {node.name} is missing "
                                f"{base}.{meth}(); the decoder calls it "
                                "through the stage protocol")
                        continue
                    fn = next(s for s in node.body
                              if isinstance(s, (ast.FunctionDef,
                                                ast.AsyncFunctionDef))
                              and s.name == meth)
                    if fn.args.vararg is not None:
                        continue
                    positional = len(fn.args.posonlyargs) + len(fn.args.args)
                    if positional - 1 < arity:  # minus self
                        yield ctx.finding(
                            self, fn,
                            f"{node.name}.{meth}() takes "
                            f"{positional - 1} positional args but the "
                            f"{base} protocol passes {arity}")

    @staticmethod
    def _is_module_decorator(dec: ast.expr) -> bool:
        if isinstance(dec, ast.Call):
            dec = dec.func
        return isinstance(dec, ast.Attribute) and dec.attr == "module"


@register_rule
class PoolHygiene(Rule):
    """FZL008: pooled buffers must be released on every path."""

    id = "FZL008"
    title = "pool hygiene"
    contract = (
        "BufferPool scratch that is acquired but never released (or "
        "returned to the caller) leaks pool accounting: live bytes climb "
        "monotonically, the byte budget evicts hot buffers, and the "
        "accounting-neutral-reuse invariant the runtime tests check is "
        "violated.  Every acquire() needs a matching release(), return, "
        "or ownership hand-off on all paths (a finally: block is the "
        "idiom).")

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag pool acquisitions with no release, return, or escape."""
        for fn in functions_of(ctx.tree):
            acquired: dict[str, ast.AST] = {}
            for node in ast.walk(fn):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Attribute)
                        and node.value.func.attr == "acquire"):
                    root = node_root_name(node.value.func.value) or ""
                    if "pool" in root.lower():
                        acquired[node.targets[0].id] = node
            for name, site in acquired.items():
                if not self._escapes(fn, name):
                    yield ctx.finding(
                        self, site,
                        f"pooled buffer {name!r} is acquired but never "
                        "released, returned, or handed off; wrap the use "
                        "in try/finally with pool.release()")

    @staticmethod
    def _escapes(fn: ast.FunctionDef, name: str) -> bool:
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "release"
                    and any(isinstance(a, ast.Name) and a.id == name
                            for a in node.args)):
                return True
            if (isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom))
                    and node.value is not None
                    and any(isinstance(n, ast.Name) and n.id == name
                            for n in ast.walk(node.value))):
                return True
            for target in _stored_targets(node):
                if (isinstance(target, ast.Attribute)
                        and isinstance(node, ast.Assign)
                        and any(isinstance(n, ast.Name) and n.id == name
                                for n in ast.walk(node.value))):
                    return True
        return False


@register_rule
class TelemetryHygiene(Rule):
    """FZL009: spans via ``with``; telemetry names dotted lowercase."""

    id = "FZL009"
    title = "telemetry hygiene"
    contract = (
        "Telemetry must never change behaviour or leak.  A span() that is "
        "not the context expression of a `with` statement can miss its "
        "__exit__ on an exception path, leaving the thread-local span "
        "stack corrupted so every later span in that thread reports the "
        "wrong parent; manual begin/end pairs have the same failure mode "
        "by construction.  Metric and span names are a public monitoring "
        "interface: they must match ^[a-z0-9_.]+$ so the Prometheus "
        "exporter's name mangling is collision-free and dashboards never "
        "break on a rename-by-typo.")

    #: call names that read as a manual span lifecycle
    _MANUAL = frozenset({"begin_span", "start_span", "end_span",
                         "finish_span", "push_span", "pop_span"})
    #: factories whose first literal argument is a telemetry name
    _NAMED = frozenset({"span", "counter", "gauge", "histogram"})

    @staticmethod
    def _call_name(node: ast.Call) -> str | None:
        if isinstance(node.func, ast.Name):
            return node.func.id
        if isinstance(node.func, ast.Attribute):
            return node.func.attr
        return None

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag non-`with` span calls, manual lifecycles, bad names."""
        import re
        name_re = re.compile(r"^[a-z0-9_.]+$")
        with_exprs: set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_exprs.add(id(item.context_expr))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._call_name(node)
            if name is None:
                continue
            if name in self._MANUAL:
                yield ctx.finding(
                    self, node,
                    f"manual span lifecycle call {name!r}; use the "
                    "context-manager form `with span(...):` so the span "
                    "closes on every exit path")
                continue
            if name == "span" and id(node) not in with_exprs:
                yield ctx.finding(
                    self, node,
                    "span() must be the context expression of a `with` "
                    "statement; a detached span can leak past exceptions "
                    "and corrupt the thread's span stack")
            if (name in self._NAMED and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and not name_re.match(node.args[0].value)):
                yield ctx.finding(
                    self, node,
                    f"telemetry name {node.args[0].value!r} does not match "
                    "^[a-z0-9_.]+$; dotted lowercase names keep the "
                    "Prometheus name mangling collision-free")


@register_rule
class StreamingHygiene(Rule):
    """FZL010: streaming code must never materialise a full field."""

    id = "FZL010"
    title = "streaming-path hygiene"
    contract = (
        "repro.streaming exists to compress fields larger than RAM at a "
        "bounded memory ceiling: peak RSS is O(window x shard), never "
        "O(field).  One careless np.asarray()/.copy() on a source, or a "
        "direct file slurp, silently materialises the whole field and "
        "voids the ceiling while every test on small inputs still "
        "passes.  Inside streaming/, whole-array conversion/copy calls "
        "and unbounded reads are banned, and only source.py (the "
        "FieldSource implementations) may map or read field files — "
        "every other module must take slab handles from a FieldSource.")

    #: numpy calls that produce a fresh array the size of their input
    _MATERIALISERS = frozenset({
        "asarray", "array", "ascontiguousarray", "asfortranarray",
        "copy", "fromfile", "loadtxt", "genfromtxt",
    })
    #: file-to-array entry points reserved to source.py
    _SOURCE_ONLY = frozenset({"memmap", "fromfile", "load"})

    def applies_to(self, ctx: LintContext) -> bool:
        """Streaming subsystem only (``streaming/*``)."""
        return ctx.in_dir("streaming")

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag materialising calls, ``.copy()``, and unbounded reads."""
        in_source = ctx.filename == "source.py"
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attribute_chain(node.func)
            if chain and chain[0] in ("np", "numpy"):
                tail = chain[-1]
                if tail in self._SOURCE_ONLY and not in_source:
                    yield ctx.finding(
                        self, node,
                        f"np.{tail}() outside streaming/source.py; slab "
                        "handles must come from a FieldSource (only the "
                        "source module maps or reads field files)")
                elif tail in self._MATERIALISERS:
                    yield ctx.finding(
                        self, node,
                        f"np.{tail}() materialises a full array on the "
                        "streaming path; consume slab views from "
                        "FieldSource.slab() and copy at most one slab "
                        "into a pooled buffer")
                continue
            if isinstance(node.func, ast.Attribute):
                if node.func.attr == "copy" and not node.args:
                    yield ctx.finding(
                        self, node,
                        ".copy() on the streaming path duplicates its "
                        "whole receiver; slabs are copied once, into "
                        "pooled buffers, by the prefetcher only")
                elif node.func.attr == "read" and not node.args:
                    yield ctx.finding(
                        self, node,
                        "argless .read() slurps an entire stream into "
                        "memory; read bounded chunks (read(n)) or use "
                        "os.pread with explicit lengths")


@register_rule
class FacadeDiscipline(Rule):
    """FZL011: engine entrypoints are called through the facade only."""

    id = "FZL011"
    title = "facade discipline"
    contract = (
        "repro.api is the single front door: repro.compress / "
        "repro.decompress pick the engine (single / sharded / streaming) "
        "from the argument shape and thread the threads=, telemetry and "
        "out= contracts through uniformly.  Library code that calls "
        "compress_sharded / decompress_sharded / compress_stream / "
        "decompress_stream directly forks the calling convention the "
        "facade exists to unify — keyword drift between engines is "
        "exactly the bug class the redesign removed.  Only the facade "
        "itself, the Pipeline dispatcher (core/pipeline.py) and the "
        "engines' own packages (parallel/, streaming/) may name the raw "
        "entrypoints; everything else, the CLI included, goes through "
        "repro.api.")

    #: the per-engine entrypoints the facade wraps
    _ENTRYPOINTS = frozenset({
        "compress_sharded", "decompress_sharded",
        "compress_stream", "decompress_stream",
    })

    def applies_to(self, ctx: LintContext) -> bool:
        """Everywhere except the facade and the engines themselves."""
        if ctx.in_dir("parallel") or ctx.in_dir("streaming"):
            return False
        if ctx.filename == "api.py":
            return False
        return not (ctx.filename == "pipeline.py" and ctx.in_dir("core"))

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag direct calls (plain or attribute-qualified) by name."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            else:
                continue
            if name in self._ENTRYPOINTS:
                yield ctx.finding(
                    self, node,
                    f"direct engine entrypoint {name}() bypasses the "
                    "repro.api facade; call repro.compress()/"
                    "repro.decompress() and select the engine by argument "
                    "shape (workers=, stream=, sources, paths)")


@register_rule
class DecodeOutContract(Rule):
    """FZL012: field-reconstructing decode kernels must accept ``out=``."""

    id = "FZL012"
    title = "decode out= contract"
    contract = (
        "The read side has the same pooled-buffer story as the write "
        "side: the fused decode plans, the sharded workers and the "
        "streaming scatter all hand reconstruction a destination slab "
        "(a shared-memory view, a caller's out= array, a memmap window) "
        "and expect the field written straight into it.  A decode-path "
        "kernel that only returns a freshly allocated field forces every "
        "one of those callers into a full staging copy, hiding a "
        "field-sized allocation on the hot read path.  Any kernels/ "
        "function that reconstructs a field (a decompress*/reconstruct* "
        "returning an ndarray) must therefore accept `out=None`; FZL002 "
        "then checks the buffer is honoured and returned.")

    #: function-name prefixes that reconstruct a field (entropy decoders
    #: named decode* return data-dependent streams and are exempt)
    _NAMES = ("decompress", "reconstruct")

    def applies_to(self, ctx: LintContext) -> bool:
        """Kernel modules only (``kernels/*``, excluding ``__init__``)."""
        return ctx.in_dir("kernels") and ctx.filename != "__init__.py"

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag reconstructing functions whose signature lacks ``out=``."""
        for fn in functions_of(ctx.tree):
            if not fn.name.startswith(self._NAMES):
                continue
            if fn.returns is None or not self._returns_ndarray(fn.returns):
                continue
            if OutContract._has_out_param(fn):
                continue
            yield ctx.finding(
                self, fn,
                f"{fn.name}() reconstructs a field but accepts no out= "
                "parameter; decode-path kernels must be able to write "
                "into caller-supplied buffers (shm slabs, memmap "
                "windows) without a staging copy")

    @staticmethod
    def _returns_ndarray(ann: ast.expr) -> bool:
        return any(isinstance(n, (ast.Name, ast.Attribute))
                   and (n.id if isinstance(n, ast.Name)
                        else n.attr) == "ndarray"
                   for n in ast.walk(ann))


@register_rule
class BandwidthAccounting(Rule):
    """FZL019: kernel/engine-stage spans must account their bytes."""

    id = "FZL019"
    title = "span bandwidth accounting"
    contract = (
        "The trace analyzer (repro.obs.analyze) turns spans into per-"
        "stage bandwidth rows: MB/s per kernel, stage and engine.  That "
        "arithmetic silently reports '-' for any span missing its byte "
        "counts, so a kernel instrumented without them disappears from "
        "the bandwidth table.  Every span "
        "opened with a kernel./engine./stream./shard./stage. name must "
        "therefore record bytes_in= or bytes_out= — either as span() "
        "keywords at open, or via `<var>.set(bytes_...=...)` on the "
        "`as <var>` handle inside the with body (for outputs whose size "
        "is only known after the work runs).")

    #: span-name prefixes that appear in the analyzer's bandwidth table
    #: (stf.task is a scheduler envelope, not a data-moving stage)
    _PREFIXES = ("kernel.", "engine.", "stream.", "shard.", "stage.")
    _BYTES = frozenset({"bytes_in", "bytes_out"})

    @staticmethod
    def _literal_prefix(arg: ast.expr) -> str | None:
        """The leading literal text of a span-name argument.

        Plain string constants return themselves; f-strings (the
        deterministic per-shard lane names, ``f"stream.fetch:{k}"``)
        return their leading constant part.  Computed names (variables,
        attributes such as a plan step's ``span_name``) return None and
        are out of scope — the name owner is responsible there.
        """
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.JoinedStr) and arg.values:
            head = arg.values[0]
            if (isinstance(head, ast.Constant)
                    and isinstance(head.value, str)):
                return head.value
        return None

    def _sets_bytes(self, with_node: ast.With | ast.AsyncWith,
                    var: str) -> bool:
        """True if the body calls ``var.set(bytes_in=... / bytes_out=...)``."""
        for node in ast.walk(with_node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "set"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == var
                    and any(kw.arg in self._BYTES
                            for kw in node.keywords)):
                return True
        return False

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Flag data-stage spans that never record a byte count."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                call = item.context_expr
                if not (isinstance(call, ast.Call)
                        and isinstance(call.func, (ast.Name, ast.Attribute))
                        and (call.func.id if isinstance(call.func, ast.Name)
                             else call.func.attr) == "span"
                        and call.args):
                    continue
                name = self._literal_prefix(call.args[0])
                if name is None or not name.startswith(self._PREFIXES):
                    continue
                if any(kw.arg in self._BYTES for kw in call.keywords):
                    continue
                var = item.optional_vars
                if (isinstance(var, ast.Name)
                        and self._sets_bytes(node, var.id)):
                    continue
                yield ctx.finding(
                    self, call,
                    f"span {name!r} records no bytes_in=/bytes_out=; "
                    "data-stage spans feed the bandwidth table in "
                    "`fzmod analyze` — pass the counts as span() "
                    "keywords or set them on the `as` handle "
                    "(`sp.set(bytes_out=...)`) before the span closes")


@register_rule
class SlabTaskIsolation(Rule):
    """FZL020: slab-pool tasks stay isolated; merges stay ordered."""

    id = "FZL020"
    title = "slab task isolation"
    contract = (
        "The compiled hot paths fan work over the shared SlabPool "
        "(repro.runtime.threads): one callable per contiguous axis-0 "
        "slab, running concurrently on pool threads.  Byte-identity "
        "with threads=1 only holds if every scheduled task touches "
        "nothing but its own slab: a task that declares global/"
        "nonlocal, writes a module-level table or mutates an imported "
        "module races other slabs and makes output depend on thread "
        "timing.  Merges are the coordinator's job and must happen in "
        "submission (slab) order — run_slabs/run_ordered already return "
        "ordered results, so iterating completion order "
        "(as_completed) in a slab-scheduling function reintroduces "
        "nondeterminism the pool was designed out of.")

    #: the slab scheduling entrypoints whose first argument is a task
    _SCHEDULERS = frozenset({"run_slabs", "run_ordered",
                             "_run_slab_tasks"})

    @classmethod
    def _schedule_call(cls, node: ast.AST) -> ast.Call | None:
        if not isinstance(node, ast.Call):
            return None
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else (
            fn.attr if isinstance(fn, ast.Attribute) else None)
        return node if name in cls._SCHEDULERS else None

    def run(self, ctx: LintContext) -> Iterator[Finding]:
        """Check every callable handed to a slab scheduling API."""
        schedules = [call for node in ast.walk(ctx.tree)
                     if (call := self._schedule_call(node)) is not None]
        if not schedules:
            return
        shared = ctx.module_level_names | ctx.imported_modules
        defs: dict[str, ast.FunctionDef] = {}
        for fn in functions_of(ctx.tree):
            defs.setdefault(fn.name, fn)
        seen: set[int] = set()
        for call in schedules:
            task = call.args[0] if call.args else None
            if isinstance(task, ast.Lambda):
                yield from self._check_lambda(ctx, task, shared)
            elif (isinstance(task, ast.Name) and task.id in defs
                    and id(defs[task.id]) not in seen):
                seen.add(id(defs[task.id]))
                yield from self._check_task(ctx, defs[task.id], shared)
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Call)
                    and node_root_name(node.func) == "as_completed"):
                yield ctx.finding(
                    self, node,
                    "as_completed() iterates slab results in completion "
                    "order; slab merges must be deterministic — use the "
                    "ordered results run_slabs()/run_ordered() return")

    def _check_task(self, ctx: LintContext, fn: ast.FunctionDef,
                    shared: set[str]) -> Iterator[Finding]:
        local = assigned_names(fn)
        for node in ast.walk(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = ("global" if isinstance(node, ast.Global)
                        else "nonlocal")
                yield ctx.finding(
                    self, node,
                    f"slab task {fn.name}() declares {kind} "
                    f"{', '.join(node.names)}; pool tasks run "
                    "concurrently and must not rebind shared state — "
                    "return the value and merge in the coordinator")
                continue
            for target in _stored_targets(node):
                if not isinstance(target, (ast.Subscript, ast.Attribute)):
                    continue
                root = node_root_name(target)
                if root in shared and root not in local:
                    yield ctx.finding(
                        self, node,
                        f"slab task {fn.name}() writes module-level "
                        f"state {root!r} from a pool thread; tasks may "
                        "only touch their own slab (disjoint views and "
                        "per-thread arenas)")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS):
                root = node_root_name(node.func.value)
                if root in ctx.module_level_names and root not in local:
                    yield ctx.finding(
                        self, node,
                        f"slab task {fn.name}() mutates module-level "
                        f"state {root!r} via .{node.func.attr}() from a "
                        "pool thread; merge results in the coordinator "
                        "instead")

    def _check_lambda(self, ctx: LintContext, task: ast.Lambda,
                      shared: set[str]) -> Iterator[Finding]:
        local = {a.arg for a in (task.args.posonlyargs + task.args.args
                                 + task.args.kwonlyargs)}
        for node in ast.walk(task):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS):
                root = node_root_name(node.func.value)
                if root in ctx.module_level_names and root not in local:
                    yield ctx.finding(
                        self, node,
                        "slab task lambda mutates module-level state "
                        f"{root!r} via .{node.func.attr}() from a pool "
                        "thread; merge results in the coordinator "
                        "instead")
