"""Whole-program model: modules, classes, attributes, and the call graph.

The per-file rules in :mod:`repro.qa.checks` see one ``ast.Module`` at a
time; the REP1xx analyzers need facts that only exist *between* files —
which class a parameter annotation resolves to, which attributes a class
mutates anywhere in the package, which function a call lands in.  This
module builds that picture in two phases:

1. **Collect** — parse every file into a :class:`ModuleInfo`: import
   aliases, class definitions with their ``self.*`` attribute write
   sites, and raw function nodes.  Module names are recovered from the
   filesystem by climbing ``__init__.py`` parents, so the same builder
   works on ``src/repro`` and on synthetic fixture packages in tmp dirs.
2. **Resolve** — with every module known, resolve annotations and
   constructor calls to qualified class names, canonicalize re-exports
   (``repro.qa.ScanResult`` → ``repro.qa.engine.ScanResult``), and scan
   each function body with a small abstract interpreter that tracks
   local bindings (``store = system.trace_server.store`` keeps the
   *path*; ``if isinstance(store, SegmentedTraceStore)`` narrows the class)
   to produce resolved :class:`CallSite` and :class:`Access` records.

Everything here is best-effort static inference: unresolved names stay
``None`` and analyzers must treat them as "unknown", never as proof.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Iterable, Iterator, Sequence

from repro.qa.rules import dotted_name

#: Methods whose *name* marks construction/reconstruction: attribute
#: writes inside them describe the init-time schema, not runtime drift.
INIT_LIKE_METHODS = frozenset({"__init__", "__post_init__", "__new__", "__setstate__"})

#: Container methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "extend",
        "insert",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "popleft",
        "appendleft",
        "remove",
        "discard",
        "clear",
        "sort",
    }
)

#: Module-level helpers that mutate their first argument in place.
_ARG_MUTATORS = frozenset({"heapq.heappush", "heapq.heappop", "heapq.heapify"})

#: Synchronous (thread) locks: awaiting while holding one stalls the
#: whole event loop behind a lock other threads contend on.
SYNC_LOCK_CLASSES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)

#: Function-name prefixes (after stripping leading underscores) that
#: identify module-level snapshot/restore halves of a checkpoint pair.
SNAPSHOT_PREFIX = "snapshot"
RESTORE_PREFIX = "restore"

_RNG_NAME_HINTS = ("rng", "random_state")

#: Qualified name of the stdlib RNG class.
RANDOM_CLASS = "random.Random"


def is_rng_name(name: str) -> bool:
    """Heuristic: identifier names an RNG stream (``rng``, ``_rng``, ``latency_rng``)."""
    bare = name.lstrip("_").lower()
    return any(bare == hint or bare.endswith("_" + hint) for hint in _RNG_NAME_HINTS)


@dataclass
class AttrInfo:
    """One ``self.*`` attribute of a class, aggregated across methods."""

    name: str
    #: Line of the first sighting (preferring ``__init__``) — findings anchor here.
    first_line: int = 0
    #: method name -> line of an init-like assignment.
    init_writes: dict[str, int] = field(default_factory=dict)
    #: method name -> line of a non-init assignment (runtime drift).
    other_writes: dict[str, int] = field(default_factory=dict)
    #: method name -> line of an in-place mutation (append/subscript/heappush).
    mutations: dict[str, int] = field(default_factory=dict)
    #: Unresolved constructor / annotation expressions (resolved in phase 2).
    ctor_names: list[str] = field(default_factory=list)
    annotation: ast.expr | None = None
    #: Resolved class qualnames this attribute may hold (phase 2).
    class_hints: tuple[str, ...] = ()
    #: ``(line, function qualname)`` sites where *other* code wrote this attr.
    foreign_writes: list[tuple[int, str]] = field(default_factory=list)

    @property
    def mutable(self) -> bool:
        """True when the attribute changes after construction."""
        return bool(self.other_writes or self.mutations or self.foreign_writes)

    def evidence(self) -> str:
        """Short human description of why the attribute counts as mutable."""
        if self.other_writes:
            method, line = next(iter(sorted(self.other_writes.items(), key=lambda kv: kv[1])))
            return f"assigned in {method}() at line {line}"
        if self.mutations:
            method, line = next(iter(sorted(self.mutations.items(), key=lambda kv: kv[1])))
            return f"mutated in {method}() at line {line}"
        if self.foreign_writes:
            line, func = self.foreign_writes[0]
            return f"written by {func}() at line {line}"
        return "assigned only at construction"


@dataclass
class ClassInfo:
    """A class definition plus its aggregated attribute table."""

    name: str
    qualname: str
    module: str
    path: Path
    node: ast.ClassDef
    base_exprs: list[ast.expr] = field(default_factory=list)
    bases: tuple[str, ...] = ()
    attrs: dict[str, AttrInfo] = field(default_factory=dict)
    methods: dict[str, "FunctionInfo"] = field(default_factory=dict)
    has_slots: bool = False

    def attr(self, name: str, line: int) -> AttrInfo:
        info = self.attrs.get(name)
        if info is None:
            info = AttrInfo(name=name, first_line=line)
            self.attrs[name] = info
        return info

    def mutable_attrs(self) -> list[AttrInfo]:
        """Attributes that change after construction, sorted by name."""
        return [a for _, a in sorted(self.attrs.items()) if a.mutable]


@dataclass
class ArgInfo:
    """Pre-classified call argument (computed with local bindings in scope)."""

    text: str
    #: None (not RNG-like) | "named" | "unseeded" | "global" | "opaque".
    rng: str | None = None
    #: Description of an unordered collection source, when present.
    unordered: str | None = None
    node: ast.expr | None = None


@dataclass
class CallSite:
    """One resolved call inside a function body."""

    target: str | None
    line: int
    col: int
    awaited: bool = False
    #: The call is lexically inside an asyncio.* scheduling call
    #: (create_task/gather/...), so "not awaited" is fine.
    async_wrapped: bool = False
    #: The call is a bare expression statement: its result is thrown away.
    discarded: bool = False
    args: tuple[ArgInfo, ...] = ()
    keywords: dict[str, ArgInfo] = field(default_factory=dict)


@dataclass(frozen=True)
class Access:
    """A read/write of an attribute path rooted at ``self`` or a parameter.

    ``chain`` is the attribute chain below the root; for ``kind ==
    "methodcall"`` the last element is the method name.  ``key`` is set
    for ``kind == "key_read"`` (``param["k"]`` / ``param.get("k")``).

    When the path went through a local alias whose class the scanner
    knew (constructor, annotation, or isinstance narrowing),
    ``base_classes`` holds that knowledge and ``base_depth`` says how
    many chain elements it applies *after* — class resolution should
    restart from ``base_classes`` at ``chain[base_depth:]``.
    """

    root: str
    chain: tuple[str, ...]
    line: int
    kind: str  # "read" | "write" | "mutate" | "methodcall" | "key_read"
    key: str | None = None
    base_classes: tuple[str, ...] = ()
    base_depth: int = 0


@dataclass
class FunctionInfo:
    """A function or method with its resolved call/access records."""

    name: str
    qualname: str
    module: str
    path: Path
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_qual: str | None = None
    is_async: bool = False
    #: param name -> resolved class qualnames from its annotation.
    param_classes: dict[str, tuple[str, ...]] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)
    accesses: list[Access] = field(default_factory=list)
    #: ``(line, lock description)`` for each await under a sync lock.
    sync_lock_awaits: list[tuple[int, str]] = field(default_factory=list)
    #: Final local bindings: name -> (root, chain) path aliases.
    local_paths: dict[str, tuple[str, tuple[str, ...]]] = field(default_factory=dict)
    #: Final local bindings: name -> class qualnames.
    local_classes: dict[str, tuple[str, ...]] = field(default_factory=dict)

    @property
    def stripped_name(self) -> str:
        return self.name.lstrip("_")

    def param_names(self) -> list[str]:
        a = self.node.args
        return [p.arg for p in [*a.posonlyargs, *a.args, *a.kwonlyargs]]


@dataclass
class ModuleInfo:
    """One parsed module plus its name bindings."""

    name: str
    path: Path
    tree: ast.Module
    package: str = ""
    #: local alias -> qualified target ("os", "repro.simulator.peer.Peer", ...)
    imports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level functions only (methods live on ClassInfo).
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: module-level ``Alias = A | B`` unions: name -> member expressions.
    aliases: dict[str, list[ast.expr]] = field(default_factory=dict)


def module_name_for(path: Path) -> str:
    """Recover the dotted module name by climbing ``__init__.py`` parents."""
    path = path.resolve()
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


class ProgramGraph:
    """The resolved whole-program model over one set of files."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, files: Iterable[tuple[Path, ast.Module]]) -> "ProgramGraph":
        """Build from pre-parsed ``(path, tree)`` pairs (two-phase)."""
        graph = cls()
        for path, tree in files:
            graph._collect_module(path, tree)
        graph._resolve()
        return graph

    @classmethod
    def build_from_paths(cls, paths: Sequence[Path]) -> "ProgramGraph":
        """Convenience: parse and build from files/directories."""
        from repro.qa.engine import iter_python_files

        parsed: list[tuple[Path, ast.Module]] = []
        for file_path in iter_python_files(list(paths)):
            try:
                tree = ast.parse(file_path.read_text(encoding="utf-8"))
            except SyntaxError:
                continue
            parsed.append((file_path, tree))
        return cls.build(parsed)

    def _collect_module(self, path: Path, tree: ast.Module) -> None:
        name = module_name_for(path)
        if name in self.modules:  # same module reached twice via overlapping paths
            return
        package = name if path.stem == "__init__" else name.rpartition(".")[0]
        module = ModuleInfo(name=name, path=path, tree=tree, package=package)
        self.modules[name] = module
        self._collect_imports(module)
        for stmt in tree.body:
            self._collect_stmt(module, stmt)

    def _collect_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module, node)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = f"{base}.{alias.name}" if base else alias.name

    @staticmethod
    def _import_base(module: ModuleInfo, node: ast.ImportFrom) -> str:
        if node.level == 0:
            return node.module or ""
        parts = module.package.split(".") if module.package else []
        if node.level > 1:
            parts = parts[: len(parts) - (node.level - 1)]
        if node.module:
            parts.append(node.module)
        return ".".join(parts)

    def _collect_stmt(self, module: ModuleInfo, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.ClassDef):
            self._collect_class(module, stmt)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = FunctionInfo(
                name=stmt.name,
                qualname=f"{module.name}.{stmt.name}",
                module=module.name,
                path=module.path,
                node=stmt,
                is_async=isinstance(stmt, ast.AsyncFunctionDef),
            )
            module.functions[stmt.name] = info
            self.functions[info.qualname] = info
        elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if isinstance(target, ast.Name) and isinstance(stmt.value, ast.BinOp):
                members = _union_members(stmt.value)
                if members:
                    module.aliases[target.id] = members
        elif isinstance(stmt, ast.If):
            # TYPE_CHECKING blocks and module-level guards: recurse.
            for sub in [*stmt.body, *stmt.orelse]:
                self._collect_stmt(module, sub)
        elif isinstance(stmt, (ast.Try,)):
            for sub in [*stmt.body, *stmt.orelse, *stmt.finalbody]:
                self._collect_stmt(module, sub)

    def _collect_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        info = ClassInfo(
            name=node.name,
            qualname=qualname,
            module=module.name,
            path=module.path,
            node=node,
            base_exprs=list(node.bases),
        )
        module.classes[node.name] = info
        self.classes[qualname] = info
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                attr = info.attr(stmt.target.id, stmt.lineno)
                attr.annotation = stmt.annotation
                attr.init_writes.setdefault("<class body>", stmt.lineno)
                if stmt.target.id == "__slots__":
                    info.has_slots = True
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        if target.id == "__slots__":
                            info.has_slots = True
                            self._collect_slots(info, stmt.value, stmt.lineno)
                        else:
                            attr = info.attr(target.id, stmt.lineno)
                            attr.init_writes.setdefault("<class body>", stmt.lineno)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = FunctionInfo(
                    name=stmt.name,
                    qualname=f"{qualname}.{stmt.name}",
                    module=module.name,
                    path=module.path,
                    node=stmt,
                    class_qual=qualname,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                )
                info.methods[stmt.name] = fn
                self.functions[fn.qualname] = fn
                self._collect_self_writes(info, fn)

    @staticmethod
    def _collect_slots(info: ClassInfo, value: ast.expr, line: int) -> None:
        if isinstance(value, (ast.Tuple, ast.List)):
            for elt in value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    attr = info.attr(elt.value, elt.lineno)
                    attr.init_writes.setdefault("<slots>", elt.lineno)

    def _collect_self_writes(self, cls_info: ClassInfo, fn: FunctionInfo) -> None:
        """Phase-1 sweep: every ``self.x`` write/mutation inside one method."""
        init_like = fn.name in INIT_LIKE_METHODS or fn.stripped_name.startswith(RESTORE_PREFIX)
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    self._record_write(cls_info, fn, target, node, init_like)
            elif isinstance(node, ast.AugAssign):
                attr_name = _self_attr(node.target)
                if attr_name is not None:
                    attr = cls_info.attr(attr_name, node.lineno)
                    # += reads then writes: construction-time aug counts as init.
                    writes = attr.init_writes if init_like else attr.other_writes
                    writes.setdefault(fn.name, node.lineno)
            elif isinstance(node, ast.Call):
                self._record_call_mutation(cls_info, fn, node, init_like)

    def _record_write(
        self,
        cls_info: ClassInfo,
        fn: FunctionInfo,
        target: ast.expr,
        stmt: ast.Assign | ast.AnnAssign,
        init_like: bool,
    ) -> None:
        attr_name = _self_attr(target)
        if attr_name is not None:
            attr = cls_info.attr(attr_name, target.lineno)
            writes = attr.init_writes if init_like else attr.other_writes
            writes.setdefault(fn.name, target.lineno)
            if isinstance(stmt, ast.AnnAssign) and attr.annotation is None:
                attr.annotation = stmt.annotation
            ctor = _ctor_name(stmt.value)
            if ctor is not None and ctor not in attr.ctor_names:
                attr.ctor_names.append(ctor)
            return
        # self.x[k] = v / self.x.y = v : mutation of self.x
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            attr_name = _self_attr(target.value)
            if attr_name is not None and not init_like:
                cls_info.attr(attr_name, target.lineno).mutations.setdefault(
                    fn.name, target.lineno
                )

    def _record_call_mutation(
        self,
        cls_info: ClassInfo,
        fn: FunctionInfo,
        call: ast.Call,
        init_like: bool,
    ) -> None:
        if init_like:
            return
        if isinstance(call.func, ast.Attribute) and call.func.attr in MUTATOR_METHODS:
            attr_name = _self_attr(call.func.value)
            if attr_name is not None:
                cls_info.attr(attr_name, call.lineno).mutations.setdefault(
                    fn.name, call.lineno
                )
        name = dotted_name(call.func)
        if name in _ARG_MUTATORS and call.args:
            attr_name = _self_attr(call.args[0])
            if attr_name is not None:
                cls_info.attr(attr_name, call.lineno).mutations.setdefault(
                    fn.name, call.lineno
                )

    # -- phase 2: resolution ----------------------------------------------

    def _resolve(self) -> None:
        for module in self.modules.values():
            for cls_info in module.classes.values():
                cls_info.bases = tuple(
                    base
                    for expr in cls_info.base_exprs
                    if (base := self._resolve_expr_name(module, expr)) is not None
                )
                for attr in cls_info.attrs.values():
                    attr.class_hints = self._attr_hints(module, attr)
        for fn in self.functions.values():
            module = self.modules[fn.module]
            fn.param_classes = self._param_classes(module, fn)
        # ``self.x = param`` inherits the parameter's annotated class —
        # the dominant hint source for injected collaborators.
        for cls_info in self.classes.values():
            for fn in cls_info.methods.values():
                self._propagate_param_hints(cls_info, fn)
        # Function bodies last: scanning needs class hints + param classes.
        for fn in self.functions.values():
            _FunctionScanner(self, fn).run()

    @staticmethod
    def _propagate_param_hints(cls_info: ClassInfo, fn: FunctionInfo) -> None:
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign):
                value, targets = node.value, [node.target]
            else:
                continue
            if not isinstance(value, ast.Name):
                continue
            hints = fn.param_classes.get(value.id)
            if not hints:
                continue
            for target in targets:
                attr_name = _self_attr(target)
                if attr_name is None:
                    continue
                attr = cls_info.attrs.get(attr_name)
                if attr is not None:
                    attr.class_hints = tuple(
                        dict.fromkeys([*attr.class_hints, *hints])
                    )

    def _attr_hints(self, module: ModuleInfo, attr: AttrInfo) -> tuple[str, ...]:
        hints: list[str] = []
        for ctor in attr.ctor_names:
            qual = self.resolve(module, ctor)
            if qual is not None and qual not in hints:
                hints.append(qual)
        if attr.annotation is not None:
            for qual in self.resolve_annotation(module, attr.annotation):
                if qual not in hints:
                    hints.append(qual)
        return tuple(hints)

    def _param_classes(
        self, module: ModuleInfo, fn: FunctionInfo
    ) -> dict[str, tuple[str, ...]]:
        out: dict[str, tuple[str, ...]] = {}
        a = fn.node.args
        for param in [*a.posonlyargs, *a.args, *a.kwonlyargs]:
            if param.annotation is not None:
                quals = self.resolve_annotation(module, param.annotation)
                if quals:
                    out[param.arg] = quals
        return out

    # -- name resolution ---------------------------------------------------

    def resolve(self, module: ModuleInfo, dotted: str) -> str | None:
        """Resolve a dotted name used in ``module`` to a canonical qualname."""
        head, _, tail = dotted.partition(".")
        target: str | None = None
        if head in module.imports:
            target = module.imports[head]
        elif head in module.classes or head in module.functions:
            target = f"{module.name}.{head}"
        elif head in module.aliases:
            # Union alias: resolve to its first member (callers needing the
            # full union go through resolve_annotation).
            members = self.resolve_annotation(module, module.aliases[head][0])
            target = members[0] if members else None
        if target is None:
            return None
        return self.canonical(f"{target}.{tail}" if tail else target)

    def canonical(self, qual: str) -> str:
        """Follow re-export chains until the qualname stops changing."""
        for _ in range(12):  # cycle guard
            if qual in self.classes or qual in self.functions or qual in self.modules:
                return qual
            parts = qual.split(".")
            advanced = False
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                module = self.modules.get(prefix)
                if module is None:
                    continue
                nxt = module.imports.get(parts[cut])
                if nxt is None:
                    break  # defined (or missing) locally: nothing to chase
                qual = ".".join([nxt, *parts[cut + 1 :]])
                advanced = True
                break
            if not advanced:
                return qual
        return qual

    def resolve_annotation(self, module: ModuleInfo, expr: ast.expr) -> tuple[str, ...]:
        """Class qualnames an annotation may denote (unions flattened)."""
        out: list[str] = []
        self._annotation_into(module, expr, out, depth=0)
        return tuple(out)

    def _annotation_into(
        self, module: ModuleInfo, expr: ast.expr, out: list[str], depth: int
    ) -> None:
        if depth > 4:
            return
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            try:
                inner = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return
            self._annotation_into(module, inner, out, depth + 1)
            return
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
            self._annotation_into(module, expr.left, out, depth + 1)
            self._annotation_into(module, expr.right, out, depth + 1)
            return
        if isinstance(expr, ast.Subscript):
            head = dotted_name(expr.value) or ""
            if head.split(".")[-1] in ("Optional", "Union", "Annotated"):
                self._annotation_into(module, expr.slice, out, depth + 1)
            return  # list[X]/dict[X, Y]: the value is the container, not X
        if isinstance(expr, ast.Tuple):
            for elt in expr.elts:
                self._annotation_into(module, elt, out, depth + 1)
            return
        name = dotted_name(expr)
        if name is None or name in ("None", "NoneType"):
            return
        if name in module.aliases:
            for member in module.aliases[name]:
                self._annotation_into(module, member, out, depth + 1)
            return
        qual = self.resolve(module, name)
        if qual is None and "." in name:
            qual = name  # external dotted (random.Random) used without import? keep
        if qual is not None and qual not in out:
            out.append(qual)

    def _resolve_expr_name(self, module: ModuleInfo, expr: ast.expr) -> str | None:
        name = dotted_name(expr)
        return self.resolve(module, name) if name else None

    # -- graph queries -----------------------------------------------------

    def lookup_method(self, class_qual: str, method: str) -> FunctionInfo | None:
        """Find a method on a class or its (resolved) bases."""
        seen: set[str] = set()
        stack = [class_qual]
        while stack:
            qual = stack.pop(0)
            if qual in seen:
                continue
            seen.add(qual)
            cls_info = self.classes.get(qual)
            if cls_info is None:
                continue
            if method in cls_info.methods:
                return cls_info.methods[method]
            stack.extend(cls_info.bases)
        return None

    def chain_classes(
        self, start: tuple[str, ...], chain: Sequence[str]
    ) -> tuple[str, ...]:
        """Class qualnames at the end of an attribute chain from ``start``."""
        current = start
        for attr_name in chain:
            nxt: list[str] = []
            for qual in current:
                cls_info = self.classes.get(qual)
                if cls_info is None:
                    continue
                attr = cls_info.attrs.get(attr_name)
                if attr is not None:
                    nxt.extend(h for h in attr.class_hints if h not in nxt)
            current = tuple(nxt)
            if not current:
                return ()
        return current

    def iter_functions(self) -> Iterator[FunctionInfo]:
        yield from self.functions.values()


# -- phase-1 helpers -------------------------------------------------------


def _self_attr(node: ast.expr) -> str | None:
    """``self.x`` -> ``"x"``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _ctor_name(value: ast.expr | None) -> str | None:
    """Constructor dotted name when ``value`` is ``Name(...)`` / ``a.B(...)``."""
    if isinstance(value, ast.Call):
        return dotted_name(value.func)
    return None


def _union_members(expr: ast.expr) -> list[ast.expr]:
    """Flatten ``A | B | C`` into member expressions (empty if not a union)."""
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        left = _union_members(expr.left) or [expr.left]
        right = _union_members(expr.right) or [expr.right]
        if all(dotted_name(m) is not None for m in [*left, *right]):
            return [*left, *right]
    return []


# -- function body scanning (phase 2) --------------------------------------


@dataclass
class _Binding:
    """What the scanner knows about one local name."""

    classes: tuple[str, ...] = ()
    path: tuple[str, tuple[str, ...]] | None = None  # (root, chain)


@dataclass(frozen=True)
class _Path:
    """A resolved attribute path with optional mid-chain class knowledge."""

    root: str
    chain: tuple[str, ...]
    base_classes: tuple[str, ...] = ()
    base_depth: int = 0


class _FunctionScanner:
    """Order-sensitive single pass over one function body.

    Tracks local aliases of parameter/self attribute paths and local
    class hints (constructor calls, annotations, isinstance narrowing),
    and emits the function's :class:`CallSite` and :class:`Access`
    records with those bindings applied.
    """

    def __init__(self, graph: ProgramGraph, fn: FunctionInfo) -> None:
        self.graph = graph
        self.fn = fn
        self.module = graph.modules[fn.module]
        self.env: dict[str, _Binding] = {}
        self._sync_locks: list[str] = []  # descriptions of held sync locks
        self._async_wrap_depth = 0
        self._discard: ast.expr | None = None  # bare-Expr call being visited
        own = (fn.class_qual,) if fn.class_qual else ()
        for index, param in enumerate(fn.param_names()):
            classes = fn.param_classes.get(param, ())
            if index == 0 and param in ("self", "cls") and own:
                classes = own
            self.env[param] = _Binding(classes=classes, path=(param, ()))

    def run(self) -> None:
        self._stmts(self.fn.node.body)
        self.fn.local_paths = {
            name: b.path for name, b in self.env.items() if b.path is not None
        }
        self.fn.local_classes = {
            name: b.classes for name, b in self.env.items() if b.classes
        }

    # -- statements --------------------------------------------------------

    def _stmts(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are out of this pass's reach
        if isinstance(stmt, ast.Assign):
            self._expr(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._expr(stmt.value)
            self._assign_target(stmt.target, stmt.value, annotation=stmt.annotation)
            return
        if isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value)
            self._write_target(stmt.target)
            return
        if isinstance(stmt, ast.If):
            self._expr(stmt.test)
            narrowed = self._isinstance_narrowing(stmt.test)
            saved = {name: self.env.get(name) for name in narrowed}
            for name, classes in narrowed.items():
                old = self.env.get(name)
                self.env[name] = _Binding(
                    classes=classes, path=old.path if old else None
                )
            self._stmts(stmt.body)
            for name, old in saved.items():
                if old is None:
                    self.env.pop(name, None)
                else:
                    self.env[name] = old
            self._stmts(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter)
            self._assign_target(stmt.target, None)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._expr(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            self._with(stmt)
            return
        if isinstance(stmt, ast.Try):
            self._stmts(stmt.body)
            for handler in stmt.handlers:
                self._stmts(handler.body)
            self._stmts(stmt.orelse)
            self._stmts(stmt.finalbody)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value)
            return
        if isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, ast.Call):
                self._discard = stmt.value
            self._expr(stmt.value)
            self._discard = None
            return
        # Fallback: visit any expressions hanging off the statement.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child)

    def _with(self, stmt: ast.With | ast.AsyncWith) -> None:
        pushed = 0
        for item in stmt.items:
            self._expr(item.context_expr)
            if isinstance(stmt, ast.With):
                lock = self._lock_description(item.context_expr)
                if lock is not None:
                    self._sync_locks.append(lock)
                    pushed += 1
            if item.optional_vars is not None:
                self._assign_target(item.optional_vars, None)
        self._stmts(stmt.body)
        for _ in range(pushed):
            self._sync_locks.pop()

    def _lock_description(self, expr: ast.expr) -> str | None:
        """Non-None when ``expr`` acquires a synchronous threading lock."""
        target = expr
        if isinstance(expr, ast.Call):  # with lock.acquire_context() etc.
            target = expr.func
        classes = self._expr_classes(target)
        if not classes and isinstance(target, ast.Attribute):
            classes = self._expr_classes(target.value)
        if any(c in SYNC_LOCK_CLASSES for c in classes):
            return dotted_name(target) or "<lock>"
        return None

    def _isinstance_narrowing(self, test: ast.expr) -> dict[str, tuple[str, ...]]:
        out: dict[str, tuple[str, ...]] = {}
        checks = [test]
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            checks = list(test.values)
        for check in checks:
            if not (
                isinstance(check, ast.Call)
                and isinstance(check.func, ast.Name)
                and check.func.id == "isinstance"
                and len(check.args) == 2
                and isinstance(check.args[0], ast.Name)
            ):
                continue
            kinds = check.args[1]
            exprs = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            quals: list[str] = []
            for expr in exprs:
                name = dotted_name(expr)
                if name is None:
                    continue
                qual = self.graph.resolve(self.module, name) or (
                    name if "." in name else None
                )
                if qual is not None and qual not in quals:
                    quals.append(qual)
            if quals:
                out[check.args[0].id] = tuple(quals)
        return out

    # -- assignments -------------------------------------------------------

    def _assign_target(
        self,
        target: ast.expr,
        value: ast.expr | None,
        annotation: ast.expr | None = None,
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self._binding_for(value, annotation)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, None)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self._write_target(target)

    def _write_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            return  # aug-assign on a local: binding unchanged
        if isinstance(target, ast.Subscript):
            path = self._path_of(target.value)
            if path is not None:
                self._emit(path, target.lineno, "mutate")
                self._foreign_mark(path, target.lineno, mutation=True)
            else:
                self._hinted_foreign_write(target.value, target.lineno)
                self._expr(target.value)
            self._expr(target.slice)
            return
        if isinstance(target, ast.Attribute):
            path = self._path_of(target)
            if path is not None:
                self._emit(path, target.lineno, "write")
                self._foreign_mark(path, target.lineno, mutation=False)
            else:
                self._hinted_foreign_write(target, target.lineno)
                self._expr(target.value)

    def _foreign_mark(self, path: _Path, line: int, *, mutation: bool) -> None:
        """Record a write/mutation through a path onto the owning class.

        Own-class ``self.x`` effects were already collected in phase 1;
        reconstruction code (``__init__``/``restore*``/``snapshot*``)
        never marks drift.
        """
        if self._in_reconstruction():
            return
        if path.root == "self" and len(path.chain) == 1:
            if mutation:
                cls_info = self.graph.classes.get(self.fn.class_qual or "")
                if cls_info is not None and self.fn.name not in INIT_LIKE_METHODS:
                    cls_info.attr(path.chain[0], line).mutations.setdefault(
                        self.fn.name, line
                    )
            return
        if not path.chain:
            return
        for owner in self._classes_for(path, upto=len(path.chain) - 1):
            cls_info = self.graph.classes.get(owner)
            if cls_info is None:
                continue
            cls_info.attr(path.chain[-1], line).foreign_writes.append(
                (line, self.fn.qualname)
            )

    def _hinted_foreign_write(self, target: ast.expr, line: int) -> None:
        """``obj.attr = ...`` where obj is a class-hinted local (no path).

        Covers ``server = Peer(...); server.health = 1.0`` — a mutation
        of Peer state that no ``self.*`` sweep can see.
        """
        if self._in_reconstruction():
            return
        if not isinstance(target, ast.Attribute):
            return
        for qual in self._expr_classes(target.value):
            cls_info = self.graph.classes.get(qual)
            if cls_info is not None:
                cls_info.attr(target.attr, line).foreign_writes.append(
                    (line, self.fn.qualname)
                )

    def _in_reconstruction(self) -> bool:
        name = self.fn.stripped_name
        return (
            self.fn.name in INIT_LIKE_METHODS
            or name.startswith(RESTORE_PREFIX)
            or name.startswith(SNAPSHOT_PREFIX)
        )

    def _binding_for(
        self, value: ast.expr | None, annotation: ast.expr | None
    ) -> _Binding:
        classes: tuple[str, ...] = ()
        path: tuple[str, tuple[str, ...]] | None = None
        if annotation is not None:
            classes = self.graph.resolve_annotation(self.module, annotation)
        if value is not None:
            vpath = self._path_of(value)
            if vpath is not None:
                path = (vpath.root, vpath.chain)
                if not classes:
                    classes = self._classes_for(vpath)
            elif isinstance(value, ast.Call):
                classes = classes or self._call_result_classes(value)
        return _Binding(classes=classes, path=path)

    def _call_result_classes(self, call: ast.Call) -> tuple[str, ...]:
        if (
            isinstance(call.func, ast.Name)
            and call.func.id == "cls"
            and self.fn.class_qual
        ):
            return (self.fn.class_qual,)
        qual = self._call_target(call)
        if qual is None:
            return ()
        if qual in self.graph.classes:
            return (qual,)
        fn = self.graph.functions.get(qual)
        if fn is not None and fn.node.returns is not None:
            return self.graph.resolve_annotation(
                self.graph.modules[fn.module], fn.node.returns
            )
        if fn is None and "." in qual:
            # External constructor heuristic: random.Random(), socket.socket().
            tail = qual.rsplit(".", 1)[1]
            if tail[:1].isupper() or qual in (RANDOM_CLASS, "socket.socket"):
                return (qual,)
        return ()

    # -- expressions -------------------------------------------------------

    def _expr(self, expr: ast.expr, *, awaited: bool = False) -> None:
        if isinstance(expr, ast.Await):
            if self._sync_locks:
                self.fn.sync_lock_awaits.append((expr.lineno, self._sync_locks[-1]))
            self._expr(expr.value, awaited=True)
            return
        if isinstance(expr, ast.Call):
            self._call(expr, awaited=awaited)
            return
        if isinstance(expr, ast.Attribute):
            path = self._path_of(expr)
            if path is not None:
                self._emit(path, expr.lineno, "read")
                return
            self._expr(expr.value)
            return
        if isinstance(expr, ast.Subscript):
            self._key_read(expr)
            self._expr(expr.value)
            self._expr(expr.slice)
            return
        if isinstance(expr, ast.Name):
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.comprehension):
                self._assign_target(child.target, None)
                self._expr(child.iter)
                for cond in child.ifs:
                    self._expr(cond)

    def _key_read(self, expr: ast.Subscript) -> None:
        if not (
            isinstance(expr.slice, ast.Constant) and isinstance(expr.slice.value, str)
        ):
            return
        path = self._path_of(expr.value)
        if path is not None:
            self._emit(path, expr.lineno, "key_read", key=expr.slice.value)

    def _call(self, call: ast.Call, *, awaited: bool) -> None:
        target = self._call_target(call)
        # param.get("k") / param.pop("k") count as key reads of a state mapping.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in ("get", "pop")
            and call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            path = self._path_of(call.func.value)
            if path is not None:
                self._emit(path, call.lineno, "key_read", key=call.args[0].value)
        if isinstance(call.func, ast.Attribute):
            path = self._path_of(call.func)
            if path is not None:
                self._emit(path, call.lineno, "methodcall")
            else:
                self._expr(call.func.value)
            # In-place mutators through a tracked path: sys._departures.append(x)
            if call.func.attr in MUTATOR_METHODS:
                receiver = self._path_of(call.func.value)
                if receiver is not None and receiver.chain:
                    self._emit(receiver, call.lineno, "mutate")
                    self._foreign_mark(receiver, call.lineno, mutation=True)
        name = dotted_name(call.func)
        if name in _ARG_MUTATORS and call.args:
            victim = self._path_of(call.args[0])
            if victim is not None and victim.chain:
                self._emit(victim, call.lineno, "mutate")
                self._foreign_mark(victim, call.lineno, mutation=True)

        args = tuple(
            self._arg_info(a) for a in call.args if not isinstance(a, ast.Starred)
        )
        keywords = {
            kw.arg: self._arg_info(kw.value)
            for kw in call.keywords
            if kw.arg is not None
        }
        self.fn.calls.append(
            CallSite(
                target=target,
                line=call.lineno,
                col=call.col_offset,
                awaited=awaited,
                async_wrapped=self._async_wrap_depth > 0,
                discarded=call is self._discard,
                args=args,
                keywords=keywords,
            )
        )

        wraps = target is not None and (
            target.startswith("asyncio.")
            or target.endswith((".create_task", ".ensure_future"))
        )
        if wraps:
            self._async_wrap_depth += 1
        for arg in call.args:
            self._expr(arg.value if isinstance(arg, ast.Starred) else arg)
        for kw in call.keywords:
            self._expr(kw.value)
        if wraps:
            self._async_wrap_depth -= 1

    def _call_target(self, call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            binding = self.env.get(func.id)
            if binding is not None:
                if binding.classes:
                    return binding.classes[0]  # calling a class object / callable
                return None  # locally bound, class unknown: unresolvable
            return self.graph.resolve(self.module, func.id)
        if not isinstance(func, ast.Attribute):
            return None
        method = func.attr
        path = self._path_of(func)
        if path is not None:
            receivers = self._classes_for(path, upto=len(path.chain) - 1)
            for qual in receivers:
                found = self.graph.lookup_method(qual, method)
                if found is not None:
                    return found.qualname
            if receivers:
                return f"{receivers[0]}.{method}"
            return None
        base = func.value
        if isinstance(base, ast.Name):
            binding = self.env.get(base.id)
            if binding is not None and binding.classes:
                for qual in binding.classes:
                    found = self.graph.lookup_method(qual, method)
                    if found is not None:
                        return found.qualname
                return f"{binding.classes[0]}.{method}"
        name = dotted_name(func)
        if name is not None:
            resolved = self.graph.resolve(self.module, name)
            if resolved is not None:
                return resolved
            head = name.split(".", 1)[0]
            if head not in self.env:
                return name  # unimported dotted name (builtins etc.): verbatim
        receiver_classes = self._expr_classes(base)
        for qual in receiver_classes:
            found = self.graph.lookup_method(qual, method)
            if found is not None:
                return found.qualname
        if receiver_classes:
            return f"{receiver_classes[0]}.{method}"
        return None

    def _arg_info(self, expr: ast.expr) -> ArgInfo:
        from repro.qa.checks import _unordered_source  # shared heuristic

        info = ArgInfo(text=dotted_name(expr) or type(expr).__name__, node=expr)
        info.unordered = _unordered_source(expr)
        info.rng = self._rng_kind(expr)
        return info

    def _rng_kind(self, expr: ast.expr) -> str | None:
        """Classify an expression's relationship to RNG streams."""
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            resolved = self.graph.resolve(self.module, name) if name else None
            if RANDOM_CLASS in (resolved, name):
                return "named" if (expr.args or expr.keywords) else "unseeded"
            return None
        name = dotted_name(expr)
        if name is None:
            return None
        if name == "random":
            return "global"
        path = self._path_of(expr)
        if path is not None:
            classes = self._classes_for(path)
            leaf = path.chain[-1] if path.chain else path.root
        else:
            binding = self.env.get(name) if "." not in name else None
            classes = binding.classes if binding is not None else ()
            leaf = name.rsplit(".", 1)[-1]
        if RANDOM_CLASS in classes:
            return "named"
        if is_rng_name(leaf):
            # rng-ish name but typed as something else entirely: suspicious.
            return "named" if not classes else "opaque"
        return None

    # -- path and class helpers --------------------------------------------

    def _path_of(self, expr: ast.expr) -> _Path | None:
        """Resolve an expression to a parameter/self-rooted attribute path."""
        chain: list[str] = []
        node = expr
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        binding = self.env.get(node.id)
        if binding is None or binding.path is None:
            return None
        root, prefix = binding.path
        return _Path(
            root=root,
            chain=(*prefix, *chain),
            base_classes=binding.classes,
            base_depth=len(prefix),
        )

    def _classes_for(self, path: _Path, upto: int | None = None) -> tuple[str, ...]:
        """Class qualnames at ``path.chain[:upto]`` (default: full chain)."""
        chain = path.chain if upto is None else path.chain[:upto]
        if path.base_classes and path.base_depth <= len(chain):
            return self.graph.chain_classes(
                path.base_classes, chain[path.base_depth :]
            )
        start = self.fn.param_classes.get(path.root, ())
        binding = self.env.get(path.root)
        if binding is not None and binding.classes:
            start = binding.classes
        if not start:
            return ()
        return self.graph.chain_classes(start, chain)

    def _expr_classes(self, expr: ast.expr) -> tuple[str, ...]:
        path = self._path_of(expr)
        if path is not None:
            return self._classes_for(path)
        if isinstance(expr, ast.Name):
            binding = self.env.get(expr.id)
            if binding is not None:
                return binding.classes
        if isinstance(expr, ast.Call):
            return self._call_result_classes(expr)
        return ()

    def _emit(self, path: _Path, line: int, kind: str, key: str | None = None) -> None:
        self.fn.accesses.append(
            Access(
                root=path.root,
                chain=path.chain,
                line=line,
                kind=kind,
                key=key,
                base_classes=path.base_classes,
                base_depth=path.base_depth,
            )
        )
