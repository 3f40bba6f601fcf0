"""Whole-program layer: project symbol table + call graph.

The per-file AST rules cannot see *cross-module* properties -- who
owns an RNG stream, which ``os.environ`` read flows into a cached
result row, which helper a ``fingerprint()`` transitively calls.
:class:`ProjectIndex` gives the dataflow rules
(:mod:`repro.analysis.rules_dataflow`) a shared, purely-static view of
the analyzed tree:

* every module parsed once, with its dotted name relative to the root
  package (``netsim.env``, ``eval/scenarios.py`` -> ``eval.scenarios``);
* an import map per module covering module-level *and* function-level
  imports (lazy ``from repro.models.zoo import default_zoo`` inside a
  method still creates an edge);
* a function/method index keyed by ``module:Qual.name``;
* best-effort call resolution -- enough to link ``self.meth(...)``,
  ``module.func(...)``, ``from m import f; f(...)`` and
  ``ClassName(...)`` (to ``__init__``) -- with caller/callee maps and
  BFS closures over them.

Resolution is deliberately conservative: an unresolvable call simply
creates no edge.  Rules built on the index therefore under-approximate
reachability (they can miss exotic flows, they do not invent them),
which is the right default for a linter that fails CI.

Everything here is pure AST -- no imports of the analyzed code -- so
the same index works on the live package and on known-bad fixture
trees under ``tests/fixtures/replint/``.  The index is the analyzer's
one parse of the tree: the per-file rules run over its module trees
and every whole-project rule queries it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["FunctionInfo", "ModuleInfo", "ProjectIndex", "dotted_name"]

#: Directory names never analyzed (caches and bytecode, not source).
SKIP_DIRS = ("__pycache__", "_cache")


def dotted_name(node: ast.AST) -> str | None:
    """Best-effort dotted name of an expression (``np.random.default_rng``).

    Returns ``None`` for anything that is not a plain ``Name`` /
    ``Attribute`` chain (calls on call results, subscripts, ...).
    """
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        return f"{base}.{node.attr}" if base else None
    return None


@dataclass
class FunctionInfo:
    """One function or method: location, AST, and raw call sites."""

    qualname: str                 #: ``module:func`` or ``module:Cls.meth``
    module: str                   #: dotted module name ("netsim.env")
    relpath: str                  #: file path relative to the root
    node: ast.AST                 #: the FunctionDef/AsyncFunctionDef
    cls: str | None = None        #: enclosing class name, if a method
    #: Dotted callee expressions as written (``self._draw``, ``np.log``).
    raw_calls: list = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One parsed module: tree, source, imports, top-level symbols."""

    module: str
    relpath: str
    tree: ast.AST
    source: str
    #: local alias -> absolute dotted target, for every ``import`` /
    #: ``from ... import`` anywhere in the file (function-level too).
    imports: dict = field(default_factory=dict)
    #: names of classes defined at module top level.
    classes: set = field(default_factory=set)
    #: names of functions defined at module top level.
    functions: set = field(default_factory=set)


class ProjectIndex:
    """Symbol table + call graph over one analyzed source tree.

    ``paths`` restricts the index to those files (the analyzer's
    explicit-file mode); the default is every ``*.py`` under ``root``
    outside :data:`SKIP_DIRS`.  Files that cannot be read or parsed
    are recorded in ``parse_errors`` as ``(relpath, line, message)``.
    """

    def __init__(self, root: str | Path, paths=None):
        self.root = Path(root).resolve()
        #: The root package name imports are written against
        #: (``repro`` for the live tree): ``repro.netsim.link`` and the
        #: index-internal ``netsim.link`` refer to the same module.
        self.package = self.root.name
        self.modules: dict[str, ModuleInfo] = {}
        self._relpath_to_module: dict[str, str] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: ``{class qualname "module:Cls": {method name: fn qualname}}``
        self.methods: dict[str, dict] = {}
        self.callees: dict[str, set] = {}
        self.callers: dict[str, set] = {}
        self.parse_errors: list[tuple[str, int, str]] = []
        self._build(paths)

    # --- construction -----------------------------------------------------

    def _build(self, paths) -> None:
        if paths is None:
            paths = [p for p in sorted(self.root.rglob("*.py"))
                     if not any(part in SKIP_DIRS for part in p.parts)]
        for path in paths:
            relpath = self._relpath(path)
            try:
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source, filename=str(path))
            except (OSError, SyntaxError, ValueError) as exc:
                self.parse_errors.append(
                    (relpath, getattr(exc, "lineno", 1) or 1,
                     f"cannot analyze: {exc}"))
                continue
            module = self._module_name(relpath)
            info = ModuleInfo(module=module, relpath=relpath, tree=tree,
                              source=source)
            self._collect_imports(info)
            self._collect_symbols(info)
            self.modules[module] = info
            self._relpath_to_module[relpath] = module
        for info in self.modules.values():
            self._collect_functions(info)
        self._resolve_calls()

    def _relpath(self, path) -> str:
        """``path`` relative to the root (absolute when outside it)."""
        path = Path(path).resolve()
        try:
            return path.relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def _module_name(self, relpath: str) -> str:
        parts = relpath[:-3].split("/")  # strip ".py"
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts) if parts else ""

    def _normalize(self, target: str, module: str, level: int = 0) -> str:
        """Absolute dotted target -> index-internal module path."""
        if level:  # relative import: resolve against the importing module
            # ``from . import x`` (level 1) in module a.b refers to
            # package ``a``; each extra dot strips one more segment.
            base = module.split(".")
            base = base[:len(base) - level] if level <= len(base) else []
            return ".".join(base + ([target] if target else []))
        prefix = self.package + "."
        if target.startswith(prefix):
            return target[len(prefix):]
        if target == self.package:
            return ""
        return target

    def _collect_imports(self, info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    info.imports[local] = self._normalize(target, info.module)
            elif isinstance(node, ast.ImportFrom):
                base = self._normalize(node.module or "", info.module,
                                       node.level)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = (f"{base}.{alias.name}"
                                           if base else alias.name)

    def _collect_symbols(self, info: ModuleInfo) -> None:
        for node in info.tree.body:
            if isinstance(node, ast.ClassDef):
                info.classes.add(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions.add(node.name)

    def _collect_functions(self, info: ModuleInfo) -> None:
        def visit(node, cls=None):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = (f"{cls}.{child.name}" if cls else child.name)
                    qual = f"{info.module}:{name}"
                    fn = FunctionInfo(qualname=qual, module=info.module,
                                      relpath=info.relpath, node=child,
                                      cls=cls)
                    for call in ast.walk(child):
                        if isinstance(call, ast.Call):
                            raw = dotted_name(call.func)
                            if raw:
                                fn.raw_calls.append(raw)
                    self.functions[qual] = fn
                    if cls:
                        key = f"{info.module}:{cls}"
                        self.methods.setdefault(key, {})[child.name] = qual
                    # nested defs: index them, attributed to the same
                    # class context (closures count as reachable code).
                    visit(child, cls)
                elif isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                else:
                    visit(child, cls)
        visit(info.tree)

    # --- call resolution --------------------------------------------------

    def _resolve_symbol(self, name: str, info: ModuleInfo) -> str | None:
        """Resolve a dotted expression to a function qualname, if we can."""
        parts = name.split(".")
        head = parts[0]
        # Locally defined function / class.
        if head in info.functions and len(parts) == 1:
            return f"{info.module}:{head}"
        if head in info.classes:
            return self._class_target(f"{info.module}:{head}", parts[1:])
        # Imported symbol.
        if head in info.imports:
            target = info.imports[head]
            return self._imported_target(target, parts[1:])
        return None

    def _class_target(self, class_key: str, rest: list) -> str | None:
        table = self.methods.get(class_key, {})
        if not rest:  # ClassName(...) -> constructor
            return table.get("__init__")
        if len(rest) == 1:
            return table.get(rest[0])
        return None

    def _imported_target(self, target: str, rest: list) -> str | None:
        """``target`` is an absolute dotted import; walk ``rest`` into it."""
        parts = target.split(".") + rest
        # Longest prefix of ``parts`` that names an indexed module.
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            if module in self.modules:
                info = self.modules[module]
                tail = parts[cut:]
                if not tail:
                    return None
                if tail[0] in info.functions and len(tail) == 1:
                    return f"{module}:{tail[0]}"
                if tail[0] in info.classes:
                    return self._class_target(f"{module}:{tail[0]}", tail[1:])
                # Re-exported name (e.g. package __init__): follow one
                # import hop.
                if tail[0] in info.imports:
                    return self._imported_target(info.imports[tail[0]],
                                                 tail[1:])
                return None
        return None

    def _resolve_calls(self) -> None:
        for qual, fn in self.functions.items():
            info = self.modules[fn.module]
            targets = set()
            for raw in fn.raw_calls:
                parts = raw.split(".")
                if parts[0] == "self" and fn.cls is not None:
                    if len(parts) == 2:
                        target = self.methods.get(
                            f"{fn.module}:{fn.cls}", {}).get(parts[1])
                        if target:
                            targets.add(target)
                    continue
                target = self._resolve_symbol(raw, info)
                if target:
                    targets.add(target)
            self.callees[qual] = targets
            for target in targets:
                self.callers.setdefault(target, set()).add(qual)

    # --- queries ----------------------------------------------------------

    def module_at(self, relpath: str) -> ModuleInfo | None:
        """The indexed module at root-relative ``relpath``, if any."""
        module = self._relpath_to_module.get(relpath)
        return None if module is None else self.modules[module]

    def enclosing_function(self, relpath: str, lineno: int) -> FunctionInfo | None:
        """Innermost indexed function containing ``lineno`` of ``relpath``."""
        best = None
        for fn in self.functions.values():
            if fn.relpath != relpath:
                continue
            node = fn.node
            end = getattr(node, "end_lineno", node.lineno)
            if node.lineno <= lineno <= end:
                if best is None or node.lineno > best.node.lineno:
                    best = fn
        return best

    def transitive_callers(self, qualname: str) -> set:
        """Every function that can reach ``qualname`` (excl. itself)."""
        return self._closure(qualname, self.callers)

    def transitive_callees(self, qualname: str) -> set:
        """Every function ``qualname`` can reach (excl. itself)."""
        return self._closure(qualname, self.callees)

    def _closure(self, start: str, edges: dict) -> set:
        seen: set = set()
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for nxt in edges.get(current, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        seen.discard(start)
        return seen
