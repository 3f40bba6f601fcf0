"""Cross-module dataflow rules: RNG-stream ownership, env/config
taint, mutable global state, and signature purity.

These are the properties the per-file lints cannot see (PR 6's rules
stop at a module boundary) and that the next engine steps -- batched
multi-cell execution, compiled kernels, cross-host sharding --
multiply the ways of breaking:

* ``rng-stream-ownership`` -- every generator ``netsim`` constructs
  must be a stream declared in :mod:`repro.netsim.rngstreams`, and the
  declared derivations must be provably collision-free (or carry a
  justification for a known overlap).
* ``rng-foreign-draw`` / ``rng-shared-drain`` -- one stream, one
  consumer: drawing from *another object's* generator, or fanning one
  local generator out to several consumers, couples their bitstreams
  to each other's call order.
* ``env-taint`` -- an ``os.environ`` read whose value can reach
  ``Simulation``/``Scenario`` execution or a cached result row is an
  unfingerprinted cache key; it must be fingerprinted or sit on the
  justified allowlist (stale allowlist entries are findings, like
  stale fingerprint exclusions).
* ``mutable-global-state`` -- a module-level mutable container written
  from a function body is cross-cell shared state, the exact hazard of
  interleaved multi-cell loops.
* ``signature-purity`` -- ``fingerprint``/``signature`` functions are
  cache-key producers; any side effect in them (or one level into
  their callees) corrupts key stability.

All checks are pure AST over :class:`repro.analysis.project.ProjectIndex`
-- no imports of analyzed code -- so they run identically on the live
package and on fixture trees.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.core import AstRule, Finding, ProjectRule, dotted_name
from repro.analysis.project import ProjectIndex
from repro.analysis.rules_determinism import (_WALL_CLOCK,
                                              _WALL_CLOCK_SUFFIXES,
                                              SIMULATION_PACKAGES)

__all__ = ["RngStreamOwnershipRule", "RngForeignDrawRule",
           "RngSharedDrainRule", "EnvTaintRule", "MutableGlobalStateRule",
           "SignaturePurityRule", "ENV_ALLOWLIST"]

#: Generator methods that consume stream state when called.
_DRAW_METHODS = frozenset({
    "random", "uniform", "integers", "normal", "standard_normal", "choice",
    "shuffle", "permutation", "exponential", "poisson", "binomial",
    "lognormal", "gamma", "beta", "bytes", "triangular"})

_RNG_CONSTRUCTORS = ("default_rng", "RandomState")

#: Where the stream registry lives, relative to the analyzed root.
_REGISTRY_RELPATH = "netsim/rngstreams.py"

#: Mirrors :data:`repro.netsim.rngstreams.INDEX_SALT_FLOOR` -- kept as
#: a literal so the rule stays import-free on fixture trees.
_INDEX_SALT_FLOOR = 1 << 16


# --- rng-stream-ownership ----------------------------------------------------

def _parse_registry(path: Path) -> list[dict] | None:
    """StreamDef literals from a registry source, or ``None`` if absent.

    Pure AST extraction (constant keywords only) so the rule works on
    fixture registries without importing them.
    """
    try:
        tree = ast.parse(path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError, ValueError):
        return None
    streams = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None or name.rsplit(".", 1)[-1] != "StreamDef":
            continue
        entry: dict = {"lineno": node.lineno, "col": node.col_offset}
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Constant) and i == 0:
                entry["name"] = arg.value
        for kw in node.keywords:
            if kw.arg and isinstance(kw.value, ast.Constant):
                entry[kw.arg] = kw.value.value
        streams.append(entry)
    return streams


def _int_valued(stream: dict) -> bool:
    return stream.get("derive") in ("raw", "affine")


class RngStreamOwnershipRule(ProjectRule):
    id = "rng-stream-ownership"
    family = "rng-ownership"
    description = ("every netsim RNG construction goes through a stream "
                   "declared in netsim/rngstreams.py; declared "
                   "derivations must be collision-free or justified")
    anchors = ("netsim/",)

    def check_project(self, root):
        root = Path(root)
        registry_path = root / _REGISTRY_RELPATH
        streams = _parse_registry(registry_path)
        findings = []
        used_names: set = set()

        netsim_dir = root / "netsim"
        paths = sorted(netsim_dir.rglob("*.py")) if netsim_dir.is_dir() else []
        for path in paths:
            if "__pycache__" in path.parts:
                continue
            relpath = path.relative_to(root).as_posix()
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except (OSError, SyntaxError, ValueError):
                continue
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                tail = name.rsplit(".", 1)[-1]
                if tail in _RNG_CONSTRUCTORS \
                        and relpath != _REGISTRY_RELPATH:
                    findings.append(Finding(
                        relpath, node.lineno, node.col_offset, self.id,
                        f"{name}(...) constructs an undeclared generator; "
                        f"declare a stream in {_REGISTRY_RELPATH} and mint "
                        f"it via stream_rng(...)"))
                elif tail == "stream_rng":
                    if not node.args or not isinstance(node.args[0],
                                                       ast.Constant):
                        findings.append(Finding(
                            relpath, node.lineno, node.col_offset, self.id,
                            "stream_rng() called with a non-literal stream "
                            "name; ownership cannot be verified statically"))
                        continue
                    stream_name = node.args[0].value
                    used_names.add(stream_name)
                    if streams is not None and not any(
                            s.get("name") == stream_name for s in streams):
                        findings.append(Finding(
                            relpath, node.lineno, node.col_offset, self.id,
                            f"stream_rng({stream_name!r}) references a "
                            f"stream not declared in {_REGISTRY_RELPATH}"))

        if streams is None:
            if findings:  # constructions exist but no registry to own them
                findings.append(Finding(
                    _REGISTRY_RELPATH, 1, 0, self.id,
                    "netsim constructs RNGs but has no stream registry "
                    f"({_REGISTRY_RELPATH} missing or unparsable)"))
            return findings

        findings.extend(self._check_declarations(streams, used_names))
        return findings

    def _check_declarations(self, streams, used_names):
        findings = []
        seen: dict = {}
        by_domain: dict = {}
        for s in streams:
            name = s.get("name")
            if not name:
                continue
            if name in seen:
                findings.append(Finding(
                    _REGISTRY_RELPATH, s["lineno"], s["col"], self.id,
                    f"stream {name!r} declared twice"))
            seen[name] = s
            by_domain.setdefault(s.get("domain"), []).append(s)
            if name not in used_names:
                findings.append(Finding(
                    _REGISTRY_RELPATH, s["lineno"], s["col"], self.id,
                    f"stream {name!r} is declared but never minted via "
                    f"stream_rng(); remove the stale declaration"))

        for domain, members in sorted(by_domain.items(),
                                      key=lambda kv: str(kv[0])):
            findings.extend(self._check_domain(domain, members))

        # A collision_note must justify a *live* overlap: int-valued
        # kinds need an int-valued sibling in the domain, a salted
        # stream needs a sub-floor salt next to an indexed sibling.
        for s in streams:
            if not s.get("collision_note") or not s.get("name"):
                continue
            siblings = [o for o in by_domain.get(s.get("domain"), [])
                        if o is not s]
            live = (_int_valued(s) and any(_int_valued(o) for o in siblings)) \
                or (s.get("derive") == "salted"
                    and (s.get("salt") or 0) < _INDEX_SALT_FLOOR
                    and any(o.get("derive") == "indexed" for o in siblings))
            if not live:
                findings.append(Finding(
                    _REGISTRY_RELPATH, s["lineno"], s["col"], self.id,
                    f"stream {s['name']!r} carries a collision_note but no "
                    f"other stream in domain {s.get('domain')!r} can "
                    f"overlap it; remove the stale note"))
        return findings

    def _check_domain(self, domain, members):
        findings = []
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                findings.extend(self._check_pair(domain, a, b))
        return findings

    def _check_pair(self, domain, a, b):
        da, db = a.get("derive"), b.get("derive")
        loc = (b["lineno"], b["col"])
        name_a, name_b = a.get("name"), b.get("name")

        def finding(msg):
            return [Finding(_REGISTRY_RELPATH, loc[0], loc[1], self.id, msg)]

        if da == "raw" and db == "raw":
            return finding(
                f"streams {name_a!r} and {name_b!r} both derive raw seeds "
                f"in domain {domain!r}: identical bitstreams for every seed")
        if da == "affine" and db == "affine" \
                and a.get("mul") == b.get("mul") \
                and a.get("add") == b.get("add"):
            return finding(
                f"streams {name_a!r} and {name_b!r} declare the same affine "
                f"derivation in domain {domain!r}: identical bitstreams")
        if _int_valued(a) and _int_valued(b):
            if not (a.get("collision_note") and b.get("collision_note")):
                return finding(
                    f"int-valued derivations of {name_a!r} ({da}) and "
                    f"{name_b!r} ({db}) can overlap in domain {domain!r}; "
                    f"use tuple seeding (salted/indexed) or document the "
                    f"accepted overlap with collision_note on both")
            return []
        if da == "salted" and db == "salted" \
                and a.get("salt") == b.get("salt"):
            return finding(
                f"streams {name_a!r} and {name_b!r} share salt "
                f"{a.get('salt')!r} in domain {domain!r}: identical "
                f"bitstreams for every seed")
        salted, indexed = None, None
        if da == "salted" and db == "indexed":
            salted, indexed = a, b
        elif da == "indexed" and db == "salted":
            salted, indexed = b, a
        if salted is not None \
                and (salted.get("salt") or 0) < _INDEX_SALT_FLOOR \
                and not salted.get("collision_note"):
            return finding(
                f"salt {salted.get('salt')!r} of {salted['name']!r} is below "
                f"{_INDEX_SALT_FLOOR:#x} and can collide with an index of "
                f"{indexed['name']!r} in domain {domain!r}; raise the salt "
                f"or add a collision_note")
        return []


# --- rng-foreign-draw --------------------------------------------------------

class RngForeignDrawRule(AstRule):
    id = "rng-foreign-draw"
    family = "rng-ownership"
    description = ("drawing from another object's .rng couples two "
                   "components' bitstreams to each other's call order")
    packages = SIMULATION_PACKAGES

    def check(self, tree, source, relpath):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) < 3 or parts[-2] != "rng" \
                    or parts[-1] not in _DRAW_METHODS:
                continue
            owner = ".".join(parts[:-2])
            if owner == "self":
                continue
            findings.append(Finding(
                relpath, node.lineno, node.col_offset, self.id,
                f"{name}() drains {owner}'s generator from outside; the "
                f"owner must do its own draws (pass values, not streams)"))
        return findings


# --- rng-shared-drain --------------------------------------------------------

#: Calls that merely inspect an object, never drain a generator.
_INSPECT_FUNCS = frozenset({"isinstance", "type", "id", "len", "repr",
                            "str", "print", "hash"})


def _is_rng_expr(node) -> bool:
    """Does this expression evaluate to a generator (statically)?"""
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is None:
            return False
        tail = name.rsplit(".", 1)[-1]
        return tail in _RNG_CONSTRUCTORS or tail == "stream_rng"
    if isinstance(node, ast.Attribute):
        return node.attr == "rng"
    return False


class RngSharedDrainRule(AstRule):
    id = "rng-shared-drain"
    family = "rng-ownership"
    description = ("a local generator handed to several consumers (or "
                   "handed off and also drawn locally) interleaves their "
                   "draw sequences nondeterministically under reordering")
    packages = SIMULATION_PACKAGES

    def check(self, tree, source, relpath):
        findings = []
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(self._check_function(fn, relpath))
        return findings

    def _check_function(self, fn, relpath):
        rng_locals: dict = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name) \
                    and _is_rng_expr(node.value):
                rng_locals[node.targets[0].id] = node
        if not rng_locals:
            return []

        passes: dict = {name: [] for name in rng_locals}
        draws: dict = {name: 0 for name in rng_locals}
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func_name = dotted_name(node.func) or ""
            func_parts = func_name.split(".")
            if func_parts[0] in rng_locals and len(func_parts) > 1:
                if func_parts[-1] in _DRAW_METHODS:
                    draws[func_parts[0]] += 1
                continue
            if func_name in _INSPECT_FUNCS:
                continue
            args = list(node.args) + [kw.value for kw in node.keywords]
            for arg in args:
                if isinstance(arg, ast.Name) and arg.id in rng_locals:
                    passes[arg.id].append(node)

        for name, sites in passes.items():
            decl = rng_locals[name]
            if len(sites) >= 2:
                findings = [Finding(
                    relpath, decl.lineno, decl.col_offset, self.id,
                    f"generator {name!r} is passed to {len(sites)} "
                    f"consumers in {fn.name}(); each consumer needs its "
                    f"own declared stream")]
                return findings
            if sites and draws[name]:
                return [Finding(
                    relpath, decl.lineno, decl.col_offset, self.id,
                    f"generator {name!r} is handed to a consumer and also "
                    f"drawn from locally in {fn.name}(); split it into "
                    f"two declared streams")]
        return []


# --- env-taint ---------------------------------------------------------------

#: Environment variables that may legitimately reach execution paths,
#: with the reason each cannot corrupt a cached result row.  A stale
#: entry (variable no longer read anywhere) is itself a finding.
ENV_ALLOWLIST = {
    "REPRO_RESULT_CACHE":
        "cache *location* only; rows are keyed by scenario fingerprint, "
        "so moving the cache cannot change any row's content",
    "REPRO_RESULT_CACHE_MAX_MB":
        "LRU size cap; affects eviction timing, never the content of a "
        "fingerprint-keyed row",
    "REPRO_MODEL_CACHE":
        "model checkpoint directory; checkpoints are keyed by pipeline "
        "version + training-config fingerprint, not by path",
}

#: Modules whose execution produces results or cache rows: a tainted
#: env read is one whose enclosing function can be reached from (or
#: lives in) these.
_SENSITIVE_PREFIXES = ("netsim",)
_SENSITIVE_MODULES = frozenset({"eval.scenarios", "eval.runner",
                                "eval.parallel"})


def _module_sensitive(module: str | None) -> bool:
    if not module:
        return False
    return module in _SENSITIVE_MODULES or any(
        module == p or module.startswith(p + ".")
        for p in _SENSITIVE_PREFIXES)


def _env_reads(tree):
    """``(node, varname_or_None)`` for every environ/getenv read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = dotted_name(node.func) or ""
            if name in ("os.getenv", "getenv") \
                    or name.endswith("environ.get"):
                arg = node.args[0] if node.args else None
                var = arg.value if isinstance(arg, ast.Constant) \
                    and isinstance(arg.value, str) else None
                yield node, var
        elif isinstance(node, ast.Subscript):
            base = dotted_name(node.value)
            if base in ("os.environ", "environ"):
                sl = node.slice
                var = sl.value if isinstance(sl, ast.Constant) \
                    and isinstance(sl.value, str) else None
                yield node, var


class EnvTaintRule(ProjectRule):
    id = "env-taint"
    family = "env-taint"
    description = ("os.environ reads reaching Simulation/Scenario "
                   "execution or cached rows must be fingerprinted or "
                   "on the justified allowlist (stale entries flagged)")
    anchors = ("netsim/", "eval/", "models/", "analysis/rules_dataflow.py")

    def check_project(self, root):
        index = ProjectIndex(root)
        findings = []
        seen_vars: set = set()
        any_reads = False
        for info in sorted(index.modules.values(), key=lambda m: m.relpath):
            for node, var in _env_reads(info.tree):
                any_reads = True
                if var is not None:
                    seen_vars.add(var)
                fn = index.enclosing_function(info.relpath, node.lineno)
                tainted = _module_sensitive(info.module)
                if not tainted and fn is not None:
                    tainted = any(
                        _module_sensitive(index.functions[c].module)
                        for c in index.transitive_callers(fn.qualname)
                        if c in index.functions)
                if not tainted:
                    continue
                where = f" (in {fn.qualname})" if fn else ""
                if var is None:
                    findings.append(Finding(
                        info.relpath, node.lineno, node.col_offset, self.id,
                        f"environment read with a non-literal variable "
                        f"name{where}; allowlist membership cannot be "
                        f"verified statically"))
                elif var not in ENV_ALLOWLIST:
                    findings.append(Finding(
                        info.relpath, node.lineno, node.col_offset, self.id,
                        f"os.environ read of {var!r}{where} can reach "
                        f"simulation/cached results; fold it into the "
                        f"fingerprint or allowlist it with a reason"))
        # Staleness is a property of a tree that reads the environment
        # at all -- on a read-free tree the allowlist is vacuously moot
        # (and flagging it there would fail every unrelated fixture).
        if any_reads:
            for var in sorted(set(ENV_ALLOWLIST) - seen_vars):
                findings.append(Finding(
                    "analysis/rules_dataflow.py", 1, 0, self.id,
                    f"allowlisted env var {var!r} is no longer read "
                    f"anywhere; remove the stale ENV_ALLOWLIST entry"))
        return findings


# --- mutable-global-state ----------------------------------------------------

_MUTABLE_FACTORIES = frozenset({"dict", "list", "set", "defaultdict",
                                "OrderedDict", "Counter", "deque"})
_MUTATOR_METHODS = frozenset({"append", "add", "update", "setdefault", "pop",
                              "popitem", "clear", "extend", "insert",
                              "remove", "discard", "appendleft",
                              "extendleft", "__setitem__"})


def _mutable_globals(tree) -> dict:
    """Module-level names bound to mutable containers, with linenos."""
    names: dict = {}
    for node in tree.body:
        targets, value = [], None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        mutable = isinstance(value, (ast.Dict, ast.List, ast.Set,
                                     ast.DictComp, ast.ListComp, ast.SetComp))
        if isinstance(value, ast.Call):
            name = dotted_name(value.func) or ""
            mutable = name.rsplit(".", 1)[-1] in _MUTABLE_FACTORIES
        if not mutable:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                names[target.id] = node.lineno
    return names


def _local_bindings(fn) -> set:
    """Names the function binds locally (params + plain assignments)."""
    bound = {a.arg for a in fn.args.args + fn.args.kwonlyargs
             + fn.args.posonlyargs}
    if fn.args.vararg:
        bound.add(fn.args.vararg.arg)
    if fn.args.kwarg:
        bound.add(fn.args.kwarg.arg)
    declared_global: set = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For)):
            target = node.target
            if isinstance(target, ast.Name):
                bound.add(target.id)
    return bound - declared_global


class MutableGlobalStateRule(AstRule):
    id = "mutable-global-state"
    family = "global-state"
    description = ("module-level mutable containers written from function "
                   "bodies are cross-cell shared state (the interleaved "
                   "multi-cell hazard)")
    packages = ("netsim", "baselines", "apps")

    def check(self, tree, source, relpath):
        globals_ = _mutable_globals(tree)
        if not globals_:
            return []
        findings = []
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            shadowed = _local_bindings(fn)
            declared_global = {n for node in ast.walk(fn)
                               if isinstance(node, ast.Global)
                               for n in node.names}
            for node in ast.walk(fn):
                hit = self._write_target(node)
                if hit is None:
                    continue
                name, verb = hit
                if name not in globals_:
                    continue
                if name in shadowed and name not in declared_global:
                    continue
                findings.append(Finding(
                    relpath, node.lineno, node.col_offset, self.id,
                    f"{fn.name}() {verb} module-level mutable {name!r} "
                    f"(declared at line {globals_[name]}); interleaved "
                    f"multi-cell execution would share this state"))
        return findings

    @staticmethod
    def _write_target(node):
        """``(global_name, verb)`` if this node writes through a name."""
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name):
                    return target.value.id, "assigns into"
                if isinstance(node, ast.AugAssign) \
                        and isinstance(target, ast.Name):
                    return target.id, "augments"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name):
                    return target.value.id, "deletes from"
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.attr in _MUTATOR_METHODS:
            return node.func.value.id, f"calls .{node.func.attr}() on"
        return None


# --- signature-purity --------------------------------------------------------

_SIGNATURE_NAMES = ("fingerprint", "signature")

_WRITE_IO_SUFFIXES = (".write", ".write_text", ".write_bytes", ".unlink",
                      ".mkdir", ".rmdir", ".rmtree", ".touch", ".rename",
                      ".replace")


def _is_signature_function(name: str) -> bool:
    return name in _SIGNATURE_NAMES or name.endswith("_signature") \
        or name.endswith("_fingerprint")


def _purity_violations(fn_node):
    """``(node, what)`` for each side effect inside one function body."""
    local_names = {a.arg for a in fn_node.args.args + fn_node.args.kwonlyargs
                   + fn_node.args.posonlyargs}
    created: set = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    created.add(target.id)
        elif isinstance(node, (ast.AnnAssign, ast.For)) \
                and isinstance(node.target, ast.Name):
            created.add(node.target.id)
        elif isinstance(node, ast.comprehension) \
                and isinstance(node.target, ast.Name):
            created.add(node.target.id)

    for node in ast.walk(fn_node):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            kind = "global" if isinstance(node, ast.Global) else "nonlocal"
            yield node, f"declares {kind} {', '.join(node.names)}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                root = target
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if root is target:
                    continue  # plain name binding: pure
                root_name = dotted_name(root)
                if root_name is None or root_name.split(".")[0] in created:
                    continue
                if root_name.split(".")[0] in local_names \
                        and root_name.split(".")[0] != "self":
                    # mutating a parameter is visible to the caller
                    yield node, f"stores into parameter {root_name!r}"
                else:
                    yield node, f"stores into {root_name!r}"
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            tail = name.rsplit(".", 1)[-1]
            parts = name.split(".")
            if tail in _RNG_CONSTRUCTORS or tail == "stream_rng":
                yield node, f"constructs an RNG via {name}()"
            elif "rng" in parts[:-1] and parts[-1] in _DRAW_METHODS:
                yield node, f"draws from an RNG via {name}()"
            elif name in _WALL_CLOCK or name.endswith(_WALL_CLOCK_SUFFIXES):
                yield node, f"reads the wall clock via {name}()"
            elif name in ("os.getenv", "getenv") \
                    or name.endswith("environ.get"):
                yield node, f"reads the environment via {name}()"
            elif name == "print" or any(name.endswith(s)
                                        for s in _WRITE_IO_SUFFIXES):
                yield node, f"performs write I/O via {name}()"
            elif name == "open" and _open_writes(node):
                yield node, "opens a file for writing"
        elif isinstance(node, ast.Subscript):
            base = dotted_name(node.value)
            if base in ("os.environ", "environ"):
                yield node, "reads the environment via os.environ[...]"


def _open_writes(call) -> bool:
    mode = None
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        mode = call.args[1].value
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            mode = kw.value.value
    return isinstance(mode, str) and any(c in mode for c in "wax+")


class SignaturePurityRule(ProjectRule):
    id = "signature-purity"
    family = "signature-purity"
    description = ("fingerprint/signature functions (and their direct "
                   "callees) must be side-effect-free: no stores, write "
                   "I/O, RNG use, env or clock reads")
    anchors = ("eval/scenarios.py", "netsim/", "eval/runner.py")

    def check_project(self, root):
        index = ProjectIndex(root)
        findings = []
        emitted: set = set()
        for qual, fn in sorted(index.functions.items()):
            short = qual.split(":")[-1]
            if not _is_signature_function(short.rsplit(".", 1)[-1]):
                continue
            for node, what in _purity_violations(fn.node):
                key = (fn.relpath, node.lineno, what)
                if key not in emitted:
                    emitted.add(key)
                    findings.append(Finding(
                        fn.relpath, node.lineno, node.col_offset, self.id,
                        f"{short}() {what}; cache-key producers must be "
                        f"pure"))
            # One level of call-through: a helper the signature function
            # calls directly is part of the cache key computation.
            for callee_qual in sorted(index.callees.get(qual, ())):
                callee = index.functions.get(callee_qual)
                if callee is None:
                    continue
                callee_short = callee_qual.split(":")[-1]
                if _is_signature_function(callee_short.rsplit(".", 1)[-1]):
                    continue  # checked in its own right
                for node, what in _purity_violations(callee.node):
                    key = (callee.relpath, node.lineno, what)
                    if key not in emitted:
                        emitted.add(key)
                        findings.append(Finding(
                            callee.relpath, node.lineno, node.col_offset,
                            self.id,
                            f"{callee_short}() {what}, and {short}() calls "
                            f"it; cache-key producers must be pure"))
        return findings
