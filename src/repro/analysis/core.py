"""The replint framework: findings, rules, suppressions, driver.

Two rule shapes cover everything the analyzer checks:

* :class:`AstRule` -- a per-file check over the parsed AST (plus raw
  source for suppression comments).  These are pure syntax: no imports
  of the analyzed code, so they run on any file, including the
  known-bad fixtures under ``tests/fixtures/replint/``.
* :class:`ProjectRule` -- a whole-project check over the
  :class:`~repro.analysis.project.ProjectIndex` of the tree (one also
  *introspects* live dataclass fields).  Project rules run only on a
  whole-tree scan: their findings can move without the flagged file
  changing, so a partial file list cannot vouch for them.

Findings are suppressed inline with ``# replint: disable=RULE`` on the
flagged line (``disable=all`` silences every rule there;
``disable-file=RULE`` anywhere in a file silences the whole file),
next to a justification comment.  That is the one suppression
mechanism: every real finding the rules surface is fixed or
suppressed where it lives, and CI fails on anything new.
"""

from __future__ import annotations

import ast
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.analysis.project import ProjectIndex, dotted_name

__all__ = ["Analyzer", "AstRule", "Finding", "ProjectRule", "Rule",
           "dotted_name", "parse_allowlist", "parse_suppressions"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def __str__(self) -> str:
        return f"{self.location()}: {self.rule}: {self.message}"


class Rule:
    """Base class: an identified, documented, package-scoped check."""

    #: Stable identifier used in reports and suppressions.
    id: str = ""
    #: One-line description shown by ``--list-rules``.
    description: str = ""
    #: Rule family (determinism / fingerprint / engine / rng).
    family: str = ""
    #: Package prefixes (relative to the analyzed root, ``/``-separated)
    #: this rule applies to; empty means every file.
    packages: tuple = ()

    def applies_to(self, relpath: str) -> bool:
        if not self.packages:
            return True
        rel = relpath.replace("\\", "/")
        return any(rel == p or rel.startswith(p + "/") for p in self.packages)


class AstRule(Rule):
    """A per-file check over the parsed AST."""

    def check(self, tree: ast.AST, source: str, relpath: str) -> list:
        raise NotImplementedError


class ProjectRule(Rule):
    """A whole-project check over the tree's :class:`ProjectIndex`."""

    def check_project(self, index: ProjectIndex) -> list:
        raise NotImplementedError


def parse_allowlist(tree: ast.Module, name: str, relpath: str,
                    rule_id: str):
    """``(entries, findings, lineno)`` from a module-level allowlist.

    The allowlist ``name`` must be a literal tuple of ``(entry,
    justification)`` string pairs with a non-empty justification --
    the rules that read one exist to force the *why* into the code.
    ``entries`` is ``None`` when ``tree`` declares no such allowlist.
    """
    findings: list[Finding] = []
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and \
                isinstance(node.target, ast.Name) and \
                node.target.id == name:
            value = node.value
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            value = node.value
        else:
            continue
        entries: list[str] = []
        if not isinstance(value, ast.Tuple):
            findings.append(Finding(
                relpath, node.lineno, node.col_offset, rule_id,
                f"{name} must be a literal tuple of "
                f"(name, justification) pairs"))
            return entries, findings, node.lineno
        for elt in value.elts:
            if (isinstance(elt, ast.Tuple) and len(elt.elts) == 2
                    and all(isinstance(e, ast.Constant)
                            and isinstance(e.value, str)
                            for e in elt.elts)):
                entry, why = (e.value for e in elt.elts)
                if not why.strip():
                    findings.append(Finding(
                        relpath, elt.lineno, elt.col_offset, rule_id,
                        f"{name} entry {entry!r} has an empty "
                        f"justification"))
                entries.append(entry)
            else:
                findings.append(Finding(
                    relpath, elt.lineno, elt.col_offset, rule_id,
                    f"{name} entries must be literal "
                    f"(name, justification) string pairs"))
        return entries, findings, node.lineno
    return None, findings, 1


# --- suppressions ------------------------------------------------------------

_DISABLE_RE = re.compile(
    r"#\s*replint:\s*disable(?P<filewide>-file)?=(?P<rules>[\w*,\-]+)")


def parse_suppressions(source: str) -> tuple[dict, set]:
    """``(per_line, file_wide)`` rule-id sets from disable comments.

    ``per_line`` maps 1-based line numbers to the rule ids disabled on
    that line; ``file_wide`` holds ids disabled for the whole file.
    ``all`` (or ``*``) matches every rule.  The scan is line-based on
    purpose -- a disable marker inside a string literal also counts,
    which is harmless and keeps the mechanism trivially predictable.
    """
    per_line: dict[int, set] = {}
    file_wide: set = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _DISABLE_RE.search(line)
        if match is None:
            continue
        ids = {r.strip() for r in match.group("rules").split(",") if r.strip()}
        if match.group("filewide"):
            file_wide |= ids
        else:
            per_line.setdefault(lineno, set()).update(ids)
    return per_line, file_wide


def _is_suppressed(finding: Finding, suppressions: dict) -> bool:
    per_line, file_wide = suppressions.get(finding.path, ({}, set()))
    ids = file_wide | per_line.get(finding.line, set())
    return bool(ids & {finding.rule, "all", "*"})


# --- driver ------------------------------------------------------------------

def default_root() -> Path:
    """The ``repro`` package directory this module was imported from."""
    return Path(__file__).resolve().parents[1]


class Analyzer:
    """Run a rule set over a source tree and collect findings.

    ``root`` is the package directory findings are reported relative to
    (default: the live ``repro`` package).  ``analyze()`` parses once
    into a :class:`ProjectIndex` (kept as ``self.index``) and runs the
    AST rules over its module trees.  With no file list it indexes the
    whole tree and also runs every project rule over the index; with
    an explicit file list only the AST rules run.
    """

    def __init__(self, root: str | Path | None = None, rules=None):
        self.root = Path(root).resolve() if root is not None else default_root()
        if rules is None:
            from repro.analysis.registry import all_rules
            rules = all_rules()
        self.rules = list(rules)
        self.index: ProjectIndex | None = None

    def analyze(self, files=None) -> list[Finding]:
        """Findings over ``files`` (default: the whole tree), sorted.

        Suppression comments are honoured for every finding that points
        into an indexed file -- project-rule findings included.
        """
        paths = None if files is None else \
            sorted({Path(f).resolve() for f in files})
        self.index = index = ProjectIndex(self.root, paths)
        findings = [Finding(relpath, line, 0, "parse-error", message)
                    for relpath, line, message in index.parse_errors]
        suppressions: dict[str, tuple[dict, set]] = {}
        for info in index.modules.values():
            suppressions[info.relpath] = parse_suppressions(info.source)
            for rule in self.rules:
                if isinstance(rule, AstRule) and rule.applies_to(info.relpath):
                    findings.extend(
                        f for f in rule.check(info.tree, info.source,
                                              info.relpath)
                        if not _is_suppressed(f, suppressions))
        if files is None:
            for rule in self.rules:
                if isinstance(rule, ProjectRule):
                    findings.extend(f for f in rule.check_project(index)
                                    if not _is_suppressed(f, suppressions))
        return sorted(findings)


def finding_to_dict(finding: Finding) -> dict:
    return asdict(finding)
