"""Resilient-runtime rule: retried pool tasks must be idempotent.

``resilience-idempotent-retry``
    Static: :class:`~repro.eval.resilience.ResilientPool` re-runs its
    task function after crashes and timeouts, which is only sound for
    idempotent tasks.  Every pool call site's task function must be a
    module-level function named on the justified
    ``IDEMPOTENT_TASKS`` allowlist in ``eval/resilience.py``; stale
    entries (function gone, or no pool uses it) are findings, the same
    honesty mechanism the env and batch allowlists use.
"""

from __future__ import annotations

import ast

from repro.analysis.core import (Finding, ProjectRule, dotted_name,
                                 parse_allowlist)

__all__ = ["ResilienceRetryRule"]

RESILIENCE_RELPATH = "eval/resilience.py"

TASK_ALLOWLIST_NAME = "IDEMPOTENT_TASKS"

#: The package allowlist entries are dotted against
#: (``repro.eval.parallel._run_batch``).
PACKAGE = "repro"


def _entry_defined(index, entry: str) -> bool:
    """Does allowlist entry ``entry`` name a real module-level function?"""
    module, _, func = entry.rpartition(".")
    if not module.startswith(PACKAGE + "."):
        return False
    info = index.modules.get(module[len(PACKAGE) + 1:])
    return info is not None and func in info.functions


class ResilienceRetryRule(ProjectRule):
    id = "resilience-idempotent-retry"
    description = ("ResilientPool task functions must be module-level "
                   "functions on the justified IDEMPOTENT_TASKS allowlist "
                   "(retries re-run them)")
    family = "resilience"

    def _task_arg(self, call: ast.Call) -> ast.AST | None:
        for kw in call.keywords:
            if kw.arg == "fn":
                return kw.value
        if len(call.args) >= 2:
            return call.args[1]
        return None

    def check_project(self, index) -> list:
        allow: list[str] | None = None
        findings: list[Finding] = []
        allow_line = 1
        pool_module = index.module_at(RESILIENCE_RELPATH)
        if pool_module is not None:
            allow, findings, allow_line = parse_allowlist(
                pool_module.tree, TASK_ALLOWLIST_NAME, RESILIENCE_RELPATH,
                self.id)

        used: set[str] = set()
        sites = 0
        for info in sorted(index.modules.values(), key=lambda m: m.relpath):
            if info.relpath == RESILIENCE_RELPATH:
                continue  # the pool's own definition is not a call site
            module = f"{PACKAGE}.{info.module}" if info.module else PACKAGE
            for node in ast.walk(info.tree):
                if not isinstance(node, ast.Call):
                    continue
                func = dotted_name(node.func)
                if func is None or \
                        func.rsplit(".", 1)[-1] != "ResilientPool":
                    continue
                sites += 1
                arg = self._task_arg(node)
                if arg is None:
                    continue  # no task argument: a TypeError at runtime
                if isinstance(arg, ast.Name):
                    full = f"{module}.{arg.id}"
                    if allow is not None and full in allow:
                        used.add(full)
                        continue
                    findings.append(Finding(
                        info.relpath, arg.lineno, arg.col_offset, self.id,
                        f"ResilientPool task {full!r} is not on "
                        f"{TASK_ALLOWLIST_NAME}; retries re-run the task, "
                        f"so list it with an idempotency justification"))
                elif (full := dotted_name(arg)) is not None:
                    last = full.rsplit(".", 1)[-1]
                    match = next((entry for entry in (allow or ())
                                  if entry.rsplit(".", 1)[-1] == last), None)
                    if match is not None:
                        used.add(match)
                        continue
                    findings.append(Finding(
                        info.relpath, arg.lineno, arg.col_offset, self.id,
                        f"ResilientPool task {full!r} matches no "
                        f"{TASK_ALLOWLIST_NAME} entry"))
                else:
                    findings.append(Finding(
                        info.relpath, arg.lineno, arg.col_offset, self.id,
                        f"ResilientPool task must be a module-level "
                        f"function named on {TASK_ALLOWLIST_NAME}, not an "
                        f"inline expression (workers re-import it by "
                        f"reference and retries re-run it)"))

        if sites and allow is None:
            findings.append(Finding(
                RESILIENCE_RELPATH, 1, 0, self.id,
                f"ResilientPool is used but no module-level "
                f"{TASK_ALLOWLIST_NAME} is declared in "
                f"{RESILIENCE_RELPATH}; declare the allowlist so retry "
                f"safety stays auditable"))
        for entry in allow or ():
            if not _entry_defined(index, entry):
                findings.append(Finding(
                    RESILIENCE_RELPATH, allow_line, 0, self.id,
                    f"stale {TASK_ALLOWLIST_NAME} entry {entry!r}: no "
                    f"module-level function by that dotted name exists; "
                    f"remove or fix the entry"))
            elif sites and entry not in used:
                findings.append(Finding(
                    RESILIENCE_RELPATH, allow_line, 0, self.id,
                    f"stale {TASK_ALLOWLIST_NAME} entry {entry!r}: no "
                    f"ResilientPool call site uses it; remove the entry"))
        return findings
