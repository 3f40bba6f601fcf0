"""replint: determinism & cache-correctness static analysis.

Everything this reproduction promises -- bit-identical golden traces,
serial==parallel suite identity, and a fingerprint-keyed result cache
whose staleness rules live in :meth:`repro.eval.scenarios.Scenario.
fingerprint` -- rests on invariants that are easy to break silently:
an unseeded RNG stream, a wall-clock read in the engine, a new
dataclass field forgotten by its signature function, an ``EV_*`` event
kind missing from the handler table.  This package turns those
invariants into machine-checked rules:

* :mod:`repro.analysis.core` -- the framework: :class:`Finding`,
  :class:`Rule` (per-file AST rules and whole-project rules), the
  :class:`Analyzer` driver and inline ``# replint: disable=RULE``
  suppressions, the one suppression mechanism;
* :mod:`repro.analysis.rules_determinism` -- unseeded/global RNG,
  wall-clock reads, unsorted directory walks, set-order iteration;
* :mod:`repro.analysis.rules_fingerprint` -- every
  ``Scenario``/``FlowDef``/``LinkDef``/``PathDef``/``TopologySpec``
  dataclass field is consumed by its signature function or explicitly
  excluded (a new field cannot silently alias cache entries);
* :mod:`repro.analysis.rules_engine` -- the ``EV_*`` handler table,
  heap-push tuple arity, ``__slots__`` discipline, 4-tuple
  ``Link.transmit()`` unpacking;
* :mod:`repro.analysis.rules_rng` -- RNG-stream discipline: simulation
  classes receive their ``Generator`` via parameter instead of
  constructing ad-hoc streams in hot paths;
* :mod:`repro.analysis.project` -- the whole-program layer and the
  analyzer's one parse of the tree: project symbol table + call graph
  (import resolution incl. function-level imports, class/method
  indexing, caller/callee closures);
* :mod:`repro.analysis.rules_dataflow` -- the cross-module rules built
  on it: RNG-stream ownership against the
  :mod:`repro.netsim.rngstreams` registry (undeclared constructions,
  foreign draws, shared drains, colliding seed derivations), env-taint
  (``os.environ`` reads reaching execution or cached rows must be
  fingerprinted or justified-allowlisted), mutable global state in
  simulation packages, and fingerprint/signature purity;
* :mod:`repro.analysis.rules_batch` -- batched cells share only
  allowlisted immutable assets, and the batch layer mints no RNG;
* :mod:`repro.analysis.rules_resilience` -- retried pool tasks are
  on the justified idempotent-task allowlist.

Run it with ``python -m repro.analysis`` (or ``scripts/replint.py``);
``--format=sarif`` emits SARIF 2.1.0 for GitHub code scanning.  The
tier-1 test :mod:`tests.test_analysis` asserts zero findings on the
repository.
"""

from repro.analysis.core import (
    Analyzer,
    AstRule,
    Finding,
    ProjectRule,
    Rule,
)
from repro.analysis.project import ProjectIndex
from repro.analysis.registry import all_rules, rules_by_id

__all__ = ["Analyzer", "AstRule", "Finding", "ProjectIndex",
           "ProjectRule", "Rule", "all_rules", "rules_by_id"]
