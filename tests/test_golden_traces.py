"""Golden-trace bit-identity for the optimized event engine.

PR 5 rebuilt the discrete-event hot path (integer dispatch,
allocation-free transit, flat-buffer MI statistics, block-drawn RNG)
under a hard guarantee: **the floats do not move**.  These tests pin
that guarantee to goldens generated from the *pre-optimization* engine
(see ``scripts/make_engine_goldens.py``): a seeded multi-flow,
multi-hop, wired-reverse grid is re-run on the current engine, and
every scenario's full result rows (per-MI records included) must
digest-identically match.

The digest covers every float the result cache persists, serialized
via JSON ``repr`` (shortest round-trip -- exact for float64).  A
mismatch therefore means the engine's arithmetic changed, not a
formatting burp.

Cross-platform note: the simulator's statistics use numpy reductions
(pairwise-summation ``mean``, BLAS ``dot``) whose last-bit rounding is
stable on any one platform but can differ across exotic BLAS builds.
``REPRO_GOLDEN_RELAXED=1`` downgrades the digest assertion to a tight
numeric comparison of the per-flow summary statistics for such hosts.
"""

import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.eval.parallel import ParallelRunner
from repro.eval.resilience import record_to_json
from repro.eval.scenarios import ChurnSchedule, FlowDef, ScenarioSuite
from repro.netsim.topology import dumbbell_asymmetric, parking_lot

GOLDEN_PATH = Path(__file__).parent / "goldens" / "engine_golden.json"


def golden_suites() -> tuple:
    """The pinned grid: single-bottleneck x loss x trace, a churned
    parking lot, and a wired-reverse asymmetric dumbbell.  Heuristic
    schemes only (no model zoo), fixed seeds, short durations."""
    lot = parking_lot(2, bandwidth_mbps=12.0, delay_ms=6.0)
    asym = dumbbell_asymmetric(bandwidth_mbps=12.0, delay_ms=6.0,
                               reverse_bandwidth_mbps=1.2)
    single = ScenarioSuite(
        name="golden-single",
        lineups={"duo": ("cubic", "bbr"),
                 "trio": ("copa", "vivace", "vegas")},
        bandwidths_mbps=(8.0,), losses=(0.0, 0.02),
        traces=(None, "fig1-step"), duration=4.0, seeds=(11,))
    lot_suite = ScenarioSuite(
        name="golden-lot",
        lineups={f"{s}-through": (
            FlowDef(s, path="through", label=f"{s}-through"),
            FlowDef("cubic", path="cross0", label="cross0"),
            FlowDef("cubic", path="cross1", label="cross1"))
            for s in ("cubic", "bbr")},
        topologies=(lot,),
        churns=(None, ChurnSchedule("on-off", gap=1.0, on_time=1.5,
                                    period=2.5, skip=1)),
        duration=4.0, seeds=(11,))
    ack_suite = ScenarioSuite(
        name="golden-ack",
        lineups={f"{s}-dl": (
            FlowDef(s, path="through", label=f"{s}-dl"),
            FlowDef("cubic", path="reverse", label="ul0"))
            for s in ("cubic", "vivace")},
        topologies=(asym,), duration=4.0, seeds=(11,))
    return single, lot_suite, ack_suite


def compute_goldens() -> dict:
    """Run the golden grid; return per-scenario digests + summaries."""
    runner = ParallelRunner(n_workers=1, use_cache=False)
    scenarios = {}
    for suite in golden_suites():
        for result in runner.run(suite):
            rows = [record_to_json(r) for r in result.records]
            blob = json.dumps(rows, sort_keys=True)
            scenarios[result.scenario.name] = {
                "digest": hashlib.sha256(blob.encode()).hexdigest(),
                "summary": [[r.scheme, r.mean_throughput_pps, r.mean_rtt,
                             r.loss_rate] for r in result.records],
            }
    return scenarios


@pytest.fixture(scope="module")
def goldens() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.fail(f"golden file missing: {GOLDEN_PATH}; regenerate with "
                    f"scripts/make_engine_goldens.py")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def fresh() -> dict:
    return compute_goldens()


class TestGoldenTraces:
    def test_grid_shape_unchanged(self, goldens, fresh):
        assert sorted(fresh) == sorted(goldens["scenarios"]), \
            "golden grid changed; regenerate scripts/make_engine_goldens.py"

    def test_digest_identical_to_pre_optimization_engine(self, goldens, fresh):
        relaxed = os.environ.get("REPRO_GOLDEN_RELAXED") == "1"
        mismatched = []
        for name, entry in goldens["scenarios"].items():
            got = fresh[name]
            if got["digest"] != entry["digest"]:
                mismatched.append(name)
                if relaxed:
                    for want_row, got_row in zip(entry["summary"],
                                                 got["summary"]):
                        assert want_row[0] == got_row[0], name
                        for want, got_v in zip(want_row[1:], got_row[1:]):
                            if want is None or got_v is None:
                                assert want == got_v, (name, want_row)
                            else:
                                assert got_v == pytest.approx(
                                    want, rel=1e-9, abs=1e-12), (name,
                                                                 want_row)
        if not relaxed:
            assert not mismatched, (
                f"{len(mismatched)} scenario(s) diverged from the "
                f"pre-optimization goldens: {mismatched[:5]}")
