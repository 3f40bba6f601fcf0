"""Step-able engine core + in-process batched multi-cell execution.

Three guarantees, layered:

* **Stepping is invisible.**  ``SimState.step_until`` / ``step_events``
  partition ``run()``'s event loop arbitrarily without moving a single
  float: handlers stamp ``sim.now`` from the popped event, so slice
  boundaries never leak into the dynamics.
* **Batching is invisible.**  ``BatchRunner`` interleaves N cells in
  one process sharing only frozen assets, so every cell's records are
  bit-identical to running it solo -- pinned here across every perf
  shape, and at the runner level by the serial == process-parallel ==
  batched identity grid.
* **Failures stay per cell.**  A mid-batch ``ScenarioError`` surfaces
  the failing cell's name while its batch siblings complete (and
  cache).
"""

import numpy as np
import pytest

from repro.eval.batch import (
    SHARED_IMMUTABLE_ALLOWLIST,
    BatchRunner,
    warm_agent_refs,
)
from repro.eval.parallel import ParallelRunner, ScenarioError
from repro.eval.perf import PERF_SHAPES, batched_grid_scenarios, perf_scenarios
from repro.eval.scenarios import (
    ChurnSchedule,
    FlowDef,
    Scenario,
    ScenarioSuite,
    build_scenario_simulation,
)
from repro.eval.resilience import records_digest
from repro.eval.runner import EvalNetwork
from repro.netsim.network import SimState
from repro.netsim.topology import parking_lot


def solo_digest(scenario) -> str:
    """Reference result: the cell alone, plain ``run_all``."""
    sim = build_scenario_simulation(scenario)
    return records_digest(sim.run_all())


class TestSimStateStepping:
    """The resumable core against the one-shot loop."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return perf_scenarios("single-bottleneck", duration=1.5)[0]

    @pytest.fixture(scope="class")
    def reference(self, scenario):
        sim = build_scenario_simulation(scenario)
        records = sim.run_all()
        return records_digest(records), sim.events_processed

    def test_step_until_slices_are_bit_identical(self, scenario, reference):
        digest, events = reference
        sim = build_scenario_simulation(scenario)
        t = 0.0
        while not sim.state.done:
            t += 0.05
            sim.state.step_until(t)
        assert sim.state.done
        assert records_digest(sim.run_all()) == digest
        assert sim.events_processed == events

    def test_step_events_slices_are_bit_identical(self, scenario, reference):
        digest, events = reference
        sim = build_scenario_simulation(scenario)
        while sim.state.step_events(193):
            pass
        assert sim.state.done
        assert records_digest(sim.run_all()) == digest
        assert sim.events_processed == events

    def test_mixed_slicing_is_bit_identical(self, scenario, reference):
        digest, events = reference
        sim = build_scenario_simulation(scenario)
        sim.state.step_events(77)
        sim.state.step_until(0.4)
        sim.state.step_events(1)
        sim.state.step_until(None)  # the rest in one slice
        assert sim.state.done
        assert records_digest(sim.run_all()) == digest
        assert sim.events_processed == events

    def test_step_until_counts_and_clamps(self, scenario):
        sim = build_scenario_simulation(scenario)
        n = sim.state.step_until(0.25)
        assert n > 0 and sim.events_processed == n
        assert sim.now == 0.25  # idle clock lands on the horizon
        # Horizons past the duration clamp to it.
        sim.state.step_until(sim.duration + 100.0)
        assert sim.state.done and sim.now == sim.duration

    def test_peek_time_is_next_event(self, scenario):
        sim = build_scenario_simulation(scenario)
        first = sim.state.peek_time()
        assert first is not None and first >= 0.0
        sim.state.step_events(1)
        assert sim.state.peek_time() >= first

    def test_run_delegates_to_state(self, scenario):
        sim = build_scenario_simulation(scenario)
        assert isinstance(sim.state, SimState)
        sim.run(0.5)
        assert sim.now == 0.5
        assert not sim.state.done


class TestBatchRunner:
    """Interleaved cells == solo cells, bit for bit."""

    @pytest.mark.parametrize("shape", PERF_SHAPES)
    def test_batched_cells_match_solo_runs(self, shape):
        scenarios = perf_scenarios(shape, duration=0.5)
        cells = BatchRunner(slice_seconds=0.07).run(scenarios)
        assert len(cells) == len(scenarios)
        for scenario, cell in zip(scenarios, cells):
            assert cell.error is None
            assert cell.events > 0 and cell.elapsed > 0.0
            assert records_digest(cell.records) == solo_digest(scenario)

    def test_batched_grid_matches_solo_runs(self):
        scenarios = batched_grid_scenarios(cells=8, duration=0.25)
        cells = BatchRunner().run(scenarios)
        for scenario, cell in zip(scenarios, cells):
            assert cell.error is None
            assert records_digest(cell.records) == solo_digest(scenario)

    def test_cells_share_one_frozen_trace(self):
        scenarios = batched_grid_scenarios(cells=4, duration=0.25)
        cells = BatchRunner().build_cells(scenarios)
        traces = {id(link.trace) for cell in cells
                  for link in cell.sim.links if link.trace is not None}
        walks = [link.trace for cell in cells for link in cell.sim.links
                 if isinstance(getattr(link.trace, "values", None),
                               np.ndarray)]
        assert walks, "grid scenarios must use a named array-backed trace"
        # One shared instance across all cells...
        assert len({id(t) for t in walks}) == 1
        # ...frozen read-only before any cell saw it.
        assert not walks[0].values.flags.writeable
        with pytest.raises(ValueError):
            walks[0].values[0] = 1.0
        assert traces  # sanity: the walk set came from real links

    def test_cells_never_share_generators(self):
        scenarios = batched_grid_scenarios(cells=4, duration=0.25)
        cells = BatchRunner().build_cells(scenarios)
        rngs = []
        for cell in cells:
            sim = cell.sim
            rngs.extend([id(sim.rng), id(sim._hop_rng)])
            rngs.extend(id(link.rng) for link in sim.links
                        if getattr(link, "rng", None) is not None)
        assert len(rngs) == len(set(rngs))

    def test_mid_batch_failure_spares_siblings(self):
        good = perf_scenarios("single-bottleneck", duration=0.3)[0]
        bad = Scenario(name="perf/broken", network=EvalNetwork(),
                       flows=("no-such-scheme",), duration=0.3, suite="perf")
        cells = BatchRunner().run([good, bad, good])
        assert cells[1].error is not None
        assert "no-such-scheme" in cells[1].error
        assert cells[1].records is None
        for cell in (cells[0], cells[2]):
            assert cell.error is None
            assert records_digest(cell.records) == solo_digest(good)

    def test_allowlist_shape(self):
        # The replint isolation rules parse this structure from the AST;
        # keep it literal (name, justification) pairs.
        for name, justification in SHARED_IMMUTABLE_ALLOWLIST:
            assert isinstance(name, str) and name
            assert isinstance(justification, str) and justification.strip()

    def test_warm_agent_refs_accepts_classical_schemes(self):
        # No AgentRefs anywhere: must be a no-op, not a crash.
        warm_agent_refs(perf_scenarios("single-bottleneck", duration=0.3))


def identity_suite() -> list[Scenario]:
    """Satellite grid: single-bottleneck, parking lot, and churn cells."""
    churn = ChurnSchedule("on-off", gap=0.5, on_time=1.0, period=1.5, skip=1)
    single = ScenarioSuite(
        name="batch-identity/single",
        lineups={"duo": ("cubic", "bbr")},
        churns=(None, churn), duration=2.0, seeds=(3,))
    lot = ScenarioSuite(
        name="batch-identity/lot",
        lineups={"lot": (FlowDef("copa", path="through", label="through"),
                         FlowDef("cubic", path="cross0", label="cross0"),
                         FlowDef("cubic", path="cross1", label="cross1"))},
        topologies=(parking_lot(2, bandwidth_mbps=10.0, delay_ms=5.0),),
        churns=(None, churn), duration=2.0, seeds=(3,))
    return single.expand() + lot.expand()


class TestRunnerDispatchIdentity:
    """Serial == process-parallel == batched, per cell (satellite 3)."""

    def test_three_dispatch_modes_agree(self, tmp_path):
        suite = identity_suite()
        runs = {
            "serial": ParallelRunner(n_workers=1, use_cache=False,
                                     batch_size=1).run(suite),
            "parallel": ParallelRunner(n_workers=2, use_cache=False,
                                       batch_size=1).run(suite),
            "batched": ParallelRunner(n_workers=2, use_cache=False,
                                      batch_size=3).run(suite),
        }
        digests = {
            mode: {r.scenario.name: records_digest(r.records)
                   for r in result}
            for mode, result in runs.items()
        }
        assert digests["serial"] == digests["parallel"] == digests["batched"]
        # Per-cell accounting flows through every dispatch mode.
        for result in runs.values():
            for r in result:
                assert r.events > 0 and r.elapsed > 0.0

    def test_result_rows_carry_events_and_wall(self):
        suite = identity_suite()
        result = ParallelRunner(n_workers=1, use_cache=False).run(suite)
        for row in result.table:
            assert row["events"] > 0
            assert row["wall_s"] > 0.0

    def test_cached_rows_carry_producing_run_events(self, tmp_path):
        suite = identity_suite()
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        first = runner.run(suite)
        assert first.cache_misses == len(first)
        second = runner.run(suite)
        assert second.cache_hits == len(second)
        # A hit restores the producing run's events and wall time...
        assert ([(row["events"], row["wall_s"]) for row in second.table]
                == [(row["events"], row["wall_s"]) for row in first.table])
        assert all(row["cached"] for row in second.table)
        # ...but engine speed counts executed cells only.
        assert first.total_events > 0
        assert second.total_events == 0
        assert second.events_per_sec is None
        # Cache-served results are bit-identical to the executed ones.
        for a, b in zip(first, second):
            assert records_digest(a.records) == records_digest(b.records)

    def test_batched_failure_names_cell_and_caches_siblings(self, tmp_path):
        good = perf_scenarios("single-bottleneck", duration=0.3)
        bad = Scenario(name="perf/broken", network=EvalNetwork(),
                       flows=("no-such-scheme",), duration=0.3, suite="perf")
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path,
                                batch_size=4)
        with pytest.raises(ScenarioError) as err:
            runner.run(good + [bad])
        assert err.value.scenario_name == "perf/broken"
        # The healthy batch sibling completed and cached: a re-run of
        # just that cell is a pure hit.
        again = runner.run(good)
        assert again.cache_hits == len(good)

    def test_explicit_batch_size_validates(self):
        with pytest.raises(ValueError):
            ParallelRunner(batch_size=0)

    def test_auto_batch_size_bounds(self):
        runner = ParallelRunner(n_workers=2)
        assert runner._pick_batch_size(1) == 1
        assert runner._pick_batch_size(6) == 1
        assert runner._pick_batch_size(60) == 10
        assert runner._pick_batch_size(10_000) == runner.MAX_AUTO_BATCH
        # early_abort forces cell-per-task dispatch.
        assert ParallelRunner(n_workers=2, early_abort=True,
                              batch_size=8)._pick_batch_size(64) == 1


class TestBatchInterrupts:
    """Interrupts stay surgical.

    A deterministic cell exception is a per-cell error (siblings
    complete and cache); a KeyboardInterrupt is *not* a cell failure
    -- it propagates immediately instead of being recorded as an
    error -- and at the runner level the cells completed before the
    interrupt are already cached, so a resumed run only pays for what
    the interrupt cancelled.
    """

    def _cells(self, duration=0.4):
        return ScenarioSuite(
            name="interrupt", lineups=("cubic", "vegas", "bbr"),
            duration=duration).expand()

    def _interrupt_on_second_cell(self, monkeypatch):
        """Patch ``SimState`` so the second *distinct* state object to
        step raises KeyboardInterrupt (strong refs, so id-reuse after
        gc can never alias two states)."""
        original = SimState.step_until
        seen: list = []

        def interrupting(self, horizon):
            if not any(s is self for s in seen):
                seen.append(self)
                if len(seen) == 2:
                    raise KeyboardInterrupt
            return original(self, horizon)

        monkeypatch.setattr(SimState, "step_until", interrupting)
        return original

    def test_mid_batch_exception_spares_and_caches_siblings(self, tmp_path):
        good = self._cells()
        bad = Scenario(name="interrupt/broken",
                       network=EvalNetwork(), flows=("no-such-scheme",),
                       duration=0.4)
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path,
                                batch_size=4)
        with pytest.raises(ScenarioError) as err:
            runner.run([good[0], bad, good[1], good[2]])
        assert err.value.scenario_name == "interrupt/broken"
        # Every healthy batch sibling completed and cached despite the
        # failure in the middle of the batch.
        again = runner.run(good)
        assert again.cache_hits == len(good)

    def test_keyboard_interrupt_is_not_a_cell_error(self, monkeypatch):
        scenarios = self._cells()
        self._interrupt_on_second_cell(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            BatchRunner(slice_seconds=0.1).run(scenarios)

    def test_interrupted_sweep_keeps_completed_cells_cached(
            self, tmp_path, monkeypatch):
        scenarios = self._cells()
        original = self._interrupt_on_second_cell(monkeypatch)
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path,
                                batch_size=1)
        with pytest.raises(KeyboardInterrupt):
            runner.run(scenarios)
        assert scenarios[0].fingerprint() in runner.cache
        assert scenarios[1].fingerprint() not in runner.cache
        # Resuming after the interrupt only pays for the cancelled tail.
        monkeypatch.setattr(SimState, "step_until", original)
        resumed = runner.run(scenarios)
        assert resumed.cache_hits == 1 and resumed.cache_misses == 2
