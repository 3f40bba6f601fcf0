"""Resilient sweep runtime: retries, crash recovery, cache-backed resume.

Three layers, mirroring ``repro.eval.resilience``:

* **RetryPolicy** -- validation, deterministic seeded backoff.
* **ResilientPool** -- crash/timeout recovery with the chaos hook:
  deterministic task exceptions are never retried, crashed workers
  are respawned and the task requeued within budget, exhausted
  budgets come back as error results, and closing the pool early
  stops every worker at once.
* **ParallelRunner integration** -- a dead worker fails its cells
  instead of hanging the sweep, failure budgets become error rows,
  corrupt cache entries are quarantined and recomputed, and a
  killed-then-resumed sweep is row-for-row identical to an
  uninterrupted run.
"""

import json
import multiprocessing as mp
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.eval.parallel import ParallelRunner, ScenarioError
from repro.eval.resilience import (
    IDEMPOTENT_TASKS,
    ResilientPool,
    RetryPolicy,
    records_digest,
    set_chaos_hook,
)
from repro.eval.runner import EvalNetwork
from repro.eval.scenarios import Scenario, ScenarioSuite

NET = EvalNetwork(bandwidth_mbps=8.0, one_way_ms=10.0, buffer_bdp=1.0)

#: Four cells: small enough for CI, wide enough that a killed batch
#: leaves cached survivors to resume from.
SMALL = ScenarioSuite(name="resume", lineups=("cubic", "vegas"),
                      seeds=(0, 1), duration=1.0)


@pytest.fixture(autouse=True)
def _no_leaked_chaos_hook():
    yield
    set_chaos_hook(None)


# --- module-level task functions (forked into pool workers) -----------------


def _log_and_double(arg):
    value, log = arg
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    return value * 2


def _log_and_fail(arg):
    value, log = arg
    with open(log, "a") as fh:
        fh.write(f"{value}\n")
    raise ValueError(f"deterministic failure for {value}")


def _sleep_forever(arg):
    time.sleep(60.0)
    return arg


def _echo_or_sleep(arg):
    if arg == "sleep":
        time.sleep(60.0)
    return arg


def _kill_once(marker: Path):
    """Chaos hook: hard-kill the first worker that probes, then behave."""
    def hook(arg):
        if not marker.exists():
            marker.write_text("killed")
            os._exit(17)
    return hook


def _always_kill(target):
    """Chaos hook: hard-kill every worker handed ``target``."""
    def hook(arg):
        value = arg[0] if isinstance(arg, tuple) else arg
        if value == target:
            os._exit(17)
    return hook


def _kill_batch_once(marker: Path, target):
    """Chaos hook: kill the worker holding batch ``target``, once."""
    def hook(arg):
        if arg == target and not marker.exists():
            marker.write_text("killed")
            os._exit(17)
    return hook


class TestRetryPolicy:
    @pytest.mark.parametrize("bad", [
        dict(max_attempts=0),
        dict(backoff_s=-0.1),
        dict(backoff_factor=0.5),
        dict(jitter_frac=-0.1),
        dict(jitter_frac=1.0),
    ])
    def test_bad_policies_fail_at_construction(self, bad):
        with pytest.raises(ValueError):
            RetryPolicy(**bad)

    def test_delays_are_seeded_and_bounded(self):
        policy = RetryPolicy(backoff_s=0.5, backoff_factor=2.0,
                             jitter_frac=0.1, seed=3)
        a = [policy.delay(k, np.random.default_rng(3)) for k in (1, 2, 3)]
        b = [policy.delay(k, np.random.default_rng(3)) for k in (1, 2, 3)]
        assert a == b  # same seed, same jitter, same delays
        for failures, delay in enumerate(a, start=1):
            base = 0.5 * 2.0 ** (failures - 1)
            assert base * 0.9 <= delay <= base * 1.1

    def test_zero_jitter_is_pure_exponential(self):
        policy = RetryPolicy(backoff_s=0.25, backoff_factor=3.0,
                             jitter_frac=0.0)
        rng = np.random.default_rng(0)
        assert [policy.delay(k, rng) for k in (1, 2, 3)] == [
            0.25, 0.75, 2.25]

    def test_allowlist_entries_are_justified(self):
        # The live mirror of replint's resilience-idempotent-retry rule.
        assert IDEMPOTENT_TASKS
        for entry, justification in IDEMPOTENT_TASKS:
            assert entry.startswith("repro.")
            assert justification.strip()


class TestResilientPool:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ResilientPool(0, _log_and_double)

    def test_empty_task_list_yields_nothing(self):
        pool = ResilientPool(2, _log_and_double)
        assert list(pool.execute([])) == []

    def test_happy_path_unordered_results(self, tmp_path):
        log = tmp_path / "log"
        pool = ResilientPool(2, _log_and_double)
        tasks = [(i, (i, str(log)), None) for i in range(6)]
        out = dict()
        for task_id, result, error in pool.execute(tasks):
            assert error is None
            out[task_id] = result
        assert out == {i: 2 * i for i in range(6)}
        assert sorted(log.read_text().split()) == [str(i) for i in range(6)]

    def test_deterministic_exception_is_never_retried(self, tmp_path):
        log = tmp_path / "log"
        pool = ResilientPool(1, _log_and_fail,
                             retry=RetryPolicy(max_attempts=3,
                                               backoff_s=0.01))
        [(task_id, result, error)] = list(
            pool.execute([(0, (7, str(log)), None)]))
        assert result is None
        assert "ValueError: deterministic failure for 7" in error
        # Exactly one attempt: a seeded cell that failed once fails
        # identically every time, so retrying would only burn time.
        assert log.read_text() == "7\n"

    def test_crashed_worker_respawned_and_task_retried(self, tmp_path):
        marker = tmp_path / "killed"
        log = tmp_path / "log"
        set_chaos_hook(_kill_once(marker))
        pool = ResilientPool(1, _log_and_double,
                             retry=RetryPolicy(max_attempts=3,
                                               backoff_s=0.02, seed=1))
        out = dict()
        for task_id, result, error in pool.execute(
                [(i, (i, str(log)), None) for i in range(3)]):
            assert error is None, error
            out[task_id] = result
        assert out == {0: 0, 1: 2, 2: 4}
        assert marker.exists()  # the chaos kill actually fired

    def test_crash_budget_exhaustion_is_an_error_result(self, tmp_path):
        log = tmp_path / "log"
        set_chaos_hook(_always_kill(1))
        pool = ResilientPool(2, _log_and_double,
                             retry=RetryPolicy(max_attempts=2,
                                               backoff_s=0.02, seed=0))
        results = {task_id: (result, error)
                   for task_id, result, error in pool.execute(
                       [(i, (i, str(log)), None) for i in range(3)])}
        assert results[0] == (0, None)
        assert results[2] == (4, None)
        result, error = results[1]
        assert result is None
        assert error.count("WorkerCrash") == 2  # both attempts recorded

    def test_timeout_kills_and_reports(self, tmp_path):
        pool = ResilientPool(1, _sleep_forever,
                             retry=RetryPolicy(max_attempts=1))
        t0 = time.perf_counter()
        [(task_id, result, error)] = list(
            pool.execute([(0, 0, 0.3)]))
        assert result is None
        assert "CellTimeout" in error and "0.300s" in error
        assert time.perf_counter() - t0 < 10.0  # killed, not waited out

    def test_worker_gets_next_task_before_result_is_yielded(self, tmp_path):
        log = tmp_path / "log"
        pool = ResilientPool(1, _log_and_double)
        outcomes = pool.execute([(i, (i, str(log)), None) for i in range(2)])
        assert next(outcomes) == (0, 0, None)
        # The consumer still holds result 0, yet the lone worker is
        # already running task 1: it never idles on the parent.
        deadline = time.perf_counter() + 10.0
        while log.read_text().split() != ["0", "1"]:
            assert time.perf_counter() < deadline, "worker was not fed"
            time.sleep(0.01)
        assert list(outcomes) == [(1, 2, None)]

    def test_close_stops_busy_and_respawned_workers_at_once(self):
        before = set(mp.active_children())
        set_chaos_hook(_always_kill("die"))
        pool = ResilientPool(2, _echo_or_sleep)
        outcomes = pool.execute([(0, "die", None), (1, "sleep", None),
                                 (2, "sleep", None)])
        # Default policy: one attempt, so the crash is reported at once.
        # By now the first worker holds task 1 and the respawned one
        # task 2, both sleeping.
        task_id, result, error = next(outcomes)
        assert (task_id, result) == (0, None)
        assert error.count("WorkerCrash") == 1
        t0 = time.perf_counter()
        outcomes.close()
        assert time.perf_counter() - t0 < 0.5
        assert [p for p in mp.active_children() if p not in before] == []


class TestCacheIntegrity:
    def _scenario(self):
        return Scenario(name="integrity", network=NET, flows=("cubic",),
                        duration=1.0)

    def test_checksum_mismatch_quarantines_and_recomputes(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        scenario = self._scenario()
        runner.run([scenario])
        path = runner.cache._path(scenario.fingerprint())
        payload = json.loads(path.read_text())
        payload["records"][0]["mean_rtt"] = 999.0  # bit rot, sha now stale
        path.write_text(json.dumps(payload))
        outcome = runner.run([scenario])
        assert outcome.cache_misses == 1  # recomputed, not served corrupt
        assert path.with_suffix(".quarantined").exists()
        # The recomputed entry is healthy again: third run is a hit.
        assert runner.run([scenario]).cache_hits == 1

    def test_non_object_entry_is_quarantined(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        scenario = self._scenario()
        runner.run([scenario])
        path = runner.cache._path(scenario.fingerprint())
        path.write_text("[1, 2, 3]")
        assert runner.run([scenario]).cache_misses == 1
        assert path.with_suffix(".quarantined").exists()

    @pytest.mark.parametrize("key, forged", [("elapsed", 9.9),
                                             ("events", 12345)])
    def test_tampered_timing_is_quarantined(self, tmp_path, key, forged):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        scenario = self._scenario()
        runner.run([scenario])
        path = runner.cache._path(scenario.fingerprint())
        payload = json.loads(path.read_text())
        payload[key] = forged  # the checksum covers wall time and events
        path.write_text(json.dumps(payload))
        outcome = runner.run([scenario])
        assert outcome.cache_misses == 1
        assert path.with_suffix(".quarantined").exists()

    def test_clear_removes_quarantined_entries(self, tmp_path):
        runner = ParallelRunner(n_workers=1, cache_dir=tmp_path)
        scenario = self._scenario()
        runner.run([scenario])
        path = runner.cache._path(scenario.fingerprint())
        path.write_text("{broken")
        runner.run([scenario])  # quarantines, recomputes, re-puts
        assert runner.cache.clear() == 2  # fresh entry + quarantined one
        assert not list(tmp_path.glob("*"))


def _failing_suite():
    return ScenarioSuite(name="bad", lineups=("cubic", "no-such-scheme",
                                              "vegas"), duration=1.0)


class TestFailureBudget:
    def test_runner_validates_knobs(self):
        with pytest.raises(ValueError):
            ParallelRunner(max_failures=-1)
        with pytest.raises(ValueError):
            ParallelRunner(cell_timeout=0.0)
        with pytest.raises(TypeError):
            ParallelRunner(retry="twice")

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_failures_within_budget_become_error_rows(self, n_workers):
        runner = ParallelRunner(n_workers=n_workers, use_cache=False,
                                max_failures=1, batch_size=1)
        outcome = runner.run(_failing_suite())  # must NOT raise
        assert len(outcome) == 3
        bad = [r for r in outcome if r.error is not None]
        assert len(bad) == 1
        assert bad[0].scenario.lineup == "no-such-scheme"
        assert bad[0].records == []
        rows = [row for row in outcome.table if row["error"] is not None]
        assert rows and all(row["throughput_mbps"] is None
                            and row["utilization"] is None for row in rows)
        healthy = [row for row in outcome.table if row["error"] is None]
        assert len(healthy) == 2
        assert all(row["throughput_mbps"] is not None for row in healthy)

    def test_budget_exhaustion_aborts(self):
        runner = ParallelRunner(n_workers=1, use_cache=False, max_failures=0)
        with pytest.raises(ScenarioError, match="budget max_failures=0"):
            runner.run(_failing_suite())


class TestResilientDispatchIdentity:
    def test_retry_and_timeout_dispatch_matches_default(self):
        def digests(**kwargs):
            outcome = ParallelRunner(use_cache=False, **kwargs).run(SMALL)
            return [(records_digest(r.records), r.events) for r in outcome]

        default = digests(n_workers=2, batch_size=1)
        resilient = digests(n_workers=2, batch_size=1,
                            retry=RetryPolicy(max_attempts=2),
                            cell_timeout=120.0)
        serial = digests(n_workers=1)
        assert default == resilient == serial

    def test_killed_worker_raises_instead_of_hanging(self):
        # Default settings: no retry, no deadline.  A dead worker must
        # fail its cell, never wedge the sweep.
        set_chaos_hook(_always_kill(1))
        runner = ParallelRunner(n_workers=2, use_cache=False, batch_size=1)
        with pytest.raises(ScenarioError) as err:
            runner.run(SMALL)
        assert err.value.scenario_name == SMALL.expand()[1].name
        assert "WorkerCrash" in str(err.value)


class TestCheckpointResume:
    """Resume is a property of the result cache: a finished cell's
    entry keeps its records, wall time and event count."""

    def test_env_var_supplies_default_path(self, tmp_path, monkeypatch):
        store = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(store))
        scenario = Scenario(name="env", network=NET, flows=("cubic",),
                            duration=1.0)
        runner = ParallelRunner(n_workers=1)
        assert runner.cache.cache_dir == store
        first = runner.run([scenario])
        assert (store / f"{scenario.fingerprint()}.json").exists()
        again = ParallelRunner(n_workers=1).run([scenario])
        assert again.results[0].cached
        assert again.results[0].elapsed == first.results[0].elapsed

    def test_completed_run_restores_rows_bit_identically(self, tmp_path):
        kwargs = dict(n_workers=2, cache_dir=tmp_path, batch_size=1)
        first = ParallelRunner(**kwargs).run(SMALL)
        second = ParallelRunner(**kwargs).run(SMALL)
        assert [records_digest(r.records) for r in second] == \
            [records_digest(r.records) for r in first]
        # Restored, not re-executed: the cache hands back the original
        # wall times and event counts (a re-run could never reproduce
        # elapsed bit-for-bit).
        assert [r.elapsed for r in second] == [r.elapsed for r in first]
        assert [r.events for r in second] == [r.events for r in first]
        assert all(r.cached for r in second)
        assert not any(r.cached for r in first)

    def test_killed_then_resumed_matches_uninterrupted(self, tmp_path):
        reference = ParallelRunner(n_workers=1, use_cache=False).run(SMALL)
        ref_digests = [records_digest(r.records) for r in reference]
        ref_events = [r.events for r in reference]

        marker = tmp_path / "killed"
        kwargs = dict(n_workers=2, cache_dir=tmp_path / "cache",
                      batch_size=1, max_failures=4)
        set_chaos_hook(_kill_batch_once(marker, 2))
        try:
            first = ParallelRunner(**kwargs).run(SMALL)
        finally:
            set_chaos_hook(None)
        assert marker.exists()
        killed = [r for r in first if r.error is not None]
        assert len(killed) == 1 and "WorkerCrash" in killed[0].error

        # Resume: the cached survivors are restored verbatim, only the
        # killed cell re-executes, and the table is row-for-row what
        # the uninterrupted run produced.
        second = ParallelRunner(**kwargs).run(SMALL)
        assert all(r.error is None for r in second)
        assert [records_digest(r.records) for r in second] == ref_digests
        assert [r.events for r in second] == ref_events
        for before, after in zip(first.results, second.results):
            assert after.cached == (before.error is None)
            if before.error is None:
                assert after.elapsed == before.elapsed
                assert after.events == before.events

        # Third run: everything is cached now, nothing re-executes.
        third = ParallelRunner(**kwargs).run(SMALL)
        assert all(r.cached for r in third)
        assert [r.elapsed for r in third] == [r.elapsed for r in second]
        assert [records_digest(r.records) for r in third] == ref_digests
