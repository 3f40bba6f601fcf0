"""The benchmark's three closed-loop workloads.

Each workload builds its inputs from the seed in ``__init__`` (the
set-up the ``setup_s`` metric times), then runs one *operation* per
:meth:`op` call; the runner calls ``op`` again only after the last one
returned.  ``metrics`` reduces the operations' samples to the
end-to-end metrics, ``check`` runs the output checks once the loop is
over, and ``traced`` makes the separate traced run that yields the
per-layer metrics.  Every metric is defined on every workload; what it
means on each is listed in ``perfbench/DESIGN.md``.

Untraced operations run with a :class:`hostspeed.HostProbe` hooked
into calls the workload makes anyway, and every time metric is in
reference seconds over the interval it covers (see ``hostspeed``).
Traced runs install no probe.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

from repro.config import BOOTSTRAP_OBJECTIVES, DEFAULT_TRAINING, TRAINING_RANGES
from repro.core.agent import MoccAgent
from repro.core.offline import OfflineTrainer
from repro.core.online import OnlineAdapter
from repro.core.weights import THROUGHPUT_WEIGHTS
from repro.eval.batch import BatchRunner
from repro.eval.parallel import ParallelRunner, ResultCache
from repro.eval.resilience import records_digest
from repro.eval.scenarios import AgentRef, simulate_scenario
from repro.eval.sweeps import (
    FIG5_BENCH_BASE,
    FIG5_BENCH_DURATION,
    FIG5_BENCH_SCHEMES,
    FIG5_BENCH_SWEEPS,
    MULTIHOP_BENCH_CHURNS,
    MULTIHOP_BENCH_HOPS,
    MULTIHOP_BENCH_SCHEMES,
    multihop_churn_suite,
    sweep_suite,
)
from repro.netsim.network import SimState
from repro.rl.collect import evaluate_policy
from repro.rl.parallel import EnvSpec
from repro.rl.ppo import PPOTrainer

from hostspeed import MIN_CHUNKS, HostProbe, reference_seconds
from spans import Patches, Tracer, controller_schemes, instrument
from stats import median, percentile

clock = time.perf_counter

def refuse_agent_refs(scenarios) -> None:
    """No cell may name a zoo model: resolving one trains it silently."""
    for scenario in scenarios:
        for flow in scenario.flows:
            if isinstance(flow.agent, AgentRef):
                raise ValueError(f"cell {scenario.name!r} names zoo model "
                                 f"{flow.agent.key()}; the benchmark only "
                                 "runs live agents built from its seed")


def one_per_scheme(scenarios) -> list[int]:
    """Fixed subset: the ``i``-th scheme's ``(i mod n)``-th cell."""
    groups: dict[str, list[int]] = {}
    for index, scenario in enumerate(scenarios):
        groups.setdefault(scenario.flows[0].scheme, []).append(index)
    return [cells[i % len(cells)] for i, cells in enumerate(groups.values())]


def model_digest(model) -> str:
    digest = hashlib.sha256()
    for name, value in sorted(model.state_dict().items()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


class Workload:
    """Shared bookkeeping: failure counts and output-check problems."""

    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.report: list[str] = []
        self.probe = HostProbe()

    def expect(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def probe_hooks(self) -> list[tuple]:
        """``(owner, attr)`` of calls a probe chunk may run before."""
        return [(SimState, "step_until")]

    def hooked(self) -> Patches:
        """Run :meth:`HostProbe.maybe` ahead of every hooked call."""
        patches = Patches()
        maybe = self.probe.maybe
        for owner, attr in self.probe_hooks():
            def hook(*args, _fn=owner.__dict__[attr], **kwargs):
                maybe()
                return _fn(*args, **kwargs)
            patches.set(owner, attr, hook)
        return patches

    def wall_line(self, values: dict[str, float]) -> None:
        """Report the wall-clock twins of the reference-second figures."""
        self.report.append(f"{self.name} wall-clock figures: " + ", ".join(
            f"{name} {value:.6g}" for name, value in values.items()))


# --- train ---------------------------------------------------------------------

TRAIN_OMEGA = 10
TRAIN_BOOTSTRAP_ITERS = 12
TRAIN_ADAPT_ITERS = 16
TRAIN_EVAL_EVERY = 4
TRAIN_EPISODE_STEPS = 96
#: Deterministic episodes behind ``quality``: one episode's reward
#: hinges on the network conditions it happens to draw.
TRAIN_QUALITY_EPISODES = 10
NEW_OBJECTIVE = np.array([0.45, 0.44, 0.11])


class _TrainObserver:
    """Counts simulator events and times PPO iterations during a cycle.

    Installed on the traced run too: one addition per event-loop slice
    and one interval per PPO update, neither of which touches
    simulation or training state.
    """

    def __init__(self, probe: HostProbe | None):
        self.events = 0
        self.updates = 0
        #: ``(wall s, reference s, events)`` of each stretch that ends
        #: as a PPO update returns; left empty without a probe.
        self.iterations: list[tuple[float, float, int]] = []
        self.nonfinite_updates = 0
        self.patches = Patches()
        self.interval = None
        step_until = SimState.__dict__["step_until"]
        update = PPOTrainer.__dict__["update"]

        def counted_step_until(state, until=None):
            processed = step_until(state, until)
            self.events += processed
            return processed

        def observed_update(trainer, *args, **kwargs):
            stats = update(trainer, *args, **kwargs)
            self.updates += 1
            if probe is not None:
                wall, ref = self.interval.stop()
                self.iterations.append((wall, ref, self.events - self._mark))
                self.begin(probe)
            if not all(np.isfinite(p.value).all()
                       for p in trainer.model.parameters().values()):
                self.nonfinite_updates += 1
            return stats

        self.patches.set(SimState, "step_until", counted_step_until)
        self.patches.set(PPOTrainer, "update", observed_update)

    def begin(self, probe: HostProbe) -> None:
        self._mark = self.events
        self.interval = probe.start()


class TrainWorkload(Workload):
    """Two-phase offline MOCC training, then online adaptation."""

    name = "train"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch)
        self.config = DEFAULT_TRAINING
        self.spec = EnvSpec(ranges=TRAINING_RANGES,
                            history_length=self.config.history_length,
                            action_scale=self.config.action_scale,
                            max_steps=TRAIN_EPISODE_STEPS, seed=seed)
        self.adapt_spec = EnvSpec(ranges=TRAINING_RANGES,
                                  history_length=self.config.history_length,
                                  action_scale=self.config.action_scale,
                                  max_steps=TRAIN_EPISODE_STEPS, seed=seed + 5)
        self._trainer = self._build_trainer()
        self.digests: list[str] = []
        self.events: list[int] = []

    def _build_trainer(self) -> OfflineTrainer:
        return OfflineTrainer(spec=self.spec, config=self.config, seed=self.seed)

    def _cycle(self, tracer: Tracer | None = None) -> dict:
        trainer = self._trainer or self._build_trainer()
        self._trainer = None
        probe = self.probe if tracer is None else None
        observer = _TrainObserver(probe)
        patches = instrument(tracer) if tracer is not None else self.hooked()
        try:
            t0 = clock()
            if probe is not None:
                observer.begin(probe)
                offline = probe.start()
            result = trainer.train(omega=TRAIN_OMEGA,
                                   bootstrap_iters=TRAIN_BOOTSTRAP_ITERS,
                                   traverse_iters=1, cycles=1)
            t1 = clock()
            offline_s = offline.stop()[0] if probe is not None else t1 - t0
            adapter = OnlineAdapter(result.agent, self.adapt_spec,
                                    config=self.config, seed=self.seed + 5)
            adapter.seed_replay(BOOTSTRAP_OBJECTIVES)
            t2 = clock()
            adapting = probe.start() if probe is not None else None
            trace = adapter.adapt(NEW_OBJECTIVE, iterations=TRAIN_ADAPT_ITERS,
                                  eval_every=TRAIN_EVAL_EVERY)
            t3 = clock()
            adapt_s, adapt_ref_s = (adapting.stop() if adapting is not None
                                    else (t3 - t2, t3 - t2))
        finally:
            patches.restore()
            observer.patches.restore()

        quality = evaluate_policy(
            self.adapt_spec.build(seed_offset=55_555), result.agent.model,
            NEW_OBJECTIVE, np.random.default_rng(self.seed),
            episodes=TRAIN_QUALITY_EPISODES)
        self.attempted += observer.updates
        self.failed += observer.nonfinite_updates
        rewards = ([entry.mean_reward for entry in result.log] + trace.rewards
                   + [mark for _, mark in trace.new_marks] + [quality])
        self.expect(bool(np.isfinite(rewards).all()), "non-finite reward")
        self.expect(all(np.isfinite(p.value).all()
                        for p in result.agent.model.parameters().values()),
                    "non-finite model parameter")
        digest = hashlib.sha256(model_digest(result.agent.model).encode()
                                + repr(rewards).encode()).hexdigest()
        self.digests.append(digest)
        self.events.append(observer.events)
        # Offline iterations: env steps, wall, reference seconds and
        # events of each.
        rollouts = Counter(entry.iteration for entry in result.log)
        iterations = [
            (rollouts[i + 1] * self.config.steps_per_iteration, *timing)
            for i, timing in enumerate(
                observer.iterations[:result.total_iterations])]
        return {"iterations": iterations, "adapt_s": adapt_s,
                "adapt_ref_s": adapt_ref_s, "quality": quality,
                "wall": offline_s + adapt_s}

    def op(self) -> dict:
        return self._cycle()

    def metrics(self, samples: list[dict]) -> tuple[dict, list[float]]:
        # Per-iteration medians: a burst of host noise moves one of a
        # run's ~60 iterations, not the figure.
        iterations = [it for s in samples for it in s["iterations"]]
        self.wall_line({
            "env_steps_per_s": median(n / w for n, w, _, _ in iterations),
            "iter_ms_p50": percentile(
                [1e3 * w for _, w, _, _ in iterations], 50),
            "adapt_s": median(s["adapt_s"] for s in samples)})
        iter_ms = [1e3 * ref for _, _, ref, _ in iterations]
        return {
            "work_per_ref_s": median(n / ref for n, _, ref, _ in iterations),
            "events_per_ref_s": median(e / ref for _, _, ref, e in iterations),
            "op_ref_ms_p50": percentile(iter_ms, 50),
            "stage2_ref_s": median(s["adapt_ref_s"] for s in samples),
            "quality": median(s["quality"] for s in samples),
        }, iter_ms

    def check(self) -> None:
        self.expect(len(set(self.digests)) == 1,
                    "training is not bit-identical across cycles")
        self.expect(len(set(self.events)) == 1,
                    "event totals differ across cycles")
        self.report.append(f"train model-state digest {self.digests[0]}")
        self.report.append(f"train simulator events per cycle {self.events[0]}")

    def traced(self) -> dict:
        plain = self._cycle()
        tracer = Tracer()
        tracer.run_id = "train"
        traced = self._cycle(tracer)
        self.expect(self.digests[-1] == self.digests[-2],
                    "traced training differs from untraced")
        self.expect(self.events[-1] == self.events[-2]
                    == tracer.counts["network.events"],
                    "traced event count differs from untraced")
        return {"tracer": tracer, "overhead_s": traced["wall"] - plain["wall"]}


class GridWorkload(Workload):
    """A workload over a fixed grid of scenario cells."""

    def __init__(self, seed: int, scratch: Path, scenarios: list):
        super().__init__(seed, scratch)
        refuse_agent_refs(scenarios)
        self.scenarios = scenarios
        self.digests: list[str | None] | None = None
        self.event_totals: list[int] = []

    def run_grid(self, runner: ParallelRunner):
        """One pass over ``self.scenarios``; each cell is one operation.

        Returns ``(suite result, (wall s, reference s), healthy cell
        results)`` and checks every pass's records against the first
        pass's.  A pass run outside :meth:`hooked` takes its scale from
        the chunks timed right after it.
        """
        interval = self.probe.start()
        out = runner.run(self.scenarios)
        timing = interval.stop()
        self.attempted += len(out.results)
        self.failed += sum(r.error is not None for r in out.results)
        digests = [None if r.error is not None else records_digest(r.records)
                   for r in out.results]
        if self.digests is None:
            self.digests = digests
        self.expect(digests == self.digests, "records differ between passes")
        self.event_totals.append(out.total_events)
        return out, timing, [r for r in out.results if r.error is None]


def grid_sample(out, ok: list, wall: float, ref_s: float) -> dict:
    """One pass's figures; cell times are scaled by the pass's scale."""
    scale = ref_s / wall
    return {"wall": wall, "ref_s": ref_s, "cells": len(ok),
            "events": out.total_events,
            "cell_ms": [1e3 * r.elapsed for r in ok],
            "cell_ref_ms": [1e3 * r.elapsed * scale for r in ok],
            "quality": float(np.mean(
                [r.records[0].mean_utilization for r in ok]))}


def grid_metrics(workload: GridWorkload, samples: list[dict],
                 stage2: list[float]) -> tuple[dict, list[float]]:
    """End-to-end metrics over passes; ``stage2`` in reference seconds."""
    workload.wall_line({
        "cells_per_s": median(s["cells"] / s["wall"] for s in samples),
        "cell_ms_p50": percentile(
            [ms for s in samples for ms in s["cell_ms"]], 50)})
    cell_ms = [ms for s in samples for ms in s["cell_ref_ms"]]
    return {
        "work_per_ref_s": median(s["cells"] / s["ref_s"] for s in samples),
        "events_per_ref_s": median(s["events"] / s["ref_s"]
                                   for s in samples),
        "op_ref_ms_p50": percentile(cell_ms, 50),
        "stage2_ref_s": median(stage2),
        "quality": median(s["quality"] for s in samples),
    }, cell_ms


# --- sweep ---------------------------------------------------------------------

SWEEP_WORKERS = 2
SWEEP_WARM_PASSES = 5


class SweepWorkload(GridWorkload):
    """The Fig. 5 grid through the 2-worker pool and the result cache."""

    name = "sweep"

    def __init__(self, seed: int, scratch: Path):
        # Seeded, untrained live agents: per-MI policy cost of a real
        # model, no training and no zoo lookup.
        kwargs = {"mocc_agent": MoccAgent(DEFAULT_TRAINING, seed=seed),
                  "mocc_weights": THROUGHPUT_WEIGHTS,
                  "aurora_agent": MoccAgent(DEFAULT_TRAINING, weight_dim=0,
                                            seed=seed + 1)}
        super().__init__(seed, scratch, [
            scenario
            for parameter, values in FIG5_BENCH_SWEEPS
            for scenario in sweep_suite(
                FIG5_BENCH_SCHEMES, parameter, values, base=FIG5_BENCH_BASE,
                duration=FIG5_BENCH_DURATION, seed=seed,
                controller_kwargs=kwargs).expand()])

    def _runner(self, n_workers: int) -> tuple[ParallelRunner, Path]:
        cache_dir = Path(tempfile.mkdtemp(dir=self.scratch, prefix="cache-"))
        return ParallelRunner(n_workers=n_workers, cache_dir=cache_dir,
                              max_failures=len(self.scenarios)), cache_dir

    def probe_hooks(self) -> list[tuple]:
        # Cold cells run in forked workers, which inherit the hooks;
        # warm passes read the cache in this process.
        return [(SimState, "step_until"), (ResultCache, "get")]

    def hooked(self) -> Patches:
        """Also make each forked worker file the chunks of its batches.

        Timed in this process, chunks of a cold pass compete with both
        workers for the two vCPUs and track their speed poorly.
        """
        patches = super().hooked()
        run = BatchRunner.__dict__["run"]
        parent, probe, scratch = os.getpid(), self.probe, self.scratch

        def filing_run(runner, *args, **kwargs):
            first = len(probe.chunks)
            try:
                return run(runner, *args, **kwargs)
            finally:
                if os.getpid() != parent:
                    with open(scratch / f"chunks-{os.getpid()}.txt", "a",
                              encoding="utf-8") as out:
                        out.writelines(f"{c!r}\n" for c in probe.chunks[first:])

        patches.set(BatchRunner, "run", filing_run)
        return patches

    def _worker_chunks(self) -> list[float]:
        """Collect and delete the chunk files the workers wrote."""
        chunks = []
        for path in sorted(self.scratch.glob("chunks-*.txt")):
            chunks += [float(x) for x in path.read_text().split()]
            path.unlink()
        return chunks

    def _warm(self, runner: ParallelRunner) -> float:
        """One cache-served pass; its reference seconds."""
        interval = self.probe.start()
        out = runner.run(self.scenarios)
        wall = interval.stop()[1]
        for result, digest in zip(out.results, self.digests):
            if digest is None:
                continue  # the cell failed cold; nothing was cached
            self.attempted += 1
            if not result.cached:
                self.failed += 1  # a miss; a quarantined entry reads as one
            else:
                self.expect(records_digest(result.records) == digest,
                            f"cache round trip changed {result.scenario.name}")
        return wall

    def op(self) -> dict:
        runner, cache_dir = self._runner(SWEEP_WORKERS)
        patches = self.hooked()
        try:
            out, (cold_s, _), ok = self.run_grid(runner)
            cold_ref_s = reference_seconds(cold_s, self._worker_chunks()
                                           or self.probe.chunks[-MIN_CHUNKS:])
            warm = [self._warm(runner) for _ in range(SWEEP_WARM_PASSES)]
        finally:
            patches.restore()
            shutil.rmtree(cache_dir, ignore_errors=True)
        return grid_sample(out, ok, cold_s, cold_ref_s) | {"warm_ref_s": warm}

    def metrics(self, samples: list[dict]) -> tuple[dict, list[float]]:
        return grid_metrics(self, samples, [
            w for s in samples for w in s["warm_ref_s"]])

    def check(self) -> None:
        subset = one_per_scheme(self.scenarios)
        for index in subset:
            scenario = self.scenarios[index]
            records, _ = simulate_scenario(scenario)
            self.expect(records_digest(records) == self.digests[index],
                        f"in-process re-run of {scenario.name} differs from "
                        "the pool's records")
        self.expect(len(set(self.event_totals)) == 1,
                    "cold-pass event totals differ between passes")
        self.report.append(f"sweep in-process re-run matched {len(subset)} "
                           "pool cells, one per scheme")
        self.report.append(f"sweep cold-pass events {self.event_totals[0]}")

    def traced(self) -> dict:
        # Untraced 2-worker pass: pool and IPC figures come from its
        # parent side (spans recorded in forked workers would be lost).
        runner, cache_dir = self._runner(SWEEP_WORKERS)
        try:
            out, (cold_s, _), ok = self.run_grid(runner)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        busy = sum(r.elapsed for r in ok)
        ipc_bytes = sum(len(pickle.dumps((i, (r.records, r.elapsed, r.events),
                                          None)))
                        for i, r in enumerate(ok))

        # The same cells, traced, on the serial path: cold, then warm.
        tracer = Tracer()
        runner, cache_dir = self._runner(1)
        patches = instrument(tracer)
        try:
            tracer.run_id = "sweep.cold"
            traced_out, _, traced_ok = self.run_grid(runner)
            tracer.run_id = "sweep.warm"
            self._warm(runner)
            quarantined = len(list(cache_dir.glob("*.quarantined")))
        finally:
            patches.restore()
            shutil.rmtree(cache_dir, ignore_errors=True)
        self.expect(traced_out.total_events == out.total_events
                    == tracer.counts["network.events"],
                    "traced event count differs from untraced")
        return {"tracer": tracer,
                "overhead_s": sum(r.elapsed for r in traced_ok) - busy,
                "pool.busy_frac": busy / (cold_s * SWEEP_WORKERS),
                "pool.overhead_s": cold_s - busy / SWEEP_WORKERS,
                "ipc.result_bytes": ipc_bytes,
                "cache.quarantined": quarantined}


# --- multihop ------------------------------------------------------------------


class MultihopWorkload(GridWorkload):
    """Parking-lot churn grid, serial in-process, no cache."""

    name = "multihop"

    def __init__(self, seed: int, scratch: Path):
        super().__init__(seed, scratch, [
            scenario
            for hops in MULTIHOP_BENCH_HOPS
            for scenario in multihop_churn_suite(
                MULTIHOP_BENCH_SCHEMES, hops=hops,
                churns=MULTIHOP_BENCH_CHURNS, seeds=(seed,)).expand()])
        self.runner = ParallelRunner(n_workers=1, use_cache=False,
                                     max_failures=len(self.scenarios))

    def op(self) -> dict:
        patches = self.hooked()
        try:
            out, (wall, ref_s), ok = self.run_grid(self.runner)
            # Second stage: re-simulate one cell per scheme from scratch.
            interval = self.probe.start()
            replayed = [(index, simulate_scenario(self.scenarios[index])[0])
                        for index in one_per_scheme(self.scenarios)]
            replay_ref_s = interval.stop()[1]
        finally:
            patches.restore()
        for index, records in replayed:
            self.expect(records_digest(records) == self.digests[index],
                        f"re-run of {self.scenarios[index].name} differs")
        return grid_sample(out, ok, wall, ref_s) | {
            "replay_ref_s": replay_ref_s}

    def metrics(self, samples: list[dict]) -> tuple[dict, list[float]]:
        return grid_metrics(self, samples,
                            [s["replay_ref_s"] for s in samples])

    def check(self) -> None:
        self.expect(len(set(self.event_totals)) == 1,
                    "event totals differ between passes")
        grid = hashlib.sha256("".join(d or "failed" for d in self.digests)
                              .encode()).hexdigest()
        self.report.append(f"multihop events per pass {self.event_totals[0]}")
        self.report.append(f"multihop grid digest {grid}")

    def traced(self) -> dict:
        _, (plain_s, _), _ = self.run_grid(self.runner)
        tracer = Tracer()
        tracer.run_id = "multihop"
        patches = instrument(tracer)
        try:
            _, (traced_s, _), _ = self.run_grid(self.runner)
        finally:
            patches.restore()
        self.expect(self.event_totals[-1] == self.event_totals[-2]
                    == tracer.counts["network.events"],
                    "traced event count differs from untraced")
        return {"tracer": tracer, "overhead_s": traced_s - plain_s}


WORKLOADS = {w.name: w for w in (TrainWorkload, SweepWorkload, MultihopWorkload)}


# --- per-layer metrics -----------------------------------------------------------


def layer_metrics(traced: dict) -> dict:
    """Per-layer metrics ``name -> (value, unit)`` from a traced run."""
    tracer: Tracer = traced["tracer"]
    calls, total, own, counts = (tracer.calls, tracer.total_s, tracer.self_s,
                                 tracer.counts)
    events = counts["network.events"]
    gets = calls["cache.get"]
    out = {
        "network.events": (events, "count"),
        "network.self_s": (own["network"], "s"),
        "network.ns_per_event": (1e9 * own["network"] / events if events
                                 else 0.0, "ns"),
        "link.transmit_calls": (calls["link.transmit"], "count"),
        "link.transmit_s": (total["link.transmit"], "s"),
        "link.drops.buffer": (counts["link.drops.buffer"], "count"),
        "link.drops.random": (counts["link.drops.random"], "count"),
        "sender.note_calls": (calls["sender.note"], "count"),
        "sender.note_s": (total["sender.note"], "s"),
        "sender.finish_mi_calls": (calls["sender.finish_mi"], "count"),
        "sender.finish_mi_s": (total["sender.finish_mi"], "s"),
    }
    for scheme in controller_schemes().values():
        name = f"controller.{scheme}"
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (total[name], "s")
    out.update({
        "policy.forward_calls": (calls["policy.forward"], "count"),
        "policy.forward_rows": (counts["policy.forward_rows"], "rows"),
        "policy.forward_s": (total["policy.forward"], "s"),
        "env.step_calls": (calls["env.step"], "count"),
        "env.step_s": (total["env.step"], "s"),
        "env.reset_calls": (calls["env.reset"], "count"),
        "env.reset_s": (total["env.reset"], "s"),
        "collect.calls": (calls["collect"], "count"),
        "collect.steps": (counts["collect.steps"], "steps"),
        "collect.self_s": (own["collect"], "s"),
        "ppo.update_calls": (calls["ppo.update"], "count"),
        "ppo.samples": (counts["ppo.samples"], "samples"),
        "ppo.update_s": (total["ppo.update"], "s"),
        "eval.episodes": (counts["eval.episodes"], "episodes"),
        "eval.s": (total["eval"], "s"),
        "cell.build_calls": (calls["cell.build"], "count"),
        "cell.build_s": (total["cell.build"], "s"),
        "cell.fingerprint_calls": (calls["cell.fingerprint"], "count"),
        "cell.fingerprint_s": (total["cell.fingerprint"], "s"),
        "batch.slices": (counts["batch.slices"], "count"),
        "batch.self_s": (own["batch"], "s"),
        "cache.get_calls": (gets, "count"),
        "cache.hits": (counts["cache.hits"], "count"),
        "cache.hit_ratio": (counts["cache.hits"] / gets if gets else 0.0,
                            "ratio"),
        "cache.get_s": (total["cache.get"], "s"),
        "cache.bytes_read": (counts["cache.bytes_read"], "B"),
        "cache.put_calls": (calls["cache.put"], "count"),
        "cache.put_s": (total["cache.put"], "s"),
        "cache.bytes_written": (counts["cache.bytes_written"], "B"),
        "cache.quarantined": (traced.get("cache.quarantined", 0), "count"),
        "pool.busy_frac": (traced.get("pool.busy_frac", 0.0), "ratio"),
        "pool.overhead_s": (traced.get("pool.overhead_s", 0.0), "s"),
        "ipc.result_bytes": (traced.get("ipc.result_bytes", 0), "B"),
        "trace.overhead_s": (traced["overhead_s"], "s"),
    })
    return out
