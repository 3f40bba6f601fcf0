"""Rollout-collection strategies: serial, vectorized, multi-process.

The paper accelerates MOCC's training with Ray/RLlib parallel
environments (§5, Fig. 19).  Offline, we reproduce the same effect two
ways:

* :class:`VectorCollector` steps several simulator environments in
  lockstep and batches the policy forward passes -- this removes most
  Python-level NN overhead even on one core;
* :class:`ProcessCollector` farms rollout collection out to OS
  processes through :class:`~repro.eval.resilience.ResilientPool`
  (the host has few cores, so the measured speedup is bounded
  accordingly -- see EXPERIMENTS.md for Fig. 19).

All collectors share one call signature::

    buffers, bootstraps, mean_episode_reward = collector.collect(
        model, weights, total_steps, rng)

so the offline/online trainers can swap strategies freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import NetworkParams, NetworkRanges
from repro.netsim.env import CongestionControlEnv, MoccEnv
from repro.rl.collect import collect_rollout, resolve_objective
from repro.rl.distributions import DiagGaussian
from repro.rl.policy import PreferenceActorCritic
from repro.rl.rollout import RolloutBuffer

__all__ = ["EnvSpec", "SerialCollector", "VectorCollector", "ProcessCollector"]


@dataclass(frozen=True)
class EnvSpec:
    """Picklable recipe for building a :class:`MoccEnv`.

    Process workers cannot receive closures, so experiments describe
    their environment with this spec instead of a factory function.
    """

    params: NetworkParams | None = None
    ranges: NetworkRanges | None = None
    history_length: int = 10
    action_scale: float = 0.025
    max_steps: int = 64
    mi_duration: float | None = None
    packet_bytes: int = 1500
    queue_bdp_range: tuple[float, float] | None = None
    seed: int = 0

    def build(self, seed_offset: int = 0) -> MoccEnv:
        return MoccEnv(CongestionControlEnv(
            params=self.params, ranges=self.ranges,
            history_length=self.history_length, action_scale=self.action_scale,
            max_steps=self.max_steps, mi_duration=self.mi_duration,
            packet_bytes=self.packet_bytes, queue_bdp_range=self.queue_bdp_range,
            seed=self.seed + seed_offset))


class SerialCollector:
    """One environment, one rollout at a time (the baseline strategy)."""

    def __init__(self, spec: EnvSpec):
        self.spec = spec
        self.env = spec.build()

    def collect(self, model: PreferenceActorCritic, weights, steps: int,
                rng: np.random.Generator):
        buffer, bootstrap, mean_reward, _ = collect_rollout(
            self.env, model, weights, steps, rng)
        return [buffer], [bootstrap], mean_reward

    def close(self) -> None:
        """Nothing to release."""


class VectorCollector:
    """Step N environments in lockstep with batched policy inference."""

    def __init__(self, spec: EnvSpec, n_envs: int = 4):
        if n_envs < 1:
            raise ValueError("need at least one environment")
        self.spec = spec
        self.envs = [spec.build(seed_offset=1000 * (i + 1)) for i in range(n_envs)]

    def collect(self, model: PreferenceActorCritic, weights, steps: int,
                rng: np.random.Generator):
        n = len(self.envs)
        per_env = max(steps // n, 1)
        conditioned = model.weight_dim > 0
        weights = resolve_objective(weights, conditioned)

        obs = np.stack([env.reset(weights)[0] for env in self.envs])
        w_batch = np.repeat(weights[None, :], n, axis=0) if conditioned else None
        buffers = [RolloutBuffer(self.envs[0].observation_dim, model.weight_dim,
                                 model.act_dim, per_env) for _ in range(n)]
        episode_totals = np.zeros(n)
        finished: list[float] = []

        for _ in range(per_env):
            w_in = w_batch if conditioned else None
            mean, value = model.forward(obs, w_in)
            actions = DiagGaussian.sample(mean, model.log_std.value, rng)
            log_probs = DiagGaussian.log_prob(actions, mean, model.log_std.value)
            for i, env in enumerate(self.envs):
                next_obs, _, reward, _, done, _ = env.step(float(actions[i, 0]))
                buffers[i].add(obs[i], actions[i], float(log_probs[i]),
                               float(value[i]), reward, done,
                               weights=weights if conditioned else None)
                episode_totals[i] += reward
                if done:
                    finished.append(episode_totals[i])
                    episode_totals[i] = 0.0
                    next_obs, _ = env.reset(weights)
                obs[i] = next_obs

        w_in = w_batch if conditioned else None
        _, boot_values = model.forward(obs, w_in)
        bootstraps = []
        for i, buffer in enumerate(buffers):
            bootstraps.append(0.0 if buffer.dones[buffer.size - 1] else float(boot_values[i]))
        if not finished:
            # No episode completed within per_env steps (common once the
            # rollout is split n ways: per_env can be shorter than an
            # episode).  The partial totals cover only per_env of the
            # episode's steps, so reporting them as episode rewards
            # under-states the mean by ~horizon/per_env and puts a
            # sawtooth into OnlineAdapter's reward traces; extrapolate
            # the per-step reward to the episode horizon instead.
            horizon = max(self.spec.max_steps, per_env)
            finished = [total * horizon / per_env for total in episode_totals]
        return buffers, bootstraps, float(np.mean(finished))

    def close(self) -> None:
        """Nothing to release."""


def _worker_collect(args):
    """Process-pool entry point: build env + model, collect one rollout."""
    (spec, arch, state, weights, steps, seed, seed_offset) = args
    model = PreferenceActorCritic(**arch)
    model.load_state_dict(state)
    env = spec.build(seed_offset=seed_offset)
    rng = np.random.default_rng(seed)
    buffer, bootstrap, mean_reward, _ = collect_rollout(env, model, weights, steps, rng)
    payload = {
        "obs": buffer.obs[:buffer.size],
        "weights": None if buffer.weights is None else buffer.weights[:buffer.size],
        "actions": buffer.actions[:buffer.size],
        "log_probs": buffer.log_probs[:buffer.size],
        "values": buffer.values[:buffer.size],
        "rewards": buffer.rewards[:buffer.size],
        "dones": buffer.dones[:buffer.size],
    }
    return payload, bootstrap, mean_reward


def _rebuild_buffer(payload, weight_dim: int, act_dim: int) -> RolloutBuffer:
    n = len(payload["obs"])
    buffer = RolloutBuffer(payload["obs"].shape[1], weight_dim, act_dim, n)
    buffer.obs[:] = payload["obs"]
    if buffer.weights is not None:
        buffer.weights[:] = payload["weights"]
    buffer.actions[:] = payload["actions"]
    buffer.log_probs[:] = payload["log_probs"]
    buffer.values[:] = payload["values"]
    buffer.rewards[:] = payload["rewards"]
    buffer.dones[:] = payload["dones"]
    buffer.size = n
    return buffer


class ProcessCollector:
    """Collect rollouts in parallel OS processes (Fig. 19's "parallel").

    Each ``collect`` forks its workers through the repo's one process
    pool, :class:`~repro.eval.resilience.ResilientPool`, so a worker
    that dies fails the call instead of hanging it.
    """

    def __init__(self, spec: EnvSpec, n_workers: int = 2):
        if n_workers < 1:
            raise ValueError("need at least one worker")
        self.spec = spec
        self.n_workers = n_workers

    def collect(self, model: PreferenceActorCritic, weights, steps: int,
                rng: np.random.Generator):
        per_worker = max(steps // self.n_workers, 1)
        arch = model.architecture()
        state = model.state_dict()
        weights = resolve_objective(weights, model.weight_dim > 0)
        jobs = [(self.spec, arch, state, weights, per_worker,
                 int(rng.integers(0, 2 ** 31)), 1000 * (i + 1))
                for i in range(self.n_workers)]
        # Imported here: repro.eval imports the training stack, which
        # imports this module.
        from repro.eval.resilience import ResilientPool
        pool = ResilientPool(self.n_workers, _worker_collect)
        outcomes = sorted(pool.execute(
            [(i, job, None) for i, job in enumerate(jobs)]))
        for i, _, error in outcomes:
            if error is not None:
                raise RuntimeError(f"rollout worker {i} failed: {error}")
        results = [result for _, result, _ in outcomes]
        buffers = [_rebuild_buffer(p, model.weight_dim, model.act_dim)
                   for p, _, _ in results]
        bootstraps = [b for _, b, _ in results]
        mean_reward = float(np.mean([m for _, _, m in results]))
        return buffers, bootstraps, mean_reward

    def close(self) -> None:
        """Nothing to release: workers live for one ``collect``."""
