"""In-memory span tracer that wraps layer entry points from outside.

Nothing under ``src/`` knows about it: :func:`instrument` swaps public
functions and methods for timing wrappers and :meth:`Patches.restore`
puts the originals back.  Every wrapped call opens a frame on one
stack; closing it adds the call's duration to its parent's child time,
so a layer's *self* time is its span minus the part its child spans
cover.  Calls in one thread nest and never overlap, which makes that
part the plain sum of the children's durations.

Coarse calls (a PPO update, a cell build, a cache read, an event-loop
slice) are kept as span records ``(id, name, start, end, parent,
run)`` and written out when the run ends.  Per-packet calls
(``Link.transmit``, sender bookkeeping, controller callbacks, policy
forwards) fold into per-name totals only: millions of span records
would cost more memory than the run measures.  Their time still counts
as child time of the span that made them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Span stack plus per-name call counts, inclusive and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Work counters recorded at the same boundaries (rows, steps,
        #: events, bytes, drops by kind ...).
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.run_id = ""
        self._stack: list[list] = []
        self._next_id = 0

    def parent_name(self) -> str | None:
        """Name of the innermost open frame, ``None`` at top level."""
        return self._stack[-1][3] if self._stack else None

    def open(self, name: str) -> list:
        self._next_id += 1
        frame = [self.clock(), 0.0, self._next_id, name]
        self._stack.append(frame)
        return frame

    def close(self, frame: list, record: bool) -> None:
        """Pop ``frame`` and charge its duration to the parent."""
        end = self.clock()
        self._stack.pop()
        start, child, span_id, name = frame
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if record:
            parent = self._stack[-1][2] if self._stack else None
            self.spans.append((span_id, name, start, end, parent, self.run_id))

    def wrap(self, name, fn, record: bool = False, after=None):
        """Timing wrapper around ``fn``.

        ``name`` is a string or a callable of the call's first argument
        (controllers are charged to the scheme of ``type(self)``).
        ``after(args, kwargs, result)`` records work counters once the
        call has returned.
        """
        open_, close = self.open, self.close
        named = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = open_(name(args[0]) if named else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(frame, record)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, run in self.spans:
                out.write(json.dumps({"id": span_id, "name": name,
                                      "start": start, "end": end,
                                      "parent": parent, "run": run}) + "\n")


class Patches:
    """Attribute swaps undone in reverse order by :meth:`restore`."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# --- the layers --------------------------------------------------------------

#: Controller callbacks the engine makes.
CONTROLLER_HOOKS = ("on_flow_start", "on_ack", "on_loss", "on_mi",
                    "pacing_rate", "cwnd", "inflight_cap")


def controller_schemes() -> dict:
    """Controller class -> scheme name used in ``controller.<scheme>.*``."""
    from repro.baselines import AuroraController, BBR, Copa, Cubic, PCCVivace, Vegas
    from repro.core.agent import MoccController
    return {Cubic: "cubic", Vegas: "vegas", BBR: "bbr", Copa: "copa",
            PCCVivace: "vivace", MoccController: "mocc",
            AuroraController: "aurora"}


def _controller_owners(schemes: dict) -> list:
    """Classes that define a hook themselves, base ``Controller`` excluded.

    ``Flow.__init__`` leaves ``on_ack_cb``/``on_loss_cb`` as ``None``
    when a class inherits the base no-op; wrapping only methods a class
    defines keeps that test -- and so the engine's call pattern --
    unchanged.
    """
    from repro.netsim.sender import Controller
    owners = []
    for cls in schemes:
        for klass in cls.__mro__:
            if klass is Controller or klass is object:
                break
            if klass not in owners:
                owners.append(klass)
    return owners


def instrument(tracer: Tracer) -> Patches:
    """Wrap every layer's public entry points; return the undo log.

    Must run before the objects under test are built: flows cache
    their controller's bound hooks at construction.
    """
    from repro.core import offline, online
    from repro.eval import batch, parallel, scenarios
    from repro.netsim import env, link, network, sender
    from repro.rl import parallel as rl_parallel
    from repro.rl import policy, ppo

    patches = Patches()
    counts = tracer.counts

    def wrap(owner, attr, name, record=False, after=None):
        patches.set(owner, attr, tracer.wrap(name, owner.__dict__[attr],
                                             record=record, after=after))

    # netsim.network: event dispatch.  Slices made by BatchRunner count
    # as batch slices.
    def events(args, kwargs, result):
        counts["network.events"] += result
        if tracer.parent_name() == "batch":
            counts["batch.slices"] += 1
    wrap(network.SimState, "step_until", "network", record=True, after=events)
    wrap(network.SimState, "step_events", "network", record=True, after=events)

    # netsim.link
    def drops(args, kwargs, result):
        if not result[0]:
            counts[f"link.drops.{result[1]}"] += 1
    for cls in (link.Link, link.PropagationLink):
        wrap(cls, "transmit", "link.transmit", after=drops)

    # netsim.sender
    for attr in ("note_sent", "note_ack", "note_loss"):
        wrap(sender.Flow, attr, "sender.note")
    wrap(sender.Flow, "finish_mi", "sender.finish_mi")

    # baselines + policy controllers, charged per scheme.
    schemes = controller_schemes()
    scheme_of = {cls: f"controller.{name}" for cls, name in schemes.items()}
    for klass in _controller_owners(schemes):
        for hook in CONTROLLER_HOOKS:
            if hook in klass.__dict__:
                wrap(klass, hook, lambda self: scheme_of.get(
                    type(self), "controller.other"))

    # rl.policy forward passes.
    def rows(args, kwargs, result):
        counts["policy.forward_rows"] += len(result[1])
    wrap(policy.PreferenceActorCritic, "forward", "policy.forward", after=rows)

    # netsim.env
    wrap(env.MoccEnv, "step", "env.step")
    wrap(env.MoccEnv, "reset", "env.reset")

    # rl.collect / rl.parallel collectors.
    def steps(args, kwargs, result):
        counts["collect.steps"] += args[3] if len(args) > 3 else kwargs["steps"]
    for cls in (rl_parallel.SerialCollector, rl_parallel.VectorCollector,
                rl_parallel.ProcessCollector):
        wrap(cls, "collect", "collect", record=True, after=steps)

    # rl.ppo
    def samples(args, kwargs, result):
        buffers = args[1] if len(args) > 1 else kwargs["buffer"]
        if not isinstance(buffers, (list, tuple)):
            buffers = [buffers]
        counts["ppo.samples"] += sum(b.size for b in buffers)
    wrap(ppo.PPOTrainer, "update", "ppo.update", record=True, after=samples)

    # core.online / core.offline evaluation, looked up by name there.
    def episodes(args, kwargs, result):
        counts["eval.episodes"] += kwargs.get(
            "episodes", args[4] if len(args) > 4 else 1)
    wrapped_eval = tracer.wrap("eval", online.evaluate_policy, record=True,
                               after=episodes)
    patches.set(online, "evaluate_policy", wrapped_eval)
    patches.set(offline, "evaluate_policy", wrapped_eval)

    # eval.scenarios: cell build (imported by name into eval.batch) and
    # fingerprints.
    wrapped_build = tracer.wrap("cell.build",
                                scenarios.build_scenario_simulation,
                                record=True)
    patches.set(scenarios, "build_scenario_simulation", wrapped_build)
    patches.set(batch, "build_scenario_simulation", wrapped_build)
    wrap(scenarios.Scenario, "fingerprint", "cell.fingerprint", record=True)

    # eval.batch
    wrap(batch.BatchRunner, "run", "batch", record=True)

    # eval.parallel ResultCache: bytes are the entry file's size.
    def got(args, kwargs, result):
        if result is not None:
            counts["cache.hits"] += 1
            counts["cache.bytes_read"] += _entry_size(args[0], args[1])
    def put(args, kwargs, result):
        counts["cache.bytes_written"] += _entry_size(args[0], args[1])
    wrap(parallel.ResultCache, "get", "cache.get", record=True, after=got)
    wrap(parallel.ResultCache, "put", "cache.put", record=True, after=put)
    return patches


def _entry_size(cache, fingerprint: str) -> int:
    path = cache.cache_dir / f"{fingerprint}.json"
    return path.stat().st_size if path.exists() else 0
