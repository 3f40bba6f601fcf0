"""Tests of the benchmark's own helpers.

Percentile selection, span self-time arithmetic, the host-speed
probe's interval arithmetic, the metric-name charset, agreement between
``BENCHMARK.json`` and the metrics the code prints, and the rules that
tracing and probing never change a simulation.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from spans import Patches, Tracer  # noqa: E402
from stats import (  # noqa: E402
    percentile,
    samples_beyond,
    tail_percentile,
    valid_metric_name,
    valid_unit,
)


# --- percentile selection --------------------------------------------------------

@pytest.mark.parametrize("n, expected", [
    (1000, 99.0),   # 10 samples above p99
    (999, 95.0),    # p99 would leave 9
    (112, 90.0),    # the sweep grid: 11 above p90
    (100, 90.0),
    (99, 75.0),     # p90 would leave 9
    (20, 50.0),
    (19, None),     # not even the median keeps 10 above it
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    if p is not None:
        assert samples_beyond(n, p) >= 10


def test_nearest_rank_percentile_returns_a_sample():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 50) == 50
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([5.0], 99) == 5.0


# --- span self-time arithmetic ----------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_span_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    wrapped_leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.now += 1.0
        wrapped_leaf(2.0)
        clock.now += 0.5
        wrapped_leaf(3.0)

    wrapped_middle = tracer.wrap("middle", middle, record=True)

    def top():
        clock.now += 4.0
        wrapped_middle()

    tracer.wrap("top", top, record=True)()

    assert tracer.calls["leaf"] == 2
    assert tracer.total_s["leaf"] == pytest.approx(5.0)
    assert tracer.self_s["leaf"] == pytest.approx(5.0)
    assert tracer.total_s["middle"] == pytest.approx(6.5)
    assert tracer.self_s["middle"] == pytest.approx(1.5)
    assert tracer.total_s["top"] == pytest.approx(10.5)
    assert tracer.self_s["top"] == pytest.approx(4.0)
    # Only recorded names become span records, each naming its parent.
    spans = {name: (span_id, start, end, parent)
             for span_id, name, start, end, parent, _ in tracer.spans}
    assert set(spans) == {"middle", "top"}
    assert spans["middle"][3] == spans["top"][0]
    assert spans["top"][3] is None
    assert spans["middle"][1:3] == (4.0, 10.5)


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError("x")

    wrapped = tracer.wrap("boom", boom)

    def top():
        with pytest.raises(RuntimeError):
            wrapped()
        clock.now += 2.0

    tracer.wrap("top", top)()
    assert tracer.self_s["top"] == pytest.approx(2.0)
    assert tracer.total_s["boom"] == pytest.approx(1.0)


def test_patches_restore_in_reverse_order():
    class Box:
        def f(self):
            return "original"

    original = Box.__dict__["f"]
    patches = Patches()
    patches.set(Box, "f", lambda self: "first")
    patches.set(Box, "f", lambda self: "second")
    assert Box().f() == "second"
    patches.restore()
    assert Box.__dict__["f"] is original


# --- host-speed probe -------------------------------------------------------------

def test_interval_drops_probe_time_and_scales_by_median_chunk(monkeypatch):
    import hostspeed

    clock = FakeClock()
    chunk_s = iter([1e-3, 4e-3, 2e-3, 2e-3, 2e-3, 9e-3])

    def loop(*args):
        clock.now += next(chunk_s)

    monkeypatch.setattr(hostspeed, "clock", clock)
    monkeypatch.setattr(hostspeed, "reference_loop", loop)
    probe = hostspeed.HostProbe()
    interval = probe.start()
    clock.now += 1.0
    probe.chunk()
    clock.now += 0.5
    probe.chunk()
    wall, ref = interval.stop()
    assert wall == pytest.approx(1.5)
    # Topped up to MIN_CHUNKS after the interval: 1, 4, 2, 2, 2 ms.
    assert len(probe.chunks) == hostspeed.MIN_CHUNKS == 5
    assert ref == pytest.approx(1.5 * hostspeed.NOMINAL_CHUNK_S / 2e-3)


def test_probe_hooks_never_change_a_simulation(monkeypatch, tmp_path):
    import gc

    import hostspeed
    import workloads
    from repro.eval.resilience import records_digest
    from repro.eval.scenarios import ScenarioSuite, simulate_scenario
    from repro.netsim.network import SimState

    cells = ScenarioSuite(name="probe", lineups=(("cubic", "bbr"),),
                          bandwidths_mbps=(10.0,), duration=2.0).expand()
    plain = [simulate_scenario(cell) for cell in cells]
    step_until = vars(SimState)["step_until"]
    monkeypatch.setattr(hostspeed, "EVERY_S", 0.0)
    workload = workloads.Workload(0, tmp_path)
    patches = workload.hooked()
    try:
        probed = [simulate_scenario(cell) for cell in cells]
    finally:
        patches.restore()
    assert vars(SimState)["step_until"] is step_until
    assert len(workload.probe.chunks) > 0
    assert gc.isenabled()
    for (records_a, sim_a), (records_b, sim_b) in zip(plain, probed):
        assert records_digest(records_a) == records_digest(records_b)
        assert sim_a.events_processed == sim_b.events_processed


# --- metric names ---------------------------------------------------------------

@pytest.mark.parametrize("name", ["setup_s", "link.drops.buffer",
                                  "controller.aurora.s", "op_ref_ms_p50", "9a-b"])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_lead", ".lead", "has space",
                                  "slash/name", "x" * 65, "ünicode"])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_and_units_are_valid():
    spec = _declared()
    entries = spec["end_to_end"] + spec["per_layer"]
    names = [e["name"] for e in entries] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert valid_metric_name(name), name
    for entry in entries:
        assert valid_unit(entry["unit"]), entry
    for entry in spec["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25


def test_code_prints_exactly_the_declared_metrics():
    import run
    import workloads

    spec = _declared()
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == run.END_TO_END
    layers = workloads.layer_metrics({"tracer": Tracer(), "overhead_s": 0.0})
    assert {e["name"]: e["unit"] for e in spec["per_layer"]} == {
        name: unit for name, (_, unit) in layers.items()}


def test_tracing_never_changes_a_simulation():
    from repro.eval.resilience import records_digest
    from repro.eval.scenarios import ScenarioSuite, simulate_scenario
    from repro.netsim import sender
    import spans

    suite = ScenarioSuite(name="probe", lineups=(("cubic", "bbr"), ("vegas",)),
                          bandwidths_mbps=(10.0,), losses=(0.01,),
                          duration=2.0)
    cells = suite.expand()
    plain = [simulate_scenario(cell) for cell in cells]
    note_ack = vars(sender.Flow)["note_ack"]

    tracer = Tracer()
    patches = spans.instrument(tracer)
    try:
        traced = [simulate_scenario(cell) for cell in cells]
        # Hooks a controller inherits from the base class stay skipped.
        flows = {type(f.controller).__name__: f
                 for _, sim in traced for f in sim.flows}
        assert flows["BBR"].on_ack_cb is None
        assert flows["Vegas"].on_ack_cb is None
        assert flows["Cubic"].on_ack_cb is not None
    finally:
        patches.restore()
    assert vars(sender.Flow)["note_ack"] is note_ack

    for (records_a, sim_a), (records_b, sim_b) in zip(plain, traced):
        assert records_digest(records_a) == records_digest(records_b)
        assert sim_a.events_processed == sim_b.events_processed
    assert tracer.counts["network.events"] == sum(
        sim.events_processed for _, sim in plain)
    assert tracer.calls["controller.cubic"] > 0
    assert tracer.calls["controller.vegas"] > 0
