"""The repository benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload {train,sweep,multihop} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics: it sets the workload up from the seed, runs operations back
to back (the next starts only when the last returned) until the next
one would overrun ``--seconds``, then checks the outputs.  ``--trace
1`` is the separate traced run behind the per-layer metrics.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only
when every output check passed.  ``perfbench/DESIGN.md`` says what
each workload and metric is for.
"""

import time

#: ``setup_s`` counts from here, so every import below is set-up.
_SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Per-run scratch (fresh model and result caches) and span dumps.
RUNS_DIR = ROOT / ".perfbench_runs"
#: Set-ups per run behind ``setup_s``: this process plus fresh probes.
SETUP_PROBES = 4

#: Time metrics are in reference seconds (``ref_s``, ``ref_ms``): wall
#: time scaled by the host's speed over the same interval, see
#: ``hostspeed.py``.  ``setup_s`` is plain wall time.
END_TO_END = {
    "setup_s": "s", "rss_peak_mb": "MB", "work_per_ref_s": "1/ref_s",
    "events_per_ref_s": "events/ref_s", "op_ref_ms_p50": "ref_ms",
    "stage2_ref_s": "ref_s", "quality": "score",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "sweep", "multihop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def isolate(scratch: Path) -> None:
    """Point every cache the program keeps at this run's fresh directory."""
    os.environ["REPRO_RESULT_CACHE"] = str(scratch / "results")
    os.environ["REPRO_MODEL_CACHE"] = str(scratch / "models")
    for name in ("REPRO_SWEEP_CHECKPOINT", "REPRO_RESULT_CACHE_MAX_MB"):
        os.environ.pop(name, None)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe_setup(args) -> list[float]:
    """Set the workload up again in fresh processes; their set-up times."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


def closed_loop(workload, seconds: float) -> tuple[list[dict], float]:
    """Operations back to back; stop before one would overrun the budget.

    Also returns the peak RSS as the first operation ends: the memory
    one operation needs, independent of how many fit in the budget.
    """
    samples = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        samples.append(workload.op())
        last = time.perf_counter() - t0
        if len(samples) == 1:
            rss_mb = peak_rss_mb()
        if time.perf_counter() - start + last > seconds:
            return samples, rss_mb


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    seed = args.seed % (2 ** 31)
    RUNS_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=RUNS_DIR,
                                    prefix=f"{args.workload}-{seed}-"))
    try:
        isolate(scratch)
        sys.path.insert(0, str(ROOT / "src"))
        import stats
        import workloads
        workload = workloads.WORKLOADS[args.workload](seed, scratch)
        setup_s = time.perf_counter() - _SETUP_START
        if args.setup_probe:
            print(f"setup_s {setup_s!r}")
            return 0
        if args.trace:
            traced = workload.traced()
            workload.check()
            metrics = workloads.layer_metrics(traced)
            traced["tracer"].write_spans(
                RUNS_DIR / f"spans-{args.workload}-seed{seed}.jsonl")
        else:
            samples, rss_mb = closed_loop(workload, args.seconds)
            workload.check()
            values, op_ms = workload.metrics(samples)
            values["rss_peak_mb"] = rss_mb
            values["setup_s"] = stats.median([setup_s] + probe_setup(args))
            metrics = {name: (values[name], unit)
                       for name, unit in END_TO_END.items()}
            print(f"operations: {len(samples)}")
            print(stats.tail_line(op_ms, "op_ms"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, (_, unit) in metrics.items():
        if not (stats.valid_metric_name(name) and stats.valid_unit(unit)):
            raise ValueError(f"bad metric name or unit: {name!r} {unit!r}")
    for line in workload.report:
        print(line)
    for problem in workload.problems:
        print(f"CHECK FAILED: {problem}")
    fail_frac = workload.failed / max(workload.attempted, 1)
    print(f"attempted {workload.attempted} failed {workload.failed} "
          f"fail_frac {fail_frac:.6f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    correct = not workload.problems
    print(json.dumps({
        "correct": correct, "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
