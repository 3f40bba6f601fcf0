"""Pure helpers of the benchmark: percentiles and metric-name checks."""

from __future__ import annotations

import math
import re
import statistics

#: Metric names the benchmark prints: a letter or digit first, then at
#: most 63 more of letters, digits, ``_``, ``.`` and ``-``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Units: at most 16 of letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
UNIT_NAME = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Percentiles considered for a timing's tail, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)


def valid_metric_name(name: str) -> bool:
    return bool(METRIC_NAME.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_NAME.match(unit))


def rank(n: int, p: float) -> int:
    """1-based nearest-rank index of percentile ``p`` among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(p / 100.0 * n - 1e-9))


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the ``p`` rank."""
    return n - rank(n, p)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: an actual sample, never an interpolation."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def tail_percentile(n: int, beyond: int = 10) -> float | None:
    """Highest candidate percentile with at least ``beyond`` samples
    above it among ``n`` samples; ``None`` when not even the median has.
    """
    for p in TAIL_CANDIDATES:
        if samples_beyond(n, p) >= beyond:
            return p
    return None


def median(values) -> float:
    return float(statistics.median(values))


def tail_line(samples: list[float], what: str) -> str:
    """Median and highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    p = tail_percentile(n)
    tail = ("no higher percentile has 10 samples beyond it"
            if p is None or p <= 50.0
            else f"p{p:g} {percentile(samples, p):.3f} ms")
    return f"{what}: n={n} p50 {percentile(samples, 50):.3f} ms, {tail}"
