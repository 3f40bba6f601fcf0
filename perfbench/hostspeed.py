"""Host-speed probe behind the benchmark's time metrics.

The benchmark runs on a few vCPUs of a shared machine whose speed
drifts by 20-40 % within minutes: the same ``multihop`` pass took from
5.8 to 8.8 s in one process over five minutes, with CPU time tracking
wall time, so the slowdown is in the CPU itself, not in scheduling.  A
run's median cannot remove drift that slow.  So while a workload runs,
a fixed pure-Python reference loop -- owned by the benchmark, nothing
the program can speed up or slow down -- is timed in short chunks
between slices of the workload's own work, and the time metrics are
reported in *reference seconds*: wall time scaled by how much slower
than nominal the reference loop ran over the same interval.

Three details make the chunks track the program's speed:

- The loop reads objects scattered over a pool of about 11 MB, so it
  misses the CPU caches as the simulator does.  A loop whose data fit
  in the caches sped up and slowed down more than the program, and
  normalising by it left a third to three quarters of the drift.
- Chunks run in the main thread, between the workload's calls, and
  their own time is taken out of the interval they fall in.  Timed from
  a second thread, the loop measured the GIL hand-off as much as the
  CPU and overcorrected.
- The garbage collector is off while a chunk runs.  A collection of
  the program's heap landing in a chunk made chunk times bimodal and
  uncorrelated with the program's speed.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

clock = time.perf_counter

#: Iterations of the reference loop in one chunk (about 0.75 ms).
CHUNK_ITERS = 300
#: Objects in the pool the loop reads from, about 11 MB.
POOL_SIZE = 100_000
#: Distance between pool positions read in turn, and between the
#: positions two chunks in a row start at.
STRIDE, CHUNK_STRIDE = 7919, 104_729
#: A chunk runs at the first hook call this long after the last one.
EVERY_S = 0.05
#: Fewest chunks an interval's scale is taken from; an interval with
#: fewer is topped up right after it ends.
MIN_CHUNKS = 5
#: Chunk time that defines one reference second: about the median
#: chunk on the 2-vCPU Xeon VM the bounds were set on, so reference
#: seconds there read close to wall seconds.
NOMINAL_CHUNK_S = 7.5e-4


def reference_seconds(wall: float, chunks: list[float]) -> float:
    """Wall seconds scaled by the median of the chunks timed alongside."""
    return wall * NOMINAL_CHUNK_S / statistics.median(chunks)


class _Packet:
    __slots__ = ("t", "size", "seq")

    def __init__(self, t: float, size: int, seq: int):
        self.t = t
        self.size = size
        self.seq = seq


def make_pool() -> list[_Packet]:
    """The loop's pool, shuffled so that list order is not address order."""
    pool = [_Packet(i * 1e-3, 1500, i) for i in range(POOL_SIZE)]
    random.Random(3).shuffle(pool)
    return pool


def reference_loop(pool: list[_Packet], start: int,
                   iters: int = CHUNK_ITERS) -> float:
    """Heap, dict, attribute and float work, the event loop's diet, with
    one read of a far pool object per iteration."""
    rng = random.Random(7)
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(iters):
        far = pool[(start + i * STRIDE) % POOL_SIZE]
        packet = _Packet(rng.random() + far.t * 1e-9, far.size, i)
        heapq.heappush(heap, (packet.t + i * 1e-3, i, packet))
        table[i & 255] = packet
        if len(heap) > 64:
            t, _, oldest = heapq.heappop(heap)
            acc += oldest.size * t
    return acc


class HostProbe:
    """Reference-loop chunks, run from hooks at most every ``EVERY_S``."""

    def __init__(self):
        #: Duration of each chunk run so far, in order.
        self.chunks: list[float] = []
        #: Wall time the probe itself took, chunks and bookkeeping.
        self.spent = 0.0
        self._last = clock()
        #: Built at the first chunk, so that set-up does not pay for it.
        self._pool: list[_Packet] | None = None
        self._start = 0

    def chunk(self) -> None:
        start = clock()
        if self._pool is None:
            self._pool = make_pool()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            reference_loop(self._pool, self._start)
            t1 = clock()
        finally:
            if enabled:
                gc.enable()
        self._start = (self._start + CHUNK_STRIDE) % POOL_SIZE
        self.chunks.append(t1 - t0)
        self._last = clock()
        self.spent += self._last - start

    def maybe(self) -> None:
        """Hook body: run a chunk if the last one is ``EVERY_S`` old."""
        if clock() - self._last >= EVERY_S:
            self.chunk()

    def start(self) -> Interval:
        return Interval(self)


class Interval:
    """One timed stretch of work; chunks run inside it are not counted."""

    def __init__(self, probe: HostProbe):
        self.probe = probe
        self.first = len(probe.chunks)
        self.spent = probe.spent
        self.t0 = clock()

    def stop(self) -> tuple[float, float]:
        """``(wall seconds, reference seconds)`` of the work alone."""
        wall = clock() - self.t0 - (self.probe.spent - self.spent)
        while len(self.probe.chunks) - self.first < MIN_CHUNKS:
            self.probe.chunk()
        return wall, reference_seconds(wall, self.probe.chunks[self.first:])
