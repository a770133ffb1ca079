"""Host time in units of a fixed probe loop, sampled while the work runs.

On a shared host the speed of a core drifts: the same iteration takes
2.0 s in one minute and 3.5 s in the next, and the slow spells last from
a few seconds to a minute, so no median over one run averages them out.
:class:`SpeedProbe` times a tiny fixed loop of the interpreter's own
operations every ``period`` seconds (a ``SIGALRM`` interval timer; the
handler runs in the main thread between bytecodes) and charges each
stretch of work between two probes in units of the probe's duration at
that moment.  The sum, :attr:`SpeedProbe.units`, is the work's host cost
with the host's momentary speed divided out.  Its probe time is
excluded: ``units`` counts only the stretches between probes.
"""

from __future__ import annotations

import heapq
import signal
import time

#: Seconds between probes; each probe takes about 0.3 ms, so the probes
#: cost under 1% of the work they measure.
PERIOD_S = 0.05
#: The period for short phases (imports, set-ups), which the default
#: period would sample too few times.
SHORT_PERIOD_S = 0.01
#: A typical probe duration on the host the benchmark was tuned on (a
#: shared 2.1 GHz Xeon VM, Python 3.11; it read 160-330 us), to turn
#: probe units back into seconds where a metric must read in seconds.
REFERENCE_PROBE_S = 250e-6


def reference_seconds(kiloprobes: float) -> float:
    """Seconds that ``kiloprobes`` of work take at the reference speed."""
    return kiloprobes * 1000.0 * REFERENCE_PROBE_S


def probe_loop(n: int = 300) -> int:
    """The fixed unit of interpreter work: heap, dict and integer
    operations like the simulator's own inner loops."""
    heap: list = []
    table: dict = {}
    acc = 0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        table[i & 63] = table.get(i & 63, 0) + i
        if len(heap) > 32:
            acc += heapq.heappop(heap)[1]
    return acc


class SpeedProbe:
    """Context manager: probe the host's speed while the body runs.

    After the block, ``units`` is the body's cost in probe durations,
    ``spent_s`` the seconds the probes themselves took and ``samples``
    the probe durations, one per probe.
    """

    def __init__(self, period_s: float = PERIOD_S, clock=time.perf_counter):
        self.period_s = period_s
        self.clock = clock
        self.units = 0.0
        self.spent_s = 0.0
        self.samples: list[float] = []
        self._last_end = 0.0
        self._previous = None

    def _probe(self) -> float:
        t0 = self.clock()
        probe_loop()
        t1 = self.clock()
        duration = max(t1 - t0, 1e-9)
        self.spent_s += duration
        self.samples.append(duration)
        self._last_end = t1
        return duration

    def _tick(self, _signum, _frame) -> None:
        start = self.clock()
        self.units += (start - self._last_end) / self._probe()

    def __enter__(self) -> SpeedProbe:
        self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # The last stretch is charged at the last probe's speed.
        self.units += (self.clock() - self._last_end) / self.samples[-1]
