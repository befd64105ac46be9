"""Machine-speed calibration for the end-to-end times.

The virtual machines this benchmark runs on share their processors, and
the speed one process gets drifts by 10-30 % over tens of seconds with
the load of its neighbours.  That drift is common to everything running
at the time, so every end-to-end time is rescaled by a reference job
timed in the same process throughout the run: a fixed derive enumeration
by the benchmark's own oracle, which shares no code with termstrat.

The worker runs the job after every EVERY_S of op time.  An op's time t
is reported as ``t * REFERENCE_S / m``, where m is the mean time of the
NEAREST reference jobs run around it, so a slow spell inside a run is
corrected where it happened.  On the 2-core machine the bounds were set
on, the reference job took about REFERENCE_S, so calibrated times read
close to wall times there.

Set-up is a process start, which that job does not track; it is
calibrated the same way by bare interpreter starts (``python -S -c pass``)
timed between the set-up probes, which took about BARE_START_S there.
"""

from __future__ import annotations

import bisect
import statistics
import time

import oracle
import workloads

REFERENCE_S = 0.006
BARE_START_S = 0.02
EVERY_S = 0.1  # op time between two reference jobs
NEAREST = 5


class Reference:
    def __init__(self):
        self._theory = oracle.load(workloads.PEANO)
        self._term = self._theory.term("plus(s(s(0)),plus(s(0),plus(s(0),s(0))))")
        self.times: list[float] = []

    def run(self) -> None:
        start = time.perf_counter()
        oracle.expect_derive(self._theory, self._term, 5, False, False)
        self.times.append(time.perf_counter() - start)


def factors(times: list, positions: list, ops: int) -> list[float]:
    """Per op, the factor from wall to calibrated seconds.  ``positions[j]``
    is the number of ops that had run when reference job j started."""
    out = []
    for i in range(ops):
        after = bisect.bisect_right(positions, i)  # first job after op i
        lo = min(max(0, after - NEAREST // 2), max(0, len(times) - NEAREST))
        out.append(REFERENCE_S / statistics.fmean(times[lo:lo + NEAREST]))
    return out
