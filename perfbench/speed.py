"""Host-speed calibration for the end-to-end timings.

On shared hosts a core's speed drifts by tens of percent over tens of
seconds, independently per core and regardless of what runs on it (a
fixed loop's time wanders between 5.7 and 10.1 ms over three minutes on
the development host, with CPU time tracking wall time, so it is not
steal).  That drift, not the program, then dominates run-to-run spread.

The benchmark pins itself and its children to one CPU and times a fixed
calibration kernel between requests on that CPU.  Each end-to-end time
is reported scaled to a reference speed::

    reported = measured * CAL_REF_S / local calibration time

where the local calibration time is the median of the calibration
samples taken within half a second of request time around it.  Raw wall times are kept beside the
scaled ones in the run's details.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Sequence

import numpy as np

#: calibration-kernel seconds at the reference speed (its median on the
#: development host, so scaled times stay close to wall times there)
CAL_REF_S = 0.0023
#: calibrations per sample point; their median damps single-shot jitter
BURST = 3
#: a request's speed estimate uses the sample points within this many
#: seconds of request time on either side (and always the two that
#: bracket it): long requests see only their neighbours, short ones
#: pool dozens of points
HALF_WINDOW_S = 0.5

_ARRAY = np.arange(50_000)


def calibrate() -> float:
    """Seconds one fixed kernel takes now (median of a short burst):
    interpreter arithmetic and dict updates plus a NumPy sort and
    reduction, the mix the program itself runs."""
    times = []
    for _ in range(BURST):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(20_000):
            acc += i * i
            table[i & 255] = acc
        np.sort(_ARRAY[::-1])
        int((_ARRAY * 3).sum())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(seconds: float, samples: Sequence[float]) -> float:
    """``seconds`` at the reference speed, given calibration samples
    taken around it."""
    return seconds * CAL_REF_S / statistics.median(samples)


def scale_all(walls: Sequence[float], samples: Sequence[float]) -> List[float]:
    """Scale request ``i`` of a closed loop in which ``samples[i]`` was
    taken just before request ``i`` and ``samples[-1]`` after the last
    one (``len(samples) == len(walls) + 1``)."""
    out = []
    for i, wall in enumerate(walls):
        lo, gap = i, 0.0
        while lo > 0 and gap + walls[lo - 1] <= HALF_WINDOW_S:
            lo -= 1
            gap += walls[lo]
        hi, gap = i + 1, 0.0
        while hi < len(walls) and gap + walls[hi] <= HALF_WINDOW_S:
            gap += walls[hi]
            hi += 1
        out.append(scale(wall, samples[lo:hi + 1]))
    return out


def pin_to_one_cpu() -> int:
    """Pin this process (and every child it starts) to the highest CPU
    it may run on; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
