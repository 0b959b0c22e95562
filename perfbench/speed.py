"""Machine-speed calibration, so that times from different moments compare.

On a shared host the same job can take up to twice as long from one stretch
of seconds to the next, whatever the program does.  The benchmark therefore
times a fixed calibration routine every half second, between jobs and
outside the timed region, and scales each job's wall time by
``REFERENCE_S / local calibration time``, where the local calibration time
is the median of the samples nearest the job's start.  A scaled time reads
as seconds on a machine that runs the calibration in ``REFERENCE_S``.

The calibration never calls the program, so a change to the program cannot
move it: it does tuple, set, dict and sort work shaped like the program's
complex layer, plus a numpy argsort.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from itertools import combinations

import numpy as np

REFERENCE_S = 0.008  # the calibration's time on the machine of the recorded baseline
EVERY_S = 0.5
WINDOW = 2  # samples on each side of a job that set its local speed


def calibrate() -> float:
    """Seconds taken by one fixed calibration pass.  The collector is off
    during the pass, so the size of the caller's heap does not move it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _calibration_pass()
    finally:
        if enabled:
            gc.enable()


def _calibration_pass() -> float:
    t0 = time.perf_counter()
    n = 20
    faces = set()
    for i in range(n):
        for j in range(n):
            a, b, c, d = i * n + j, ((i + 1) % n) * n + j, i * n + (j + 1) % n, \
                ((i + 1) % n) * n + (j + 1) % n
            for tri in ((a, b, c), (b, c, d)):
                tri = tuple(sorted(tri))
                faces.add(tri)
                faces.update(combinations(tri, 2))
                faces.update((v,) for v in tri)
    order = sorted(faces, key=lambda x: (len(x), x))
    index = {x: k for k, x in enumerate(order)}
    sub = np.fromiter(
        (index[x[:k] + x[k + 1:]] for x in order if len(x) > 1 for k in range(len(x))),
        dtype=np.int64,
    )
    np.argsort(sub, kind="stable")
    return time.perf_counter() - t0


class SpeedProbe:
    """Calibration samples with the moment each was taken."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self, passes: int = 1) -> None:
        for _ in range(passes):
            self.times.append(time.perf_counter())
            self.samples.append(calibrate())

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def factor(self, t: float) -> float:
        """Scale for a time measured from moment t."""
        i = bisect.bisect(self.times, t)
        local = self.samples[max(0, i - WINDOW): i + WINDOW]
        return REFERENCE_S / statistics.median(local)

    def overall(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
