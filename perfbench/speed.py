"""A reference speed for the pass times.

On a machine shared with other tenants, their load changes how fast the
same work runs by up to 2x within minutes. The process keeps its CPU, so
the slowdown shows in its CPU time as much as in its wall time. A fixed
kernel, shaped like tourcraft's inner loops (a masked score over a
300-element row and one argmax per step), is timed after set-up and
after every pass. A pass's time times `NOMINAL_CAL_S` over the mean
kernel time just before and after it is its time at the reference speed,
the speed at which the kernel takes `NOMINAL_CAL_S` (about its time on an
idle 2-CPU Xeon box). The kernel never changes, so it cancels out when two
commits are compared.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

NOMINAL_CAL_S = 0.2
_REPS = 120


def calibration_s() -> float:
    """Seconds the fixed kernel takes now."""
    golden = np.arange(90_300, dtype=float)
    golden *= 0.6180339887
    golden %= 1.0
    golden += 0.5
    d = golden[:90_000].reshape(300, 300)
    w = golden[90_000:]
    start = time.perf_counter()
    for _ in range(_REPS):
        mask = np.ones(300, dtype=bool)
        for i in range(300):
            scores = np.where(mask, w / d[i] ** 0.5, -np.inf)
            mask[int(np.argmax(scores))] = False
    return time.perf_counter() - start


def reference_passes(pass_s: List[float], cal_s: List[float]) -> List[float]:
    """Each pass at the reference speed, from the kernel times around it:
    `cal_s[i]` is timed just before pass `i` and `cal_s[i + 1]` just after."""
    return [p * NOMINAL_CAL_S * 2 / (before + after)
            for p, before, after in zip(pass_s, cal_s, cal_s[1:])]
