"""The speed of the CPU the stages run on, sampled while they run.

On a shared virtual machine one vCPU's speed changes by itself: the CPU
time of a fixed piece of work steps between levels up to 25 % apart
every few seconds (its host core is shared with other guests), and the
two vCPUs of one guest change independently of each other. Identical
stage runs then differ in CPU time by as much.

`SpeedProbe` pins the benchmark, and with it every stage process it
starts, to one CPU, and runs a short fixed kernel on that CPU every
INTERVAL_S from a thread of the benchmark process. The kernel's own
thread CPU time is one speed sample; the stage's CPU time does not
include it. `factor(t0, t1)` is REFERENCE_S over the mean kernel time
sampled between t0 and t1: a stage's CPU time times that factor is the
CPU time the stage would have taken at the reference speed. A program
change that does less work lowers the stage's CPU time and leaves the
kernel's unchanged, so it shows in full.

On one 170 s run of fit-noisy-2k (eleven passes of one seed), the mean
kernel time during a stage correlated with the stage's CPU time at
r = 0.64-0.97 per stage, with a log-log slope near 1, and the factor
cut the pass-to-pass spread (standard deviation over mean) of the pass's
CPU time from 0.05 to 0.02 and of single stages from 0.05-0.13 to
0.02-0.06.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

INTERVAL_S = 0.05
# Kernel CPU seconds at the reference speed: about the median on the
# 2-vCPU Intel Xeon virtual machine the benchmark was tuned on (Python
# 3.11, numpy 2.4).
REFERENCE_S = 0.004

_rng = np.random.default_rng(0)
_CODES = _rng.integers(0, 32, size=(2000, 20))
_ROWS = _rng.permutation(2000)[:1500]
_OFFSETS = np.arange(20) * 32
_WEIGHTS = _rng.normal(size=2000)
_LARGE = np.arange(1_000_000, dtype=float)  # 8 MB, more than the L2 cache


def kernel() -> float:
    """Fixed work in three parts like the program's: interpreter loops
    and dict inserts, the gather and bincount of a histogram, and a pass
    over an array larger than the cache."""
    total = 0
    for i in range(6000):
        total += i * i % 7
    table = {}
    for i in range(1200):
        table[str(i)] = i
    hist = np.zeros(640)
    for _ in range(8):
        flat = (_CODES[_ROWS] + _OFFSETS[None, :]).ravel()
        hist += np.bincount(flat, weights=np.repeat(_WEIGHTS[_ROWS], 20),
                            minlength=640)
    return total + len(table) + float(hist[0]) + float(_LARGE.sum())


class SpeedProbe:
    """Context manager: pins this process to one CPU and samples the
    kernel's CPU time from a thread until it exits."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe",
                                        daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        for _ in range(3):  # warm up
            kernel()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _run(self) -> None:
        while not self._stop.is_set():
            wall = time.perf_counter()
            start = time.thread_time()
            kernel()
            seconds = time.thread_time() - start
            self.samples.append(((wall + time.perf_counter()) / 2, seconds))
            self._stop.wait(INTERVAL_S)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean kernel time sampled in [t0, t1] (by
        perf_counter); the sample nearest the interval's middle if none
        falls inside."""
        samples = list(self.samples)
        inside = [s for t, s in samples if t0 <= t <= t1]
        if not inside:
            middle = (t0 + t1) / 2
            inside = [min(samples, key=lambda ts: abs(ts[0] - middle))[1]]
        return REFERENCE_S / (sum(inside) / len(inside))
