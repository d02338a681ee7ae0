"""CPU speed probe, sampled while a CLI call runs.

The machines this benchmark runs on share their cores with other
processes, and the speed of a core changes with that load by a quarter
or more for seconds to minutes at a time; process CPU time changes with
it, so it is the speed of the core, not scheduling. A daemon thread in
each child process times a fixed piece of pure-Python work every
PERIOD_S, about 1 % of a core. The run reports times multiplied by the
relative speed those samples show, so that they read as seconds at the
reference speed REF_NS, and prints next to each call how long it took
on the clock and at what speed.
"""
from __future__ import annotations

import threading
from bisect import bisect_left
from time import perf_counter_ns

PERIOD_S = 0.1
# Short intervals are scaled by the samples up to this far from them.
PAD_NS = 1_000_000_000
# About the time of one kernel() on an unloaded core of the 2-vCPU
# machine the benchmark was written on (Python 3.11). It only sets the
# scale of the scaled times.
REF_NS = 450_000


def kernel():
    """About half a millisecond of interpreter-bound integer arithmetic,
    shorter than the interpreter's 5 ms switch interval, so the main
    thread does not run in the middle of it. It creates no container
    objects, so it does not move the garbage collector's schedule in the
    main thread."""
    acc = 0
    for i in range(7500):
        acc += i * i % 7
    return acc


class Sampler:
    """Runs kernel() every PERIOD_S in a daemon thread. stop() returns the
    (start_ns, duration_ns) samples and the (start_ns, end_ns) intervals
    in which the thread held the interpreter lock, when the main thread
    was stalled by it."""

    def __init__(self):
        self._samples = []
        self._busy = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            # the untimed first pass brings the kernel's code and data back
            # into cache after the main thread has run, so that the sample
            # depends on the core's speed and not on what the call evicted
            busy = perf_counter_ns()
            kernel()
            t0 = perf_counter_ns()
            kernel()
            t1 = perf_counter_ns()
            self._samples.append((t0, t1 - t0))
            self._busy.append((busy, t1))
            if self._stop.wait(PERIOD_S):
                return

    def stop(self):
        self._stop.set()
        self._thread.join()
        return list(self._samples), list(self._busy)


def speed(samples, t0, t1):
    """Mean relative speed (REF_NS / kernel time) of the samples taken in
    [t0, t1], or of the one nearest to that interval when none was. With
    samples evenly spaced in time, this is the speed averaged over time."""
    inside = [REF_NS / d for t, d in samples if t0 <= t <= t1]
    if inside:
        return sum(inside) / len(inside)
    starts = [t for t, _ in samples]
    i = min(bisect_left(starts, t0), len(samples) - 1)
    if i > 0 and abs(starts[i - 1] - t0) < abs(starts[i] - t0):
        i -= 1
    return REF_NS / samples[i][1]


def local_speed(samples, t0, t1):
    """Median relative speed of the samples within PAD_NS of [t0, t1]: for
    short intervals, where one sample delayed by preemption should not
    swing the result."""
    starts = [t for t, _ in samples]
    near = sorted(REF_NS / d for _, d in
                  samples[bisect_left(starts, t0 - PAD_NS):bisect_left(starts, t1 + PAD_NS)])
    return near[len(near) // 2] if near else speed(samples, t0, t1)


def stalled_ns(busy, t0, t1):
    """How much of [t0, t1] the probe thread held the interpreter lock:
    time the main thread did not run, to be taken off its latencies."""
    i = max(bisect_left(busy, t0, key=lambda b: b[0]) - 1, 0)
    total = 0
    for b0, b1 in busy[i:]:
        if b0 >= t1:
            break
        total += max(0, min(b1, t1) - max(b0, t0))
    return total
