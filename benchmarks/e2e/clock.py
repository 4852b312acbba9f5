"""The reference clock: how fast the machine runs while a run measures.

This sandbox slows down and speeds up by 20-40% over minutes (a fixed
pure-Python loop took between 3.9 and 5.9 ms across forty runs of one
afternoon), and everything a run times moves with it: throughput, every
latency percentile and CPU time, on all four workloads alike.  Left in,
that drift is the spread between runs and hides a 10% regression; taken
out, runs of one commit agree two to three times better (README.md,
"Steadiness").

So a run times the same loop between its repetitions and reports its
times on a reference clock: seconds as measured, times
``REFERENCE_KERNEL_S`` over what the loop took in this run.  The loop
belongs to the benchmark and touches nothing of the program, so a
change to the program cannot move it.  The factor is printed on
standard error with every run.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["REFERENCE_KERNEL_S", "kernel_seconds", "time_scale"]

#: What the kernel takes on this sandbox at its usual speed; fixing it
#: keeps reported times close to the ones a stopwatch would show here.
REFERENCE_KERNEL_S = 0.005


def _kernel(n: int = 20_000) -> int:
    """Dict, list, int and str work, like the engine's inner loops."""
    table: dict[int, list[int]] = {}
    acc = 0
    for i in range(n):
        key = (i * 7919) % 4093
        seen = table.get(key)
        if seen is None:
            table[key] = [i]
        else:
            seen.append(i)
            if len(seen) > 8:
                del seen[:4]
        acc += len(str(key)) + (key ^ i) % 7
    return acc


def kernel_seconds(samples: int = 8) -> list[float]:
    """Time the kernel ``samples`` times (about 40 ms in all)."""
    taken = []
    for _ in range(samples):
        began = time.perf_counter()
        _kernel()
        taken.append(time.perf_counter() - began)
    return taken


def time_scale(kernel_s: list[float]) -> float:
    """Factor from seconds measured in this run to reference seconds.

    The first quartile of the kernel's times, not their median: the
    run's own numbers come from each op's fastest repetition, so the
    machine's faster moments are what they were measured in.
    """
    return REFERENCE_KERNEL_S / statistics.quantiles(kernel_s, n=4)[0]
