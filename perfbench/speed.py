"""CPU-speed calibration for the benchmark's timings.

On a shared host the same library call can take 1.6 times as long for
minutes at a time (an sr25 2-FWL verdict measured 200-385 ms in one
loop), and the processor time of the thread rises with the wall time,
so no statistic over one run removes it. A fixed pure-Python loop run
between the workload's steps slows down with it: over 105-verdict
windows the verdict time moved by 9.5 % (quartile spread over median)
and its ratio to the loop's time by 1.8 %.

`calibration_loop` times that loop. A step timed between two loops is
reported in reference seconds: its measured seconds times
`REFERENCE_LOOP_S` over the mean of the two loops' times, i.e. the time
the step would take on a CPU that runs the loop in exactly
`REFERENCE_LOOP_S`. The loop touches no library code, so a faster or
slower library shows in full.
"""

import time

LOOP_ITERATIONS = 100_000
REFERENCE_LOOP_S = 0.010


def calibration_loop() -> float:
    """Seconds one run of the fixed loop takes now."""
    t = time.perf_counter()
    s = 0
    for i in range(LOOP_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t


def reference_seconds(seconds: float, loop_before: float, loop_after: float) -> float:
    """`seconds` measured between two calibration loops, in reference seconds."""
    return seconds * REFERENCE_LOOP_S * 2 / (loop_before + loop_after)
