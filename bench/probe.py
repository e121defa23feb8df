"""Core-speed probe that runs beside a workload.

Usage: python3 bench/probe.py CPU

Pins itself to CPU, prints ``ready`` and then, every 0.1 s until its
standard input closes, times a fixed kernel of about 1 ms (small
Hermitian ``eigh`` calls, JSON parsing and an interpreter loop, the mix
povmlab's hot paths run) in thread CPU time, which leaves out the time it
waits for the CPU. At the end it prints the samples as JSON,
``[[end, seconds], ...]`` with ``end`` on the ``time.perf_counter``
clock. On a shared host the same kernel takes from 1.0 to 1.6 times as
long depending on what else runs on the core; the benchmark scales its
times by the kernel's speed in the same interval.
"""

import json
import os
import select
import sys
import time

import numpy as np

INTERVAL_S = 0.1
MATRIX = np.array([[2.0, 0.3 + 0.1j], [0.3 - 0.1j, 1.0]])
TEXT = json.dumps([[[0.1 * r, 0.2 * c] for c in range(8)] for r in range(8)])


def kernel() -> None:
    for _ in range(40):
        np.linalg.eigh(MATRIX)
    for _ in range(5):
        json.loads(TEXT)
    total = 0
    for i in range(3000):
        total += i * i


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    kernel()
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        start = time.thread_time()
        kernel()
        samples.append((time.perf_counter(), time.thread_time() - start))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
