"""Host-speed calibration in a separate process.

On a shared host the speed of the same code changes by up to 1.7x from one
second to the next and from one minute to the next (a busy neighbour on the
same physical core), which no averaging inside one run removes. The
benchmark therefore times a fixed calibration kernel right before and right
after each stretch of ops and scales the ops' times by
reference / (mean of the two samples). The kernel runs in a helper process
that imports numpy and nothing of gwextropy, so the state the library
leaves behind (caches, allocator, collector) cannot move the samples. The
helper is blocked on its pipe while ops run, and before each sample it is
moved to the CPU the caller last ran on, so it times the core the ops ran
on (the load of a neighbour differs from core to core); the caller itself
stays free to migrate. The raw times go in each run's record.

The kernel is Python arithmetic and scalar numpy calls, like the
quadrature integrands, the samplers and estimators at small n, and
interpreter start-up and package import. It serves large_n too: a
whole-array kernel that fits in cache moved by up to 40% between runs while
the large-n ops' raw times did not, and this one tracked them better.

Usage as the helper: python3 perfbench/calibrate.py; each line read from
standard input answers with one sample, in seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

import numpy as np


def kernel() -> float:
    acc = 0.0
    for i in range(60):
        x = np.asarray(0.3 + i * 1e-3, float)
        y = x**1.7
        if np.any(y < 0.0) or not np.all(np.isfinite(y)):
            raise ArithmeticError("calibration produced an invalid value")
        acc += float(y) / (1.0 + i)
    return acc


# Kernel time at the reference speed, in seconds: about the kernel's time in
# the fast state of the 2-core host the first baseline was taken on
# (perfbench/baseline.json). It sets the unit of the reported times only.
REFERENCE = 0.0006


def serve() -> None:
    kernel()
    for _ in sys.stdin:
        times = []
        for _ in range(2):  # the lower of two runs, so one interrupt cannot skew a sample
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        print(repr(min(times)), flush=True)


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or None."""
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class Calibration:
    """Client of a helper process; use as a context manager so the helper ends."""

    def __init__(self):
        self.cpu = None
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, bufsize=1)

    def sample(self) -> float:
        cpu = _current_cpu()
        if cpu is not None and cpu != self.cpu:
            os.sched_setaffinity(self.proc.pid, {cpu})
            self.cpu = cpu
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper ended early")
        return float(line)

    def factor(self, before: float, after: float) -> float:
        """Scale for times measured between two samples."""
        return 2.0 * REFERENCE / (before + after)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=30)


if __name__ == "__main__":
    serve()
