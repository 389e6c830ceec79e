"""Reference job for scaling measured times to a nominal host speed.

The CPUs this benchmark was written on run the same code up to 1.7 times
slower for seconds to tens of seconds at a time, because of load from
outside the machine; a fixed loop of one million integer multiplications
took from 133 ms to 280 ms within two minutes, and process CPU time grew
with the wall time.  So the benchmark runs this fixed job between timed
steps, and scales the time of a step by
``NOMINAL_S / (mean of the reference times around it)``: on a quiet host
the result is the wall time, on a busy one it is the wall time the step
would have taken on a quiet one.  The job mixes what digenergy's hot paths
do (Python integer loops, ``Fraction`` arithmetic, small numpy linear
algebra).

The job runs in a ``Metronome``, a process of its own that imports nothing
of digenergy, so that no state of the measured program (its heap, garbage
collector or caches) can speed up or slow down the reference.  The caller
waits while it runs, so the two never compete for a CPU.

Usage as a process (what ``Metronome`` starts): python3 perfbench/speed.py
reads one line per sample from stdin and answers with the job's seconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# The metronome's answer on a quiet host (Intel Xeon, 2 vCPUs, Python 3.11,
# numpy 2.4); it only sets the unit, so it never changes.
NOMINAL_S = 0.0021

_MATRIX = np.arange(64.0).reshape(8, 8) % 7.0
_POINTS = np.linspace(-2.0, 2.0, 16) + 0.5j


def reference_s() -> float:
    """Wall time of one run of the fixed reference job."""
    started = time.perf_counter()
    acc = 0
    for i in range(10000):
        acc = ((acc << 1) ^ (i * 2654435761)) & 0xFFFFFFFF
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(acc % 97 + 1, i)
    for _ in range(20):
        np.linalg.eigvals(_MATRIX)
        np.polyval(_MATRIX[0], _POINTS)
    return time.perf_counter() - started


class Metronome:
    """The reference job in a separate process, run on request.

    ``start`` launches the process.  A child started with
    ``pass_fds=metronome.fds()`` reaches the same process through
    ``attach``; only one of them may take samples at a time."""

    def __init__(self, reader, writer, proc=None):
        self._reader, self._writer, self._proc = reader, writer, proc

    @classmethod
    def start(cls, env: dict) -> "Metronome":
        proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True, env=env)
        return cls(proc.stdout, proc.stdin, proc)

    @classmethod
    def attach(cls, fds: str) -> "Metronome":
        """The metronome behind the descriptors "READ,WRITE" of ``fds()``."""
        read_fd, write_fd = (int(fd) for fd in fds.split(","))
        return cls(os.fdopen(read_fd, "r"), os.fdopen(write_fd, "w"))

    def sample(self) -> float:
        """Seconds of the reference job, run while the caller waits."""
        self._writer.write("\n")
        self._writer.flush()
        return float(self._reader.readline())

    def fds(self) -> tuple[int, int]:
        """The descriptors (read, write) to pass to a child process."""
        return self._reader.fileno(), self._writer.fileno()

    def close(self) -> None:
        self._writer.close()
        self._proc.wait()


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at nominal host speed, from the reference times taken
    before and after it."""
    return seconds * NOMINAL_S / ((before + after) / 2.0)


def _serve() -> None:
    reference_s()            # warm-up: the first run pays numpy's lazy set-up
    for _ in sys.stdin:
        # The least of three runs: the first after an idle spell runs on
        # cold caches, and any one of them can take an interrupt.
        print(repr(min(reference_s() for _ in range(3))), flush=True)


if __name__ == "__main__":
    _serve()
