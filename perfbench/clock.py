"""CPU time of a timed block, corrected for the speed its core runs at meanwhile.

On a shared host the same Python work can take 1.5-2x as long from one
minute to the next, on one core and not the other, and the guest sees none
of it as steal time: process CPU time slows down just like wall time.  So
the benchmark pins itself, and every process it starts, to one CPU
(``pin_to_one_cpu``) and runs a ``SpeedProbe`` there: a separate process
that every ``INTERVAL_S`` wakes up, takes the core from the timed code and
times a fixed pure-Python reference kernel by its own thread CPU time.  The
kernel is ``Fraction`` arithmetic from the standard library, the kind of
work that dominates g2kit's exact layers, and runs no g2kit code; it slows
down in the host's slow stretches about as much as g2kit's passes do, where
a dict-and-int kernel slowed down less (README.md).

A ``Stopwatch`` times a block by the process's CPU time, which leaves out
the probe's turns, and scales it by ``REF_KERNEL_S`` over the mean kernel
time of the probe's samples during the block: "reference seconds", the CPU
time at the speed where the kernel takes ``REF_KERNEL_S``.  The kernel never
runs inside the timed process, and its samples are spread evenly in time
whether the timed code is in Python or in a native call.  It runs long
enough (about 3 ms) that the cache state the timed code leaves on the core
moves it by only a few percent (README.md gives the measurement).

    python3 perfbench/clock.py --probe <samples file>   # the probe process
"""

import os
import signal
import statistics
import struct
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

INTERVAL_S = 0.05
KERNEL_ITERATIONS = 700
# the kernel's thread CPU time in uncontended stretches on a 2-core x86-64 VM
# (Sapphire Rapids) with CPython 3.11, so that there reference seconds and
# CPU seconds agree
REF_KERNEL_S = 0.0033
_RECORD = struct.Struct("dd")   # perf_counter at the kernel's start, its CPU s


def _reference_kernel():
    s = Fraction(0)
    for i in range(1, KERNEL_ITERATIONS):
        s += Fraction(i % 13, i % 97 + 1) * Fraction(3, i % 7 + 2)
    return s


def pin_to_one_cpu():
    """Pins this process (and what it starts later) to one allowed CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedProbe:
    """The probe process, started and stopped as a ``with`` block."""

    def __init__(self, path):
        self.path = Path(path)

    def __enter__(self):
        self.path.parent.mkdir(exist_ok=True)
        self.path.write_bytes(b"")
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             str(self.path)], stdin=subprocess.DEVNULL)
        self._read = 0
        self._samples = []
        return self

    def __exit__(self, *exc):
        self._proc.terminate()
        self._proc.wait()
        self.path.unlink(missing_ok=True)
        return False

    def ref_s(self, cpu_s, start, end):
        """``cpu_s`` spent between perf_counter times start and end, in reference s."""
        return cpu_s * REF_KERNEL_S / self.kernel_s(start, end)

    def kernel_s(self, start, end):
        """Mean kernel time of the samples in [start, end], else the nearest."""
        data = self.path.read_bytes()
        usable = len(data) - (len(data) - self._read) % _RECORD.size
        self._samples += _RECORD.iter_unpack(data[self._read:usable])
        self._read = usable
        inside = [k for t, k in self._samples if start <= t <= end]
        if inside:
            return statistics.fmean(inside)
        if not self._samples:
            raise RuntimeError("the speed probe recorded no sample")
        return min(self._samples, key=lambda s: abs(s[0] - start))[1]


class Stopwatch:
    """Times a ``with`` block in wall and CPU seconds and, with a probe, reference seconds.

    Without a probe (traced passes, trace-mode comparisons) ``ref_s`` is None.
    """

    def __init__(self, probe=None):
        self.probe = probe

    def __enter__(self):
        self._cpu = time.process_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.cpu_s = time.process_time() - self._cpu
        self.wall_s = self.end - self.start
        self.ref_s = None
        if self.probe is not None:
            self.ref_s = self.probe.ref_s(self.cpu_s, self.start, self.end)
        return False


def _probe(path):
    parent = os.getppid()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    with open(path, "ab", buffering=0) as out:
        while os.getppid() == parent:   # ends with the benchmark, whatever happens
            t = time.perf_counter()
            cpu = time.thread_time()
            _reference_kernel()
            out.write(_RECORD.pack(t, time.thread_time() - cpu))
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--probe"] or len(sys.argv) != 3:
        sys.exit(__doc__)
    _probe(sys.argv[2])
