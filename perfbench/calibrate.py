"""Machine-speed calibration interleaved with a timed call.

On a shared virtual machine the speed of one vCPU changes by 20-30% within
seconds, for the same work, because other tenants load the host.  Process
CPU time follows that drift, so one long call's CPU time is not
repeatable: the CPU time of the same 20 s round spread by 0.13-0.24
(quartile distance over median) across ten runs.  A ``Calibrator`` stops the timed call every
``PERIOD_S`` seconds of process CPU time (``SIGPROF``), times a fixed
reference kernel there, and rescales each slice of the call by the kernel
times measured just before and just after it:

    norm_cpu_s = sum_i  cpu_i * NOMINAL_S / mean(kernel_{i-1}, kernel_i)

That is the call's CPU time on a machine that runs the kernel in its
nominal time.  The kernel's own time is excluded from ``cpu_s`` and
``wall_s``.  The kernel resembles the work it calibrates: numpy FFTs and
elementwise exponentials for the numeric workloads, and ``Fraction``
arithmetic with dict, set and tuple work for the exact ones.  It runs on
fixed inputs of its own and never calls into ``sinegordon``; the garbage
collector is paused while it runs, so a collection of the call's heap is
charged to the call.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.3           # CPU seconds of the timed call between kernels


def numpy_kernel(n: int, reps: int):
    import numpy as np
    fft2, ifft2, exp = np.fft.fft2, np.fft.ifft2, np.exp
    a = np.exp(2j * np.pi * np.random.default_rng(0).random((n, n)))

    def run():
        for _ in range(reps):
            exp(1j * ifft2(fft2(a)).real)
    return run


def python_kernel(terms: int):
    def run():
        acc, table, chains = Fraction(0), {}, []
        for i in range(1, terms):
            acc += Fraction(1, i) - Fraction(1, i + 3)
            for j in range(8):
                key = frozenset((i % 7, (i + j) % 11, j))
                table[key] = table.get(key, 0) + 1
                chains.append((key, i, j, (i, j)))
        return len(table), len(chains), acc.denominator % 97
    return run


class Calibrator:
    """Rescale the CPU time of the calls it brackets to nominal speed."""

    def __init__(self, kernel, nominal_s: float):
        self.kernel, self.nominal_s = kernel, nominal_s
        self.kernel()                       # warm caches and allocators
        self.kernel_s: list[float] = []     # kernel CPU time, each stop
        self.slices: list[float] = []       # call CPU time between stops
        self.spent_cpu = self.spent_wall = 0.0
        self._mark = 0.0

    def _stop(self):
        now = time.process_time()
        w0 = time.perf_counter()
        self.slices.append(now - self._mark)
        collecting = gc.isenabled()
        gc.disable()
        self.kernel()
        self._mark = time.process_time()
        if collecting:
            gc.enable()
        self.kernel_s.append(self._mark - now)
        self.spent_cpu += self._mark - now
        self.spent_wall += time.perf_counter() - w0

    def _on_timer(self, signum, frame):
        self._stop()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S)

    def __enter__(self):
        self.kernel_s.clear()
        self.slices.clear()
        self.spent_cpu = self.spent_wall = 0.0
        self._mark = time.process_time()
        self._stop()                        # leading kernel; slice is empty
        self.slices.clear()
        self._old = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)
        self._stop()                        # trailing kernel closes the call
        return False

    def norm_cpu_s(self) -> float:
        k = self.kernel_s
        return sum(cpu * self.nominal_s / ((k[i] + k[i + 1]) / 2)
                   for i, cpu in enumerate(self.slices))

    def speed(self) -> float:
        """Nominal over median kernel time: above 1 when the host is fast."""
        ordered = sorted(self.kernel_s)
        return self.nominal_s / ordered[len(ordered) // 2]
