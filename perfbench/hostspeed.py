"""How fast the host runs Python at each moment of a run.

On a shared virtual machine the same code runs up to about twice as
slowly at some moments as at others: other tenants load the host's
cores and caches, and the guest sees that as slower CPU, not as steal
time, so CPU time does not remove it.  The switches come within
seconds and phases last minutes, so neither longer runs nor medians
remove it either.

A :class:`Sampler` thread runs a fixed pure-Python kernel every
``SAMPLE_EVERY_S`` and records the CPU seconds it took.  The mean of
those samples over a window, divided by ``REFERENCE_KERNEL_S``, is the
host's slowness over that window; a timing divided by it reads as
seconds on a host where the kernel takes ``REFERENCE_KERNEL_S``.  The
kernel is benchmark code, so a change to the program cannot move it.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import List, Tuple

#: the kernel's CPU seconds on the reference host (2-core Xeon VM,
#: 2.0 GHz nominal, Python 3.11) in a typical phase of its load
REFERENCE_KERNEL_S = 1.0e-3
KERNEL_STEPS = 4000
SAMPLE_EVERY_S = 0.02
#: a window borrows samples this far beyond each end, so that a short
#: timing still has a dozen or more samples around it
PAD_S = 0.15


def pin_to_one_cpu() -> None:
    """Keep this process, and the threads it starts from now on, on one
    CPU, so the sampler sees the speed the measured code sees."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: the sampler may see another CPU


def kernel() -> int:
    """Dictionary updates and integer arithmetic, as routing does."""
    table = {}
    total = 0
    for i in range(KERNEL_STEPS):
        table[i & 255] = table.get(i & 255, 0) + i
        total += i * i % 7
    return total


class Sampler:
    """Samples the kernel on a thread from ``with`` entry to exit."""

    def __init__(self) -> None:
        #: (perf_counter at the kernel's start, kernel CPU seconds)
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="bench-host-speed", daemon=True
        )

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            began = time.perf_counter()
            cpu = time.thread_time()
            kernel()
            self.samples.append((began, time.thread_time() - cpu))

    def cpu_s(self) -> float:
        """CPU seconds the sampler has spent so far."""
        return sum(cpu for _, cpu in self.samples)

    def slowness(self, start: float, end: float) -> float:
        """Mean kernel time over ``[start, end]`` (``perf_counter``
        seconds) against the reference."""
        keys = [began for began, _ in self.samples]
        lo = bisect.bisect_left(keys, start - PAD_S)
        hi = bisect.bisect_right(keys, end + PAD_S)
        window = [cpu for _, cpu in self.samples[lo:hi]]
        if not window:
            raise RuntimeError("no host-speed sample near a timed window")
        return sum(window) / len(window) / REFERENCE_KERNEL_S
