"""Host-speed normalization for real-time measurements.

On a shared host the CPU's speed drifts: the same pure-Python work can
take twice as long for tens of seconds and then recover. Medians over a
15-second run do not average that out. ``SpeedProbe`` times a fixed
pure-Python kernel (dict updates, string formatting, tuple building and a
sort — the same kinds of work the federation does) every tenth of a second
while the benchmark runs. A real time measured at instant ``t`` is
reported at reference speed:

    normalized_ms = raw_ms * REFERENCE_KERNEL_MS / kernel_ms(t)

where ``kernel_ms(t)`` interpolates the probe samples around ``t``. The
kernel does not touch the program, so a change to the program moves the
normalized time exactly as it moves the raw one; only the host's drift
is divided out. Raw times are printed alongside.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: kernel time (ms) that defines "reference speed"; any fixed value works,
#: this one is about the kernel's fastest time on a 2-vCPU x86-64 host
#: (Python 3.11), so normalized times read close to raw times there
REFERENCE_KERNEL_MS = 0.35


def kernel() -> int:
    """Fixed work, a third of a millisecond at reference speed."""
    rows = []
    index: dict[str, int] = {}
    for i in range(500):
        key = f"r{i % 53}"
        rows.append((i, key, i * 0.5))
        index[key] = index.get(key, 0) + 1
    rows.sort(key=lambda r: (r[1], -r[0]))
    return len(index) + len(rows)


class SpeedProbe:
    """Samples the kernel's time while a measurement runs."""

    def __init__(self, interval_s: float = 0.1, reps: int = 3):
        self.interval_ns = int(interval_s * 1e9)
        self.reps = reps
        self.times_ns: list[int] = []
        self.kernel_ms: list[float] = []

    def sample(self) -> None:
        """Time the kernel ``reps`` times; keep the median."""
        spent = []
        for _ in range(self.reps):
            t0 = time.perf_counter_ns()
            kernel()
            spent.append(time.perf_counter_ns() - t0)
        self.times_ns.append(time.perf_counter_ns())
        self.kernel_ms.append(statistics.median(spent) / 1e6)

    def maybe_sample(self) -> None:
        if not self.times_ns or time.perf_counter_ns() - self.times_ns[-1] >= self.interval_ns:
            self.sample()

    def kernel_ms_at(self, t_ns: int) -> float:
        """Kernel time around instant ``t_ns``: mean of the bracketing samples."""
        i = bisect.bisect_left(self.times_ns, t_ns)
        around = self.kernel_ms[max(0, i - 1): i + 1]
        return sum(around) / len(around)

    def normalize(self, raw_ms: float, start_ns: int) -> float:
        """``raw_ms`` measured from ``start_ns``, at reference speed."""
        mid = start_ns + int(raw_ms * 5e5)
        return raw_ms * REFERENCE_KERNEL_MS / self.kernel_ms_at(mid)

    def summary(self) -> dict:
        values = self.kernel_ms
        return {
            "reference_kernel_ms": REFERENCE_KERNEL_MS,
            "kernel_ms_median": statistics.median(values),
            "kernel_ms_min": min(values),
            "kernel_ms_max": max(values),
            "samples": len(values),
        }
