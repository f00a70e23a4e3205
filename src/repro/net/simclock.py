"""The virtual clock.

A :class:`SimClock` is a monotonically advancing millisecond counter.
Sequential work calls :meth:`advance_ms`; concurrent work (the paper's
remote JClarens servers processing forwarded sub-queries in parallel)
goes through :meth:`run_parallel`, which charges each branch from the
same start instant and leaves the clock at the latest finisher.
"""

from __future__ import annotations


class SimClock:
    """Millisecond virtual clock with fork/join for parallel branches."""

    def __init__(self):
        self.now_ms = 0.0

    def advance_ms(self, ms: float) -> None:
        """Advance time by a non-negative duration."""
        if ms < 0:
            raise ValueError(f"cannot advance clock by negative duration {ms}")
        self.now_ms += ms

    def rewind_to(self, instant_ms: float) -> None:
        """Rewind to an earlier instant.

        Only legitimate inside a parallel section: run branch A, record
        its duration, rewind, run branch B, ..., then advance by the
        maximum. Virtual time makes this sound because branches only
        ever *advance* the clock.
        """
        if instant_ms > self.now_ms:
            raise ValueError("rewind_to cannot move the clock forward")
        self.now_ms = instant_ms

    def run_parallel(self, branches) -> float:
        """Execute callables as parallel branches; clock ends at the max.

        Returns the duration of the slowest branch. Each branch runs
        sequentially in real execution order but is charged from the
        same virtual start instant — the fork/join pattern the paper's
        remote JClarens servers exhibit. A lone branch simply runs in
        place: there is nothing to fork or join.
        """
        start = self.now_ms
        if len(branches) == 1:
            branches[0]()
            return self.now_ms - start
        longest = 0.0
        for branch in branches:
            branch()
            longest = max(longest, self.now_ms - start)
            self.rewind_to(start)
        self.advance_ms(longest)
        return longest

    def __repr__(self) -> str:
        return f"SimClock(now_ms={self.now_ms:.3f})"
