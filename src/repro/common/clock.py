"""Deliberately unsynchronized per-system clocks.

The paper's headline constraint is that LSN generation must work
*without* synchronized clocks (Section 3: "we assume that clocks are not
synchronized across the complex of systems both in SD and CS").  To make
that constraint testable instead of rhetorical, every simulated system
owns a :class:`SkewedClock` whose readings are offset and drift-scaled
relative to simulation time.  No recovery-relevant code path may consult
these clocks; tests assert that LSN behaviour is invariant under
arbitrary skew.
"""

from __future__ import annotations

import time as _time


def wall_seconds() -> float:
    """Monotonic wall-clock reading — **bench harness only**.

    The simulation itself must never observe real time (rule R002);
    this module is R002's single allowed home for clock access, and
    this helper exists so the out-of-simulation tooling (bench and
    micro-benchmark timing loops, the perf lab) can measure elapsed
    wall time without re-importing ``time`` elsewhere.
    """
    return _time.perf_counter()


class SkewedClock:
    """A logical clock with constant offset and rate drift.

    Readings are ``offset + rate * ticks`` where ``ticks`` advances by
    one per :meth:`tick`.  Determinism matters more than realism here:
    two runs with the same parameters read identical times.
    """

    def __init__(self, offset: float = 0.0, rate: float = 1.0) -> None:
        if rate <= 0:
            raise ValueError("clock rate must be positive")
        self.offset = offset
        self.rate = rate
        self._ticks = 0

    def tick(self, n: int = 1) -> None:
        """Advance the underlying tick counter by ``n``."""
        if n < 0:
            raise ValueError("cannot tick backwards")
        self._ticks += n

    def now(self) -> float:
        """Current (skewed) clock reading."""
        return self.offset + self.rate * self._ticks

    @property
    def ticks(self) -> int:
        """Raw tick count (unskewed), for test introspection only."""
        return self._ticks

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SkewedClock(offset={self.offset!r}, rate={self.rate!r}, "
            f"ticks={self._ticks})"
        )
