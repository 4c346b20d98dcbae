"""The Commit_LSN optimization across a complex of systems.

Commit_LSN [Moha90b] is the LSN of the first log record of the oldest
update transaction still executing.  Every page whose page_LSN is below
it holds only committed data, so cursor-stability readers can skip
record locks entirely.

In SD and CS the value must cover transactions on *all* systems
(Section 2, problem 4), so each system contributes the first-LSN of its
oldest active update transaction — or, when it has none,
``Local_Max_LSN + 1`` — and the complex-wide Commit_LSN is the minimum
contribution.  This is exactly why the paper cares that LSNs stay
*close together* across systems: a system whose Local_Max_LSN lags
drags the minimum into the past and the cheap check starts failing
(experiment E2).

Crashed systems freeze their last known contribution: their in-flight
transactions' updates are still uncommitted on shared pages until
restart recovery undoes them, so the service must not let the global
value advance past them.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol

from repro.common.lsn import Lsn
from repro.common.seams import Seams
from repro.common.stats import COMMIT_LSN_HITS, COMMIT_LSN_MISSES
from repro.obs import events as ev


class CommitLsnMember(Protocol):
    """What the service needs from each system."""

    system_id: int
    crashed: bool

    @property
    def txns(self): ...

    @property
    def log(self): ...


class CommitLsnService:
    """Computes and checks the complex-wide Commit_LSN."""

    def __init__(self, seams: Optional[Seams] = None) -> None:
        self.stats, self.tracer, _ = seams or Seams.of()
        self._members: Dict[int, CommitLsnMember] = {}
        self._frozen: Dict[int, Lsn] = {}

    def register(self, member: CommitLsnMember) -> None:
        self._members[member.system_id] = member

    def deregister(self, system_id: int) -> None:
        self._members.pop(system_id, None)
        self._frozen.pop(system_id, None)

    # ------------------------------------------------------------------
    def local_commit_lsn(self, member: CommitLsnMember) -> Lsn:
        """One system's contribution to the global minimum."""
        first = member.txns.oldest_active_first_lsn()
        if first is not None:
            return first
        return member.log.local_max_lsn + 1

    def global_commit_lsn(self) -> Lsn:
        """Minimum contribution across all systems.

        Up systems contribute live values (and refresh their frozen
        snapshot); crashed systems contribute their last live value.
        """
        contributions = []
        for system_id, member in self._members.items():
            if member.crashed:
                contributions.append(self._frozen.get(system_id, 1))
            else:
                value = self.local_commit_lsn(member)
                self._frozen[system_id] = value
                contributions.append(value)
        return min(contributions) if contributions else 1

    def check(self, page_lsn: Lsn) -> bool:
        """The Commit_LSN test: is everything on this page committed?

        Counts hits and misses so experiments can report the rate.
        """
        commit_lsn = self.global_commit_lsn()
        hit = page_lsn < commit_lsn
        self.stats.incr(COMMIT_LSN_HITS if hit else COMMIT_LSN_MISSES)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.COMMIT_LSN_CHECK,
                page_lsn=int(page_lsn),
                commit_lsn=int(commit_lsn),
                hit=hit,
            )
        return hit

    def hit_rate(self) -> float:
        """Fraction of checks that avoided locking (0.0 if no checks)."""
        hits = self.stats.get(COMMIT_LSN_HITS)
        misses = self.stats.get(COMMIT_LSN_MISSES)
        total = hits + misses
        return hits / total if total else 0.0
