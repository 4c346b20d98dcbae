"""The primary-side log shipper and write-acknowledgement tracking.

One :class:`ReplicationManager` hangs off an
:class:`~repro.sd.complex.SDComplex` (``replicate=`` seam).  It keeps a
byte cursor into every instance's local log, reads the newly *stable*
bytes behind it, orders the records of all logs by the LSN in their
headers alone (the Section 3.2.2 discipline) and ships the log's own
bytes in bounded batches over the network fabric to every attached
:class:`~repro.replication.standby.StandbyComplex`.

Only forced records ever leave the primary
(:meth:`~repro.wal.log_manager.LogManager.read_stable`): shipping the
volatile tail would let a standby hold records the primary itself
loses in a crash, inverting the durability order.

Write-ack levels (the adjustable-durability knob) — each is a number
of standbys that must have *forced* the commit record, beyond the
primary's own force:

* ``local``  — none; shipping is asynchronous and only the overflow
  beyond the in-flight window is pushed out at commit.
* ``quorum`` — a majority of {primary} ∪ standbys: ⌊(n+1)/2⌋ of *n*
  standbys.  The commit point ships everything stable to everyone.
* ``all``    — every attached standby.

Every batch goes to every connected standby, but only the standbys
whose vote the level needs (lowest connected id first) are asked to
force it; the others absorb it and force on their own window bound.
An ack carries both cumulative LSNs — absorbed and durable — for each
primary log (only within one log do LSNs order the stream):
:attr:`CommitAck.satisfied` is decided on durable, link health on
absorbed (a standby that holds the commit record unforced is a healthy
laggard, not a degraded one).

"Waits" is one bounded synchronous round per standby (retry with
deterministic backoff via :func:`~repro.faults.policy.run_with_retry`);
a standby that cannot be reached is disconnected, the next connected
one is asked to force in its place, and the commit proceeds with the
acks it has — the primary enters **ack-degraded** mode (trace event +
counter) rather than stalling.  Every commit's ack decision is
recorded as a :class:`CommitAck`, which the failover drill audits
against what survives promotion.

Disabled replication is the shared :data:`NULL_REPLICATION` object
(``enabled=False``), so ``replicate=None`` stacks stay byte-identical
to pre-replication runs per the equivalence discipline.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Tuple

from repro.common.errors import (
    FaultInjectedError,
    ReproError,
    RetryExhaustedError,
)
from repro.common.lsn import Lsn
from repro.common.stats import (
    REPL_ACKS,
    REPL_BATCHES_SHIPPED,
    REPL_COMMITS_ACKED,
    REPL_DEGRADED_ENTRIES,
    REPL_RECORDS_SHIPPED,
    REPL_SHIP_RETRIES,
)
from repro.faults import points as fp
from repro.faults.injector import FAIL
from repro.faults.policy import RetryPolicy, run_with_retry
from repro.obs import events as ev
from repro.replication.standby import StandbyComplex
from repro.wal.records import record_spans

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sd.complex import SDComplex

ACK_LOCAL = "local"
ACK_QUORUM = "quorum"
ACK_ALL = "all"
ACK_LEVELS = (ACK_LOCAL, ACK_QUORUM, ACK_ALL)

#: A shipped unit: (source system id, one run of that log's bytes).
ShipItem = Tuple[int, bytes]
#: A collected record awaiting shipment: its LSN and source (the merge
#: key), and where it lies in the stable window read from that log.
_Pending = Tuple[int, int, bytes, int, int]


class ReplicationConfig:
    """Tuning knobs for one primary's log shipping.

    ``window_records`` bounds the unshipped stable tail in ``local``
    mode and, on every standby, the records absorbed but unforced and
    the page records waiting to be applied.
    """

    def __init__(
        self,
        ack: str = ACK_QUORUM,
        window_records: int = 64,
        batch_records: int = 8,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if ack not in ACK_LEVELS:
            raise ValueError(f"ack must be one of {ACK_LEVELS}, got {ack!r}")
        if window_records < 1:
            raise ValueError("window_records must be >= 1")
        if batch_records < 1:
            raise ValueError("batch_records must be >= 1")
        self.ack = ack
        self.window_records = window_records
        self.batch_records = batch_records
        self.retry = retry if retry is not None else RetryPolicy()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReplicationConfig(ack={self.ack!r}, "
            f"window_records={self.window_records}, "
            f"batch_records={self.batch_records})"
        )


class CommitAck:
    """The recorded ack decision for one committed transaction."""

    __slots__ = ("system", "txn", "lsn", "level", "satisfied")

    def __init__(self, system: int, txn: int, lsn: int, level: str,
                 satisfied: bool) -> None:
        self.system = system
        self.txn = txn
        self.lsn = lsn
        self.level = level
        self.satisfied = satisfied

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CommitAck(system={self.system}, txn={self.txn}, "
            f"lsn={self.lsn}, level={self.level!r}, "
            f"satisfied={self.satisfied})"
        )


class NullReplication:
    """The zero-cost default: replication switched off.

    Mirrors :data:`~repro.obs.tracer.NULL_TRACER` /
    :data:`~repro.faults.injector.NULL_INJECTOR`: call sites guard on
    ``enabled``, so a ``replicate=None`` stack pays one attribute read
    and emits nothing.
    """

    enabled: bool = False

    def on_commit(self, system: int, txn: int, lsn: Lsn) -> bool:
        """No-op commit hook (never called behind the guard)."""
        return True

    def add_standby(self, system_id: int) -> "StandbyComplex":
        raise ReproError("replication is not enabled on this complex")


#: Shared process-wide null replication; safe because it holds no state.
NULL_REPLICATION = NullReplication()


class _StandbyLink:
    """Primary-side state for one attached standby."""

    __slots__ = ("standby", "system_id", "absorbed", "durable",
                 "connected", "degraded")

    def __init__(self, standby: StandbyComplex) -> None:
        self.standby = standby
        self.system_id = standby.system_id
        #: The standby's cumulative LSNs per primary log as of its
        #: last ack: highest absorbed, highest forced.
        self.absorbed: Dict[int, int] = {}
        self.durable: Dict[int, int] = {}
        self.connected = True
        self.degraded = False


class ReplicationManager(NullReplication):
    """Ships the primary's merged stable log stream to its standbys."""

    enabled = True

    def __init__(self, primary: "SDComplex",
                 config: Optional[ReplicationConfig] = None) -> None:
        self.primary = primary
        self.config = config if config is not None else ReplicationConfig()
        self.stats, self.tracer, self.injector = primary.seams
        self.network = primary.network
        #: Per-source byte offset already collected into the pending
        #: queue (the ship cursor into each local log).
        self._shipped_offsets: Dict[int, int] = {}
        #: Collected-but-unshipped records, in merged LSN order.
        self._pending: Deque[_Pending] = deque()
        #: Highest LSN handed to the fabric so far, per source.
        self._shipped_lsn: Dict[int, int] = {}
        self._links: Dict[int, _StandbyLink] = {}
        #: The links in ascending standby id — the order votes are
        #: asked for.
        self._by_id: Tuple[_StandbyLink, ...] = ()
        #: Standbys that must have forced a commit record for the
        #: level to hold: fixed by the ack level and the standby count,
        #: so counted when a standby attaches.
        self._votes = 0
        #: Every commit-point ack decision, in commit order (the
        #: failover drill's loss audit reads this).
        self.commit_acks: List[CommitAck] = []

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_standby(self, system_id: int) -> StandbyComplex:
        """Attach a new standby complex mirroring the primary geometry.

        Only before the first record ships: a link starts at the ship
        cursor over a freshly formatted volume, so a late standby would
        miss everything already shipped and still vote as a full
        replica.
        """
        if system_id in self._links:
            raise ReproError(f"standby {system_id} already attached")
        if self._shipped_offsets:
            raise ReproError(
                f"standby {system_id} attached after records shipped: "
                f"a late standby cannot be seeded")
        if system_id in self.primary.instances:
            raise ReproError(
                f"system {system_id} is a primary instance, not a standby")
        standby = StandbyComplex(system_id, self.primary)
        self._links[system_id] = _StandbyLink(standby)
        self._by_id = tuple(link for _, link in sorted(self._links.items()))
        # Every standby under ``all``; under ``quorum`` a majority of
        # {primary} ∪ standbys, the primary's log force being its vote.
        attached = len(self._links)
        self._votes = {ACK_ALL: attached,
                       ACK_QUORUM: (attached + 1) // 2}.get(self.config.ack, 0)
        return standby

    def standbys(self) -> Dict[int, StandbyComplex]:
        return {sid: link.standby for sid, link in self._links.items()}

    def acked_lsn(self, system_id: int) -> int:
        """The highest LSN the standby last acknowledged as forced."""
        return max(self._links[system_id].durable.values(), default=0)

    def absorbed_lsn(self, system_id: int) -> int:
        """The highest LSN the standby last acknowledged holding."""
        return max(self._links[system_id].absorbed.values(), default=0)

    def connected(self, system_id: int) -> bool:
        return self._links[system_id].connected

    @property
    def ack_degraded(self) -> bool:
        """Is any standby currently behind on acks / unreachable?"""
        return any(link.degraded for link in self._links.values())

    def pending_records(self) -> int:
        """Collected records not yet shipped (the replication lag, in
        records, against the primary's stable log boundary)."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # the commit hook
    # ------------------------------------------------------------------
    def on_commit(self, system: int, txn: int, lsn: Lsn) -> bool:
        """Enforce the configured ack level for one forced commit.

        Called by :meth:`DbmsInstance._commit` right after the commit
        log force (the record at ``lsn`` is stable locally).  Returns
        whether the level was satisfied; the commit proceeds either way
        — an unsatisfied level degrades, never stalls.
        """
        self._collect()
        level = self.config.ack
        commit_lsn = int(lsn)
        if level == ACK_LOCAL:
            # Asynchronous shipping: only the overflow beyond the
            # in-flight window leaves at the commit point, so the
            # unshipped tail — the most a crash can lose — stays
            # bounded by window_records.
            self._flush(limit=self.config.window_records)
            satisfied = True
            for link in self._by_id:
                # No vote is awaited: only a lost link is behind.
                if link.degraded == link.connected:
                    self._set_degraded(link, not link.connected)
        else:
            votes = self._votes
            self._flush(limit=0, forcing=votes)
            satisfied = self._await_acks(system, commit_lsn, votes)
        self.commit_acks.append(
            CommitAck(system, txn, commit_lsn, level, satisfied))
        if satisfied:
            self.stats.incr(REPL_COMMITS_ACKED)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.REPL_COMMIT_ACK, system=system, txn=txn, lsn=commit_lsn,
                level=level, satisfied=satisfied,
            )
        return satisfied

    def drain(self) -> int:
        """Collect and ship everything stable; returns records shipped.

        The between-commits pump (benchmarks call it to simulate an
        idle-time shipper tick; ``local`` mode relies on it to keep lag
        near zero when commits are sparse).  It leaves every connected
        standby forced, applied and written back through the last
        record shipped, so its disk is current.
        """
        self._collect()
        shipped = len(self._pending)
        self._flush(limit=0, forcing=len(self._links))
        shipped -= len(self._pending)
        for link in self._by_id:
            if link.connected and link.durable != self._shipped_lsn:
                self._ack(link, force=True)
            # A lost ack leaves the standby as it is: nothing unforced
            # may be applied, let alone written back.
            if link.connected and link.durable == self._shipped_lsn:
                link.standby.harden(write_back=True)
        return shipped

    # ------------------------------------------------------------------
    # collect / ship
    # ------------------------------------------------------------------
    def _collect(self) -> None:
        """Queue the newly stable records of every local log, ordered
        by the LSN in their headers; nothing is parsed or re-encoded.

        Every commit point and drain starts here, so this is also where
        a crashed standby is disconnected: it lost its unforced tail
        and unapplied chains, so it takes no more batches and casts no
        more votes until it is promoted.
        """
        for link in self._by_id:
            if link.connected and link.standby.crashed:
                self._disconnect(link, "standby crashed")
        offsets = self._shipped_offsets
        windows: List[List[_Pending]] = []
        for log in self.primary.local_logs():
            source_id = log.system_id
            start = offsets.get(source_id, 0)
            data = log.read_stable(start)
            if data:
                offsets[source_id] = start + len(data)
                windows.append([(lsn, source_id, data, begin, end)
                                for lsn, begin, end in record_spans(data)])
        if len(windows) == 1:
            # One log moved (every commit's case): already in order.
            self._pending.extend(windows[0])
        elif windows:
            # (lsn, source) is unique, so the merge never compares
            # further.
            self._pending.extend(heapq.merge(*windows))

    def _flush(self, limit: int, forcing: int = 0) -> None:
        """Ship pending records until at most ``limit`` remain.

        Every batch goes to every connected standby; the first
        ``forcing`` of them are asked to force the last one.
        """
        pending = self._pending
        if len(pending) <= limit:
            return
        links = [link for link in self._by_id if link.connected]
        batch_records = self.config.batch_records
        shipped_lsn = self._shipped_lsn
        while len(pending) > limit:
            # One item per run: records adjacent in merged order that
            # come from the same stable window are adjacent in it.
            batch: List[ShipItem] = []
            run_source = run_begin = run_end = records = nbytes = 0
            run_data = b""
            while pending and records < batch_records:
                lsn, source_id, data, begin, end = pending.popleft()
                if data is not run_data:
                    if records:
                        batch.append(
                            (run_source, run_data[run_begin:run_end]))
                    run_source, run_data, run_begin = source_id, data, begin
                run_end = end
                records += 1
                nbytes += end - begin
                shipped_lsn[source_id] = lsn
            batch.append((run_source, run_data[run_begin:run_end]))
            last = len(pending) <= limit
            for position, link in enumerate(links):
                if link.connected:
                    self._ship_to(link, batch, records, nbytes,
                                  force=last and position < forcing)

    def _ship_to(self, link: _StandbyLink, batch: List[ShipItem],
                 records: int, nbytes: int, force: bool) -> None:
        """Ship one batch to one standby, with bounded retry/backoff.

        An injected ``fail`` at ``repl.ship`` (or anywhere inside the
        standby's absorb, force and apply) is retried under the
        configured policy; exhaustion disconnects the standby —
        crash-flavoured injections propagate untouched, they are the
        drill's kill signal.
        """
        if self.injector.enabled:
            # Only an injector can fail a ship, so only then is the
            # retry frame built.
            if not self._ship_with_retry(link, batch, nbytes, force):
                return
        else:
            self.network.message(0, link.system_id, "repl.ship", nbytes)
            link.standby.receive(batch, force)
        self.stats.incr(REPL_BATCHES_SHIPPED)
        self.stats.incr(REPL_RECORDS_SHIPPED, records)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.REPL_SHIP, system=0, standby=link.system_id,
                records=records, nbytes=nbytes,
                max_lsn=int(link.standby.absorbed_lsn),
            )
        self._ack(link)

    def _ship_with_retry(self, link: _StandbyLink, batch: List[ShipItem],
                         nbytes: int, force: bool) -> bool:
        """The injector-enabled ship; False once the budget is spent
        and the standby has been disconnected."""
        def attempt() -> None:
            self.injector.fire(fp.REPL_SHIP, system=link.system_id,
                               standby=link.system_id,
                               records=len(batch))
            self.network.message(0, link.system_id, "repl.ship", nbytes)
            link.standby.receive(batch, force)

        def note_retry(_attempt: int) -> None:
            self.stats.incr(REPL_SHIP_RETRIES)

        try:
            run_with_retry(
                self.config.retry, attempt,
                retryable=FaultInjectedError,
                stats=self.stats, on_retry=note_retry,
                label=f"repl.ship->{link.system_id}",
                should_retry=lambda exc: getattr(exc, "action", "") == FAIL,
            )
        except RetryExhaustedError:
            self._disconnect(link, "ship retry budget exhausted")
            return False
        return True

    def _ack(self, link: _StandbyLink, force: bool = False) -> None:
        """One standby→primary ack round trip: both cumulative LSNs.

        With ``force`` it is the probe that first asks the standby to
        force what it holds.  An injected ``fail`` at ``repl.ack``
        models a lost round: whatever was shipped survives on the
        standby, the primary's view of its progress simply does not
        advance until the next one.
        """
        standby = link.standby
        try:
            if self.injector.enabled:
                self.injector.fire(fp.REPL_ACK, system=link.system_id,
                                   standby=link.system_id)
            if force:
                standby.harden()
        except FaultInjectedError as exc:
            if exc.action != FAIL:
                raise
            return
        absorbed, durable = standby.progress()
        self.network.message(link.system_id, 0, "repl.ack",
                             16 * len(absorbed))
        link.absorbed = absorbed
        link.durable = durable
        self.stats.incr(REPL_ACKS)
        if self.tracer.enabled:
            self.tracer.emit(ev.REPL_ACK, system=0,
                             standby=link.system_id,
                             lsn=self.absorbed_lsn(link.system_id),
                             durable_lsn=self.acked_lsn(link.system_id))

    # ------------------------------------------------------------------
    # ack accounting
    # ------------------------------------------------------------------
    def _await_acks(self, system: int, commit_lsn: int,
                    votes: int) -> bool:
        """Have ``votes`` standbys forced ``system``'s record at
        ``commit_lsn``?

        A replica log is its source log's prefix, in LSN order, so a
        standby whose durable LSN for ``system`` has reached
        ``commit_lsn`` has forced the commit record and everything the
        transaction logged before it.  In id order, a standby whose
        vote is still needed and whose recorded ack lags gets one probe
        asking it to force — the earlier ack may simply have been lost,
        or the standby first asked may be gone; one whose vote is not
        needed is probed only if it is not known to hold the record.
        """
        holders = 0
        for link in self._by_id:
            # Health is judged on what a standby *holds*: one that
            # absorbed the commit record without forcing it is a
            # laggard by design.
            behind = True
            if link.connected:
                if holders < votes:
                    if link.durable.get(system, 0) < commit_lsn:
                        self._ack(link, force=True)
                elif link.absorbed.get(system, 0) < commit_lsn:
                    self._ack(link)
                if link.durable.get(system, 0) >= commit_lsn:
                    holders += 1
                behind = link.absorbed.get(system, 0) < commit_lsn
            if behind != link.degraded:
                self._set_degraded(link, behind)
        return holders >= votes

    def _set_degraded(self, link: _StandbyLink, degraded: bool,
                      reason: str = "") -> None:
        """Flip one standby's ack-degraded state and emit the event."""
        link.degraded = degraded
        if degraded:
            self.stats.incr(REPL_DEGRADED_ENTRIES)
            if self.tracer.enabled:
                reason = reason or ("disconnected" if not link.connected
                                    else "ack behind commit")
                self.tracer.emit(ev.REPL_DEGRADED_ENTER, system=0,
                                 standby=link.system_id, reason=reason)
        elif self.tracer.enabled:
            self.tracer.emit(ev.REPL_DEGRADED_EXIT, system=0,
                             standby=link.system_id)

    def _disconnect(self, link: _StandbyLink, reason: str) -> None:
        if link.connected:
            link.connected = False
            if not link.degraded:
                self._set_degraded(link, True, reason)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ReplicationManager(ack={self.config.ack!r}, "
            f"standbys={sorted(self._links)}, "
            f"pending={len(self._pending)})"
        )
