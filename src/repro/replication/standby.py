"""The hot standby: continuous redo over shipped USN log records.

A :class:`StandbyComplex` owns its own disk (same geometry as the
primary, space maps formatted by the same volume-initialisation step)
and one **replica log** per primary instance.  A shipped record passes
through four states, in this order and never another:

* **absorbed** — appended verbatim to its source's replica log
  (:meth:`~repro.wal.log_manager.LogManager.append_parsed`, the
  Section 3.1 "append them, as they are" discipline).  Only the
  headers are read (:func:`~repro.wal.records.record_spans`, for the
  duplicate screen and the log's LSN); a record is parsed only if it
  can carry a page, and COMMIT/ABORT/END (in either header shape)
  never are;
* **durable** — that replica log forced.  The shipper asks for the
  force where the ack level needs this standby's vote; otherwise the
  standby forces by itself once ``window_records`` records are
  absorbed and unforced, so what a crash can take stays bounded;
* **applied** — page-oriented records replayed through the standard
  redo test ``record.LSN > page_LSN`` (Section 3.2.1), as per-page
  chains, against a page cache of at most
  :data:`~repro.common.config.DEFAULT_BUFFER_POOL_PAGES` pages.  The
  chains wait in the :class:`~repro.recovery.redo.PendingChains` set
  restart drains, one chain per page in arrival order, until
  ``window_records`` page records wait (checked at each force) or
  :meth:`harden` is asked to write back; then the set is drained, so
  an ack never waits for an apply;
* **written back** — a dirty cached page reaches the standby's disk
  when it is evicted, or, for every dirty page in one
  ``write_many``, when the shipper drains or the standby is promoted.

Log, force, apply is write-ahead logging on the standby: only forced
records are ever applied, so no cached image holds a change its replica
log could lose, and write-back needs no log force.  The apply step *is*
restart recovery's redo pass run as a steady state, so the standby
emits the same ``RECOVERY_REDO`` / ``RECOVERY_SKIP`` events and stays
under the trace checker's redo-screening invariant.

Records arrive in the primary's merged LSN order, which is sufficient:
per-page LSNs are strictly increasing across the complex (invariant
I1), so each page's chain is in increasing-LSN order, and chains of
different pages commute.

:meth:`promote` is failover: an optional final catch-up from whatever
stable primary logs survived, then ARIES restart recovery per replica
log (each a plain :class:`~repro.recovery.owner.LogOwner`) whose redo
replays the **merged** replica logs, merged once (Section 3.2.2: a
page's durable-but-unapplied chain may span sources, and only the LSN
merge orders it), undo compensating the in-flight transactions the
dead primary left behind; finally a fresh writable
:class:`~repro.sd.complex.SDComplex` is built over the standby's disk
with its Lamport clock seeded above every applied LSN.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.buffer.buffer_pool import BufferPool
from repro.common.lsn import Lsn
from repro.common.seams import Seams
from repro.common.stats import (
    REPL_APPLY_SKIPPED,
    REPL_PROMOTIONS,
    REPL_RECORDS_APPLIED,
)
from repro.faults import points as fp
from repro.obs import events as ev
from repro.recovery.aries import restart_recovery
from repro.recovery.owner import LogOwner
from repro.recovery.redo import (
    PendingChains,
    collect_merged_redo,
    redo_chain,
    trace_outcome,
)
from repro.storage.disk import SharedDisk
from repro.storage.space_map import format_volume
from repro.wal.log_manager import LogManager
from repro.wal.records import CONTROL_KIND_BYTES, NO_PAGE, LogRecord, record_spans

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sd.complex import SDComplex


class StandbyComplex:
    """A warm replica of one primary complex, fed by the log shipper."""

    def __init__(
        self,
        system_id: int,
        primary: "SDComplex",
        seams: Optional[Seams] = None,
    ) -> None:
        if system_id <= 0:
            raise ValueError("system ids must be positive")
        self.system_id = system_id
        # Geometry is copied, seams are shared (overridable so a
        # reference replay can run silently next to the real standby).
        self._n_data_pages = primary.space_map.n_data_pages
        self.seams = seams = seams or primary.seams
        self.stats, self.tracer, self.injector = seams
        #: The applied page images over the standby's volume.  Only
        #: forced records are ever applied, so writing one back never
        #: needs a log force: the pool's own log stays empty and its
        #: WAL forcing is off.
        self._cache = BufferPool(
            SharedDisk(primary.disk.capacity, seams),
            LogManager(system_id, seams), enforce_wal=False, seams=seams)
        # The primary's volume format is not logged, so it cannot
        # arrive through the shipped stream: run the same step here.
        format_volume(self.disk, primary.space_map)
        #: One replica log per primary instance, keyed by source id.
        self._replica_logs: Dict[int, LogManager] = {}
        #: Highest LSN absorbed per source (duplicate screen: a
        #: re-shipped batch after a lost-ack retry must not re-append)
        #: and highest LSN forced per source — what an ack carries.
        #: Per source because only *within* one local log do LSNs
        #: order the stream: a log forced late ships LSNs below what
        #: another log's records already reached here.  Both dicts are
        #: replaced, never changed in place, so an ack can hand them
        #: out as they are.
        self._last_lsn: Dict[int, int] = {}
        self._durable_lsn: Dict[int, int] = {}
        #: Records absorbed since the last force, and the bound at
        #: which the standby forces unasked.
        self._unforced = 0
        self._window_records = primary.replication.config.window_records
        #: Absorbed page-oriented records not yet applied, one chain
        #: per page in arrival (= LSN) order; pages apply in the order
        #: they first arrived.
        self._pending = PendingChains(self._apply_to_cache)
        #: Set by :meth:`crash`: the shipper disconnects a crashed
        #: standby, whose next step is :meth:`promote`.
        self.crashed = False
        self.promoted = False

    @property
    def disk(self) -> SharedDisk:
        """The standby's volume, which its page cache writes back to."""
        return self._cache.disk

    @disk.setter
    def disk(self, disk: SharedDisk) -> None:
        self._cache.disk = disk

    @property
    def absorbed_lsn(self) -> Lsn:
        """Highest LSN appended to a replica log."""
        return max(self._last_lsn.values(), default=0)

    @property
    def durable_lsn(self) -> Lsn:
        """Highest LSN on the forced part of a replica log."""
        return max(self._durable_lsn.values(), default=0)

    @property
    def applied_max_lsn(self) -> Lsn:
        """:attr:`absorbed_lsn` under its earlier name."""
        return self.absorbed_lsn

    def progress(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """What an ack carries: per source, the highest LSN absorbed
        and the highest LSN forced (snapshots; do not mutate)."""
        return self._last_lsn, self._durable_lsn

    def replica_logs(self) -> List[LogManager]:
        """The replica logs in source-id order (verification input)."""
        return [self._replica_logs[sid]
                for sid in sorted(self._replica_logs)]

    def replica_snapshot(self) -> Dict[int, bytes]:
        """Serialized replica-log contents per source id.

        Taken *before* :meth:`promote` it captures exactly the shipped
        stream (promotion appends CLR/END records); the failover drill
        feeds it to a fresh standby to build the reference image.
        """
        out: Dict[int, bytes] = {}
        for sid in sorted(self._replica_logs):
            out[sid] = b"".join(
                record.to_bytes()
                for _, record in self._replica_logs[sid].scan())
        return out

    # ------------------------------------------------------------------
    # continuous redo
    # ------------------------------------------------------------------
    def receive(self, batch: Iterable[Tuple[int, bytes]],
                force: bool = True) -> int:
        """Absorb one shipped batch; returns records newly absorbed.

        Each item is ``(source system id, serialized records)`` — one
        run of one source's log, appended in one piece.  ``force`` is
        the shipper saying this standby's vote is needed: the replica
        logs are forced before returning.  Without it the batch is only
        absorbed, unless that fills the unforced window.
        """
        if self.injector.enabled:
            batch = list(batch)
            self.injector.fire(fp.REPL_APPLY, system=self.system_id,
                               standby=self.system_id, items=len(batch))
        absorbed = 0
        for source_id, data in batch:
            absorbed += self._absorb(source_id, data)
        self._unforced += absorbed
        if force or self._unforced >= self._window_records:
            self.harden()
        return absorbed

    def _absorb(self, source_id: int, data: bytes) -> int:
        """Append the new records of one run to its replica log."""
        spans = record_spans(data)
        last = self._last_lsn.get(source_id, 0)
        if spans and spans[0][0] <= last:
            # A re-ship.  Safe to screen by LSN alone: one source's
            # local log is strictly increasing in LSN (the USN rule).
            spans = [span for span in spans if span[0] > last]
        if not spans:
            return 0
        records = []
        for _, begin, _ in spans:
            if data[begin] in CONTROL_KIND_BYTES:
                continue
            record = LogRecord.from_bytes(data, begin)[0]
            if record.page_id != NO_PAGE:
                records.append(record)
        self._pending.add(records)
        # The run's last record carries its highest LSN.
        last = spans[-1][0]
        start = spans[0][1]
        log = self._replica_logs.get(source_id)
        if log is None:
            log = self._replica_logs[source_id] = LogManager(
                source_id, self.seams)
        log.append_parsed(data[start:] if start else data, last)
        self._last_lsn = {**self._last_lsn, source_id: last}
        return len(spans)

    def harden(self, write_back: bool = False) -> None:
        """Force every replica log, then apply what that made durable
        once ``window_records`` page records wait for it.

        With ``write_back`` (drain, promote) every chain is applied and
        every dirty cached page written to disk.  The order is the
        point (log, force, apply); a failed force leaves every page of
        the window unapplied.
        """
        for log in self._replica_logs.values():
            log.force()
        self._unforced = 0
        self._durable_lsn = self._last_lsn
        if write_back or self._pending.added >= self._window_records:
            self._pending.drain()
        if write_back:
            self._cache.flush_all()

    def _apply_to_cache(self, page_id: int, records: List[LogRecord],
                        _via: str) -> None:
        """The pending set's apply step, the standing redo pass: one
        page's chain against its cached image."""
        cache = self._cache
        outcome = redo_chain(cache.fix(page_id), records)
        cache.unfix(page_id)
        redone = 0
        for applied, _ in outcome:
            redone += applied
        if redone:
            # Dirty, with no WAL boundary: the records are forced.
            cache.note_update(page_id, records[0].lsn, 0, 0)
            self.stats.incr(REPL_RECORDS_APPLIED, redone)
        if redone < len(outcome):
            self.stats.incr(REPL_APPLY_SKIPPED, len(outcome) - redone)
        if self.tracer.enabled:
            trace_outcome(self.tracer, self.system_id, page_id, records,
                          outcome)

    def crash(self) -> None:
        """Lose the volatile state: every replica log's unforced tail,
        every record absorbed but not yet applied and the page cache.

        What remains is what the durable LSNs promised.  The next
        step for a crashed standby is :meth:`promote`, whose restart
        redo over the merged replica logs re-applies every durable
        record the disk lacks; the shipper stops feeding it and stops
        counting its vote.
        """
        self.crashed = True
        self._pending = PendingChains(self._apply_to_cache)
        self._cache.crash()
        self._unforced = 0
        for log in self._replica_logs.values():
            log.crash()
        self._durable_lsn = self._last_lsn = {
            source_id: int(log.recover_local_max())
            for source_id, log in self._replica_logs.items()}

    # ------------------------------------------------------------------
    # failover
    # ------------------------------------------------------------------
    def promote(self, salvaged_logs: Optional[Iterable[LogManager]] = None
                ) -> "SDComplex":
        """Final catch-up, restart recovery, flip writable.

        ``salvaged_logs`` optionally carries the dead primary's local
        logs when their stable prefixes survived (the shared-disks
        case): their merged stable stream is applied first, closing
        the replication lag entirely.  Without salvage the standby
        promotes on what it holds — the disaster-recovery case whose
        loss the ack levels bound.

        Returns a writable :class:`~repro.sd.complex.SDComplex` built
        over the standby's disk, with one instance (this standby's
        id) whose Lamport clock is seeded above every LSN the standby
        ever absorbed.
        """
        from repro.sd.complex import SDComplex

        with self.tracer.span(ev.SPAN_PROMOTE, system=self.system_id,
                              standby=self.system_id):
            if salvaged_logs is not None:
                self._final_catch_up(salvaged_logs)
            self.harden(write_back=True)
            logs = self.replica_logs()
            # Redo replays the merged logs, the one order in which a
            # page's chain across sources is increasing.  They are
            # merged once, before any undo appends a CLR, and each
            # replica log's restart takes its DPT's chains from that.
            chains = collect_merged_redo(logs, range(self.disk.capacity),
                                         stats=self.stats)

            def merged_plan(dpt):
                return {page_id: chains[page_id]
                        for page_id in dpt if page_id in chains}

            for log in logs:
                # Undo resolves loser records by (txn, LSN), and a
                # replica log holds one source's records only: each
                # log is restarted by its own owner, under the source's
                # id, so CLRs land in it with the right attribution.
                site = LogOwner(log.system_id, self.disk, self.seams,
                                log=log)
                restart_recovery(site, plan=merged_plan)
                site.pool.flush_all()
            # Each restart ended by forcing its CLRs and END records.
            seed = max([self.absorbed_lsn]
                       + [log.local_max_lsn for log in logs])
            promoted = SDComplex(
                n_data_pages=self._n_data_pages,
                disk=self.disk,
                stats=self.stats, tracer=self.tracer,
                injector=self.injector,
            )
            instance = promoted.add_instance(self.system_id)
            instance.log.observe_remote_max(seed)
            self.promoted = True
            self.stats.incr(REPL_PROMOTIONS)
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.REPL_PROMOTE, system=self.system_id,
                    applied_max_lsn=int(seed),
                    sources=len(self._replica_logs),
                )
        return promoted

    def _final_catch_up(self, salvaged_logs: Iterable[LogManager]) -> None:
        """Apply the salvaged stable stream (duplicates screen out)."""
        from repro.wal.merge import merge_local_logs

        items: List[Tuple[int, bytes]] = []
        for addr, record in merge_local_logs(list(salvaged_logs),
                                             stats=self.stats,
                                             stable_only=True):
            items.append((addr.system_id, record.to_bytes()))
        if items:
            self.receive(items)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"StandbyComplex(system={self.system_id}, "
            f"sources={sorted(self._replica_logs)}, "
            f"absorbed_lsn={self.absorbed_lsn}, "
            f"durable_lsn={self.durable_lsn})"
        )
