"""The hot standby: continuous redo over shipped USN log records.

A :class:`StandbyComplex` owns its own disk (same geometry as the
primary, space maps formatted by the same volume-initialisation step)
and one **replica log** per primary instance.  A shipped record passes
through three states, in this order and never another:

* **absorbed** — appended verbatim to its source's replica log
  (:meth:`~repro.wal.log_manager.LogManager.append_parsed`, the
  Section 3.1 "append them, as they are" discipline);
* **durable** — that replica log forced.  The shipper asks for the
  force where the ack level needs this standby's vote; otherwise the
  standby forces by itself once ``window_records`` records are
  absorbed and unforced, so what a crash can take stays bounded;
* **applied** — page-oriented records replayed through the standard
  redo test ``record.LSN > page_LSN`` (Section 3.2.1) against the
  standby's disk, as per-page chains: one read and one write per page
  however many records of the window touch it.

Log, force, apply is write-ahead logging on the standby: no page
reaches its disk ahead of the log record that would undo it at
promotion.  The apply step *is* restart recovery's redo pass run as a
steady state, so the standby emits the same ``RECOVERY_REDO`` /
``RECOVERY_SKIP`` events and stays under the trace checker's
redo-screening invariant.

Records arrive in the primary's merged LSN order, which is sufficient:
per-page LSNs are strictly increasing across the complex (invariant
I1), so each page's chain is in increasing-LSN order, and chains of
different pages commute.

:meth:`promote` is failover: an optional final catch-up from whatever
stable primary logs survived, then ARIES restart recovery *per replica
log* (redo is a no-op thanks to continuous apply; undo compensates the
in-flight transactions the dead primary left behind), and finally a
fresh writable :class:`~repro.sd.complex.SDComplex` is built over the
standby's disk with its Lamport clock seeded above every applied LSN.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.buffer.buffer_pool import BufferPool
from repro.common.lsn import Lsn
from repro.common.stats import (
    REPL_APPLY_SKIPPED,
    REPL_PROMOTIONS,
    REPL_RECORDS_APPLIED,
    StatsRegistry,
)
from repro.faults import points as fp
from repro.faults.injector import NullFaultInjector
from repro.obs import events as ev
from repro.obs.tracer import NullTracer
from repro.recovery.redo import redo_chain
from repro.storage.disk import SharedDisk
from repro.storage.page import Page, PageType
from repro.wal.log_manager import LogManager
from repro.wal.records import NO_PAGE, LogRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sd.complex import SDComplex


class _RecoverySite:
    """Duck-typed instance for :func:`restart_recovery` over one
    replica log: the log, a pool on the standby's disk, the *source*
    system's id (so CLRs land in the right replica log with the right
    attribution), and the standby's tracer."""

    def __init__(self, system_id: int, log: LogManager, pool: BufferPool,
                 tracer: NullTracer) -> None:
        self.system_id = system_id
        self.log = log
        self.pool = pool
        self.tracer = tracer


class StandbyComplex:
    """A warm replica of one primary complex, fed by the log shipper."""

    def __init__(
        self,
        system_id: int,
        primary: "SDComplex",
        stats: Optional[StatsRegistry] = None,
        tracer: Optional[NullTracer] = None,
        injector: Optional[NullFaultInjector] = None,
    ) -> None:
        if system_id <= 0:
            raise ValueError("system ids must be positive")
        self.system_id = system_id
        # Geometry is copied, seams are shared (overridable so a
        # reference replay can run silently next to the real standby).
        self._n_data_pages = primary.space_map.n_data_pages
        self.stats = stats if stats is not None else primary.stats
        self.tracer = tracer if tracer is not None else primary.tracer
        self.injector = (injector if injector is not None
                         else primary.injector)
        self.disk = SharedDisk(capacity=primary.disk.capacity,
                               stats=self.stats, tracer=self.tracer,
                               injector=self.injector)
        self._format_space_maps(primary)
        #: One replica log per primary instance, keyed by source id.
        self._replica_logs: Dict[int, LogManager] = {}
        #: Highest LSN absorbed per source (duplicate screen: a
        #: re-shipped batch after a lost-ack retry must not re-append)
        #: and highest LSN forced per source — what an ack carries.
        #: Per source because only *within* one local log do LSNs
        #: order the stream: a log forced late ships LSNs below what
        #: another log's records already reached here.
        self._last_lsn: Dict[int, int] = {}
        self._durable_lsn: Dict[int, int] = {}
        #: Records absorbed since the last force, and the bound at
        #: which the standby forces unasked.
        self._unforced = 0
        self._window_records = primary.replication.config.window_records
        #: Absorbed page-oriented records not yet applied, one chain
        #: per page in arrival (= LSN) order.
        self._unapplied: Dict[int, List[LogRecord]] = {}
        self.promoted = False

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
        and the highest LSN forced."""
        return dict(self._last_lsn), dict(self._durable_lsn)

    def _format_space_maps(self, primary: "SDComplex") -> None:
        """Run the volume-initialisation step the primary ran.

        The primary's SMP formatting is *not* logged (volume init
        predates the log), so it cannot arrive through the shipped
        stream; the standby formats its own volume identically.
        """
        for smp_page_id in primary.space_map.smp_page_ids():
            page = Page()
            page.format(smp_page_id, PageType.SPACE_MAP)
            self.disk.write_page(page)

    def _replica_log(self, source_id: int) -> LogManager:
        log = self._replica_logs.get(source_id)
        if log is None:
            log = LogManager(source_id, stats=self.stats,
                             tracer=self.tracer, injector=self.injector)
            self._replica_logs[source_id] = log
        return log

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
        run of one source's log, parsed once and appended in one piece.
        ``force`` is the shipper saying this standby's vote is needed:
        the replica logs are forced and the durable records applied
        before returning.  Without it the batch is only absorbed,
        unless that fills the unforced window.
        """
        items = list(batch)
        if self.injector.enabled:
            self.injector.fire(fp.REPL_APPLY, system=self.system_id,
                               standby=self.system_id, items=len(items))
        absorbed = 0
        for source_id, data in items:
            absorbed += self._absorb(source_id, data)
        self._unforced += absorbed
        if force or self._unforced >= self._window_records:
            self.harden()
        return absorbed

    def _absorb(self, source_id: int, data: bytes) -> int:
        """Append the new records of one run to its replica log."""
        # Safe to screen by LSN alone: one source's local log is
        # strictly increasing in LSN (the USN rule), so the duplicates
        # of a re-shipped run are a prefix of it.
        last = self._last_lsn.get(source_id, 0)
        unapplied = self._unapplied
        fresh_from = -1
        count = 0
        for offset, record in LogRecord.parse_stream(data):
            if record.lsn <= last:
                continue  # duplicate re-ship
            if fresh_from < 0:
                fresh_from = offset
            count += 1
            last = record.lsn
            page_id = record.page_id
            if page_id != NO_PAGE:
                chain = unapplied.get(page_id)
                if chain is None:
                    unapplied[page_id] = [record]
                else:
                    chain.append(record)
        if count:
            # Verbatim, and parsed only here: the shipped bytes go into
            # the replica log as they are.
            self._replica_log(source_id).append_parsed(
                data[fresh_from:], last)
            self._last_lsn[source_id] = last
        return count

    def harden(self) -> None:
        """Force every replica log, then apply what that made durable.

        The order is the point (log, force, apply); a failed force
        leaves every page of the window unwritten.
        """
        for log in self._replica_logs.values():
            log.force()
        self._unforced = 0
        self._durable_lsn.update(self._last_lsn)
        unapplied = self._unapplied
        while unapplied:
            page_id = next(iter(unapplied))
            self._apply_chain(page_id, unapplied[page_id])
            del unapplied[page_id]

    def _apply_chain(self, page_id: int, records: List[LogRecord]) -> None:
        """The standing redo pass: one page's chain against its image."""
        page = self.disk.read_page(page_id)
        outcome = redo_chain(page, records)
        redone = 0
        for applied, _ in outcome:
            redone += applied
        if redone:
            self.disk.write_page(page)
            self.stats.incr(REPL_RECORDS_APPLIED, redone)
        if redone < len(outcome):
            self.stats.incr(REPL_APPLY_SKIPPED, len(outcome) - redone)
        if self.tracer.enabled:
            for record, (applied, page_lsn_seen) in zip(records, outcome):
                if applied:
                    self.tracer.emit(
                        ev.RECOVERY_REDO, system=self.system_id,
                        page=page_id, lsn=int(record.lsn),
                        page_lsn_prev=int(page_lsn_seen),
                    )
                else:
                    self.tracer.emit(
                        ev.RECOVERY_SKIP, system=self.system_id,
                        page=page_id, lsn=int(record.lsn),
                        page_lsn=int(page_lsn_seen),
                    )

    def crash(self) -> None:
        """Lose the volatile state: every replica log's unforced tail
        and every record absorbed but not yet applied.

        What remains is what the durable LSNs promised.  The next
        step for a crashed standby is :meth:`promote`, whose restart
        redo over the replica logs re-applies any durable record the
        crash caught between force and apply.
        """
        self._unapplied.clear()
        self._unforced = 0
        for source_id, log in self._replica_logs.items():
            log.crash()
            self._last_lsn[source_id] = int(log.recover_local_max())
        self._durable_lsn.update(self._last_lsn)

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
        from repro.recovery.aries import restart_recovery
        from repro.sd.complex import SDComplex

        with self.tracer.span(ev.SPAN_PROMOTE, system=self.system_id,
                              standby=self.system_id):
            if salvaged_logs is not None:
                self._final_catch_up(salvaged_logs)
            self.harden()
            for sid in sorted(self._replica_logs):
                log = self._replica_logs[sid]
                pool = BufferPool(self.disk, log, tracer=self.tracer,
                                  injector=self.injector)
                site = _RecoverySite(sid, log, pool, self.tracer)
                # Undo resolves loser records by (txn, LSN), and a
                # replica log holds one source's records only.
                restart_recovery(site)
                pool.flush_all()
            seed = self.absorbed_lsn
            for log in self._replica_logs.values():
                log.force()
                if log.local_max_lsn > seed:
                    seed = log.local_max_lsn
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
