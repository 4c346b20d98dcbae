"""The hot standby: continuous redo over shipped USN log records.

A :class:`StandbyComplex` owns its own disk (same geometry as the
primary, space maps formatted by the same volume-initialisation step)
and one **replica log** per primary instance.  Every shipped record is
appended verbatim to its source's replica log
(:meth:`~repro.wal.log_manager.LogManager.append_parsed`, the Section 3.1
"append them, as they are" discipline), forced, and — for
page-oriented records — replayed through the standard redo test
``record.LSN > page_LSN`` (Section 3.2.1) straight against the
standby's disk.  That loop *is* restart recovery's redo pass run as a
steady state, so the standby emits the same ``RECOVERY_REDO`` /
``RECOVERY_SKIP`` events and stays under the trace checker's
redo-screening invariant.

Apply order is the primary's merged LSN order, which is sufficient:
per-page LSNs are strictly increasing across the complex (invariant
I1), so all records for one page arrive in increasing-LSN order, and
records for different pages commute.

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
from repro.wal.records import LogRecord

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
        self._smp_start = primary.space_map.smp_start
        self._data_start = primary.space_map.data_start
        self._n_data_pages = primary.space_map.n_data_pages
        self.stats = stats if stats is not None else primary.stats
        self.tracer = tracer if tracer is not None else primary.tracer
        self.injector = (injector if injector is not None
                         else primary.injector)
        self.disk = SharedDisk(capacity=primary.disk.capacity,
                               stats=self.stats, tracer=self.tracer,
                               injector=self.injector,
                               slab=primary.disk.slab)
        self._format_space_maps(primary)
        #: One replica log per primary instance, keyed by source id.
        self._replica_logs: Dict[int, LogManager] = {}
        #: Highest LSN appended per source (duplicate screen: a
        #: re-shipped batch after a lost-ack retry must not re-append).
        self._last_lsn: Dict[int, int] = {}
        #: Highest LSN applied/absorbed overall — the cumulative ack.
        self.applied_max_lsn: Lsn = 0
        self.promoted = False

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
    def receive(self, batch: Iterable[Tuple[int, bytes]]) -> int:
        """Apply one shipped batch; returns records newly applied.

        Each item is ``(source system id, serialized record bytes)``
        and may carry one record or a whole stream.  Per record: screen
        duplicates by per-source LSN (re-ships after a lost ack are
        no-ops), append verbatim to the source's replica log, and for
        page-oriented records run the redo test against the standby's
        disk.  Replica logs are forced before returning, so the ack the
        caller derives from :attr:`applied_max_lsn` means *durable on
        the standby*.
        """
        items = list(batch)
        if self.injector.enabled:
            self.injector.fire(fp.REPL_APPLY, system=self.system_id,
                               standby=self.system_id, items=len(items))
        applied = 0
        touched: List[LogManager] = []
        for source_id, data in items:
            for offset, record in LogRecord.parse_stream(data):
                # Safe to screen by LSN alone: one source's local log
                # is strictly increasing in LSN (the USN rule).
                if record.lsn <= self._last_lsn.get(source_id, 0):
                    continue  # duplicate re-ship
                log = self._replica_log(source_id)
                # Verbatim, and parsed only here: the shipped bytes of
                # this record go into the replica log as they are.
                log.append_parsed(
                    data[offset:offset + record.serialized_size()],
                    record.lsn)
                if not touched or touched[-1] is not log:
                    touched.append(log)
                self._last_lsn[source_id] = int(record.lsn)
                self._apply_record(record)
                applied += 1
                if record.lsn > self.applied_max_lsn:
                    self.applied_max_lsn = record.lsn
        for log in touched:
            log.force()
        return applied

    def _apply_record(self, record: LogRecord) -> None:
        """The standing redo pass: one record against the disk image."""
        if not record.is_page_oriented():
            return
        page = self.disk.read_page(record.page_id)
        [(applied, page_lsn_seen)] = redo_chain(page, [record])
        if applied:
            self.disk.write_page(page)
            self.stats.incr(REPL_RECORDS_APPLIED)
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.RECOVERY_REDO, system=self.system_id,
                    page=record.page_id, lsn=int(record.lsn),
                    page_lsn_prev=int(page_lsn_seen),
                )
        else:
            self.stats.incr(REPL_APPLY_SKIPPED)
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.RECOVERY_SKIP, system=self.system_id,
                    page=record.page_id, lsn=int(record.lsn),
                    page_lsn=int(page_lsn_seen),
                )

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
            for sid in sorted(self._replica_logs):
                log = self._replica_logs[sid]
                log.force()
                pool = BufferPool(self.disk, log, tracer=self.tracer,
                                  injector=self.injector)
                site = _RecoverySite(sid, log, pool, self.tracer)
                # Undo resolves loser records by (txn, LSN), and a
                # replica log holds one source's records only.
                restart_recovery(site)
                pool.flush_all()
            seed = self.applied_max_lsn
            for log in self._replica_logs.values():
                log.force()
                if log.local_max_lsn > seed:
                    seed = log.local_max_lsn
            promoted = SDComplex(
                n_data_pages=self._n_data_pages,
                data_start=self._data_start,
                smp_start=self._smp_start,
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
            f"applied_max_lsn={self.applied_max_lsn})"
        )
