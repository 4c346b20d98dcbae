"""The log owner: the object that owns a log and a buffer pool.

An SD instance owns its local log and its private pool (Figure 1).  The
CS server owns the single log and the pool its clients' pages reach;
for its clients' records it plays an SD instance's part (Sections 1.3
and 3.2).  A promoting standby restarts each replica log over a pool
on its own volume.  Restart recovery (:mod:`repro.recovery.aries`) runs
over any of them, and this module writes once what they share:

* :class:`LogOwner` — ``log``, ``pool``, ``system_id``, the seams and
  the ``crashed`` / ``degraded`` flags, with the checkpoint writer,
  force-or-degrade, degraded-mode entry and the crash step.  Its one
  hook is the transaction table a checkpoint records.
* :class:`RestartRegistry` — the restart entry (eager, or instant over
  :class:`~repro.recovery.instant.InstantRecoveryManager`) and the
  registry of active instant-restart managers behind the buffer pools'
  ``recovery_intercept``.  It is mixed into what restarts log owners:
  the SD complex (one owner per instance) and the CS server (itself).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.buffer.buffer_pool import BufferPool
from repro.common.config import DEFAULT_BUFFER_POOL_PAGES
from repro.common.errors import DegradedModeError, FaultInjectedError
from repro.common.lsn import LogAddress, Lsn
from repro.common.seams import Seams
from repro.common.stats import DEGRADED_ENTRIES, DEGRADED_REJECTIONS
from repro.faults.injector import FAIL
from repro.obs import events as ev
from repro.obs.tracer import NullTracer
from repro.recovery.aries import RedoPlan, RestartSummary, restart_recovery
from repro.recovery.instant import InstantRecoveryManager
from repro.storage.disk import SharedDisk
from repro.wal.log_manager import LogManager
from repro.wal.records import CheckpointData, LogRecord, RecordKind


class LogOwner:
    """A log, the buffer pool over ``disk`` that it guards, the world's
    seams, and the two failure flags.

    ``log`` defaults to a fresh :class:`LogManager` for ``system_id``;
    a promoting standby passes a replica log instead.
    """

    def __init__(self, system_id: int, disk: SharedDisk, seams: Seams,
                 capacity: int = DEFAULT_BUFFER_POOL_PAGES,
                 log: Optional[LogManager] = None) -> None:
        self.system_id = system_id
        self.seams = seams
        self.stats, self.tracer, self.injector = seams
        self.log = log if log is not None else LogManager(system_id, seams)
        self.pool = BufferPool(disk, self.log, capacity=capacity,
                               seams=seams)
        self.pool.owner = self
        self.crashed = False
        # Read-only degraded mode: entered when the log device fails
        # (an injected ``log.force`` fault); what needs no log append
        # keeps working, everything else is rejected until restart.
        self.degraded = False

    # ------------------------------------------------------------------
    # checkpoint
    # ------------------------------------------------------------------
    def _checkpoint_transactions(self) -> Dict[int, Lsn]:
        """The transaction table a checkpoint records: txn -> last LSN
        of each transaction still in flight.  A replica log's restart
        site has none."""
        return {}

    def write_checkpoint(self) -> LogAddress:
        """Take a fuzzy checkpoint: BEGIN, END carrying the dirty page
        table and :meth:`_checkpoint_transactions`, force, then the
        master record.  Returns the BEGIN record's address.

        Degraded mode rejects it before anything is appended: the
        force would make stable whatever the failed force left behind
        (a commit just reported not durable included).
        """
        if self.degraded:
            self.stats.incr(DEGRADED_REJECTIONS)
            raise DegradedModeError(f"{self._label()} is read-only (degraded)")
        log = self.log
        begin_addr = log.append(LogRecord(kind=RecordKind.BEGIN_CHECKPOINT))
        data = CheckpointData(dict(self.pool.dirty_page_table()),
                              self._checkpoint_transactions())
        log.append(LogRecord(kind=RecordKind.END_CHECKPOINT,
                             extra=data.to_bytes()))
        log.force()
        log.master_record_offset = begin_addr.offset
        return begin_addr

    # ------------------------------------------------------------------
    # force or degrade
    # ------------------------------------------------------------------
    def _label(self) -> str:
        """How error messages name this owner."""
        return f"system {self.system_id}"

    def force_or_degrade(self) -> None:
        """Force the log for a commit or group-commit sync.

        An injected ``fail`` at the ``log.force`` point means the
        commit records never reached stable storage: the owner turns
        read-only and :class:`DegradedModeError` tells the caller its
        commits are not acknowledged.  Crash-flavoured injections
        propagate untouched — they are a campaign's kill signal, not a
        device error.
        """
        try:
            self.log.force()
        except FaultInjectedError as exc:
            if exc.action != FAIL:
                raise
            self._enter_degraded("log device failure")
            raise DegradedModeError(
                f"{self._label()}: commit not durable, log device failed"
            ) from exc

    def _enter_degraded(self, reason: str) -> None:
        if self.degraded:
            return
        self.degraded = True
        self.stats.incr(DEGRADED_ENTRIES)
        if self.tracer.enabled:
            self.tracer.emit(ev.DEGRADED_ENTER, system=self.system_id,
                             reason=reason)

    # ------------------------------------------------------------------
    # failure
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """System failure: the pool and the log's unforced tail
        evaporate.  A restart replaces the failed log device, so
        degraded mode does not survive the crash/recovery cycle."""
        if self.degraded:
            self.degraded = False
            if self.tracer.enabled:
                self.tracer.emit(ev.DEGRADED_EXIT, system=self.system_id)
        self.crashed = True
        self.pool.crash()
        self.log.crash()


class RestartRegistry:
    """The restart entry for log owners, and the instant-restart
    managers it registers, keyed by recovering system.

    The registry is empty on the eager path, so every guard on it is a
    single truthiness test.  Needs ``tracer``; the hooks are
    :meth:`_log_owners` and :meth:`_after_restart`.
    """

    tracer: NullTracer

    def _init_restart(self, restart_mode: str) -> None:
        if restart_mode not in ("eager", "instant"):
            raise ValueError(
                f"restart_mode must be 'eager' or 'instant', "
                f"got {restart_mode!r}"
            )
        #: ``"eager"`` (classic full restart, the default) or
        #: ``"instant"`` (open after analysis + undo, recover pages on
        #: first touch; :mod:`repro.recovery.instant`).
        self.restart_mode = restart_mode
        #: Active instant-restart managers, keyed by recovering system.
        self.instant: Dict[int, InstantRecoveryManager] = {}

    def _log_owners(self) -> Iterable[LogOwner]:
        """Hook: every log owner whose pool may carry the intercept."""
        raise NotImplementedError

    def _after_restart(self, owner: LogOwner) -> None:
        """Hook: release what the crashed owner held, inside the
        restart span, once recovery has flushed its pool."""
        raise NotImplementedError

    def _restart(self, owner: LogOwner, target: str, mode: str,
                 plan: Optional[RedoPlan] = None,
                 fix_page=None) -> RestartSummary:
        """Recover a crashed ``owner``, eagerly or per ``restart_mode``.

        ``mode`` names the instant manager's chain source (``"medium"``
        / ``"fast"`` / ``"cs"``); ``plan`` and ``fix_page`` are the redo
        plan and undo fixer of :func:`restart_recovery`.
        """
        owner.crashed = False
        system_id = owner.system_id
        pool = owner.pool
        with self.tracer.span(ev.SPAN_RESTART, system=system_id,
                              target=target):
            if self.restart_mode == "instant":
                manager = InstantRecoveryManager(
                    owner, mode=mode, on_drained=self._instant_drained)
                # Register, and install the intercept, before undo: the
                # undo pass reaches loser pages through the pool (or
                # coherency, whose instant guard consults the registry),
                # and a pending page's chain applies before the frame
                # fills, so CLR order, LSN hints and the final disk
                # image match the eager path byte for byte.
                self.instant[system_id] = manager
                pool.recovery_intercept = self.ensure_instant_recovered
                with self.tracer.span(ev.SPAN_RECOVERY, system=system_id,
                                      mode="instant"):
                    summary = manager.open(plan, fix_page, pool.unfix)
            else:
                summary = restart_recovery(owner, fix_page, pool.unfix,
                                           plan)
            pool.flush_all()
            self._after_restart(owner)
        return summary

    def ensure_instant_recovered(self, page_id: int) -> None:
        """Apply every active instant manager's pending chain for
        ``page_id`` before anyone reads or writes the page.

        Managers run in ascending system order — the same order
        ``restart_complex`` recovers SD instances in.  Under the medium
        scheme at most one system's chain can actually apply (the
        surrender disk write screens the others out), and under the
        fast scheme every manager's chain for a shared page is the same
        merged record list, so cross-manager order never changes the
        final bytes.
        """
        for _, manager in sorted(self.instant.items()):
            manager.pending.recover(page_id)

    def _instant_drained(self, manager: InstantRecoveryManager) -> None:
        """Deregister a drained manager; drop the fix intercepts once
        the last one is gone."""
        system_id = manager.instance.system_id
        if self.instant.get(system_id) is manager:
            del self.instant[system_id]
        if not self.instant:
            for owner in self._log_owners():
                owner.pool.recovery_intercept = None

    def instant_drain(self) -> int:
        """Run every active manager's sweeper to completion (ascending
        system order); returns the number of pages recovered."""
        return sum(manager.drain()
                   for _, manager in sorted(self.instant.items()))
