"""The transaction front end both architectures share.

The paper's thesis (Sections 1.6 and 3) is that one LSN rule,
``LSN = max(page_LSN, Local_Max_LSN) + 1``, serves shared disks and
client-server alike.  The two architectures differ only in where locks
come from, how pages arrive, and where log records go — so the
transaction table, savepoints, the record and page-allocation bodies,
commit (eager, lazy and read-only), group-commit sync and rollback live
here once, and :class:`~repro.sd.instance.DbmsInstance` and
:class:`~repro.cs.client.CsClient` supply the architecture hooks:

* **lock** — ``_lock_for_write(txn, page_id, slot)``: hierarchical page
  IX + record X locks (with escalation) through the GLM in SD, one
  record X lock from the server in CS.  Single requests go through
  :meth:`TransactionFrontEnd._lock` to ``shared.lock``.
* **fix** — ``_fix(page_id, for_update) -> Page`` / ``_unfix(page_id)``:
  coherency plus the buffer pool in SD, the client cache (fetching from
  the server on a miss) in CS; ``_install_new_page(page, addr)`` places
  a freshly formatted page there without reading the old version.
* **log** — ``self.log`` (the local log in SD, the client's buffer in
  CS) and ``_note_page_update(page_id, lsn, addr) -> offset``: the BCB
  in SD, the cache entry's dirty bit and RecLSN in CS;
  ``_log_commit(txn)`` writes what a commit puts in the log.
* **make durable** — ``_make_durable(txn)``: force (or degrade) and
  replicate in SD, ship plus a server force (or degrade) in CS; then
  acknowledge the eager committer ``txn``, if any.  ``_end(txn)``
  closes a transaction's chain, releases its locks and forgets it.
* **undo source** — ``_undo_records(txn)``: undo reads the local log by
  offset in SD and the client's retained copies in CS.

Each class also provides ``system_id``, ``shared`` (the SD complex or
the CS server: ``lock(requester, txn_id, resource, mode)`` and
``space_map``), ``stats``, ``tracer``, ``injector``, ``log``, ``txns``,
``crashed``, ``degraded``, ``lock_retry`` and ``_pending_commits``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Hashable, List, Optional

from repro.common.errors import (
    DegradedModeError,
    LockTimeoutError,
    LockWouldBlock,
    ReproError,
)
from repro.common.lsn import Lsn
from repro.common.stats import (
    DEGRADED_REJECTIONS,
    LOCK_RETRIES,
    LOCK_RETRY_TIMEOUTS,
    PAGE_READS_AVOIDED,
)
from repro.faults import points as fp
from repro.faults.policy import run_with_lock_retry
from repro.locking.lock_manager import LockMode, LockStatus
from repro.obs import events as ev
from repro.recovery.apply import compensate, stamp_page_lsn
from repro.storage.page import Page, PageType
from repro.storage.space_map import SpaceMap
from repro.txn.transaction import Transaction, TxnState, UndoEntry
from repro.wal.records import (
    LogRecord,
    PageOp,
    RecordKind,
    encode_op,
    encode_overwrite,
    make_format,
    make_update,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.common.stats import StatsRegistry
    from repro.faults.injector import NullFaultInjector
    from repro.faults.policy import RetryPolicy
    from repro.obs.tracer import NullTracer
    from repro.txn.manager import TransactionManager


class TransactionFrontEnd:
    """Transaction control and record/page operations over the hooks."""

    #: How error messages name this node ("system 2 is down").
    ROLE = "system"

    system_id: int
    shared: Any
    stats: "StatsRegistry"
    tracer: "NullTracer"
    injector: "NullFaultInjector"
    log: Any
    txns: "TransactionManager"
    crashed: bool
    degraded: bool
    lock_retry: Optional["RetryPolicy"]
    _pending_commits: List[Transaction]
    # Architecture hooks (see the module docstring).
    _lock_for_write: Callable[[Transaction, int, int], None]
    _fix: Callable[[int, bool], Page]
    _unfix: Callable[[int], None]
    _install_new_page: Callable[[Page, Any], None]
    _note_page_update: Callable[[int, Lsn, Any], int]
    _log_commit: Callable[[Transaction], None]
    _make_durable: Callable[[Optional[Transaction]], None]
    _end: Callable[[Transaction], None]
    _undo_records: Callable[[Transaction], Callable[[UndoEntry], LogRecord]]

    # ------------------------------------------------------------------
    # transaction control
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        if self.crashed:
            raise self._down_error()
        txn = self.txns.begin()
        if self.tracer.enabled:
            self.tracer.emit(ev.TXN_BEGIN, system=self.system_id,
                             txn=txn.txn_id)
        return txn

    def commit(self, txn: Transaction, lazy: bool = False) -> None:
        """Commit: make the commit record durable (WAL commit rule),
        then release the locks and end the transaction.

        ``lazy=True`` enables group commit: the commit record is
        written but nothing is made durable until :meth:`sync_commits`
        (or a later eager commit) — one force, and in CS one log ship,
        then covers a whole batch.  A lazy commit is **not
        acknowledged** until synced: its locks stay held, and a crash
        before the sync loses it like any in-flight transaction.  It
        does leave ACTIVE at once, so every further operation on it is
        rejected.

        A transaction that logged nothing (ARIES: no update, no commit
        record) just releases its locks and ends, lazy or not: no
        COMMIT or END record, no force, no standby ack, no log ship —
        so a degraded log lets its readers finish.
        """
        if self.tracer.enabled:
            with self.tracer.span(ev.SPAN_COMMIT, system=self.system_id,
                                  txn=txn.txn_id, lazy=lazy):
                self._commit(txn, lazy)
        else:
            self._commit(txn, lazy)

    def _commit(self, txn: Transaction, lazy: bool) -> None:
        if not txn.is_update_transaction():
            self._check_active(txn)
            if self.tracer.enabled:
                self.tracer.emit(ev.TXN_COMMIT, system=self.system_id,
                                 txn=txn.txn_id, lazy=lazy)
            self._end(txn)
            return
        self._check_active(txn, write=True)
        self._log_commit(txn)
        if self.tracer.enabled:
            self.tracer.emit(ev.TXN_COMMIT, system=self.system_id,
                             txn=txn.txn_id, lazy=lazy)
        if lazy:
            txn.state = TxnState.COMMITTED
            self._pending_commits.append(txn)
            return
        self._make_durable(txn)
        self._finish_pending()

    def sync_commits(self) -> int:
        """Group-commit sync: one durability step acknowledges every
        pending lazy commit.  Returns the number of transactions
        completed."""
        self._check_writable()
        if not self._pending_commits:
            return 0
        self._make_durable(None)
        return self._finish_pending()

    def _finish_pending(self) -> int:
        pending = self._pending_commits
        finished = 0
        try:
            for txn in pending:
                self._finish_commit(txn)
                finished += 1
        finally:
            # One slice delete instead of a pop(0) per transaction; a
            # transaction whose finish failed stays pending with the
            # tail behind it.
            del pending[:finished]
        return finished

    def _finish_commit(self, txn: Transaction) -> None:
        txn.state = TxnState.COMMITTED
        self._end(txn)

    def rollback(self, txn: Transaction,
                 to_savepoint: Optional[str] = None) -> None:
        """Undo the transaction's updates (all of them, or back to a
        savepoint), writing CLRs so the rollback itself is redoable.

        Undo entries are consumed as they are compensated, so a
        rollback that fails midway (e.g. a loser's page is fenced
        behind another system's crash) can simply be retried without
        double-compensation.

        A degraded log takes no CLR: the rollback is rejected before
        any undo, and the transaction keeps its state and its locks
        until restart rolls it back (§3 retained locks).
        """
        if self.crashed:
            raise self._down_error()
        if self.degraded:
            self._check_writable()
        if txn.state not in (TxnState.ACTIVE, TxnState.ABORTING):
            raise ReproError(f"cannot roll back txn in state {txn.state}")
        txn.state = TxnState.ABORTING
        if self.tracer.enabled:
            self.tracer.emit(ev.TXN_ROLLBACK, system=self.system_id,
                             txn=txn.txn_id, savepoint=to_savepoint)
        stop_at = 0
        if to_savepoint is not None:
            stop_at = txn.savepoints[to_savepoint]
        undo_record = self._undo_records(txn)
        while len(txn.undo_entries) > stop_at:
            self._undo_one(txn, undo_record(txn.undo_entries[-1]))
            txn.undo_entries.pop()
        if to_savepoint is not None:
            txn.truncate_to_savepoint(to_savepoint)
            txn.state = TxnState.ACTIVE
            return
        self._end(txn)

    def _undo_one(self, txn: Transaction, record: LogRecord) -> None:
        """Undo a single update record, logging a CLR first."""
        page = self._fix(record.page_id, True)
        try:
            clr, addr, page_lsn_prev = compensate(
                self.log, page, record, txn.txn_id, txn.last_lsn)
            self._note_page_update(record.page_id, clr.lsn, addr)
            txn.note_logged(clr.lsn, 0, undoable=False)
            if self.tracer.enabled:
                self.tracer.emit(
                    ev.PAGE_UPDATE, system=self.system_id,
                    page=record.page_id, slot=record.slot, txn=txn.txn_id,
                    lsn=int(clr.lsn), page_lsn_prev=int(page_lsn_prev),
                    kind=RecordKind.CLR.name,
                )
        finally:
            self._unfix(record.page_id)

    def set_savepoint(self, txn: Transaction, name: str) -> None:
        self._check_active(txn)
        txn.set_savepoint(name)

    # ------------------------------------------------------------------
    # record operations
    # ------------------------------------------------------------------
    def insert(self, txn: Transaction, page_id: int, payload: bytes) -> int:
        """Insert a record; returns its slot number."""
        self._check_active(txn, write=True)
        page = self._fix(page_id, True)
        try:
            slot = page.insert_record(payload)
            try:
                self._lock_for_write(txn, page_id, slot)
            except LockWouldBlock:
                # Undo the optimistic in-page insert (nothing is logged
                # yet) so the caller's retry starts clean.
                if page.read_record(slot) is not None:
                    page.delete_record(slot)
                raise
            record = make_update(
                txn_id=txn.txn_id, system_id=self.system_id,
                page_id=page_id, slot=slot,
                redo=encode_op(PageOp.INSERT, payload),
                undo=encode_op(PageOp.DELETE),
                prev_lsn=txn.last_lsn,
            )
            self._log_update(txn, page, record)
            return slot
        finally:
            self._unfix(page_id)

    def update(self, txn: Transaction, page_id: int, slot: int,
               payload: bytes) -> None:
        """Overwrite the record in ``slot`` with ``payload``."""
        self._check_active(txn, write=True)
        self._lock_for_write(txn, page_id, slot)
        page = self._fix(page_id, True)
        try:
            old = page.read_record(slot)
            if old is None:
                raise ReproError(f"page {page_id} slot {slot} is empty")
            redo, undo = encode_overwrite(old, payload)
            record = make_update(
                txn_id=txn.txn_id, system_id=self.system_id,
                page_id=page_id, slot=slot, redo=redo, undo=undo,
                prev_lsn=txn.last_lsn,
            )
            page.update_record(slot, payload)
            self._log_update(txn, page, record)
        finally:
            self._unfix(page_id)

    def delete(self, txn: Transaction, page_id: int, slot: int) -> None:
        """Delete the record in ``slot``."""
        self._check_active(txn, write=True)
        self._lock_for_write(txn, page_id, slot)
        page = self._fix(page_id, True)
        try:
            old = page.read_record(slot)
            if old is None:
                raise ReproError(f"page {page_id} slot {slot} is empty")
            record = make_update(
                txn_id=txn.txn_id, system_id=self.system_id,
                page_id=page_id, slot=slot,
                redo=encode_op(PageOp.DELETE),
                undo=encode_op(PageOp.INSERT, old),
                prev_lsn=txn.last_lsn,
            )
            page.delete_record(slot)
            self._log_update(txn, page, record)
        finally:
            self._unfix(page_id)

    # ------------------------------------------------------------------
    # page allocation / deallocation (Section 3.4)
    # ------------------------------------------------------------------
    def allocate_page(self, txn: Transaction,
                      page_type: PageType = PageType.DATA,
                      page_id: Optional[int] = None) -> int:
        """Allocate a data page **without reading its old version**.

        The format record's LSN is derived from the covering SMP's
        page_LSN (which the deallocation already pushed above the dead
        page's final LSN), so the reallocated page's LSN sequence keeps
        increasing even though we never saw the old image — in CS
        exactly as in SD.
        """
        self._check_active(txn, write=True)
        geometry = self.shared.space_map
        chosen = page_id if page_id is not None else self._find_free_page()
        if chosen is None:
            raise ReproError("no free pages left")
        slot = geometry.slot_for(chosen)
        smp_page = self._fix(slot.smp_page_id, True)
        try:
            if SpaceMap.read_allocated(smp_page, slot.index):
                raise ReproError(f"page {chosen} is already allocated")
            smp_record = LogRecord(
                kind=RecordKind.SMP_UPDATE, txn_id=txn.txn_id,
                page_id=slot.smp_page_id, slot=0,
                redo=encode_op(PageOp.SMP_SET,
                               SpaceMap.encode_entry_update(slot.index, True)),
                undo=encode_op(PageOp.SMP_SET,
                               SpaceMap.encode_entry_update(slot.index, False)),
                prev_lsn=txn.last_lsn,
            )
            SpaceMap.write_allocated(smp_page, slot.index, True)
            self._log_update(txn, smp_page, smp_record)
            # The paper's trick: pass the SMP's (fresh) LSN as the hint
            # for the format record, guaranteeing it exceeds any LSN the
            # deallocated disk version may carry.
            fmt = make_format(
                txn_id=txn.txn_id, system_id=self.system_id,
                page_id=chosen, page_type=int(page_type),
                prev_lsn=txn.last_lsn,
            )
            addr = self.log.append(fmt, page_lsn=smp_page.page_lsn)
            txn.note_logged(fmt.lsn, 0, undoable=False)
            fresh = Page()
            fresh.format(chosen, page_type, page_lsn=fmt.lsn)
            self._install_new_page(fresh, addr)
            self.stats.incr(PAGE_READS_AVOIDED)
            return chosen
        finally:
            self._unfix(slot.smp_page_id)

    def deallocate_page(self, txn: Transaction, page_id: int) -> None:
        """Deallocate an (empty) page.

        The SMP update's LSN hint is the max of the SMP's LSN and the
        dead page's current LSN; the USN rule then guarantees the SMP
        LSN ends up above everything ever written to the page — the
        property reallocation relies on.
        """
        self._check_active(txn, write=True)
        slot = self.shared.space_map.slot_for(page_id)
        page = self._fix(page_id, True)
        try:
            if not page.is_empty():
                raise ReproError(f"page {page_id} is not empty")
            dead_page_lsn = page.page_lsn
        finally:
            self._unfix(page_id)
        smp_page = self._fix(slot.smp_page_id, True)
        try:
            if not SpaceMap.read_allocated(smp_page, slot.index):
                raise ReproError(f"page {page_id} is not allocated")
            record = LogRecord(
                kind=RecordKind.SMP_UPDATE, txn_id=txn.txn_id,
                page_id=slot.smp_page_id, slot=0,
                redo=encode_op(PageOp.SMP_SET,
                               SpaceMap.encode_entry_update(slot.index, False)),
                undo=encode_op(PageOp.SMP_SET,
                               SpaceMap.encode_entry_update(slot.index, True)),
                prev_lsn=txn.last_lsn,
            )
            SpaceMap.write_allocated(smp_page, slot.index, False)
            hint = max(smp_page.page_lsn, dead_page_lsn)
            self._log_update(txn, smp_page, record, lsn_hint=hint)
        finally:
            self._unfix(slot.smp_page_id)

    def _find_free_page(self) -> Optional[int]:
        geometry = self.shared.space_map
        for smp_page_id in geometry.smp_page_ids():
            smp_page = self._fix(smp_page_id, False)
            try:
                first_page_id, limit = geometry.coverage(smp_page_id)
                index = SpaceMap.first_free(smp_page, limit)
                if index is not None:
                    return first_page_id + index
            finally:
                self._unfix(smp_page_id)
        return None

    # ------------------------------------------------------------------
    # page-access protocol (used by access methods like the B-tree)
    # ------------------------------------------------------------------
    def fix_page(self, page_id: int, for_update: bool = False) -> Page:
        """Fix a page for page-level traversal; pair with
        :meth:`unfix_page`."""
        return self._fix(page_id, for_update)

    def unfix_page(self, page_id: int) -> None:
        """Release a pin taken by :meth:`fix_page`."""
        self._unfix(page_id)

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _log_update(self, txn: Transaction, page: Page, record: LogRecord,
                    lsn_hint: Optional[Lsn] = None) -> None:
        """Log the applied undoable update ``record`` against ``page``
        and do the USN bookkeeping.

        Implements the normal-processing steps of Section 3.2.1: pass
        the current page_LSN to the log manager, then place the returned
        LSN into the page header and note the update where this
        architecture tracks dirty pages.
        """
        if self.injector.enabled:
            # Mid-operation crash point: fired before the log append, so
            # a kill here leaves the log without the record while the
            # (volatile) page copy may already carry the change — the
            # change simply evaporates with the system.
            self.injector.fire(fp.INSTANCE_UPDATE, system=self.system_id,
                               page=record.page_id, txn=txn.txn_id)
        page_lsn_prev = page.page_lsn
        hint = page_lsn_prev if lsn_hint is None else lsn_hint
        addr = self.log.append(record, page_lsn=hint)
        stamp_page_lsn(page, record.lsn)
        offset = self._note_page_update(record.page_id, record.lsn, addr)
        txn.note_logged(record.lsn, offset, undoable=True)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.PAGE_UPDATE, system=self.system_id,
                page=record.page_id, slot=record.slot, txn=txn.txn_id,
                lsn=int(record.lsn), page_lsn_prev=int(page_lsn_prev),
                kind=record.kind.name,
            )

    def _lock(self, txn: Transaction, resource: Hashable,
              mode: LockMode) -> None:
        """One lock request.  A conflict raises :class:`LockWouldBlock`
        (the interleaved drivers round-robin on it) unless a
        ``lock_retry`` policy bounds the wait."""
        if self.lock_retry is None:
            status = self.shared.lock(self, txn.txn_id, resource, mode)
            if status is LockStatus.WAITING:
                raise LockWouldBlock(txn.txn_id, resource)
            return

        def attempt() -> None:
            status = self.shared.lock(self, txn.txn_id, resource, mode)
            if status is LockStatus.WAITING:
                raise LockWouldBlock(txn.txn_id, resource)

        def note_retry(_attempt: int) -> None:
            self.stats.incr(LOCK_RETRIES)

        try:
            run_with_lock_retry(self.lock_retry, attempt,
                                on_retry=note_retry)
        except LockTimeoutError:
            self.stats.incr(LOCK_RETRY_TIMEOUTS)
            raise

    def _down_error(self) -> ReproError:
        """The error every entry point raises while ``crashed`` (they
        test the flag inline: the checks run several times per op)."""
        return ReproError(f"{self.ROLE} {self.system_id} is down")

    def _check_writable(self) -> None:
        """Reject log-appending operations while in degraded mode.

        Reads, and the commit of a transaction that only read, are
        deliberately *not* gated: a log-device failure leaves stable
        state intact, so serving committed data read-only is safe —
        that is the whole point of degrading instead of failing.
        """
        if self.crashed:
            raise self._down_error()
        if self.degraded:
            self.stats.incr(DEGRADED_REJECTIONS)
            raise DegradedModeError(
                f"system {self.system_id} is read-only (degraded)"
            )

    def _check_active(self, txn: Transaction, write: bool = False) -> None:
        """``txn`` may run an operation here; ``write`` operations also
        need a writable log (see :meth:`_check_writable`)."""
        if self.crashed:
            raise self._down_error()
        if write and self.degraded:
            self._check_writable()
        if txn.state is not TxnState.ACTIVE:
            raise ReproError(
                f"txn {txn.txn_id} is {txn.state.value}, not active"
            )
