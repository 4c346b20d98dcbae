"""A CS client: page cache, local USN log manager, log shipping.

Clients own no disk.  They cache server pages, update them locally
under server-granted locks, assign LSNs locally with the USN rule
(Section 3.2.1 — no server round trip per log record), and ship their
buffered log records to the server when a dirty page goes back or a
transaction commits, whichever happens first (Section 3.3).

Per Section 3.2.2, the client's buffer manager associates a **RecLSN**
with each dirty page — the LSN bounding the first update that dirtied
it — and ships it with the page so the server can map it to a RecAddr
in the single log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.common.clock import SkewedClock
from repro.common.config import NULL_LSN
from repro.common.errors import LockWouldBlock, ReproError
from repro.common.lsn import Lsn
from repro.common.stats import PAGE_READS_AVOIDED
from repro.faults import points as fp
from repro.locking.lock_manager import LockMode, LockStatus, record_lock
from repro.obs import events as ev
from repro.recovery.apply import compensate, stamp_page_lsn
from repro.storage.page import Page, PageType
from repro.storage.space_map import SpaceMap
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction, TxnState
from repro.wal.client_log import ClientLogManager
from repro.wal.records import (
    LogRecord,
    PageOp,
    RecordKind,
    encode_op,
    make_format,
    make_update,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cs.server import CsServer


@dataclass
class _CachedPage:
    page: Page
    dirty: bool = False
    rec_lsn: Lsn = NULL_LSN   # LSN of first dirtying update (RecLSN)


class CsClient:
    """One client workstation of the CS architecture."""

    def __init__(
        self,
        client_id: int,
        server: "CsServer",
        cache_capacity: int = 0,
        isolation: str = "cursor_stability",
        clock: Optional[SkewedClock] = None,
    ) -> None:
        """``cache_capacity`` bounds the page cache (0 = unbounded,
        matching workstation virtual storage); eviction is LRU, and
        evicting a dirty page ships it — with the covering log records,
        per the Section 3.3 protocol — back to the server.

        ``isolation`` is "cursor_stability" (degree 2, the level the
        Commit_LSN optimization targets) or "repeatable_read" (read
        locks held to commit)."""
        if client_id <= 0:
            raise ValueError("client ids must be positive")
        if cache_capacity < 0:
            raise ValueError("cache capacity cannot be negative")
        if isolation not in ("cursor_stability", "repeatable_read"):
            raise ValueError(
                "isolation must be 'cursor_stability' or 'repeatable_read'"
            )
        self.client_id = client_id
        self.server = server
        self.cache_capacity = cache_capacity
        self.isolation = isolation
        self.stats = server.stats
        self.tracer = server.tracer
        self.injector = server.injector
        self.log = ClientLogManager(client_id, stats=self.stats,
                                    tracer=self.tracer)
        self.txns = TransactionManager(client_id)
        self.cache: Dict[int, _CachedPage] = {}
        self.clock = clock if clock is not None else SkewedClock(
            offset=101.0 * client_id, rate=1.0 + 0.07 * client_id
        )
        self.tracer.register_clock(client_id, self.clock)
        self.crashed = False
        # Lazy (group) commits awaiting their covering ship + force.
        self._pending_commits: list = []
        server.attach_client(self)

    # CommitLsnService duck-type.
    @property
    def system_id(self) -> int:
        return self.client_id

    # ------------------------------------------------------------------
    # transaction control
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        self._check_up()
        txn = self.txns.begin()
        if self.tracer.enabled:
            self.tracer.emit(ev.TXN_BEGIN, system=self.client_id,
                             txn=txn.txn_id)
        return txn

    def commit(self, txn: Transaction, lazy: bool = False) -> None:
        """Commit: buffer the commit record, ship everything, server
        forces its log and releases the locks, then the client ends.

        ``lazy=True`` is client-side group commit: the commit record is
        buffered but nothing ships — one later :meth:`sync_commits`
        (or eager commit) pays a single log-ship round trip and a
        single server force for the whole batch.  A lazy commit is not
        acknowledged until then: locks stay held at the server, and a
        client crash first loses the batch consistently (the records
        never reached the server, and neither did any covered page —
        dirty pages always ship *with* the log records).  It does leave
        ACTIVE at once, so every further operation on it is rejected.

        A transaction that logged nothing just has the server drop its
        locks and ends, lazy or not: no COMMIT or END record, no log
        ship, no server force, no ``commit_ack`` — so a degraded server
        still lets readers finish.
        """
        if self.tracer.enabled:
            with self.tracer.span(ev.SPAN_COMMIT, system=self.client_id,
                                  txn=txn.txn_id, lazy=lazy):
                self._commit(txn, lazy)
        else:
            self._commit(txn, lazy)

    def _commit(self, txn: Transaction, lazy: bool) -> None:
        self._check_active(txn)
        if not txn.is_update_transaction():
            if self.tracer.enabled:
                self.tracer.emit(ev.TXN_COMMIT, system=self.client_id,
                                 txn=txn.txn_id, lazy=lazy)
            self.server.release_txn_locks(txn.txn_id)
            self._finish_commit(txn)
            return
        commit = LogRecord(kind=RecordKind.COMMIT, txn_id=txn.txn_id,
                           prev_lsn=txn.last_lsn)
        self.log.append(commit)
        txn.note_logged(commit.lsn, 0, undoable=False)
        end = LogRecord(kind=RecordKind.END, txn_id=txn.txn_id,
                        prev_lsn=txn.last_lsn)
        self.log.append(end)
        if self.tracer.enabled:
            self.tracer.emit(ev.TXN_COMMIT, system=self.client_id,
                             txn=txn.txn_id, lazy=lazy)
        if lazy:
            txn.state = TxnState.COMMITTED
            self._pending_commits.append(txn)
            return
        self.server.commit_point(self, txn.txn_id)
        self._finish_commit(txn)
        self._finish_pending()

    def sync_commits(self) -> int:
        """Group-commit sync: one ship + one server force acknowledges
        every pending lazy commit.  Returns transactions completed."""
        self._check_up()
        if not self._pending_commits:
            return 0
        self.server.receive_log_records(self)
        self.server.log.force()
        return self._finish_pending()

    def _finish_pending(self) -> int:
        pending = self._pending_commits
        finished = 0
        try:
            for txn in pending:
                self.server.release_txn_locks(txn.txn_id)
                self._finish_commit(txn)
                finished += 1
        finally:
            # One slice delete instead of a pop(0) per transaction; a
            # transaction whose release failed stays pending with the
            # tail behind it.
            del pending[:finished]
        return finished

    def _finish_commit(self, txn: Transaction) -> None:
        txn.state = TxnState.COMMITTED
        self.log.forget_txn(txn.txn_id)
        self.txns.end(txn)

    def rollback(self, txn: Transaction,
                 to_savepoint: Optional[str] = None) -> None:
        """Roll back using the client's retained record copies
        (Section 3.1: undo never needs a merged or remote log)."""
        self._check_up()
        if txn.state not in (TxnState.ACTIVE, TxnState.ABORTING):
            raise ReproError(f"cannot roll back txn in state {txn.state}")
        txn.state = TxnState.ABORTING
        if self.tracer.enabled:
            self.tracer.emit(ev.TXN_ROLLBACK, system=self.client_id,
                             txn=txn.txn_id, savepoint=to_savepoint)
        records = self.log.records_of_txn(txn.txn_id)
        # Safe to key by LSN alone: one live transaction's retained
        # records, all stamped by this client since it last came up.
        by_lsn = {record.lsn: record for record in records}
        stop_at = 0
        if to_savepoint is not None:
            stop_at = txn.savepoints[to_savepoint]
        # Entries are consumed as compensated so a midway-failed
        # rollback can be retried without double-compensation.
        while len(txn.undo_entries) > stop_at:
            entry = txn.undo_entries[-1]
            self._undo_one(txn, by_lsn[entry.lsn])
            txn.undo_entries.pop()
        if to_savepoint is not None:
            txn.truncate_to_savepoint(to_savepoint)
            txn.state = TxnState.ACTIVE
            return
        if txn.is_update_transaction():
            end = LogRecord(kind=RecordKind.END, txn_id=txn.txn_id,
                            prev_lsn=txn.last_lsn)
            self.log.append(end)
            # Ship the rollback's CLRs (a transaction that logged
            # nothing has nothing to ship).
            self.server.receive_log_records(self)
        self.server.release_txn_locks(txn.txn_id)
        self.log.forget_txn(txn.txn_id)
        self.txns.end(txn)

    def _undo_one(self, txn: Transaction, record: LogRecord) -> None:
        entry = self._require_cached(record.page_id, for_update=True)
        clr, _, page_lsn_prev = compensate(
            self.log, entry.page, record, txn.txn_id, txn.last_lsn)
        self._note_dirty(entry, clr.lsn)
        txn.note_logged(clr.lsn, 0, undoable=False)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.PAGE_UPDATE, system=self.client_id,
                page=record.page_id, slot=record.slot, txn=txn.txn_id,
                lsn=int(clr.lsn), page_lsn_prev=int(page_lsn_prev),
                kind=RecordKind.CLR.name,
            )

    def set_savepoint(self, txn: Transaction, name: str) -> None:
        self._check_active(txn)
        txn.set_savepoint(name)

    # ------------------------------------------------------------------
    # record operations
    # ------------------------------------------------------------------
    def insert(self, txn: Transaction, page_id: int, payload: bytes) -> int:
        self._check_active(txn)
        entry = self._require_cached(page_id, for_update=True)
        slot = entry.page.insert_record(payload)
        try:
            self._lock(txn, record_lock(page_id, slot), LockMode.X)
        except LockWouldBlock:
            entry.page.delete_record(slot)
            raise
        record = make_update(
            txn_id=txn.txn_id, system_id=self.client_id,
            page_id=page_id, slot=slot,
            redo=encode_op(PageOp.INSERT, payload),
            undo=encode_op(PageOp.DELETE),
            prev_lsn=txn.last_lsn,
        )
        self._log_applied_update(txn, entry, record)
        return slot

    def update(self, txn: Transaction, page_id: int, slot: int,
               payload: bytes) -> None:
        self._check_active(txn)
        self._lock(txn, record_lock(page_id, slot), LockMode.X)
        entry = self._require_cached(page_id, for_update=True)
        old = entry.page.read_record(slot)
        if old is None:
            raise ReproError(f"page {page_id} slot {slot} is empty")
        record = make_update(
            txn_id=txn.txn_id, system_id=self.client_id,
            page_id=page_id, slot=slot,
            redo=encode_op(PageOp.SET, payload),
            undo=encode_op(PageOp.SET, old),
            prev_lsn=txn.last_lsn,
        )
        entry.page.update_record(slot, payload)
        self._log_applied_update(txn, entry, record)

    def delete(self, txn: Transaction, page_id: int, slot: int) -> None:
        self._check_active(txn)
        self._lock(txn, record_lock(page_id, slot), LockMode.X)
        entry = self._require_cached(page_id, for_update=True)
        old = entry.page.read_record(slot)
        if old is None:
            raise ReproError(f"page {page_id} slot {slot} is empty")
        record = make_update(
            txn_id=txn.txn_id, system_id=self.client_id,
            page_id=page_id, slot=slot,
            redo=encode_op(PageOp.DELETE),
            undo=encode_op(PageOp.INSERT, old),
            prev_lsn=txn.last_lsn,
        )
        entry.page.delete_record(slot)
        self._log_applied_update(txn, entry, record)

    def read(self, txn: Transaction, page_id: int, slot: int,
             use_commit_lsn: bool = False,
             commit_lsn_service=None) -> Optional[bytes]:
        """Cursor-stability read, optionally via the Commit_LSN check."""
        self._check_active(txn)
        entry = self._require_cached(page_id, for_update=False)
        if use_commit_lsn and commit_lsn_service is not None:
            if commit_lsn_service.check(entry.page.page_lsn):
                return entry.page.read_record(slot)
        resource = record_lock(page_id, slot)
        held_before = self.server.glm.holds(txn.txn_id, resource)
        self._lock(txn, resource, LockMode.S)
        try:
            return entry.page.read_record(slot)
        finally:
            # Degree 2 releases the read lock immediately — but never a
            # lock the transaction held already for other reasons.
            if self.isolation == "cursor_stability" and not held_before:
                self.server.unlock(self.client_id, txn.txn_id, resource)

    # ------------------------------------------------------------------
    # page allocation (same Section 3.4 rule as SD)
    # ------------------------------------------------------------------
    def allocate_page(self, txn: Transaction,
                      page_type: PageType = PageType.DATA,
                      page_id: Optional[int] = None) -> int:
        self._check_active(txn)
        geometry = self.server.space_map
        chosen = page_id if page_id is not None else self._find_free_page()
        if chosen is None:
            raise ReproError("no free pages left")
        slot = geometry.slot_for(chosen)
        smp_entry = self._require_cached(slot.smp_page_id, for_update=True)
        if SpaceMap.read_allocated(smp_entry.page, slot.index):
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
        SpaceMap.write_allocated(smp_entry.page, slot.index, True)
        self._log_applied_update(txn, smp_entry, smp_record)
        fmt = make_format(
            txn_id=txn.txn_id, system_id=self.client_id,
            page_id=chosen, page_type=int(page_type), prev_lsn=txn.last_lsn,
        )
        # The SMP's LSN is the lower bound that makes read-free
        # reallocation safe (Section 3.4) — in CS exactly as in SD.
        self.log.append(fmt, page_lsn=smp_entry.page.page_lsn)
        txn.note_logged(fmt.lsn, 0, undoable=False)
        fresh = Page()
        fresh.format(chosen, page_type, page_lsn=fmt.lsn)
        self._evict_if_needed(exclude=chosen)
        self.cache[chosen] = _CachedPage(page=fresh, dirty=True,
                                         rec_lsn=fmt.lsn)
        self.server.note_new_page(self, chosen)
        self.stats.incr(PAGE_READS_AVOIDED)
        return chosen

    def deallocate_page(self, txn: Transaction, page_id: int) -> None:
        self._check_active(txn)
        slot = self.server.space_map.slot_for(page_id)
        entry = self._require_cached(page_id, for_update=True)
        if not entry.page.is_empty():
            raise ReproError(f"page {page_id} is not empty")
        dead_page_lsn = entry.page.page_lsn
        smp_entry = self._require_cached(slot.smp_page_id, for_update=True)
        if not SpaceMap.read_allocated(smp_entry.page, slot.index):
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
        SpaceMap.write_allocated(smp_entry.page, slot.index, False)
        hint = max(smp_entry.page.page_lsn, dead_page_lsn)
        self._log_applied_update(txn, smp_entry, record, lsn_hint=hint)

    def _find_free_page(self) -> Optional[int]:
        geometry = self.server.space_map
        for smp_page_id in geometry.smp_page_ids():
            smp_entry = self._require_cached(smp_page_id, for_update=False)
            first_page_id, limit = geometry.coverage(smp_page_id)
            index = SpaceMap.first_free(smp_entry.page, limit)
            if index is not None:
                return first_page_id + index
        return None

    # ------------------------------------------------------------------
    # page-access protocol (shared with DbmsInstance, used by access
    # methods like the B-tree)
    # ------------------------------------------------------------------
    def fix_page(self, page_id: int, for_update: bool = False) -> Page:
        """Pin a page in the cache (fetching from the server on a miss).

        Client caches have no pin counts — virtual storage holds pages
        until eviction — so :meth:`unfix_page` is a no-op; the pair
        exists to satisfy the access-method page protocol.
        """
        return self._require_cached(page_id, for_update).page

    def unfix_page(self, page_id: int) -> None:
        """Counterpart of :meth:`fix_page`; nothing to release."""

    # ------------------------------------------------------------------
    # cache & shipping
    # ------------------------------------------------------------------
    def _require_cached(self, page_id: int, for_update: bool) -> _CachedPage:
        self._check_up()
        entry = self.cache.get(page_id)
        if entry is None or (for_update and
                             self.server._writer.get(page_id) != self.client_id):
            page = self.server.fetch_page(self, page_id, for_update)
            if entry is not None and entry.dirty:
                # fetch_page recalls our own dirty copy only when someone
                # else held it, which cannot be us; keep our copy.
                pass
            entry = self.cache.get(page_id)
            if entry is None or not entry.dirty:
                self._evict_if_needed(exclude=page_id)
                entry = _CachedPage(page=page)
                self.cache[page_id] = entry
        self._touch(page_id)
        return entry

    def _touch(self, page_id: int) -> None:
        """Move a page to the LRU tail (dicts keep insertion order)."""
        entry = self.cache.pop(page_id, None)
        if entry is not None:
            self.cache[page_id] = entry

    def _evict_if_needed(self, exclude: int) -> None:
        """Make room under a bounded cache, shipping dirty victims back."""
        if not self.cache_capacity:
            return
        while len(self.cache) >= self.cache_capacity:
            victim = next(
                (pid for pid in self.cache if pid != exclude), None
            )
            if victim is None:
                return
            self.send_page_back(victim)

    def _note_dirty(self, entry: _CachedPage, lsn: Lsn) -> None:
        if not entry.dirty:
            entry.dirty = True
            entry.rec_lsn = lsn

    def _log_applied_update(self, txn: Transaction, entry: _CachedPage,
                            record: LogRecord,
                            lsn_hint: Optional[Lsn] = None) -> None:
        if self.injector.enabled:
            # Mid-operation crash point (see DbmsInstance._log_update):
            # the applied cache mutation is volatile and dies with the
            # client; the record below never reaches the client log.
            self.injector.fire(fp.INSTANCE_UPDATE, system=self.client_id,
                               page=record.page_id, txn=txn.txn_id)
        page_lsn_prev = entry.page.page_lsn
        hint = page_lsn_prev if lsn_hint is None else lsn_hint
        self.log.append(record, page_lsn=hint)
        stamp_page_lsn(entry.page, record.lsn)
        self._note_dirty(entry, record.lsn)
        txn.note_logged(record.lsn, 0, undoable=record.is_undoable())
        if self.tracer.enabled:
            self.tracer.emit(
                ev.PAGE_UPDATE, system=self.client_id,
                page=record.page_id, slot=record.slot, txn=txn.txn_id,
                lsn=int(record.lsn), page_lsn_prev=int(page_lsn_prev),
                kind=record.kind.name,
            )

    def send_page_back(self, page_id: int) -> None:
        """Ship a dirty page (and all buffered log records) to the
        server; the cached copy becomes clean."""
        self._check_up()
        entry = self.cache.get(page_id)
        if entry is None:
            return
        if entry.dirty:
            self.server.receive_dirty_page(self, entry.page.copy(),
                                           entry.rec_lsn)
            entry.dirty = False
            entry.rec_lsn = NULL_LSN
        del self.cache[page_id]
        self.server.relinquish_page(self.client_id, page_id)

    def flush_all(self) -> None:
        """Send every dirty page back (quiesce)."""
        for page_id in sorted(self.cache):
            if self.cache[page_id].dirty:
                self.send_page_back(page_id)

    def invalidate(self, page_id: int) -> None:
        """Server callback: drop a (clean) cached copy."""
        entry = self.cache.pop(page_id, None)
        if entry is not None and entry.dirty:
            raise ReproError(
                f"client {self.client_id} invalidated dirty page {page_id}"
            )

    def checkpoint(self) -> None:
        """Client checkpoint (Section 3.1): report the dirty-page table
        and active transactions to the server."""
        self._check_up()
        dirty = {
            page_id: entry.rec_lsn
            for page_id, entry in self.cache.items() if entry.dirty
        }
        txns = {
            txn.txn_id: txn.last_lsn
            for txn in self.txns.active() if txn.is_update_transaction()
        }
        self.server.client_checkpoint(self, dirty, txns)

    # ------------------------------------------------------------------
    def _lock(self, txn: Transaction, resource, mode: LockMode) -> None:
        status = self.server.lock(self.client_id, txn.txn_id, resource, mode)
        if status is LockStatus.WAITING:
            raise LockWouldBlock(txn.txn_id, resource)

    def crash(self) -> None:
        """Client failure: cache, buffered records, transactions gone."""
        self.crashed = True
        self.cache.clear()
        self.txns.crash()
        self.log.crash()
        self._pending_commits.clear()

    def rejoin(self) -> None:
        """Bring the client machine back after the server recovered it."""
        if not self.crashed:
            raise ReproError(f"client {self.client_id} is not down")
        self.crashed = False

    def _check_up(self) -> None:
        if self.crashed:
            raise ReproError(f"client {self.client_id} is down")

    def _check_active(self, txn: Transaction) -> None:
        self._check_up()
        if txn.state != TxnState.ACTIVE:
            raise ReproError(
                f"txn {txn.txn_id} is {txn.state.value}, not active"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CsClient(id={self.client_id}, cached={len(self.cache)}, "
            f"crashed={self.crashed})"
        )
