"""A CS client: page cache, local USN log manager, log shipping.

Clients own no disk.  They cache server pages, update them locally
under server-granted locks, assign LSNs locally with the USN rule
(Section 3.2.1 — no server round trip per log record), and ship their
buffered log records to the server when a dirty page goes back or a
transaction commits, whichever happens first (Section 3.3).  The
transaction front end (:mod:`repro.txn.front`) runs every record and
page operation, commit and rollback over this module's hooks.

Per Section 3.2.2, the client's buffer manager associates a **RecLSN**
with each dirty page — the LSN bounding the first update that dirtied
it — and ships it with the page so the server can map it to a RecAddr
in the single log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.common.clock import SkewedClock
from repro.common.config import NULL_LSN
from repro.common.errors import ReproError
from repro.common.lsn import Lsn
from repro.locking.lock_manager import LockMode, record_lock
from repro.storage.page import Page
from repro.txn.front import TransactionFrontEnd
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction, TxnState, UndoEntry
from repro.wal.client_log import ClientLogManager
from repro.wal.records import LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cs.server import CsServer


@dataclass
class _CachedPage:
    page: Page
    dirty: bool = False
    rec_lsn: Lsn = NULL_LSN   # LSN of first dirtying update (RecLSN)


class CsClient(TransactionFrontEnd):
    """One client workstation of the CS architecture."""

    ROLE = "client"
    #: Lock conflicts always surface as LockWouldBlock.
    lock_retry = None

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
        self.system_id = client_id
        self.server = server
        self.shared = server
        self.cache_capacity = cache_capacity
        self.isolation = isolation
        self.stats, self.tracer, self.injector = server.seams
        self.log = ClientLogManager(client_id, server.seams)
        self.txns = TransactionManager(client_id)
        self.cache: Dict[int, _CachedPage] = {}
        self.clock = clock if clock is not None else SkewedClock(
            offset=101.0 * client_id, rate=1.0 + 0.07 * client_id
        )
        self.tracer.register_clock(client_id, self.clock)
        self.crashed = False
        # Lazy (group) commits awaiting their covering ship + force.
        self._pending_commits: List[Transaction] = []
        server.attach_client(self)

    # ------------------------------------------------------------------
    def read(self, txn: Transaction, page_id: int, slot: int,
             use_commit_lsn: bool = False) -> Optional[bytes]:
        """Cursor-stability read, optionally via the Commit_LSN check
        (the server's complex-wide service, as in SD)."""
        self._check_active(txn)
        page = self._fix(page_id, False)
        if use_commit_lsn and self.server.commit_lsn.check(page.page_lsn):
            return page.read_record(slot)
        resource = record_lock(page_id, slot)
        held_before = self.server.glm.holds(txn.txn_id, resource)
        self._lock(txn, resource, LockMode.S)
        try:
            return page.read_record(slot)
        finally:
            # Degree 2 releases the read lock immediately — but never a
            # lock the transaction held already for other reasons.
            if self.isolation == "cursor_stability" and not held_before:
                self.server.unlock(self, txn.txn_id, resource)

    # ------------------------------------------------------------------
    # front-end hooks: lock, fix, log, make durable, undo source
    # ------------------------------------------------------------------
    def _lock_for_write(self, txn: Transaction, page_id: int,
                        slot: int) -> None:
        self._lock(txn, record_lock(page_id, slot), LockMode.X)

    def _fix(self, page_id: int, for_update: bool) -> Page:
        """The cached copy of a page, fetched from the server on a miss
        (or when an update needs the write token).

        Client caches have no pin counts — virtual storage holds pages
        until eviction — so :meth:`_unfix` is a no-op.
        """
        if self.crashed:
            raise self._down_error()
        cache = self.cache
        entry = cache.get(page_id)
        if entry is None or (for_update and
                             self.server._writer.get(page_id) != self.client_id):
            page = self.server.fetch_page(self, page_id, for_update)
            entry = cache.get(page_id)
            if entry is None or not entry.dirty:
                # fetch_page recalls a dirty copy only from another
                # client, so a dirty entry here is our own: keep it.
                self._evict_if_needed(exclude=page_id)
                entry = _CachedPage(page=page)
        # Move to the LRU tail (dicts keep insertion order).
        cache.pop(page_id, None)
        cache[page_id] = entry
        return entry.page

    def _unfix(self, page_id: int) -> None:
        """Nothing to release (see :meth:`_fix`)."""

    def _install_new_page(self, page: Page, addr: Lsn) -> None:
        """Cache a freshly formatted page as dirty, its format record's
        LSN the RecLSN, and purge other clients' stale copies."""
        self._evict_if_needed(exclude=page.page_id)
        self.cache[page.page_id] = _CachedPage(page=page, dirty=True,
                                               rec_lsn=page.page_lsn)
        self.server.note_new_page(self, page.page_id)

    def _note_page_update(self, page_id: int, lsn: Lsn, addr: Lsn) -> int:
        """The first update since the page was clean sets its RecLSN.
        Undo finds records by LSN here, so the offset is always 0."""
        entry = self.cache[page_id]
        if not entry.dirty:
            entry.dirty = True
            entry.rec_lsn = lsn
        return 0

    def _log_commit(self, txn: Transaction) -> None:
        """COMMIT, the transaction's last record: it ships with the
        batch the server's force covers, and its append drops the
        client's retained copies of the transaction's records."""
        commit = LogRecord(kind=RecordKind.COMMIT, txn_id=txn.txn_id,
                           prev_lsn=txn.last_lsn)
        self.log.append(commit)
        txn.note_logged(commit.lsn, 0, undoable=False)

    def _make_durable(self, txn: Optional[Transaction]) -> None:
        """Ship the buffered records and have the server force them.

        For an eager commit that is the server's commit point, which
        also releases ``txn``'s locks and acknowledges it; a
        group-commit sync is a plain ship plus the same server
        force-or-degrade.  Either way every pending lazy commit's
        records go out with the batch.
        """
        if txn is None:
            self.server.receive_log_records(self)
            self.server.force_or_degrade()
            return
        self.server.commit_point(self, txn.txn_id)
        self.txns.end(txn)

    def _end(self, txn: Transaction) -> None:
        """Release the locks and forget the transaction.  A rollback
        that logged something first writes END and ships its CLRs; a
        commit's COMMIT was its last record."""
        if txn.state is TxnState.ABORTING and txn.is_update_transaction():
            end = LogRecord(kind=RecordKind.END, txn_id=txn.txn_id,
                            prev_lsn=txn.last_lsn)
            self.log.append(end)
            self.server.receive_log_records(self)
        self.server.release_txn_locks(txn.txn_id)
        self.log.forget_txn(txn.txn_id)
        self.txns.end(txn)

    @property
    def degraded(self) -> bool:
        """A client has no log device to lose: it is read-only while
        its server is degraded, so an update, a rollback or a commit
        that logged is rejected here before it appends to the client
        log (a rollback would need CLRs, and a commit that degraded
        the server has already dropped its retained records with its
        COMMIT)."""
        return self.server.degraded

    def _check_writable(self) -> None:
        """While the server is degraded, its verdict: ``server is
        read-only (degraded)``."""
        if self.server.degraded:
            self.server._check_writable()

    def _undo_records(
            self, txn: Transaction) -> Callable[[UndoEntry], LogRecord]:
        """Undo reads the client's retained record copies (Section 3.1:
        undo never needs a merged or remote log)."""
        # Safe to key by LSN alone: one live transaction's retained
        # records, all stamped by this client since it last came up.
        by_lsn = {record.lsn: record
                  for record in self.log.records_of_txn(txn.txn_id)}
        return lambda entry: by_lsn[entry.lsn]

    # ------------------------------------------------------------------
    # cache & shipping
    # ------------------------------------------------------------------
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

    def send_page_back(self, page_id: int) -> None:
        """Ship a dirty page (and all buffered log records) to the
        server; the cached copy becomes clean."""
        if self.crashed:
            raise self._down_error()
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
        if self.crashed:
            raise self._down_error()
        dirty = {
            page_id: entry.rec_lsn
            for page_id, entry in self.cache.items() if entry.dirty
        }
        # A lazy commit awaiting its sync is not in flight: its COMMIT
        # ships ahead of the checkpoint record.
        txns = {
            txn.txn_id: txn.last_lsn for txn in self.txns.active()
            if txn.state is not TxnState.COMMITTED
            and txn.is_update_transaction()
        }
        self.server.client_checkpoint(self, dirty, txns)

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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CsClient(id={self.client_id}, cached={len(self.cache)}, "
            f"crashed={self.crashed})"
        )
