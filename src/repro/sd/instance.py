"""One DBMS instance of the shared-disks complex.

An instance bundles the four per-system components of Figure 1 — a
local log manager (with USN LSN assignment), a private buffer pool, a
transaction manager, and an unsynchronized clock.  The transaction
front end (:mod:`repro.txn.front`) runs record insert/update/delete,
page allocation and deallocation (including the read-free reallocation
of Section 3.4), commit and rollback over this module's hooks; reads,
the bulk-op lane, mass delete (Section 4.2) and log filler are SD-only
and live here.  The log, the pool, checkpoints, degraded mode and the
crash step are the log owner's (:class:`~repro.recovery.owner.LogOwner`,
shared with the CS server).

Locking goes through the complex's global lock manager; page access
goes through the coherency controller so cross-system transfers follow
the medium page-transfer scheme.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.clock import SkewedClock
from repro.common.errors import ReproError
from repro.common.lsn import LogAddress, Lsn
from repro.common.stats import (
    BULK_OPS_APPLIED,
    BULK_READ_BATCHES,
    BULK_UPDATE_BATCHES,
    LOCK_ESCALATIONS,
)
from repro.faults import points as fp
from repro.faults.policy import RetryPolicy
from repro.locking.lock_manager import LockMode, LockStatus, page_lock, record_lock
from repro.obs import events as ev
from repro.recovery.apply import stamp_page_lsn
from repro.recovery.owner import LogOwner
from repro.storage.page import Page
from repro.storage.space_map import SpaceMap
from repro.txn.front import TransactionFrontEnd
from repro.txn.manager import TransactionManager
from repro.txn.transaction import Transaction, TxnState, UndoEntry
from repro.wal.records import (
    LogRecord,
    PageOp,
    RecordKind,
    encode_op,
    encode_overwrite,
    make_update,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sd.complex import SDComplex


class DbmsInstance(LogOwner, TransactionFrontEnd):
    """A DBMS instance: private log + private buffer pool, shared disks."""

    def __init__(
        self,
        system_id: int,
        sd_complex: "SDComplex",
        buffer_capacity: int = 128,
        lock_granularity: str = "record",
        isolation: str = "cursor_stability",
        escalation_threshold: Optional[int] = None,
        clock: Optional[SkewedClock] = None,
        lock_retry: Optional[RetryPolicy] = None,
    ) -> None:
        """``isolation`` is "cursor_stability" (degree 2: read locks
        released after the read — the level the Commit_LSN optimization
        targets) or "repeatable_read" (degree 3: read locks held to
        commit).  ``escalation_threshold``, when set, escalates a
        transaction's record locks on a page to one page X lock after
        that many record locks — opportunistically, never waiting."""
        if lock_granularity not in ("record", "page"):
            raise ValueError("lock_granularity must be 'record' or 'page'")
        if isolation not in ("cursor_stability", "repeatable_read"):
            raise ValueError(
                "isolation must be 'cursor_stability' or 'repeatable_read'"
            )
        if escalation_threshold is not None and escalation_threshold < 2:
            raise ValueError("escalation threshold must be >= 2")
        super().__init__(system_id, sd_complex.disk, sd_complex.seams,
                         capacity=buffer_capacity)
        self.complex = sd_complex
        self.shared = sd_complex
        self.txns = TransactionManager(system_id)
        self.lock_granularity = lock_granularity
        self.isolation = isolation
        self.escalation_threshold = escalation_threshold
        # Unsynchronized on purpose: recovery must never consult it.
        self.clock = clock if clock is not None else SkewedClock(
            offset=37.0 * system_id, rate=1.0 + 0.13 * system_id
        )
        self.tracer.register_clock(system_id, self.clock)
        # Optional bounded lock-wait policy; None keeps the raw
        # LockWouldBlock behaviour the interleaved workload driver
        # round-robins on.
        self.lock_retry = lock_retry
        # Lazy (group) commits awaiting their covering log force.
        self._pending_commits: List[Transaction] = []

    # ------------------------------------------------------------------
    # record reads (the per-call lane; writes are the front end's)
    # ------------------------------------------------------------------
    def read(self, txn: Transaction, page_id: int, slot: int,
             use_commit_lsn: bool = False) -> Optional[bytes]:
        """Read a record with cursor-stability semantics.

        With ``use_commit_lsn`` the Commit_LSN optimization is applied
        first (Section 2 problem 4): if the page's LSN is below the
        complex-wide Commit_LSN, everything on the page is committed and
        no record lock is needed.  Otherwise an S record lock is taken
        and immediately released (degree-2 consistency).
        """
        self._check_active(txn)
        if use_commit_lsn:
            # Only the Commit_LSN screen looks at the page before
            # locking.  Without it the order is lock, fix, read — as in
            # update() — so a reader about to block never pulls the
            # page across systems first.
            page = self._fix(page_id, for_update=False)
            try:
                if self.complex.commit_lsn.check(page.page_lsn):
                    return page.read_record(slot)
            finally:
                self.pool.unfix(page_id)
        # Lock hierarchically, fetch, read; under cursor stability the
        # record-level lock is released right after.
        releasable = self._lock_for_read(txn, page_id, slot)
        page = self._fix(page_id, for_update=False)
        try:
            return page.read_record(slot)
        finally:
            self.pool.unfix(page_id)
            if self.isolation == "cursor_stability":
                for resource in releasable:
                    self.complex.release_lock(self, txn.txn_id, resource)

    # ------------------------------------------------------------------
    # vectorized record operations (the bulk-op fast lane)
    # ------------------------------------------------------------------
    def update_many(self, txn: Transaction,
                    updates: Sequence[Tuple[int, int, bytes]]) -> None:
        """Apply a batch of ``(page_id, slot, payload)`` updates in one
        vectorized call — the write half of the bulk-op lane.

        Semantics per op match :meth:`update` (same undo/redo payloads,
        same USN LSN chain, same ``PAGE_UPDATE`` events), batched:

        * **locks** — one page X lock per distinct page, acquired up
          front via the escalation machinery (the page lock covers all
          record locks, so later per-call ops on the page skip record
          locking too).  Coarser than per-record locks, never weaker.
          All locks are taken before any page is touched, so a
          ``LockWouldBlock`` surfaces with nothing applied and the
          whole batch can simply be retried.
        * **fixes** — each distinct page is fixed once for the batch.
        * **log** — one :meth:`LogManager.append_many
          <repro.wal.log_manager.LogManager.append_many>` for the whole
          batch.  LSNs are predicted with the USN rule
          (``max(page_lsn, running) + 1``) while applying, so undo
          chains (``prev_lsn``) and per-page LSN tracking are exact;
          the prediction is verified against the stamped records and a
          divergence is a hard error.

        If an op fails mid-batch (empty slot, page full), the already
        applied prefix is logged before the error surfaces — no page
        mutation is ever left unlogged, so rollback stays correct.
        """
        self._check_active(txn, write=True)
        if not updates:
            return
        page_order: List[int] = list(
            dict.fromkeys(page_id for page_id, _, _ in updates))
        for page_id in page_order:
            if page_id not in txn.escalated_pages:
                self._lock(txn, page_lock(page_id), LockMode.X)
                txn.escalated_pages.add(page_id)
        pages: Dict[int, Page] = {}
        try:
            for page_id in page_order:
                pages[page_id] = self._fix(page_id, for_update=True)
            if self.injector.enabled:
                for page_id, _, _ in updates:
                    self.injector.fire(fp.INSTANCE_UPDATE,
                                       system=self.system_id,
                                       page=page_id, txn=txn.txn_id)
            page_lsn_now: Dict[int, Lsn] = {
                page_id: pages[page_id].page_lsn for page_id in page_order
            }
            records: List[LogRecord] = []
            hints: List[Lsn] = []
            predicted: List[Lsn] = []
            prev = txn.last_lsn
            running = self.log.local_max_lsn
            try:
                for page_id, slot, payload in updates:
                    page = pages[page_id]
                    old = page.read_record(slot)
                    if old is None:
                        raise ReproError(
                            f"page {page_id} slot {slot} is empty")
                    hint = page_lsn_now[page_id]
                    lsn = (hint if hint > running else running) + 1
                    redo, undo = encode_overwrite(old, payload)
                    record = make_update(
                        txn_id=txn.txn_id, system_id=self.system_id,
                        page_id=page_id, slot=slot, redo=redo, undo=undo,
                        prev_lsn=prev,
                    )
                    page.update_record(slot, payload)
                    # Only a fully applied op joins the batch; see the
                    # partial-failure contract in the docstring.
                    records.append(record)
                    hints.append(hint)
                    predicted.append(lsn)
                    page_lsn_now[page_id] = lsn
                    running = lsn
                    prev = lsn
            except Exception:
                self._log_bulk_updates(txn, pages, records, hints,
                                          predicted)
                raise
            self._log_bulk_updates(txn, pages, records, hints, predicted)
        finally:
            for page_id in pages:
                self.pool.unfix(page_id)

    def _log_bulk_updates(
        self,
        txn: Transaction,
        pages: Dict[int, Page],
        records: List[LogRecord],
        hints: List[Lsn],
        predicted: List[Lsn],
    ) -> None:
        """Log an applied batch (or applied prefix) and do the per-op
        USN bookkeeping :meth:`_log_update` would have done."""
        if not records:
            return
        addrs = self.log.append_many(records, page_lsns=hints)
        end_offset = self.log.end_offset
        tracing = self.tracer.enabled
        for record, addr, hint, lsn in zip(records, addrs, hints, predicted):
            if record.lsn != lsn:
                raise ReproError(
                    "bulk update LSN prediction diverged from the log "
                    f"(predicted {lsn}, stamped {record.lsn})"
                )
            page = pages[record.page_id]
            stamp_page_lsn(page, record.lsn)
            self.pool.note_update(record.page_id, record.lsn, addr.offset,
                                  end_offset)
            txn.note_logged(record.lsn, addr.offset, undoable=True)
            if tracing:
                self.tracer.emit(
                    ev.PAGE_UPDATE, system=self.system_id,
                    page=record.page_id, slot=record.slot, txn=txn.txn_id,
                    lsn=int(record.lsn), page_lsn_prev=int(hint),
                    kind=record.kind.name,
                )
        self.stats.incr(BULK_UPDATE_BATCHES)
        self.stats.incr(BULK_OPS_APPLIED, len(records))

    def read_many(self, txn: Transaction,
                  reads: Sequence[Tuple[int, int]],
                  use_commit_lsn: bool = False) -> List[Optional[bytes]]:
        """Read a batch of ``(page_id, slot)`` records — the read half
        of the bulk-op lane.

        Each distinct page is fixed once and locked once with a page S
        lock (coarser than the per-call IS + record-S pair, never
        weaker); under cursor stability the page locks this call
        introduced are released when it returns.  With
        ``use_commit_lsn`` the Commit_LSN screen is applied per page —
        a page whose LSN shows only committed data needs no lock at
        all, exactly as in :meth:`read`.
        """
        self._check_active(txn)
        if not reads:
            return []
        page_order: List[int] = list(
            dict.fromkeys(page_id for page_id, _ in reads))
        glm = self.complex.glm
        pages: Dict[int, Page] = {}
        releasable: List[Tuple] = []
        try:
            for page_id in page_order:
                page = self._fix(page_id, for_update=False)
                pages[page_id] = page
                if use_commit_lsn and \
                        self.complex.commit_lsn.check(page.page_lsn):
                    continue
                if page_id in txn.escalated_pages:
                    continue
                resource = page_lock(page_id)
                held_before = glm.holds(txn.txn_id, resource)
                self._lock(txn, resource, LockMode.S)
                if not held_before:
                    releasable.append(resource)
            results = [pages[page_id].read_record(slot)
                       for page_id, slot in reads]
        finally:
            for page_id in pages:
                self.pool.unfix(page_id)
            if self.isolation == "cursor_stability":
                for resource in releasable:
                    self.complex.release_lock(self, txn.txn_id, resource)
        self.stats.incr(BULK_READ_BATCHES)
        self.stats.incr(BULK_OPS_APPLIED, len(reads))
        return results

    # ------------------------------------------------------------------
    # mass delete (Section 4.2)
    # ------------------------------------------------------------------
    def mass_delete(self, txn: Transaction, page_ids: Iterable[int]) -> int:
        """Deallocate many pages by visiting **only** their SMPs.

        This is DB2's segmented-tablespace mass delete (Section 4.2):
        one SMP_SET_RANGE log record per contiguous run per SMP page,
        and *no* data-page reads.  Returns the number of log records
        written.  Correctness of later reallocation rests on the lock
        value-block piggybacking: the table lock that protected the last
        updates of these pages carried the updater's Local_Max_LSN to
        us, so our SMP record's LSN exceeds every page's final LSN.
        """
        self._check_active(txn, write=True)
        runs = self._contiguous_smp_runs(sorted(set(page_ids)))
        records = 0
        for smp_page_id, start, count in runs:
            smp_page = self._fix(smp_page_id, for_update=True)
            try:
                record = LogRecord(
                    kind=RecordKind.SMP_UPDATE, txn_id=txn.txn_id,
                    page_id=smp_page_id, slot=0,
                    redo=encode_op(
                        PageOp.SMP_SET_RANGE,
                        SpaceMap.encode_range_update(start, count, False)),
                    undo=encode_op(
                        PageOp.SMP_SET_RANGE,
                        SpaceMap.encode_range_update(start, count, True)),
                    prev_lsn=txn.last_lsn,
                )
                SpaceMap.write_range(smp_page, start, count, False)
                self._log_update(txn, smp_page, record)
                records += 1
            finally:
                self.pool.unfix(smp_page_id)
        return records

    def _contiguous_smp_runs(
        self, page_ids: List[int]
    ) -> List[Tuple[int, int, int]]:
        """Group sorted page ids into (smp_page, start_index, count) runs."""
        geometry = self.complex.space_map
        runs: List[Tuple[int, int, int]] = []
        for page_id in page_ids:
            slot = geometry.slot_for(page_id)
            if runs and runs[-1][0] == slot.smp_page_id and \
                    runs[-1][1] + runs[-1][2] == slot.index:
                smp, start, count = runs[-1]
                runs[-1] = (smp, start, count + 1)
            else:
                runs.append((slot.smp_page_id, slot.index, 1))
        return runs

    def is_allocated(self, page_id: int) -> bool:
        """Current allocation status of ``page_id`` (reads the SMP)."""
        slot = self.complex.space_map.slot_for(page_id)
        smp_page = self._fix(slot.smp_page_id, for_update=False)
        try:
            return SpaceMap.read_allocated(smp_page, slot.index)
        finally:
            self.pool.unfix(slot.smp_page_id)

    # ------------------------------------------------------------------
    # front-end hooks: lock, fix, log, make durable, undo source
    # ------------------------------------------------------------------
    def _lock_for_write(self, txn: Transaction, page_id: int,
                        slot: int) -> None:
        """Hierarchical write locking: page IX then record X (or one
        page X in page-granularity mode / after escalation)."""
        if self.lock_granularity == "page":
            self._lock(txn, page_lock(page_id), LockMode.X)
            return
        if page_id in txn.escalated_pages:
            return  # the page X lock covers every record
        self._lock(txn, page_lock(page_id), LockMode.IX)
        self._lock(txn, record_lock(page_id, slot), LockMode.X)
        if self.escalation_threshold is not None:
            self._maybe_escalate(txn, page_id)

    def _lock_for_read(self, txn: Transaction, page_id: int,
                       slot: int) -> List:
        """Hierarchical read locking: page IS then record S.

        Returns the resources a cursor-stability reader may release
        after the read (never a lock the transaction held already for
        other reasons, and never the intention lock, which is kept to
        commit — it is compatible with everything but X).
        """
        glm = self.complex.glm
        if self.lock_granularity == "page":
            resource = page_lock(page_id)
            held_before = glm.holds(txn.txn_id, resource)
            self._lock(txn, resource, LockMode.S)
            return [] if held_before else [resource]
        if page_id in txn.escalated_pages:
            return []
        self._lock(txn, page_lock(page_id), LockMode.IS)
        resource = record_lock(page_id, slot)
        held_before = glm.holds(txn.txn_id, resource)
        self._lock(txn, resource, LockMode.S)
        return [] if held_before else [resource]

    def _maybe_escalate(self, txn: Transaction, page_id: int) -> None:
        """Opportunistic record->page lock escalation.

        After ``escalation_threshold`` record locks on one page, try to
        convert the page intention lock to X; on success further record
        locks on the page are unnecessary.  Never waits — a conflicting
        reader simply postpones escalation.  Called only when a
        threshold is set.
        """
        count = txn.record_lock_counts.get(page_id, 0) + 1
        txn.record_lock_counts[page_id] = count
        if count < self.escalation_threshold:
            return
        status = self.complex.try_lock(self, txn.txn_id,
                                       page_lock(page_id), LockMode.X)
        if status is LockStatus.GRANTED:
            txn.escalated_pages.add(page_id)
            self.stats.incr(LOCK_ESCALATIONS)

    def _fix(self, page_id: int, for_update: bool) -> Page:
        """Fix a page in this pool through the coherency layer."""
        if self.crashed:
            raise self._down_error()
        return self.complex.coherency.access(self, page_id, for_update)

    def _unfix(self, page_id: int) -> None:
        self.pool.unfix(page_id)

    def _install_new_page(self, page: Page, addr: LogAddress) -> None:
        """Install a freshly formatted page as dirty in the pool, with
        its format record (at ``addr``) as the page's RecAddr."""
        page_id = page.page_id
        if self.pool.contains(page_id):
            # A stale cached copy of the dead page may linger, even
            # dirty; its content is moot once deallocated.
            self.pool.drop_page(page_id, allow_dirty=True)
        self.pool.install_page(page, dirty=False)
        # note_update performs the clean->dirty transition so the
        # format record becomes the page's RecAddr.
        self.pool.note_update(page_id, page.page_lsn, addr.offset,
                              self.log.end_offset)
        self.pool.unfix(page_id)
        self.complex.coherency.note_new_page(self, page_id)

    def _note_page_update(self, page_id: int, lsn: Lsn,
                          addr: LogAddress) -> int:
        """Place the update's LSN and log address in the page's BCB."""
        self.pool.note_update(page_id, lsn, addr.offset, self.log.end_offset)
        return addr.offset

    def _log_commit(self, txn: Transaction) -> None:
        """COMMIT, the transaction's last record: analysis forgets a
        transaction at its COMMIT, so no END follows."""
        commit = LogRecord(kind=RecordKind.COMMIT, txn_id=txn.txn_id,
                           prev_lsn=txn.last_lsn)
        self.log.append(commit)
        txn.note_logged(commit.lsn, 0, undoable=False)

    def _make_durable(self, txn: Optional[Transaction]) -> None:
        """Force the log, run the replication commit point for every
        newly durable commit, then acknowledge ``txn`` (the eager
        committer, None for a group-commit sync).

        The force is :meth:`force_or_degrade`: a log-device failure
        leaves the commit unacknowledged and this instance read-only,
        and the rest of the complex keeps running.
        """
        injector = self.injector
        if txn is not None and injector.enabled:
            injector.fire(fp.COMMIT_PRE_FORCE, system=self.system_id,
                          txn=txn.txn_id)
        self.force_or_degrade()
        if txn is not None and injector.enabled:
            injector.fire(fp.COMMIT_POST_FORCE, system=self.system_id,
                          txn=txn.txn_id)
        replication = self.complex.replication
        if replication.enabled:
            # The commit point of the configured write-ack level: ship
            # the stable stream and wait for standby acks before the
            # commit is acknowledged.  The local force above already
            # made it locally durable, so a missed ack degrades rather
            # than rolls back.
            durable = self._pending_commits
            if txn is not None:
                durable = [txn] + durable
            for each in durable:
                replication.on_commit(self.system_id, each.txn_id,
                                      each.last_lsn)
        if txn is not None:
            self._finish_commit(txn)

    def _end(self, txn: Transaction) -> None:
        """Release the locks and forget the transaction.  A rollback
        that logged something first writes END to close its CLR
        chain; a commit's COMMIT was its last record."""
        if txn.state is TxnState.ABORTING and txn.is_update_transaction():
            end = LogRecord(kind=RecordKind.END, txn_id=txn.txn_id,
                            prev_lsn=txn.last_lsn)
            self.log.append(end)
        self.complex.release_txn_locks(self, txn.txn_id)
        self.txns.end(txn)

    def _undo_records(
            self, txn: Transaction) -> Callable[[UndoEntry], LogRecord]:
        """Undo reads each record back from the local log by offset."""
        read_record_at = self.log.read_record_at
        return lambda entry: read_record_at(entry.offset)

    def _checkpoint_transactions(self) -> Dict[int, Lsn]:
        """A checkpoint records the in-flight transactions that logged.

        A lazy commit awaiting its sync is left out: its COMMIT
        precedes the checkpoint, whose own force makes it stable, so
        restart analysis (which starts at the checkpoint) must not
        count it a loser.
        """
        return {txn.txn_id: txn.last_lsn for txn in self.txns.active()
                if txn.state is not TxnState.COMMITTED
                and txn.is_update_transaction()}

    # ------------------------------------------------------------------
    # log filler
    # ------------------------------------------------------------------
    def write_filler(self, n_records: int, payload_bytes: int = 64) -> None:
        """Grow this system's log without touching the database.

        Models unrelated workload on the system.  Under the naive
        scheme this inflates future LSNs (the Section 1.5 setup); under
        the USN scheme it advances ``Local_Max_LSN`` by one per record,
        creating LSN-rate skew for the Commit_LSN experiments (E2).
        """
        filler = b"x" * payload_bytes
        for _ in range(n_records):
            record = LogRecord(kind=RecordKind.DUMMY, redo=filler)
            self.log.append(record)

    # ------------------------------------------------------------------
    # failure
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """System failure: buffers, transaction state and the unforced
        log tail all evaporate.  Locks of in-flight transactions are
        *retained* by the global lock manager until restart recovery."""
        super().crash()
        self.txns.crash()
        self._pending_commits.clear()
        self.complex.coherency.note_crash(self.system_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DbmsInstance(system={self.system_id}, "
            f"crashed={self.crashed}, log={self.log!r})"
        )
