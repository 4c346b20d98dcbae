"""The CS server: disk owner, global locker, single log, client recovery.

The server appends client log records to its log *as they are*
(Section 3.1) — so successive server-log records do **not** always have
increasing LSNs (records from different clients interleave), which the
paper notes is harmless: each client's own stream is increasing, and
per-page monotonicity holds complex-wide.

Per-client batch bookkeeping implements the RecLSN -> RecAddr mapping
of Section 3.2.2: every shipped batch is remembered as (first LSN,
last LSN, server-log offset), and a client RecLSN maps conservatively
to the start of the batch that contains it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.common.config import NULL_LSN, PAGE_SIZE
from repro.common.errors import DegradedModeError, ProtocolError, ReproError
from repro.common.lsn import Lsn
from repro.common.seams import Seams
from repro.common.stats import DEGRADED_REJECTIONS
from repro.faults import points as fp
from repro.locking.lock_manager import LockManager, LockMode, LockStatus
from repro.net.network import Network
from repro.obs import events as ev
from repro.recovery.aries import (
    _finish,
    _fold_records,
    _fold_txn,
    _undo_pass,
)
from repro.recovery.commit_lsn import CommitLsnService
from repro.recovery.owner import LogOwner, RestartRegistry
from repro.recovery.redo import collect_local_redo, redo_chain, trace_outcome
from repro.storage.disk import SharedDisk
from repro.storage.page import Page
from repro.storage.space_map import SpaceMap, format_volume
from repro.txn.manager import _SYSTEM_STRIDE
from repro.wal.records import CheckpointData, LogRecord, RecordKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cs.client import CsClient

# The server's system id in log records and on the network fabric.
SERVER_ID = 0
# Server database geometry (SMPs first, data pages after) and pool size.
SMP_START = 1
DATA_START = 64
POOL_FRAMES = 256


class _Batch(NamedTuple):
    """One shipped batch of client log records in the server log."""

    first_lsn: Lsn
    last_lsn: Lsn
    offset: int


@dataclass
class ClientRecoverySummary:
    """What recovering a failed client involved (experiment E8)."""

    records_scanned: int = 0
    records_redone: int = 0
    redo_skipped_buffer_hit: int = 0
    redo_skipped_by_lsn: int = 0
    loser_transactions: int = 0
    clrs_written: int = 0


class CsServer(LogOwner, RestartRegistry):
    """The server of Figure 1's client-server sibling: the log owner of
    its clients' records."""

    def __init__(
        self,
        n_data_pages: int = 2048,
        seams: Optional[Seams] = None,
        network: Optional[Network] = None,
        restart_mode: str = "eager",
    ) -> None:
        self._init_restart(restart_mode)
        seams = seams or Seams.of()
        self.network = network if network is not None else Network(seams)
        self.disk = SharedDisk(DATA_START + n_data_pages + 64, seams)
        super().__init__(SERVER_ID, self.disk, seams, capacity=POOL_FRAMES)
        self.glm = LockManager(seams)
        #: The complex-wide Commit_LSN over every attached client.
        self.commit_lsn = CommitLsnService(seams)
        self.space_map = SpaceMap(smp_start=SMP_START, data_start=DATA_START,
                                  n_data_pages=n_data_pages)
        self.network.register(SERVER_ID, self.log)
        # Coherency: which client may hold each page dirty; who caches it.
        self._writer: Dict[int, int] = {}
        self._readers: Dict[int, Set[int]] = {}
        self._clients: Dict[int, "CsClient"] = {}
        # RecLSN -> RecAddr machinery: per client, the batches in
        # arrival order and where each LSN-sorted run of them starts.
        # A client's LSNs only increase, so its batches are sorted and
        # disjoint — until it crashes and restarts its LSNs low, which
        # opens the next run.
        self._batches: Dict[int, List[_Batch]] = {}
        self._run_starts: Dict[int, List[int]] = {}
        # Global transaction table (txn -> last LSN), folded from the
        # shipped records: a COMMIT or a rollback's END forgets an entry.
        self._txn_table: Dict[int, Lsn] = {}
        # Per-client latest checkpoint: (server log offset, data).
        self._client_checkpoints: Dict[int, Tuple[int, CheckpointData]] = {}
        format_volume(self.disk, self.space_map)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def attach_client(self, client: "CsClient") -> None:
        if client.client_id in self._clients or client.client_id == SERVER_ID:
            raise ReproError(f"bad client id {client.client_id}")
        self._clients[client.client_id] = client
        self.network.register(client.client_id, client.log)
        self.commit_lsn.register(client)

    # ------------------------------------------------------------------
    # locking service
    # ------------------------------------------------------------------
    def lock(self, client: "CsClient", txn_id: int, resource: Hashable,
             mode: LockMode) -> LockStatus:
        self._check_up()
        self.network.message(client.client_id, SERVER_ID, "lock_request")
        status = self.glm.acquire(txn_id, resource, mode)
        self.network.message(SERVER_ID, client.client_id, "lock_reply")
        return status

    def unlock(self, client: "CsClient", txn_id: int,
               resource: Hashable) -> None:
        self.network.message(client.client_id, SERVER_ID, "unlock")
        self.glm.release(txn_id, resource)

    def release_txn_locks(self, txn_id: int) -> None:
        self.glm.release_all(txn_id)

    # ------------------------------------------------------------------
    # page service (callback coherency)
    # ------------------------------------------------------------------
    def fetch_page(self, client: "CsClient", page_id: int,
                   for_update: bool) -> Page:
        """Give a client a copy of a page, recalling it first if another
        client holds a dirty version."""
        self._check_up()
        self.network.message(client.client_id, SERVER_ID, "page_request")
        holder_id = self._writer.get(page_id)
        if holder_id is not None and holder_id != client.client_id:
            holder = self._clients[holder_id]
            if holder.crashed:
                raise ProtocolError(
                    f"page {page_id} held by crashed client {holder_id}; "
                    f"recover it first"
                )
            self._recall_page(holder, page_id)
        if for_update:
            for reader_id in sorted(self._readers.get(page_id, set())):
                if reader_id != client.client_id:
                    self._clients[reader_id].invalidate(page_id)
                    self.network.message(SERVER_ID, reader_id, "invalidate")
            self._writer[page_id] = client.client_id
            self._readers[page_id] = {client.client_id}
        else:
            self._readers.setdefault(page_id, set()).add(client.client_id)
        page = self.pool.fix(page_id)
        try:
            image = page.copy()
        finally:
            self.pool.unfix(page_id)
        self.network.message(SERVER_ID, client.client_id, "page_reply",
                             nbytes=PAGE_SIZE)
        return image

    def _recall_page(self, holder: "CsClient", page_id: int) -> None:
        """Call back a dirty page (and, per protocol, the covering log
        records) from the client currently holding it."""
        self.network.message(SERVER_ID, holder.client_id, "page_recall")
        holder.send_page_back(page_id)
        self._writer.pop(page_id, None)

    def note_new_page(self, client: "CsClient", page_id: int) -> None:
        """A client formatted a fresh page without fetching it.

        Stale copies of the page's previous (deallocated) life cached at
        other clients are purged, dirty or not — the format record
        supersedes them on every recovery path.
        """
        for other_id, other in self._clients.items():
            if other_id != client.client_id and page_id in other.cache:
                other.cache.pop(page_id)
                self.network.message(SERVER_ID, other_id, "invalidate")
        self._writer[page_id] = client.client_id
        self._readers[page_id] = {client.client_id}

    def relinquish_page(self, client_id: int, page_id: int) -> None:
        """Client no longer caches the page (eviction of a clean copy)."""
        self._readers.get(page_id, set()).discard(client_id)
        if self._writer.get(page_id) == client_id:
            self._writer.pop(page_id, None)

    # ------------------------------------------------------------------
    # log and page receipt
    # ------------------------------------------------------------------
    def receive_log_records(self, client: "CsClient") -> Optional[int]:
        """Ship the client's buffered records into the server log.

        Returns the server-log offset of the appended batch (None when
        the client had nothing to ship).
        """
        self._check_writable()
        data = client.log.ship()
        if not data:
            return None
        if self.injector.enabled:
            # Fired before the batch reaches the server log, attributed
            # to the shipping client: a kill here loses the batch with
            # the client's volatile state.
            self.injector.fire(fp.CS_SHIP, system=client.client_id,
                               nbytes=len(data))
        records = [rec for _, rec in LogRecord.parse_stream(data)]
        # A client's LSNs increase, so the batch's last is its highest.
        first_lsn, last_lsn = records[0].lsn, records[-1].lsn
        offset = self.log.append_parsed(data, last_lsn)
        self.network.message(client.client_id, SERVER_ID, "log_ship",
                             nbytes=len(data))
        batches = self._batches.setdefault(client.client_id, [])
        if not batches or first_lsn <= batches[-1].last_lsn:
            self._run_starts.setdefault(client.client_id, []).append(
                len(batches))
        batches.append(_Batch(first_lsn, last_lsn, offset))
        for record in records:
            _fold_txn(self._txn_table, record)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.CS_SHIP, system=SERVER_ID,
                client=client.client_id, nbytes=len(data),
                offset=offset,
            )
        return offset

    def map_rec_lsn(self, client_id: int, rec_lsn: Lsn) -> int:
        """RecLSN -> RecAddr: offset of the batch containing ``rec_lsn``.

        Conservative: the batch start bounds the record's address from
        below, which is all a redo starting point needs.  The earliest
        shipped batch that spans ``rec_lsn`` wins, found by bisecting
        each run (one per client incarnation) in arrival order.
        """
        batches = self._batches.get(client_id, [])
        starts = self._run_starts.get(client_id, [])
        # Sorts before every batch that starts above rec_lsn and after
        # all others (real records never carry NULL_LSN).
        probe = _Batch(rec_lsn + 1, NULL_LSN, 0)
        for lo, hi in zip(starts, starts[1:] + [len(batches)]):
            at = bisect_left(batches, probe, lo, hi) - 1
            if at >= lo and rec_lsn <= batches[at].last_lsn:
                return batches[at].offset
        return 0

    def receive_dirty_page(self, client: "CsClient", page: Page,
                           rec_lsn: Lsn) -> None:
        """A client sends a dirty page back (with its RecLSN).

        Protocol rule (Section 3.3): the client's buffered log records
        are shipped first, so the server log covers every update on the
        received page before the page can reach disk (WAL).
        """
        self._check_up()
        self.receive_log_records(client)
        self.network.message(client.client_id, SERVER_ID, "dirty_page",
                             nbytes=PAGE_SIZE)
        rec_addr = self.map_rec_lsn(client.client_id, rec_lsn)
        self.pool.receive_dirty(page, rec_lsn, rec_addr,
                                last_update_end=self.log.end_offset)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.CS_PAGE_BACK, system=SERVER_ID,
                client=client.client_id, page=page.page_id,
                rec_lsn=int(rec_lsn),
            )

    def commit_point(self, client: "CsClient", txn_id: int) -> None:
        """Client commit: ship records, force the single log, ack.

        A log-device failure at the force degrades the server to
        read-only instead of taking the whole complex down: the commit
        is *not* acknowledged (the client sees
        :class:`DegradedModeError` and its locks stay held), but every
        client can keep reading committed data.
        """
        if self.tracer.enabled:
            with self.tracer.span(
                ev.SPAN_COMMIT_POINT, system=SERVER_ID,
                client=client.client_id, txn=txn_id,
            ):
                self._commit_point(client, txn_id)
        else:
            self._commit_point(client, txn_id)

    def _commit_point(self, client: "CsClient", txn_id: int) -> None:
        self._check_writable()
        if self.injector.enabled:
            self.injector.fire(fp.CS_COMMIT, system=client.client_id,
                               txn=txn_id)
        self.receive_log_records(client)
        self.force_or_degrade()
        self.release_txn_locks(txn_id)
        self.network.message(SERVER_ID, client.client_id, "commit_ack")
        if self.tracer.enabled:
            self.tracer.emit(
                ev.CS_COMMIT_POINT, system=SERVER_ID,
                client=client.client_id, txn=txn_id,
            )

    def client_checkpoint(self, client: "CsClient",
                          dirty_pages: Dict[int, Lsn],
                          transactions: Dict[int, Lsn]) -> None:
        """Record a client checkpoint in the server log (Section 3.1:
        "Each client periodically takes a checkpoint.  The server keeps
        track of the most recent checkpoint records of all the
        clients.")"""
        self._check_up()
        self.receive_log_records(client)
        data = CheckpointData(
            dirty_pages={
                page_id: (rec_lsn, self.map_rec_lsn(client.client_id, rec_lsn))
                for page_id, rec_lsn in dirty_pages.items()
            },
            transactions=dict(transactions),
        )
        record = LogRecord(kind=RecordKind.END_CHECKPOINT,
                           system_id=client.client_id,
                           extra=data.to_bytes())
        # The checkpoint record is the server's own bookkeeping: append
        # through the normal path so it gets a server LSN.
        addr = self.log.append(record)
        self.log.force()
        self._client_checkpoints[client.client_id] = (addr.offset, data)

    # ------------------------------------------------------------------
    # client failure recovery (Section 3.1)
    # ------------------------------------------------------------------
    def recover_client(self, client_id: int) -> ClientRecoverySummary:
        """Recover a failed client from the server's single log.

        The ARIES passes over the client's window — from its last
        checkpoint, or the oldest RecAddr of a page dirty there — of
        the log filtered by the client's identity (carried in every
        record): the shared analysis fold, seeded with the checkpoint's
        tables; redo of only the updates missing from the server's
        buffer/disk version (page_LSN test); the shared undo walk for
        the client's losers, with CLRs.
        """
        self._check_up()
        client = self._clients[client_id]
        if not client.crashed:
            raise ReproError(f"client {client_id} is not down")
        summary = ClientRecoverySummary()
        with self.tracer.span(ev.SPAN_RECOVERY, system=SERVER_ID,
                              mode="cs-client", client=client_id):
            if self.tracer.enabled:
                self.tracer.emit(ev.RECOVERY_BEGIN, system=SERVER_ID,
                                 mode="cs-client", client=client_id)
            dpt: Dict[int, Tuple[Lsn, int]] = {}
            losers: Dict[int, Lsn] = {}
            window = 0
            if client_id in self._client_checkpoints:
                window, data = self._client_checkpoints[client_id]
                dpt.update(data.dirty_pages)
                losers.update(data.transactions)
                window = min([window] + [addr for _, addr in dpt.values()])
            with self.tracer.span(ev.SPAN_ANALYSIS, system=SERVER_ID):
                summary.records_scanned = _fold_records(
                    ((addr, record)
                     for addr, record in self.log.scan(from_offset=window)
                     if record.system_id == client_id
                     or record.txn_id // _SYSTEM_STRIDE == client_id),
                    dpt, losers)
            summary.loser_transactions = len(losers)
            with self.tracer.span(ev.SPAN_REDO, system=SERVER_ID):
                self._client_redo(dpt, summary)
            _undo_pass(self, losers, summary, fix_page=self._fix_current,
                       window_start=window)
            for txn_id in losers:
                self._txn_table.pop(txn_id, None)
            _finish(self, summary)
        # Retained resources are released only now.
        for txn_id in list(self._owned_txns(client_id)):
            self.glm.release_all(txn_id)
        for page_id in [p for p, w in self._writer.items() if w == client_id]:
            del self._writer[page_id]
        for readers in self._readers.values():
            readers.discard(client_id)
        self._client_checkpoints.pop(client_id, None)
        return summary

    def _fix_current(self, page_id: int) -> Page:
        """Fix the current version of ``page_id`` for client undo.

        Under record locking the loser's page may live, newer, in a
        *live* client's cache (it was recalled there with the loser's
        uncommitted bytes on it).  Undoing against the server's stale
        copy would assign the CLR an LSN that can collide with that
        client's unshipped records; recalling first ships those records
        (raising the server's Local_Max_LSN past them) and hands the
        server the current version.  A *crashed* holder is safe as-is:
        its records either shipped (already absorbed) or died with it.
        """
        holder = self._clients.get(self._writer.get(page_id))
        if holder is not None and not holder.crashed:
            self._recall_page(holder, page_id)
        return self.pool.fix(page_id)

    def _owned_txns(self, client_id: int) -> Set[int]:
        owners: Set[int] = set()
        for owner in self.glm.owners():
            if isinstance(owner, int) and owner // _SYSTEM_STRIDE == client_id:
                owners.add(owner)
        for txn_id in self._txn_table:
            if txn_id // _SYSTEM_STRIDE == client_id:
                owners.add(txn_id)
        return owners

    def _client_redo(self, dpt: Dict[int, Tuple[Lsn, int]],
                     summary: ClientRecoverySummary) -> None:
        chains = collect_local_redo(self.log, dpt)
        for page_id in sorted(chains):
            chain = chains[page_id]
            # Replay into the live pool, not the disk: the server's
            # buffered version can be newer than the disk's.
            buffered = self.pool.contains(page_id)
            page = self.pool.fix(page_id)
            try:
                outcome = redo_chain(page, chain.records)
                redone = 0
                for offset, record, (applied, _) in zip(
                        chain.offsets, chain.records, outcome):
                    if applied:
                        self.pool.note_update(page_id, record.lsn, offset,
                                              self.log.end_offset)
                        redone += 1
                summary.records_redone += redone
                # A buffered page's skip is a buffer hit, not traced.
                if buffered:
                    summary.redo_skipped_buffer_hit += len(outcome) - redone
                else:
                    summary.redo_skipped_by_lsn += len(outcome) - redone
                if self.tracer.enabled:
                    trace_outcome(self.tracer, SERVER_ID, page_id,
                                  chain.records, outcome, skips=not buffered)
            finally:
                self.pool.unfix(page_id)

    # ------------------------------------------------------------------
    # server checkpoint & server failure (handled like SD-complex failure)
    # ------------------------------------------------------------------
    def take_checkpoint(self) -> int:
        """Server checkpoint covering its pool and the global txn table;
        returns the BEGIN record's offset."""
        self._check_up()
        return self.write_checkpoint().offset

    def _checkpoint_transactions(self) -> Dict[int, Lsn]:
        return dict(self._txn_table)

    def crash(self) -> None:
        """Server failure takes the complex down: every client's cached
        state is unusable without the server, so all clients fail too."""
        super().crash()
        self._writer.clear()
        self._readers.clear()
        self._batches.clear()
        self._run_starts.clear()
        self._txn_table.clear()
        self._client_checkpoints.clear()
        for client_id in sorted(self._clients):
            client = self._clients[client_id]
            if not client.crashed:
                client.crash()

    def restart(self):
        """Restart after server failure: ARIES over the single log.

        Reuses the generic restart passes — the server log plays the
        role of an SD instance's local log, with records from *all*
        clients (redo's page_LSN test handles the interleaving).  With
        ``restart_mode="instant"`` the server opens after analysis and
        loser undo, and each page's redo chain applies on its first fix
        through the pool's ``recovery_intercept``
        (:mod:`repro.recovery.instant`).
        """
        if not self.crashed:
            raise ReproError("server is not down")
        return self._restart(self, "server", "cs")

    def _after_restart(self, owner: LogOwner) -> None:
        # A fresh lock service: retained-lock release is explicit.
        self.glm = LockManager(self.seams)

    def _log_owners(self) -> Tuple[LogOwner]:
        return (self,)

    # ------------------------------------------------------------------
    def _check_up(self) -> None:
        if self.crashed:
            raise ReproError("server is down")

    def _check_writable(self) -> None:
        """Reject log-appending work while the server runs degraded."""
        self._check_up()
        if self.degraded:
            self.stats.incr(DEGRADED_REJECTIONS)
            raise DegradedModeError("server is read-only (degraded)")

    def _label(self) -> str:
        return "server"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CsServer(clients={sorted(self._clients)}, "
            f"log_bytes={self.log.end_offset})"
        )
