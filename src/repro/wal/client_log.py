"""Client-side log manager for the client-server architecture.

Per Section 3.1 of the paper, CS clients "have (local) log managers
which behave very much like the regular log managers, except that,
instead of writing log records to disk, they just buffer them in virtual
storage and then at various points in time ship them to the server."

The shipping contract (Section 3.3): *all* buffered log records are sent
to the server when any dirty page is sent back, or when a transaction
commits — whichever happens first.  That contract is what makes client
crash recovery possible from the server's single log alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.config import NULL_LSN
from repro.common.lsn import Lsn
from repro.common.seams import Seams
from repro.common.stats import LOG_RECORDS_WRITTEN
from repro.obs import events as ev
from repro.wal.records import LogRecord, RecordKind, stamp_and_encode


class ClientLogManager:
    """Virtual-storage log buffer with USN LSN assignment.

    LSN assignment is identical to :class:`~repro.wal.log_manager.
    LogManager` — the whole point of the paper is that clients can
    assign LSNs locally, without a round trip to the server, and still
    get complex-wide per-page monotonicity.
    """

    def __init__(self, client_id: int,
                 seams: Optional[Seams] = None) -> None:
        self.client_id = client_id
        self.stats, self.tracer, _ = seams or Seams.of()
        self.local_max_lsn: Lsn = NULL_LSN
        # Records appended since the last ship, in order.
        self._pending: List[LogRecord] = []
        # Retained records of still-active transactions, for local
        # rollback after the originals have been shipped to the server.
        self._txn_records: Dict[int, List[LogRecord]] = {}

    # ------------------------------------------------------------------
    def append(self, record: LogRecord, page_lsn: Lsn = NULL_LSN) -> Lsn:
        """Assign an LSN (USN rule) and buffer the record."""
        lsn = max(page_lsn, self.local_max_lsn) + 1
        # Stamped and encoded in one call; :meth:`ship` then finds the
        # bytes cached on the record (a later field assignment would
        # still invalidate them).
        stamp_and_encode(record, lsn, self.client_id)
        self.local_max_lsn = lsn
        self._pending.append(record)
        if record.txn_id:
            # A COMMIT is the transaction's last record: nothing left
            # to roll back locally.
            if record.kind == RecordKind.COMMIT:
                self._txn_records.pop(record.txn_id, None)
            else:
                self._txn_records.setdefault(record.txn_id, []).append(record)
        self.stats.incr(LOG_RECORDS_WRITTEN)
        if self.tracer.enabled:
            self.tracer.emit(
                ev.LOG_APPEND,
                system=self.client_id,
                lsn=int(lsn),
                kind=record.kind.name,
                txn=record.txn_id,
                page=record.page_id,
                offset=None,
            )
        return lsn

    def observe_remote_max(self, remote_max_lsn: Lsn) -> None:
        """Lamport merge, typically from server-piggybacked maxima."""
        before = self.local_max_lsn
        if remote_max_lsn > self.local_max_lsn:
            self.local_max_lsn = remote_max_lsn
        if self.tracer.enabled:
            self.tracer.emit(
                ev.LSN_OBSERVE,
                system=self.client_id,
                remote=int(remote_max_lsn),
                before=int(before),
                after=int(self.local_max_lsn),
            )

    # ------------------------------------------------------------------
    # shipping
    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        return len(self._pending)

    def ship(self) -> bytes:
        """Serialize and drain every buffered record, in append order.

        Returns the byte stream the server appends verbatim to its log.
        An empty result means nothing needed shipping.
        """
        if not self._pending:
            return b""
        data = b"".join(record.to_bytes() for record in self._pending)
        self._pending.clear()
        return data

    # ------------------------------------------------------------------
    # local rollback support
    # ------------------------------------------------------------------
    def records_of_txn(self, txn_id: int) -> List[LogRecord]:
        """This client's retained records for an active transaction,
        oldest first (shipped or not)."""
        return list(self._txn_records.get(txn_id, []))

    def forget_txn(self, txn_id: int) -> None:
        """Drop retained records once a rollback has ended."""
        self._txn_records.pop(txn_id, None)

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Client failure: all virtual-storage state evaporates."""
        self._pending.clear()
        self._txn_records.clear()
        self.local_max_lsn = NULL_LSN

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ClientLogManager(client={self.client_id}, "
            f"pending={len(self._pending)}, local_max_lsn={self.local_max_lsn})"
        )
