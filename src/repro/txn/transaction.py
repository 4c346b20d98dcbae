"""Transaction objects and their log bookkeeping."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List

from repro.common.config import NULL_LSN
from repro.common.lsn import Lsn


class TxnState(enum.Enum):
    """Where a transaction is in its life.

    Only ACTIVE accepts operations (ABORTING accepts a retried
    rollback).  COMMITTED means the commit decision is taken and no
    further operation, rollback included, is accepted.  An eager commit
    passes through it on the way to ENDED; a lazy (group) commit waits
    in it until the force that covers its COMMIT record, still counted
    by :meth:`~repro.txn.manager.TransactionManager.active` so it keeps
    holding Commit_LSN back.  A transaction that logged nothing ends at
    once on commit, lazy or not: it has no record to make durable.
    """

    ACTIVE = "active"
    COMMITTED = "committed"   # commit decided; lazy: awaiting its force
    ABORTING = "aborting"
    ENDED = "ended"


@dataclass
class UndoEntry:
    """Position of one undoable record of this transaction.

    ``offset`` is the record's byte offset in the local log (SD) or an
    index into the client's retained-record list (CS); ``lsn`` orders
    undo and matches CLR ``undo_next_lsn`` pointers.
    """

    lsn: Lsn
    offset: int


@dataclass
class Transaction:
    """One transaction's volatile state."""

    txn_id: int
    system_id: int
    state: TxnState = TxnState.ACTIVE
    first_lsn: Lsn = NULL_LSN      # feeds the Commit_LSN computation
    last_lsn: Lsn = NULL_LSN       # PrevLSN for the next record
    undo_entries: List[UndoEntry] = field(default_factory=list)
    savepoints: Dict[str, int] = field(default_factory=dict)
    # Lock-escalation bookkeeping (SD engine): record locks taken per
    # page, and pages where a page-X lock now covers everything.
    record_lock_counts: Dict[int, int] = field(default_factory=dict)
    escalated_pages: set = field(default_factory=set)

    def note_logged(self, lsn: Lsn, offset: int, undoable: bool) -> None:
        """Bookkeeping after any record of this txn hits the log."""
        if self.first_lsn == NULL_LSN:
            self.first_lsn = lsn
        self.last_lsn = lsn
        if undoable:
            self.undo_entries.append(UndoEntry(lsn=lsn, offset=offset))

    def is_update_transaction(self) -> bool:
        """Has this transaction written any log record?"""
        return self.first_lsn != NULL_LSN

    # ------------------------------------------------------------------
    # savepoints (ARIES partial rollback)
    # ------------------------------------------------------------------
    def set_savepoint(self, name: str) -> None:
        self.savepoints[name] = len(self.undo_entries)

    def entries_since_savepoint(self, name: str) -> List[UndoEntry]:
        """Undoable entries logged after ``name``, newest first."""
        mark = self.savepoints.get(name)
        if mark is None:
            raise KeyError(f"no savepoint {name!r} in txn {self.txn_id}")
        return list(reversed(self.undo_entries[mark:]))

    def truncate_to_savepoint(self, name: str) -> None:
        """Discard undo entries rolled back past ``name``."""
        mark = self.savepoints[name]
        del self.undo_entries[mark:]
        # Savepoints set after `name` are no longer meaningful.
        self.savepoints = {
            sp: pos for sp, pos in self.savepoints.items() if pos <= mark
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Transaction(id={self.txn_id}, sys={self.system_id}, "
            f"state={self.state.value}, first={self.first_lsn}, "
            f"last={self.last_lsn})"
        )
