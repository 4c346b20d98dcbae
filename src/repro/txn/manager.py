"""Per-system transaction table."""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.common.config import NULL_LSN
from repro.common.lsn import Lsn
from repro.txn.transaction import Transaction, TxnState

# Transaction ids embed the owning system so they are unique complex-wide
# and humans can read them: txn 3 of system 2 is 2_000_003.
_SYSTEM_STRIDE = 1_000_000


class TransactionManager:
    """Creates transactions and answers Commit_LSN queries for one system."""

    def __init__(self, system_id: int) -> None:
        self.system_id = system_id
        self._next_seq = 1
        self._txns: Dict[int, Transaction] = {}

    def begin(self) -> Transaction:
        txn_id = self.system_id * _SYSTEM_STRIDE + self._next_seq
        self._next_seq += 1
        txn = Transaction(txn_id=txn_id, system_id=self.system_id)
        self._txns[txn_id] = txn
        return txn

    def get(self, txn_id: int) -> Transaction:
        return self._txns[txn_id]

    def end(self, txn: Transaction) -> None:
        """Transaction fully finished; forget it."""
        txn.state = TxnState.ENDED
        self._txns.pop(txn.txn_id, None)

    def active(self) -> Iterator[Transaction]:
        """Every transaction not yet ended: running, rolling back, or
        lazily committed and awaiting the force that makes it durable."""
        return iter(self._txns.values())

    def active_count(self) -> int:
        return sum(1 for _ in self.active())

    def oldest_active_first_lsn(self) -> Optional[Lsn]:
        """First-record LSN of the oldest active *update* transaction.

        This is the system's contribution to the complex-wide
        Commit_LSN (Section 2, problem 4): every page whose page_LSN is
        below the minimum of these values across all systems holds only
        committed data.  ``None`` means no active update transaction.
        """
        firsts = [
            t.first_lsn for t in self.active()
            if t.first_lsn != NULL_LSN
        ]
        return min(firsts) if firsts else None

    def crash(self) -> None:
        """All volatile transaction state disappears with the system."""
        self._txns.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TransactionManager(system={self.system_id}, "
            f"live={len(self._txns)})"
        )
