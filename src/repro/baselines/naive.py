"""The naive scheme: LSN = local log address, per system, independently.

This is how a single-system WAL DBMS (DB2 of the era) assigns LSNs, and
Section 1.5 of the paper shows exactly how it corrupts recovery in SD:
a page updated in system S2 (whose log has grown long) carries a large
page_LSN to disk; a later committed update in S1 (short log) gets a
*smaller* LSN; if S1 then crashes before writing the page, restart redo
compares ``record.LSN (small) > page_LSN (large)?`` — no — and skips a
committed update.

:class:`NaiveDbmsInstance` is a drop-in :class:`~repro.sd.instance.
DbmsInstance` whose log manager ignores the page_LSN hint and remote
maxima; everything else (coherency, locking, ARIES) is identical, so
experiment E1 isolates the LSN-assignment rule as the only variable.
"""

from __future__ import annotations

from repro.common.lsn import LogAddress, Lsn
from repro.obs import events as ev
from repro.sd.instance import DbmsInstance
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord


class NaiveLogManager(LogManager):
    """Assigns ``LSN = logical address of the record + 1``.

    Monotonic within this log (that much the paper grants the naive
    scheme) but unrelated to the LSNs other systems assign.
    """

    def append(self, record: LogRecord, page_lsn: Lsn = 0) -> LogAddress:
        # The naive scheme has no use for the page_LSN hint.
        record.lsn = self.end_offset + 1
        record.system_id = self.system_id
        self.local_max_lsn = record.lsn
        offset = self._append_bytes(record.to_bytes())
        if self.tracer.enabled:
            self.tracer.emit(
                ev.LOG_APPEND, system=self.system_id, lsn=int(record.lsn),
                kind=record.kind.name, txn=record.txn_id,
                page=record.page_id, offset=offset,
            )
        return LogAddress(self.system_id, offset)

    def observe_remote_max(self, remote_max_lsn: Lsn) -> None:
        """Naive systems do not exchange LSN maxima."""

    def recover_local_max(self) -> Lsn:
        self.local_max_lsn = 0
        for _, record in self.scan():
            self.local_max_lsn = max(self.local_max_lsn, record.lsn)
        return self.local_max_lsn


class NaiveDbmsInstance(DbmsInstance):
    """A DBMS instance wired to the naive log manager."""

    def __init__(self, system_id, sd_complex, **kwargs) -> None:
        super().__init__(system_id, sd_complex, **kwargs)
        naive = NaiveLogManager(system_id, self.seams)
        self.log = naive
        self.pool.log = naive
