"""ARIES restart recovery, adapted to the multi-system setting.

The three passes over the failed system's **local log only** — the
paper's Section 3.1 assumption (medium page-transfer scheme: a page on
disk holds dirty updates of at most one system) is precisely what makes
single-log redo correct, and this module is where that assumption pays
off.

Redo logic is untouched relative to single-system ARIES (Section 3.2.1,
"Restart Processing": redo iff ``record.LSN > page_LSN``) — that is the
paper's point: the USN scheme preserves the page-state comparison while
abandoning the address interpretation of LSNs.

This module is the one home of the restart steps every flavour is a
call sequence over (Sauer/Haerder: one per-page algorithm on different
schedules):

* :func:`_prologue` — re-seed the Lamport clock, run analysis, plan
  the per-page redo chains;
* :func:`_redo` — drain the chains, in ascending page id;
* :func:`_undo_pass` — roll the losers back with CLRs;
* :func:`_finish` — force the log and close the ``recovery.end``
  bracket.

Eager restart (:func:`restart_recovery`) runs all four; staged restart
defers undo, instant restart defers redo
(:mod:`repro.recovery.instant`), and CS client recovery feeds a
client-filtered stream to the same analysis fold and undo walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.common.config import NULL_LSN
from repro.common.lsn import Lsn
from repro.obs import events as ev
from repro.recovery.apply import compensate
from repro.recovery.redo import Chain, PendingChains, collect_local_redo, replay_to_disk
from repro.wal.records import CheckpointData, LogRecord, RecordKind

#: A redo plan: analysis DPT -> per-page chains.
RedoPlan = Callable[[Dict[int, Tuple[Lsn, int]]], Dict[int, Chain]]


@dataclass
class RestartSummary:
    """What restart recovery did (experiment E7 reports these)."""

    records_analyzed: int = 0
    records_redone: int = 0
    redo_skipped_by_lsn: int = 0
    loser_transactions: int = 0
    clrs_written: int = 0
    dirty_pages_at_crash: int = 0
    redo_scan_start: int = 0


def restart_recovery(instance, fix_page=None, unfix_page=None,
                     plan: Optional[RedoPlan] = None) -> RestartSummary:
    """Recover one failed system from its own local log.

    ``instance`` is a log owner (:class:`~repro.recovery.owner.LogOwner`:
    an SD instance, the CS server, or one replica log of a promoting
    standby).  On return, all committed updates are reflected in the
    buffer pool / disk, all loser transactions are undone with CLRs and
    closed with END records (a winner's COMMIT is its last record).

    Redo replays per-page chains straight against the shared disk
    (:mod:`repro.recovery.redo`), in ascending page id; the pool only
    sees the pages undo touches.  The chains come from the failed
    system's log alone (medium scheme, CS server) unless the caller
    passes ``plan``: under the fast transfer scheme a page lost with
    the failed buffers may carry several systems' updates, and so may
    a promoted standby's page whose unapplied chain spans replica logs,
    so the caller's plan replays the **merged** logs ([MoNa91]; the
    paper's Sections 3.2.2 and 5) and the run is labelled ``"fast"``.

    ``fix_page``/``unfix_page`` override how the **undo** pass reaches
    pages.  In the multi-system architectures they must go through the
    coherency layer: under record locking a loser's page may have
    migrated to another system after the loser's update (the page with
    its uncommitted bytes was legally written to disk and re-fetched),
    so the disk version the local pool would read can be stale —
    undoing against it would stamp a CLR LSN at or above another
    system's committed record and break per-page monotonicity.  Redo
    needs no override: the medium transfer scheme guarantees the disk
    version lacks only this system's own tail of updates.
    """
    tracer = instance.tracer
    system_id = instance.system_id
    mode = "restart" if plan is None else "fast"
    summary = RestartSummary()
    with tracer.span(ev.SPAN_RECOVERY, system=system_id, mode=mode):
        if tracer.enabled:
            tracer.emit(ev.RECOVERY_BEGIN, system=system_id, mode=mode)
        chains, losers = _prologue(instance, summary, plan)
        _redo(instance, chains, summary)
        _undo_pass(instance, losers, summary,
                   fix_page=fix_page, unfix_page=unfix_page)
        _finish(instance, summary)
    return summary


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _prologue(instance, summary: RestartSummary,
              plan: Optional[RedoPlan] = None
              ) -> Tuple[Dict[int, Chain], Dict[int, Lsn]]:
    """Clock, analysis and redo plan: the first act of every restart.

    The Lamport clock is re-seeded before any CLR can be appended.
    Returns ``(chains, losers)``; ``plan`` defaults to single-log redo.
    """
    log = instance.log
    log.recover_local_max()
    with instance.tracer.span(ev.SPAN_ANALYSIS,
                                   system=instance.system_id):
        dpt, losers = analysis_pass(log, summary)
    summary.dirty_pages_at_crash = len(dpt)
    summary.loser_transactions = len(losers)
    if dpt:
        summary.redo_scan_start = min(addr for _, addr in dpt.values())
    chains = collect_local_redo(log, dpt) if plan is None else plan(dpt)
    return chains, losers


def analysis_pass(
    log, summary: RestartSummary
) -> Tuple[Dict[int, Tuple[Lsn, int]], Dict[int, Lsn]]:
    """Rebuild the dirty page table and find loser transactions.

    Returns ``(dpt, losers)`` where dpt maps page_id -> (RecLSN,
    RecAddr) and losers maps txn_id -> last_lsn.  Analysis starts at
    the master record (the last complete checkpoint).  The transaction
    table the fold leaves *is* the loser set: a COMMIT forgets its
    transaction, as a rollback's END does.
    """
    dpt: Dict[int, Tuple[Lsn, int]] = {}
    losers: Dict[int, Lsn] = {}
    start = log.master_record_offset or 0
    summary.records_analyzed += _fold_records(
        log.scan(from_offset=start), dpt, losers)
    return dpt, losers


def _fold_records(stream: Iterable, dpt: Dict[int, Tuple[Lsn, int]],
                  txn_table: Dict[int, Lsn]) -> int:
    """Fold ``(address, record)`` pairs, in log order, into a dirty
    page table and a transaction table; returns how many were read.

    A checkpoint's tables seed entries the window has not set yet.
    """
    count = 0
    for addr, record in stream:
        count += 1
        if record.kind == RecordKind.END_CHECKPOINT:
            data = CheckpointData.from_bytes(record.extra)
            for page_id, entry in data.dirty_pages.items():
                dpt.setdefault(page_id, entry)
            for txn_id, last_lsn in data.transactions.items():
                txn_table.setdefault(txn_id, last_lsn)
            continue
        _fold_txn(txn_table, record)
        if record.is_page_oriented():
            dpt.setdefault(record.page_id, (record.lsn, addr.offset))
    return count


def _fold_txn(txn_table: Dict[int, Lsn], record: LogRecord) -> None:
    """One record's effect on a transaction table (txn -> last LSN):
    COMMIT and END forget the transaction, anything else advances its
    last LSN.  What stays in the table has neither: it is a loser."""
    txn_id = record.txn_id
    if not txn_id:
        return
    kind = record.kind
    if kind == RecordKind.COMMIT or kind == RecordKind.END:
        txn_table.pop(txn_id, None)
    else:
        txn_table[txn_id] = record.lsn


# ----------------------------------------------------------------------
# redo — repeating history
# ----------------------------------------------------------------------
def _redo(instance, chains: Dict[int, Chain],
          summary: RestartSummary) -> None:
    """The eager schedule: every chain, in ascending page id."""
    with instance.tracer.span(ev.SPAN_REDO, system=instance.system_id):
        PendingChains(
            lambda page_id, records, _via: replay_to_disk(
                instance, page_id, records, summary),
            chains).drain()


# ----------------------------------------------------------------------
# undo — rollback of losers with CLRs
# ----------------------------------------------------------------------
def _undo_pass(instance, losers: Dict[int, Lsn], summary,
               fix_page=None, unfix_page=None,
               window_start: Optional[int] = None) -> None:
    """Roll back ``losers`` (txn -> last LSN), newest record first.

    ``summary`` needs ``clrs_written``.  Records are resolved through
    an index of the losers' records in the analysed window, keyed by
    ``(txn, LSN)``: the USN rule makes LSNs unique per page, not per
    log — in the CS server log two clients' records for different
    pages may carry the same LSN (Sections 1.5, 3.1).  The window is
    ``window_start`` (CS client recovery passes its own) or the
    checkpoint.  A loser already active at the checkpoint has older
    records; the index widens once, to the whole active log, when a
    chain first leaves the window.  The archive-truncation rule keeps
    every active transaction's records on the active log.
    """
    with instance.tracer.span(ev.SPAN_UNDO, system=instance.system_id):
        if not losers:
            return
        log = instance.log
        if window_start is None:
            window_start = max(log.archived_offset,
                               log.master_record_offset or 0)
        index = _index_losers(log, losers, window_start)
        widened = window_start == log.archived_offset
        next_undo: Dict[int, Lsn] = dict(losers)
        last_lsn: Dict[int, Lsn] = dict(losers)
        while next_undo:
            txn_id = max(next_undo, key=lambda t: next_undo[t])
            lsn = next_undo[txn_id]
            record = index.get((txn_id, lsn))
            if record is None and lsn != NULL_LSN and not widened:
                index = _index_losers(log, losers, log.archived_offset)
                widened = True
                record = index.get((txn_id, lsn))
            if record is None or lsn == NULL_LSN:
                follow = NULL_LSN
            elif record.kind == RecordKind.CLR:
                follow = record.undo_next_lsn
            else:
                if record.is_undoable():
                    last_lsn[txn_id] = _compensate(
                        instance, txn_id, record, last_lsn[txn_id],
                        fix_page=fix_page, unfix_page=unfix_page)
                    summary.clrs_written += 1
                follow = record.prev_lsn
            if follow == NULL_LSN:
                log.append(LogRecord(kind=RecordKind.END, txn_id=txn_id,
                                     prev_lsn=last_lsn[txn_id]))
                del next_undo[txn_id]
            else:
                next_undo[txn_id] = follow


def _index_losers(log, losers: Dict[int, Lsn],
                  start: int) -> Dict[Tuple[int, Lsn], LogRecord]:
    """The losers' records from offset ``start`` on, by ``(txn_id, lsn)``."""
    index: Dict[Tuple[int, Lsn], LogRecord] = {}
    for _, record in log.scan(from_offset=start):
        if record.txn_id in losers:
            index[record.txn_id, record.lsn] = record
    return index


def _compensate(instance, txn_id: int, record: LogRecord,
                prev_lsn: Lsn, fix_page=None, unfix_page=None) -> Lsn:
    """Undo one update, logging the CLR first (so the rollback itself
    survives a crash-during-restart).

    ``fix_page``/``unfix_page`` default to the instance's own pool; the
    multi-system callers pass coherency-mediated (SD) or recalling (CS)
    accessors because a loser's page may live in another system's
    buffer.
    """
    pool = instance.pool
    page = (fix_page or pool.fix)(record.page_id)
    try:
        clr, addr, page_lsn_prev = compensate(instance.log, page, record,
                                              txn_id, prev_lsn)
        pool.note_update(record.page_id, clr.lsn, addr.offset,
                         instance.log.end_offset)
        tracer = instance.tracer
        if tracer.enabled:
            tracer.emit(
                ev.RECOVERY_CLR, system=instance.system_id,
                page=record.page_id, txn=txn_id, lsn=int(clr.lsn),
                page_lsn_prev=int(page_lsn_prev),
            )
        return clr.lsn
    finally:
        (unfix_page or pool.unfix)(record.page_id)


# ----------------------------------------------------------------------
# finish
# ----------------------------------------------------------------------
def _finish(instance, summary) -> None:
    """Force the CLRs and END records, then close the recovery bracket
    (``summary`` needs the redo/skip/loser/CLR counts)."""
    instance.log.force()
    tracer = instance.tracer
    if tracer.enabled:
        tracer.emit(
            ev.RECOVERY_END, system=instance.system_id,
            redone=summary.records_redone,
            skipped=summary.redo_skipped_by_lsn,
            losers=summary.loser_transactions,
            clrs=summary.clrs_written,
        )
