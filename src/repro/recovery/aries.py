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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.config import NULL_LSN
from repro.common.lsn import Lsn
from repro.obs import events as ev
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.recovery.apply import apply_payload
from repro.recovery.redo import (
    collect_local_redo,
    collect_merged_redo,
    replay_chains,
)
from repro.txn.transaction import Transaction
from repro.wal.records import (
    CheckpointData,
    LogRecord,
    RecordKind,
    make_clr,
)

_COMMITTED = 1
_ACTIVE = 0


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


def _tracer_of(instance) -> NullTracer:
    """The instance's tracer (instances are duck-typed here)."""
    return getattr(instance, "tracer", NULL_TRACER)


def restart_recovery(instance, fix_page=None,
                     unfix_page=None) -> RestartSummary:
    """Recover one failed system from its own local log.

    ``instance`` is duck-typed: it needs ``log``, ``pool`` and
    ``system_id``.  On return, all committed updates are reflected in
    the buffer pool / disk, all loser transactions are undone with CLRs
    and closed with END records.

    Redo replays per-page chains straight against the shared disk
    (:mod:`repro.recovery.redo`), in ascending page id; the pool only
    sees the pages undo touches.

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
    log = instance.log
    tracer = _tracer_of(instance)
    system_id = instance.system_id
    summary = RestartSummary()
    with tracer.span(ev.SPAN_RECOVERY, system=system_id, mode="restart"):
        if tracer.enabled:
            tracer.emit(ev.RECOVERY_BEGIN, system=system_id,
                        mode="restart")
        # The Lamport clock must be re-seeded before any CLR is appended.
        log.recover_local_max()

        with tracer.span(ev.SPAN_ANALYSIS, system=system_id):
            dpt, losers = analysis_pass(log, summary)
        summary.dirty_pages_at_crash = len(dpt)
        summary.loser_transactions = len(losers)
        with tracer.span(ev.SPAN_REDO, system=system_id):
            _redo_pass(instance, dpt, summary)
        with tracer.span(ev.SPAN_UNDO, system=system_id):
            _undo_pass(instance, losers, summary,
                       fix_page=fix_page, unfix_page=unfix_page)
        log.force()
        if tracer.enabled:
            tracer.emit(
                ev.RECOVERY_END, system=system_id,
                redone=summary.records_redone,
                skipped=summary.redo_skipped_by_lsn,
                losers=summary.loser_transactions,
                clrs=summary.clrs_written,
            )
    return summary


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def analysis_pass(
    log, summary: RestartSummary
) -> Tuple[Dict[int, Tuple[Lsn, int]], Dict[int, Lsn]]:
    """Rebuild the dirty page table and find loser transactions.

    Returns ``(dpt, losers)`` where dpt maps page_id -> (RecLSN,
    RecAddr) and losers maps txn_id -> last_lsn.

    Public because it is the shared first act of every restart
    flavour: classic eager recovery here, staged restart
    (:mod:`repro.recovery.staged`) and instant restart
    (:mod:`repro.recovery.instant`) both run exactly this pass and
    then diverge in *when* redo work happens.
    """
    dpt: Dict[int, Tuple[Lsn, int]] = {}
    txn_table: Dict[int, Tuple[Lsn, int]] = {}  # txn -> (last_lsn, state)
    start = log.master_record_offset or 0
    for addr, record in log.scan(from_offset=start):
        summary.records_analyzed += 1
        if record.kind == RecordKind.END_CHECKPOINT:
            data = CheckpointData.from_bytes(record.extra)
            for page_id, entry in data.dirty_pages.items():
                dpt.setdefault(page_id, entry)
            for txn_id, entry in data.transactions.items():
                txn_table.setdefault(txn_id, entry)
            continue
        if record.txn_id:
            if record.kind == RecordKind.END:
                txn_table.pop(record.txn_id, None)
            elif record.kind == RecordKind.COMMIT:
                txn_table[record.txn_id] = (record.lsn, _COMMITTED)
            else:
                prior_state = txn_table.get(record.txn_id, (0, _ACTIVE))[1]
                txn_table[record.txn_id] = (record.lsn, prior_state)
        if record.is_page_oriented():
            dpt.setdefault(record.page_id, (record.lsn, addr.offset))
    losers = {
        txn_id: last_lsn
        for txn_id, (last_lsn, state) in txn_table.items()
        if state != _COMMITTED
    }
    return dpt, losers


# ----------------------------------------------------------------------
# redo — repeating history
# ----------------------------------------------------------------------
def _redo_pass(instance, dpt: Dict[int, Tuple[Lsn, int]],
               summary: RestartSummary) -> None:
    if not dpt:
        return
    redo_start = min(rec_addr for _, rec_addr in dpt.values())
    summary.redo_scan_start = redo_start
    replay_chains(instance,
                  collect_local_redo(instance.log, dpt, redo_start),
                  summary)


# ----------------------------------------------------------------------
# fast-scheme restart: merged-log redo (the paper's Section 5 extension)
# ----------------------------------------------------------------------
def fast_restart_recovery(
    instance,
    all_logs,
    candidate_pages,
    skip_page_ids=(),
    fix_page=None,
    unfix_page=None,
) -> RestartSummary:
    """Restart recovery under the fast page-transfer scheme.

    With memory-to-memory dirty-page transfer, a page lost with the
    failed system's buffers may carry updates from *several* systems
    that never reached disk, so redo must replay the **merged** local
    logs ([MoNa91]; the paper's Section 5: schemes that "rely on a
    realtime merged log").  Redo targets are ``candidate_pages`` (the
    failed system's dirty-page table plus its retained page ownership);
    ``skip_page_ids`` are pages whose current version is safe in a live
    system's buffer pool and therefore needs no reconstruction.

    Undo still uses only the failed system's own log — transactions are
    local — but applies through ``fix_page``/``unfix_page`` (usually
    coherency-mediated), because a loser's page may by now live in
    another system's pool.
    """
    log = instance.log
    tracer = _tracer_of(instance)
    system_id = instance.system_id
    summary = RestartSummary()
    with tracer.span(ev.SPAN_RECOVERY, system=system_id, mode="fast"):
        if tracer.enabled:
            tracer.emit(ev.RECOVERY_BEGIN, system=system_id, mode="fast")
        log.recover_local_max()
        with tracer.span(ev.SPAN_ANALYSIS, system=system_id):
            dpt, losers = analysis_pass(log, summary)
        summary.dirty_pages_at_crash = len(dpt)
        summary.loser_transactions = len(losers)

        targets = (set(dpt) | set(candidate_pages)) - set(skip_page_ids)
        with tracer.span(ev.SPAN_REDO, system=system_id):
            if targets:
                replay_chains(instance,
                              collect_merged_redo(all_logs, targets),
                              summary)
        with tracer.span(ev.SPAN_UNDO, system=system_id):
            _undo_pass(instance, losers, summary,
                       fix_page=fix_page, unfix_page=unfix_page)
        log.force()
        if tracer.enabled:
            tracer.emit(
                ev.RECOVERY_END, system=system_id,
                redone=summary.records_redone,
                skipped=summary.redo_skipped_by_lsn,
                losers=summary.loser_transactions,
                clrs=summary.clrs_written,
            )
    return summary


# ----------------------------------------------------------------------
# undo — rollback of losers with CLRs
# ----------------------------------------------------------------------
def _undo_pass(instance, losers: Dict[int, Lsn],
               summary: RestartSummary,
               fix_page=None, unfix_page=None) -> None:
    if not losers:
        return
    log = instance.log
    # Index the losers' records in the analysed window (checkpoint ->
    # end of log), keyed by (txn, LSN): the USN rule makes LSNs unique
    # per page, not per log — in the CS server log two clients' records
    # for different pages may carry the same LSN (Sections 1.5, 3.1).
    # A loser already active at the checkpoint has older records; the
    # index widens once, to the whole active log, when a chain first
    # leaves the window.  The archive-truncation rule keeps every
    # active transaction's records on the active log.
    window_start = max(log.archived_offset, log.master_record_offset or 0)
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
            _finish_loser(instance, txn_id, last_lsn[txn_id])
            del next_undo[txn_id]
            continue
        if record.kind == RecordKind.CLR:
            follow = record.undo_next_lsn
        elif record.is_undoable():
            clr_lsn = _compensate(instance, txn_id, record,
                                  last_lsn[txn_id],
                                  fix_page=fix_page, unfix_page=unfix_page)
            last_lsn[txn_id] = clr_lsn
            summary.clrs_written += 1
            follow = record.prev_lsn
        else:
            follow = record.prev_lsn
        if follow == NULL_LSN:
            _finish_loser(instance, txn_id, last_lsn[txn_id])
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
    fast-transfer restart path passes coherency-mediated accessors
    because a loser's page may live in another system's buffer.
    """
    log = instance.log
    pool = instance.pool
    if fix_page is None:
        fix_page = pool.fix
    if unfix_page is None:
        unfix_page = pool.unfix
    page = fix_page(record.page_id)
    try:
        clr = make_clr(
            txn_id=txn_id, system_id=instance.system_id,
            page_id=record.page_id, slot=record.slot,
            redo=record.undo, undo_next_lsn=record.prev_lsn,
            prev_lsn=prev_lsn,
        )
        page_lsn_prev = page.page_lsn
        addr = log.append(clr, page_lsn=page_lsn_prev)
        apply_payload(page, record.slot, record.undo, clr.lsn)
        pool.note_update(record.page_id, clr.lsn, addr.offset,
                         log.end_offset)
        tracer = _tracer_of(instance)
        if tracer.enabled:
            tracer.emit(
                ev.RECOVERY_CLR, system=instance.system_id,
                page=record.page_id, txn=txn_id, lsn=int(clr.lsn),
                page_lsn_prev=int(page_lsn_prev),
            )
        return clr.lsn
    finally:
        unfix_page(record.page_id)


def _finish_loser(instance, txn_id: int, prev_lsn: Lsn) -> None:
    end = LogRecord(kind=RecordKind.END, txn_id=txn_id, prev_lsn=prev_lsn)
    instance.log.append(end)


# ----------------------------------------------------------------------
# normal-processing rollback entry point (re-exported convenience)
# ----------------------------------------------------------------------
def rollback_transaction(instance, txn: Transaction,
                         to_savepoint: Optional[str] = None) -> None:
    """Roll back a live transaction (delegates to the instance)."""
    instance.rollback(txn, to_savepoint=to_savepoint)
