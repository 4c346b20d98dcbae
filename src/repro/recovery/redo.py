"""The one redo kernel: per-page chains, one page_LSN test.

Redo order only matters *within* a page — the page_LSN test and
``apply_redo`` touch nothing but the page image and the record — so
every recovery flavour is the same algorithm at a different schedule
(Sauer/Haerder): gather each page's redo candidates in log order (a
*chain*), then replay chain by chain.  This module holds the four
pieces they share:

* :func:`redo_chain` — the Section 3.2.1 rule, apply iff
  ``record.LSN > page_LSN``.  It is the only place in ``src/repro``
  that makes that comparison (the trace checker re-derives it from
  events) and the only reader of the chaos self-test's sabotage seam.
* :func:`collect_local_redo` / :func:`collect_merged_redo` — the two
  chain sources: one log bounded by the dirty page table's RecAddr
  (medium transfer scheme, CS server, CS client recovery), or the
  LSN-merged local logs filtered to a target set (fast scheme, media
  recovery, reconstruction behind a crashed owner, standby promote).
* :func:`replay_to_disk` — one chain against the shared disk: eager
  restart runs it over every page in ascending page id, instant
  restart on first touch or from the sweeper.
* :func:`trace_outcome` — the ``RECOVERY_REDO`` / ``RECOVERY_SKIP``
  events of one replayed chain, for every caller of
  :func:`redo_chain` (the standby's steady-state apply and CS client
  recovery included).

WAL holds throughout: a chain read from a post-crash log is stable, so
writing a chain-applied image needs no log force first.  Callers whose
log is still live (CS client recovery) replay into the buffer pool
instead and ``note_update`` each applied record from its chain offset.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Collection,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.common.lsn import Lsn
from repro.common.stats import StatsRegistry
from repro.obs import events as ev
from repro.obs.tracer import NullTracer
from repro.recovery.apply import apply_redo
from repro.storage.page import Page
from repro.wal.records import LogRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.recovery.aries import RestartSummary
    from repro.wal.log_manager import LogManager


class Chain(NamedTuple):
    """One page's redo candidates in log order, with each record's
    offset in the log it was read from (parallel lists)."""

    offsets: List[int]
    records: List[LogRecord]


# Deliberate-breakage seam for the chaos campaign's self-test: with
# redo screening disabled, redo re-applies records already reflected in
# the page (double-apply), which the verifier/invariant checker must
# catch — proving the campaign can actually fail.  Never set outside
# ``repro.faults.campaign.sabotage_redo_screening``.
_SABOTAGE_DISABLE_REDO_SCREENING = False


def redo_chain(page: Page,
               records: Iterable[LogRecord]) -> List[Tuple[bool, Lsn]]:
    """Replay ``records`` (one page's, in log order) against ``page``.

    Returns, per record, ``(applied, page_lsn_seen)`` — whether the
    record was redone and the page_LSN it was compared with (the
    ``page_lsn_prev`` of a redo, the unchanged ``page_lsn`` of a
    skip).  Counters, trace events, ``note_update`` and write-back stay
    with the caller.
    """
    sabotage = _SABOTAGE_DISABLE_REDO_SCREENING
    outcome: List[Tuple[bool, Lsn]] = []
    for record in records:
        page_lsn = page.page_lsn
        applied = sabotage or record.lsn > page_lsn
        if applied:
            apply_redo(page, record)
        outcome.append((applied, page_lsn))
    return outcome


def trace_outcome(tracer: NullTracer, system_id: int, page_id: int,
                  records: Iterable[LogRecord],
                  outcome: List[Tuple[bool, Lsn]],
                  skips: bool = True) -> None:
    """Emit :func:`redo_chain`'s outcome: a ``RECOVERY_REDO`` per
    applied record and, unless ``skips`` is off, a ``RECOVERY_SKIP``
    per screened one, in chain order."""
    for record, (applied, seen) in zip(records, outcome):
        if applied:
            tracer.emit(ev.RECOVERY_REDO, system=system_id, page=page_id,
                        lsn=int(record.lsn), page_lsn_prev=int(seen))
        elif skips:
            tracer.emit(ev.RECOVERY_SKIP, system=system_id, page=page_id,
                        lsn=int(record.lsn), page_lsn=int(seen))


def _add(chains: Dict[int, Chain], offset: int, record: LogRecord) -> None:
    chain = chains.get(record.page_id)
    if chain is None:
        chain = chains[record.page_id] = Chain([], [])
    chain.offsets.append(offset)
    chain.records.append(record)


def collect_local_redo(
    log: "LogManager", dpt: Dict[int, Tuple[Lsn, int]]
) -> Dict[int, Chain]:
    """Chains for single-log redo: pages in the DPT, records at or
    after the page's RecAddr (earlier ones reached disk).  The scan
    starts at the smallest RecAddr; an empty DPT reads nothing."""
    chains: Dict[int, Chain] = {}
    if not dpt:
        return chains
    redo_start = min(rec_addr for _, rec_addr in dpt.values())
    for addr, record in log.scan(from_offset=redo_start):
        if not record.is_page_oriented():
            continue
        entry = dpt.get(record.page_id)
        if entry is None or addr.offset < entry[1]:
            continue
        _add(chains, addr.offset, record)
    return chains


def collect_merged_redo(
    all_logs: Iterable["LogManager"],
    targets: Collection[int],
    stats: Optional[StatsRegistry] = None,
    from_offsets: Optional[Dict[int, int]] = None,
) -> Dict[int, Chain]:
    """Chains for merged-log redo: the deterministic k-way merge by
    LSN alone, filtered to ``targets``.  Equal LSNs from different logs
    describe different pages, so each chain is strictly increasing."""
    from repro.wal.merge import merge_local_logs

    chains: Dict[int, Chain] = {}
    for addr, record in merge_local_logs(all_logs, stats=stats,
                                         from_offsets=from_offsets):
        if record.page_id in targets:
            _add(chains, addr.offset, record)
    return chains


def replay_to_disk(instance, page_id: int, chain: Chain,
                   summary: "RestartSummary") -> Tuple[int, int]:
    """Apply ``chain`` to ``page_id``'s disk image; returns ``(redone,
    skipped)`` and folds both into ``summary``.

    The image is read as a copy-on-write view, so a chain that screens
    out entirely copies nothing and leaves the page unwritten.
    ``instance`` is the recovering log owner.
    """
    disk = instance.pool.disk
    page = disk.read_page_view(page_id)
    outcome = redo_chain(page, chain.records)
    redone = sum(applied for applied, _ in outcome)
    skipped = len(outcome) - redone
    if redone:
        disk.write_page(page)
    tracer = instance.tracer
    if tracer.enabled:
        trace_outcome(tracer, instance.system_id, page_id, chain.records,
                      outcome)
    summary.records_redone += redone
    summary.redo_skipped_by_lsn += skipped
    return redone, skipped


def replay_chains(instance, chains: Dict[int, Chain],
                  summary: "RestartSummary") -> None:
    """The eager schedule: every chain, in ascending page id."""
    for page_id in sorted(chains):
        replay_to_disk(instance, page_id, chains[page_id], summary)
