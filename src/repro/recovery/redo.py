"""The one redo kernel: per-page chains, one page_LSN test.

Redo order only matters *within* a page — the page_LSN test and
``apply_redo`` touch nothing but the page image and the record — so
every recovery flavour is the same algorithm at a different schedule
(Sauer/Haerder): gather each page's redo candidates in log order (a
*chain*), hold them, then apply chain by chain on the flavour's
schedule.  This module holds the five pieces they share:

* :func:`redo_chain` — the Section 3.2.1 rule, apply iff
  ``record.LSN > page_LSN``.  It is the only place in ``src/repro``
  that makes that comparison (the trace checker re-derives it from
  events) and the only reader of the chaos self-test's sabotage seam.
* :func:`collect_local_redo` / :func:`collect_merged_redo` — the two
  chain sources: one log bounded by the dirty page table's RecAddr
  (medium transfer scheme, CS server, CS client recovery), or the
  LSN-merged local logs filtered to a target set (fast scheme, media
  recovery, reconstruction behind a crashed owner, standby promote).
* :class:`PendingChains` — the one set of chains waiting to be
  applied, and the schedules over it: ``drain()`` (eager restart,
  the standby after a force, media recovery), ``recover(page)`` on
  first touch and ``sweep(k)`` (instant restart).
* :func:`replay_to_disk` — the restart apply step: one chain against
  the shared disk.
* :func:`trace_outcome` — the ``RECOVERY_REDO`` / ``RECOVERY_SKIP``
  events of one replayed chain, for every caller of
  :func:`redo_chain` (the standby's apply and CS client recovery
  included).

WAL holds throughout: a chain read from a post-crash log is stable, so
writing a chain-applied image needs no log force first.  Callers whose
log is still live (CS client recovery) replay into the buffer pool
instead and ``note_update`` each applied record from its chain offset.
"""

from __future__ import annotations

from itertools import islice
from typing import (
    TYPE_CHECKING,
    Callable,
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


def replay_to_disk(instance, page_id: int, records: List[LogRecord],
                   summary: "RestartSummary") -> Tuple[int, int]:
    """Apply ``records`` (``page_id``'s chain) to the page's disk
    image; returns ``(redone, skipped)`` and folds both into
    ``summary``.

    The image is read as a copy-on-write view, so a chain that screens
    out entirely copies nothing and leaves the page unwritten.
    ``instance`` is the recovering log owner.
    """
    disk = instance.pool.disk
    page = disk.read_page_view(page_id)
    outcome = redo_chain(page, records)
    redone = sum(applied for applied, _ in outcome)
    skipped = len(outcome) - redone
    if redone:
        disk.write_page(page)
    tracer = instance.tracer
    if tracer.enabled:
        trace_outcome(tracer, instance.system_id, page_id, records, outcome)
    summary.records_redone += redone
    summary.redo_skipped_by_lsn += skipped
    return redone, skipped


class PendingChains:
    """Per-page chains waiting for their apply step: page -> records
    in log order, kept in insertion order.

    Every schedule drains this one set with the step it was built
    with, ``apply(page_id, records, via)``, where ``via`` names the
    schedule that reached the page (``"demand"`` or ``"sweep"``).
    Eager restart drains it right after analysis; instant restart
    recovers a page on first touch and sweeps the rest; the standby
    adds each absorbed run and drains after the force; media recovery
    drains it over the restored images.

    ``chains`` (a plan's ``page -> Chain``) are inserted in ascending
    page id, so a sweep takes pages in that order without sorting;
    pages that :meth:`add` brings queue behind them in arrival order.
    A chain leaves the set only after its apply returns, so an apply
    that raises leaves the page pending for a retry.  ``on_drained``
    runs whenever an apply empties the set.
    """

    def __init__(self, apply: Callable[[int, List[LogRecord], str], object],
                 chains: Optional[Dict[int, Chain]] = None,
                 on_drained: Optional[Callable[[], None]] = None) -> None:
        self._apply = apply
        self._chains: Dict[int, List[LogRecord]] = {
            page_id: chains[page_id].records
            for page_id in sorted(chains or ())}
        self.on_drained = on_drained
        #: Records added since the set was last empty.
        self.added = 0

    def __len__(self) -> int:
        return len(self._chains)

    def pages(self) -> List[int]:
        """The pending pages, in insertion order."""
        return list(self._chains)

    def add(self, records: List[LogRecord]) -> None:
        """Append page-oriented ``records``, in log order, to their
        pages' chains."""
        chains = self._chains
        for record in records:
            chains.setdefault(record.page_id, []).append(record)
        self.added += len(records)

    def recover(self, page_id: int, via: str = "demand") -> bool:
        """Apply ``page_id``'s chain if it is pending; returns whether
        it was."""
        return page_id in self._chains and self._run([page_id], via) > 0

    def sweep(self, k: int) -> int:
        """Apply the next ``k`` chains in insertion order; returns how
        many were applied."""
        return self._run(list(islice(self._chains, k)), "sweep")

    def drain(self) -> int:
        """Apply every pending chain; returns how many were applied."""
        return self._run(list(self._chains), "sweep")

    def _run(self, pages: List[int], via: str) -> int:
        chains = self._chains
        for page_id in pages:
            self._apply(page_id, chains[page_id], via)
            del chains[page_id]
        if pages and not chains:
            self.added = 0
            if self.on_drained is not None:
                self.on_drained()
        return len(pages)
