"""Merging local logs for media recovery.

Under the paper's USN scheme every local log is internally sorted by
LSN (the assignment rule makes LSNs strictly increasing within a
system, *across records for different pages*).  Media recovery can
therefore k-way merge the local logs **comparing only the LSN field**
(Section 3.2.2).  Ties between records from different logs are allowed:
equal LSNs can only belong to different pages — per-page monotonicity
across the complex guarantees it — so the merge may emit them in either
order.

Lomet's baseline scheme gives each *page* a private LSN sequence, so a
local log is not sorted by LSN at all; the merge "requires that both
the page number field and the LSN field of the log records be compared"
(Section 4.2).  :func:`lomet_merge` implements that: a per-page k-way
merge keyed by ``(page_id, LSN)``.

Both functions count key comparisons into a
:class:`~repro.common.stats.StatsRegistry` so experiment E3 can report
the cost difference.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.lsn import LogAddress
from repro.common.stats import MERGE_COMPARISONS, StatsRegistry
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord


class _LsnKey:
    """Heap key comparing LSNs only, counting every comparison."""

    __slots__ = ("lsn", "stats")

    def __init__(self, lsn: int, stats: StatsRegistry) -> None:
        self.lsn = lsn
        self.stats = stats

    def __lt__(self, other: "_LsnKey") -> bool:
        self.stats.incr(MERGE_COMPARISONS)
        return self.lsn < other.lsn


class _PageLsnKey:
    """Heap key comparing (page_id, LSN) — Lomet's merge key.

    Each field comparison is counted separately: the paper's complaint
    is precisely that two fields must be examined.
    """

    __slots__ = ("page_id", "lsn", "stats")

    def __init__(self, page_id: int, lsn: int, stats: StatsRegistry) -> None:
        self.page_id = page_id
        self.lsn = lsn
        self.stats = stats

    def __lt__(self, other: "_PageLsnKey") -> bool:
        self.stats.incr(MERGE_COMPARISONS)
        if self.page_id != other.page_id:
            return self.page_id < other.page_id
        self.stats.incr(MERGE_COMPARISONS)
        return self.lsn < other.lsn


MergedEntry = Tuple[LogAddress, LogRecord]


def _log_streams(
    logs: Iterable[LogManager],
    from_offsets: Optional[Dict[int, int]] = None,
    stable_only: bool = False,
) -> List[Iterator[MergedEntry]]:
    streams: List[Iterator[MergedEntry]] = []
    for log in logs:
        start = 0
        if from_offsets is not None:
            start = from_offsets.get(log.system_id, 0)
        streams.append(
            log.scan(from_offset=start, include_unflushed=not stable_only)
        )
    return streams


def merge_local_logs(
    logs: Iterable[LogManager],
    stats: Optional[StatsRegistry] = None,
    from_offsets: Optional[Dict[int, int]] = None,
    stable_only: bool = False,
) -> Iterator[MergedEntry]:
    """k-way merge of USN local logs by LSN alone.

    Yields ``(address, record)`` in globally non-decreasing LSN order.
    ``from_offsets`` optionally maps system_id -> starting byte offset
    (e.g. the image-copy boundary) to shorten the scan.  With
    ``stable_only`` each scan stops at its log's flushed boundary —
    the log shipper's mode: only forced records may leave the primary,
    otherwise a standby could hold records the primary loses in a
    crash.
    """
    stats = stats if stats is not None else StatsRegistry()
    heap: List[Tuple[_LsnKey, int, MergedEntry, Iterator[MergedEntry]]] = []
    streams = _log_streams(logs, from_offsets, stable_only=stable_only)
    for tiebreak, stream in enumerate(streams):
        entry = next(stream, None)
        if entry is not None:
            heapq.heappush(
                heap, (_LsnKey(entry[1].lsn, stats), tiebreak, entry, stream)
            )
    while heap:
        _, tiebreak, entry, stream = heapq.heappop(heap)
        yield entry
        nxt = next(stream, None)
        if nxt is not None:
            heapq.heappush(
                heap, (_LsnKey(nxt[1].lsn, stats), tiebreak, nxt, stream)
            )


def lomet_merge(
    logs: Iterable[LogManager],
    stats: Optional[StatsRegistry] = None,
    from_offsets: Optional[Dict[int, int]] = None,
) -> Iterator[MergedEntry]:
    """Merge for the Lomet baseline: keyed by ``(page_id, LSN)``.

    Local logs are *not* LSN-sorted under Lomet's scheme (each page has
    its own 1,2,3,... sequence), so a streaming heap over the raw logs
    would be incorrect.  Instead the merge must first demultiplex each
    log into per-page runs (which are individually ordered) and then
    k-way merge the runs.  The demultiplexing pass is part of what makes
    the scheme costly; we charge one comparison per record routed.
    """
    stats = stats if stats is not None else StatsRegistry()
    runs: Dict[int, List[MergedEntry]] = {}
    for stream in _log_streams(logs, from_offsets):
        for entry in stream:
            page_id = entry[1].page_id
            stats.incr(MERGE_COMPARISONS)  # routing by page number
            runs.setdefault(page_id, []).append(entry)
    heap: List[Tuple[_PageLsnKey, int, int]] = []
    cursors: List[List[MergedEntry]] = []
    # Each per-(log, page) run stays internally ordered; rebuild runs
    # per (page, source) so the heap only ever compares run heads.
    per_source_runs: List[List[MergedEntry]] = []
    for page_id in sorted(runs):
        by_source: Dict[int, List[MergedEntry]] = {}
        for entry in runs[page_id]:
            by_source.setdefault(entry[0].system_id, []).append(entry)
        per_source_runs.extend(by_source.values())
    for idx, run in enumerate(per_source_runs):
        cursors.append(run)
        head = run[0][1]
        heapq.heappush(heap, (_PageLsnKey(head.page_id, head.lsn, stats), idx, 0))
    while heap:
        _, idx, pos = heapq.heappop(heap)
        entry = cursors[idx][pos]
        yield entry
        if pos + 1 < len(cursors[idx]):
            nxt = cursors[idx][pos + 1][1]
            heapq.heappush(
                heap, (_PageLsnKey(nxt.page_id, nxt.lsn, stats), idx, pos + 1)
            )

