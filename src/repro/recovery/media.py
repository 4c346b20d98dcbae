"""Media recovery: image copy + merged-log redo (Section 3.2.2).

When a disk page is unreadable, the page is rebuilt by restoring its
last image copy and redoing, in complex-wide LSN order, every log
record written for it since — across **all** the local logs, merged by
comparing LSNs only (the simplification the USN scheme buys; contrast
with :func:`repro.wal.merge.lomet_merge`).

Records with equal LSNs from different logs can be emitted in either
order because they necessarily describe different pages (per-page
monotonicity); for a single page's recovery the filtered stream is
strictly increasing.

One body serves both entry points: restore the images, build their
chains with :func:`~repro.recovery.redo.collect_merged_redo`, drain
them through a :class:`~repro.recovery.redo.PendingChains` whose apply
step is :func:`~repro.recovery.redo.redo_chain` on the restored image,
write the images back.  A single page starts its scan at the image
copy's dump offsets when it can; the database path scans from the
start of every log, the cost experiment E9 measures.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.common.stats import StatsRegistry
from repro.obs import events as ev
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.recovery.redo import PendingChains, collect_merged_redo, redo_chain
from repro.storage.disk import SharedDisk
from repro.storage.image_copy import ImageCopy
from repro.storage.page import Page, PageType
from repro.wal.log_manager import LogManager


def recover_page_from_media(
    page_id: int,
    image_copy: Optional[ImageCopy],
    logs: Iterable[LogManager],
    disk: Optional[SharedDisk] = None,
    stats: Optional[StatsRegistry] = None,
    use_dump_offsets: bool = True,
    tracer: Optional[NullTracer] = None,
) -> Page:
    """Rebuild ``page_id`` from its image copy and the merged logs.

    If ``disk`` is given, the recovered page is written back (clearing
    any simulated media failure for that page).  When the image copy
    recorded per-log offsets at dump time, the merge scan starts there
    (``use_dump_offsets=False`` forces a full scan, e.g. for pages born
    after the dump).  Returns the page.
    """
    from_offsets = None
    if (use_dump_offsets and image_copy is not None
            and image_copy.has_page(page_id)):
        from_offsets = image_copy.log_offsets or None
    return _recover(image_copy, logs, disk, [page_id], stats, tracer,
                    from_offsets, page=page_id)[page_id]


def recover_database_from_media(
    image_copy: Optional[ImageCopy],
    logs: Iterable[LogManager],
    disk: SharedDisk,
    page_ids: Iterable[int],
    stats: Optional[StatsRegistry] = None,
    tracer: Optional[NullTracer] = None,
) -> int:
    """Rebuild many pages in one merged-log pass; returns pages rebuilt.

    The merged stream is consumed once and dispatched per page — the
    shape a real media-recovery utility uses, and what experiment E9
    measures for merge cost.
    """
    wanted = set(page_ids)
    return len(_recover(image_copy, logs, disk, wanted, stats, tracer,
                        None, pages=len(wanted)))


def _recover(image_copy: Optional[ImageCopy], logs: Iterable[LogManager],
             disk: Optional[SharedDisk], page_ids: Iterable[int],
             stats: Optional[StatsRegistry], tracer: Optional[NullTracer],
             from_offsets: Optional[Dict[int, int]],
             **span: int) -> Dict[int, Page]:
    """The one body: restore, drain the merged chains, write back."""
    if tracer is None:
        tracer = NULL_TRACER
    with tracer.span(ev.SPAN_RECOVERY, mode="media", **span):
        pages: Dict[int, Page] = {}
        for page_id in sorted(page_ids):
            if image_copy is not None and image_copy.has_page(page_id):
                pages[page_id] = image_copy.restore_page(page_id)
            else:
                # Born after the dump: a blank page, which the page's
                # FORMAT record rebuilds (the scan covers the full
                # logs).
                pages[page_id] = blank = Page()
                blank.format(page_id, PageType.FREE)
        # No LSN-keyed index here or below: LSNs are only ever compared
        # with the page_LSN of the record's own page, where they are
        # unique and increasing across all logs.
        chains = collect_merged_redo(logs, pages, stats=stats,
                                     from_offsets=from_offsets)
        PendingChains(
            lambda page_id, records, _via: redo_chain(pages[page_id],
                                                      records),
            chains).drain()
        if disk is not None:
            for page in pages.values():
                disk.write_page(page)
    return pages
