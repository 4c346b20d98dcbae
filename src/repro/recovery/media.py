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
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.common.stats import StatsRegistry
from repro.obs import events as ev
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.recovery.redo import collect_merged_redo, redo_chain
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
    if tracer is None:
        tracer = NULL_TRACER
    with tracer.span(ev.SPAN_RECOVERY, mode="media", page=page_id):
        from_offsets = None
        if image_copy is not None and image_copy.has_page(page_id):
            page = image_copy.restore_page(page_id)
            if use_dump_offsets and image_copy.log_offsets:
                from_offsets = image_copy.log_offsets
        else:
            # Page was born after the dump: recovery starts from a blank
            # page and the page's FORMAT record will rebuild it, so the
            # scan must cover the full logs.
            page = Page()
            page.format(page_id, PageType.FREE)
        # No LSN-keyed index here or below: LSNs are only ever compared
        # with the page_LSN of the record's own page, where they are
        # unique and increasing across all logs.
        chains = collect_merged_redo(logs, {page_id}, stats=stats,
                                     from_offsets=from_offsets)
        if page_id in chains:
            redo_chain(page, chains[page_id].records)
        if disk is not None:
            disk.write_page(page)
    return page


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
    if tracer is None:
        tracer = NULL_TRACER
    wanted = set(page_ids)
    with tracer.span(ev.SPAN_RECOVERY, mode="media", pages=len(wanted)):
        pages = {}
        for page_id in sorted(wanted):
            if image_copy is not None and image_copy.has_page(page_id):
                pages[page_id] = image_copy.restore_page(page_id)
            else:
                blank = Page()
                blank.format(page_id, PageType.FREE)
                pages[page_id] = blank
        chains = collect_merged_redo(logs, pages, stats=stats)
        for page_id in sorted(pages):
            if page_id in chains:
                redo_chain(pages[page_id], chains[page_id].records)
            disk.write_page(pages[page_id])
    return len(pages)
