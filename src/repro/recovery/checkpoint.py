"""Fuzzy checkpoints.

A checkpoint brackets a BEGIN/END pair; the END record carries the
dirty page table (page -> RecLSN, RecAddr) and the transaction table.
The RecAddr entries are the paper's Section 3.2.2 requirement: because
page_LSN is no longer a log address, the *address* of the first
dirtying update must be tracked separately (in the BCB) and recorded at
checkpoint time so restart redo knows where to start scanning.

The "master record" (the stable pointer to the latest complete
checkpoint) is modelled by ``LogManager.master_record_offset``, updated
only after the checkpoint records are forced.  The writer is
:meth:`LogOwner.write_checkpoint
<repro.recovery.owner.LogOwner.write_checkpoint>`, one for SD
instances and the CS server; this module adds log truncation.
"""

from __future__ import annotations

from repro.common.lsn import LogAddress


def log_truncation_point(instance) -> int:
    """Lowest log offset restart recovery could still need.

    Everything earlier may be archived: it lies before the master
    checkpoint record, before every dirty page's RecAddr (redo never
    scans below the minimum RecAddr) and before every active
    transaction's first record (undo never follows a chain below it).
    """
    candidates = [instance.log.master_record_offset or 0]
    for rec_lsn, rec_addr in instance.pool.dirty_page_table().values():
        candidates.append(rec_addr)
    for txn in instance.txns.active():
        if txn.undo_entries:
            candidates.append(txn.undo_entries[0].offset)
    return min(candidates)


def archive_log(instance) -> int:
    """Checkpoint, then move the no-longer-needed log prefix to archive
    storage.  Returns the number of bytes archived.  The archived
    prefix remains available to media recovery (which reads "the
    tapes"); restart recovery never touches it."""
    take_checkpoint(instance)
    return instance.log.archive_up_to(log_truncation_point(instance))


def take_checkpoint(instance) -> LogAddress:
    """Take a fuzzy checkpoint on ``instance`` (a
    :class:`~repro.recovery.owner.LogOwner`); returns the address of
    the BEGIN_CHECKPOINT record (the new master record)."""
    return instance.write_checkpoint()
