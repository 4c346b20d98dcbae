"""Recovery: ARIES passes, checkpoints, media recovery, Commit_LSN.

The algorithms follow ARIES (analysis / redo / undo with CLRs and
repeating history) adapted to the paper's multi-system setting:

* restart redo of a failed SD instance uses **only that instance's
  local log** (legal under the medium page-transfer scheme assumption
  of Section 3.1);
* media recovery merges the local logs by LSN alone
  (:mod:`repro.wal.merge`) and redoes a page forward from its image
  copy (Section 3.2.2);
* the Commit_LSN optimization (Section 2 problem 4 / Section 3.5) is a
  cross-system minimum over oldest-active-transaction first LSNs.
"""

from repro.recovery.apply import apply_op, apply_redo, apply_undo, inverse_op
from repro.recovery.checkpoint import take_checkpoint
from repro.recovery.commit_lsn import CommitLsnService
from repro.recovery.media import recover_page_from_media
from repro.recovery.aries import restart_recovery

__all__ = [
    "CommitLsnService",
    "apply_op",
    "apply_redo",
    "apply_undo",
    "inverse_op",
    "recover_page_from_media",
    "restart_recovery",
    "take_checkpoint",
]
