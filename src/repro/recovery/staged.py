"""Staged restart: new-transaction access before undo completes.

The paper cites [Moha91] for "a totally different application of the
[Commit_LSN] method ... to allow access to data to new transactions
even while recovery from a system failure is in progress."  The enabler
is ARIES' pass structure: after the **redo** pass has repeated history,
every page is current; the only uncommitted data left is the losers',
and that is protected by their retained locks.  So the system can open
for business between redo and undo.

:class:`StagedRestart` is eager restart's call sequence
(:mod:`repro.recovery.aries`) split at that seam.  ``run_redo()`` runs
the prologue and redo, flushes the reconstructed pages and lifts the
coherency fence; ``run_undo()`` rolls the losers back and releases
their locks.  Only the medium transfer scheme supports it: the fast
scheme's merged-log redo interacts with live-system buffers and is run
as one unit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.common.errors import ReproError
from repro.common.lsn import Lsn
from repro.recovery.aries import RestartSummary, _prologue, _redo, _undo_pass

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sd.complex import SDComplex
    from repro.sd.instance import DbmsInstance


class StagedRestart:
    """Restart recovery with an open-for-access point after redo."""

    def __init__(self, sd_complex: "SDComplex",
                 instance: "DbmsInstance") -> None:
        if sd_complex.transfer_scheme != "medium":
            raise ReproError(
                "staged restart requires the medium transfer scheme"
            )
        if not instance.crashed:
            raise ReproError(
                f"system {instance.system_id} is not down"
            )
        self.complex = sd_complex
        self.instance = instance
        self.summary = RestartSummary()
        self._losers: Optional[Dict[int, Lsn]] = None
        self._finished = False

    def run_redo(self) -> RestartSummary:
        """Analysis + redo; then open the system for new transactions
        (pages current on disk, fence lifted, losers' locks retained)."""
        if self._losers is not None:
            raise ReproError("redo already ran")
        instance = self.instance
        instance.crashed = False
        chains, self._losers = _prologue(instance, self.summary)
        _redo(instance, chains, self.summary)
        instance.pool.flush_all()
        self.complex.coherency.note_recovered(instance.system_id)
        return self.summary

    @property
    def open_for_access(self) -> bool:
        """True between redo completion and undo completion."""
        return self._losers is not None and not self._finished

    def loser_transactions(self) -> Dict[int, Lsn]:
        """The transactions still holding retained locks."""
        if self._losers is None:
            raise ReproError("run_redo() first")
        return dict(self._losers)

    def run_undo(self) -> RestartSummary:
        """Roll back the losers and release their retained locks.  A
        loser's page may have moved to another system during the open
        window; the complex's recovery fixer fetches the current one."""
        if self._losers is None:
            raise ReproError("run_redo() first")
        if self._finished:
            raise ReproError("undo already ran")
        instance = self.instance
        _undo_pass(instance, self._losers, self.summary,
                   fix_page=self.complex.recovery_page_fixer(instance),
                   unfix_page=instance.pool.unfix)
        instance.log.force()
        instance.pool.flush_all()
        self.complex.release_system_locks(instance.system_id)
        self._finished = True
        return self.summary
