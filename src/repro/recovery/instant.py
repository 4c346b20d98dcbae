"""Instant restart: redo-only, on-demand, per-page recovery.

Classic restart (:mod:`repro.recovery.aries`) replays the whole redo
scan before the system reopens, so perceived downtime is O(log length).
Lomet et al. (*Implementing Performance Competitive Logical Recovery*)
and Sauer/Haerder (*fast REDO-only recovery*) both observe that the
same machinery can instead recover each page lazily on first touch,
shrinking downtime to O(analysis + losers).  This module implements
that mode over the paper's multi-system substrate:

1. **Analysis and the redo plan** run eagerly through the shared
   restart prologue (:func:`repro.recovery.aries._prologue`): the
   Lamport clock is re-seeded, analysis yields the loser
   transactions, and the per-page redo chains are indexed from the
   stable log(s) — single-log under the medium transfer scheme and for
   the CS server, the wiring's merged-log plan under the fast scheme —
   i.e. exactly the chains eager restart replays.
2. **Undo runs eagerly at open**, reusing the eager
   :func:`~repro.recovery.aries._undo_pass` verbatim with the same
   page fixers the eager path uses.  Undo touches only loser pages, so
   this keeps open cost proportional to the in-flight work at crash
   while the bulk of the redo scan stays lazy — and it is what makes
   the equivalence guarantee below hold by construction: the CLRs are
   appended in the same order, against the same page images, with the
   same ``page_lsn`` hints, as under eager restart.
3. Everything else recovers **on demand**: the chains wait in the
   manager's :class:`~repro.recovery.redo.PendingChains` (the set
   eager restart drains at once), whose apply step is the eager
   path's own per-page step (:func:`repro.recovery.redo.replay_to_disk`)
   inside this module's span, fault point and counters.  The buffer
   pool's ``recovery_intercept`` seam (and, in the SD complex, a guard
   at the top of coherency access) routes the first touch of a
   still-pending page to the set's ``recover``; a deterministic
   **sweeper** (:meth:`~InstantRecoveryManager.sweep`) drains the
   remaining pages in ascending page-id order, the order they were
   inserted in, in tick-driven increments.

Equivalence discipline (the property the chaos ``restart`` drill
enforces with SHA-256 disk digests): per page, instant restart runs
the same function over the same chain from the same disk base image
as the eager pass.  Application *order between pages* differs, but
order only matters within a page.  Once every manager has drained,
the disk image is byte-identical to the eager one.

WAL is satisfied throughout: every record in a chain comes from a
stable post-crash log, so writing a chain-applied image needs no log
force first.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.stats import (
    INSTANT_DEMAND_RECOVERIES,
    INSTANT_OPENS,
    INSTANT_PAGES_RECOVERED,
    INSTANT_RECORDS_REDONE,
    INSTANT_RECORDS_SKIPPED,
    INSTANT_SWEEP_RECOVERIES,
    INSTANT_SWEEP_TICKS,
)
from repro.faults import points as fp
from repro.obs import events as ev
from repro.recovery import aries
from repro.recovery.aries import RedoPlan, RestartSummary
from repro.recovery.redo import PendingChains, replay_to_disk


class InstantRecoveryManager:
    """Open-for-business restart: eager analysis + undo, lazy redo.

    ``instance`` is the recovering log owner
    (:class:`~repro.recovery.owner.LogOwner`); the manager reports
    into the owner's stats, tracer and injector.  ``mode`` names the
    chain source for the trace stream: ``"medium"`` / ``"fast"`` for SD
    instances, ``"cs"`` for the server.  The restart entry
    (:class:`~repro.recovery.owner.RestartRegistry`, shared by
    ``SDComplex`` and ``CsServer``) registers the manager, installs the
    buffer-pool intercept and routes across managers; ``on_drained`` is
    its deregistration callback, invoked exactly once when the last
    pending page has been recovered.
    """

    def __init__(
        self,
        instance,
        mode: str,
        on_drained: Callable[["InstantRecoveryManager"], None],
    ) -> None:
        self.instance = instance
        self.mode = mode
        self.stats, self.tracer, self.injector = instance.seams
        self.on_drained = on_drained
        self.summary = RestartSummary()
        self.losers: Dict[int, int] = {}
        #: The pending pages' chains; empty until :meth:`open`.
        self.pending = PendingChains(self._replay)
        self.drained = False
        self.demand_recoveries = 0
        self.sweep_recoveries = 0

    def open(self, plan: Optional[RedoPlan] = None, fix_page=None,
             unfix_page=None) -> RestartSummary:
        """The restart prologue — clock, analysis and the redo plan
        (single-log unless the wiring passes ``plan``), every page with
        a chain becoming *pending* — then roll back the losers eagerly.

        ``fix_page``/``unfix_page`` are the *eager* undo fixers for
        this system (coherency-mediated for SD, the plain pool for the
        CS server); the wiring has already arranged that any fix of a
        still-pending page recovers it first, so the CLRs land on
        exactly the images eager undo would see.
        """
        instance = self.instance
        system_id = instance.system_id
        chains, self.losers = aries._prologue(instance, self.summary, plan)
        self.pending = PendingChains(self._replay, chains,
                                     on_drained=self._finish)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(ev.RECOVERY_BEGIN, system=system_id, mode="instant")
            tracer.emit(
                ev.INSTANT_OPEN, system=system_id, mode=self.mode,
                pages=self.pending.pages(), losers=len(self.losers),
            )
        self.stats.incr(INSTANT_OPENS)
        aries._undo_pass(instance, self.losers, self.summary,
                         fix_page=fix_page, unfix_page=unfix_page)
        instance.log.force()
        if not self.pending:
            self._finish()
        return self.summary

    # ------------------------------------------------------------------
    # lazy per-page recovery
    # ------------------------------------------------------------------
    def pending_pages(self) -> List[int]:
        """Page ids whose redo chain has not been applied yet, sorted."""
        return self.pending.pages()

    def _replay(self, page_id: int, records, via: str) -> None:
        """The pending set's apply step: :func:`replay_to_disk` inside
        the ``recover_page`` span, behind the ``instant.recover`` fault
        point (which fires before the write-back, so the chain stays
        pending and the next touch retries from the same stable
        records), then the instant counters and event."""
        instance = self.instance
        system_id = instance.system_id
        tracer = self.tracer
        with tracer.span(ev.SPAN_RECOVER_PAGE, system=system_id,
                         page=page_id, via=via):
            self.injector.fire(fp.INSTANT_RECOVER, system=system_id,
                               page=page_id)
            redone, skipped = replay_to_disk(
                instance, page_id, records, self.summary)
            if via == "demand":
                self.demand_recoveries += 1
            else:
                self.sweep_recoveries += 1
            if tracer.enabled:
                tracer.emit(
                    ev.INSTANT_PAGE, system=system_id, page=page_id,
                    redone=redone, skipped=skipped, via=via,
                )
            stats = self.stats
            stats.incr(INSTANT_PAGES_RECOVERED)
            stats.incr(INSTANT_DEMAND_RECOVERIES if via == "demand"
                       else INSTANT_SWEEP_RECOVERIES)
            if redone:
                stats.incr(INSTANT_RECORDS_REDONE, redone)
            if skipped:
                stats.incr(INSTANT_RECORDS_SKIPPED, skipped)

    # ------------------------------------------------------------------
    # background sweeper
    # ------------------------------------------------------------------
    def sweep(self, max_pages: int = 1) -> int:
        """One deterministic sweeper tick: recover up to ``max_pages``
        pending pages in ascending page-id order.  Returns how many
        pages this tick recovered."""
        self.stats.incr(INSTANT_SWEEP_TICKS)
        return self.pending.sweep(max_pages)

    def drain(self) -> int:
        """Sweep until no page is pending; returns the total recovered."""
        pages = len(self.pending)
        return self.sweep(pages) if pages else 0

    # ------------------------------------------------------------------
    def _finish(self) -> None:
        """Every pending page is recovered: close the recovery bracket,
        once (undo may drain the set before :meth:`open` checks it)."""
        if self.drained:
            return
        self.drained = True
        tracer = self.tracer
        if tracer.enabled:
            system_id = self.instance.system_id
            tracer.emit(
                ev.INSTANT_DONE, system=system_id,
                recovered=self.demand_recoveries + self.sweep_recoveries,
                demand=self.demand_recoveries,
                swept=self.sweep_recoveries,
            )
            tracer.emit(
                ev.RECOVERY_END, system=system_id,
                redone=self.summary.records_redone,
                skipped=self.summary.redo_skipped_by_lsn,
                losers=self.summary.loser_transactions,
                clrs=self.summary.clrs_written,
            )
        self.on_drained(self)
