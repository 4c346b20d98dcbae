"""The shared-disks complex: Figure 1 as an object graph.

An :class:`SDComplex` owns the pieces every instance shares — the disk
farm, the global lock manager (with lock value blocks that piggyback
``Local_Max_LSN``), the coherency controller, the message fabric, the
space map geometry and the Commit_LSN service — plus the set of DBMS
instances.

Lock value blocks deserve a note: when a transaction releases a lock,
the releasing system's ``Local_Max_LSN`` is stored with the lock; when
another system later acquires it, its log manager absorbs that value.
This gives Lamport causality *through the lock hierarchy*: any update
protected by a lock happens-before a conflicting acquisition, so the
acquirer's LSNs are guaranteed to exceed the LSNs of the updates it can
now see.  (DEC's VAXcluster lock value blocks carried similar freight,
Section 4.1.)  Mass delete's correctness rests on this: the deleter
never reads the emptied pages, but the table lock it acquired carried
the last updater's maximum.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Optional

from repro.common.errors import ProtocolError, ReproError
from repro.common.lsn import Lsn
from repro.common.seams import Seams
from repro.common.stats import StatsRegistry
from repro.faults.injector import NullFaultInjector
from repro.locking.lock_manager import LockManager, LockMode, LockStatus
from repro.net.network import Network
from repro.obs import events as ev
from repro.obs.tracer import NullTracer
from repro.recovery.commit_lsn import CommitLsnService
from repro.recovery.owner import LogOwner, RestartRegistry
from repro.recovery.redo import collect_merged_redo, redo_chain
from repro.recovery.staged import StagedRestart
from repro.replication.shipper import (
    NULL_REPLICATION,
    ReplicationConfig,
    ReplicationManager,
)
from repro.sd.coherency import CoherencyController
from repro.sd.instance import DbmsInstance
from repro.storage.disk import SharedDisk
from repro.storage.space_map import SpaceMap, format_volume
from repro.txn.manager import _SYSTEM_STRIDE

# Default database geometry: SMPs first, data pages after.
DEFAULT_SMP_START = 1
DEFAULT_DATA_START = 64
DEFAULT_DATA_PAGES = 4096


class SDComplex(RestartRegistry):
    """A complete shared-disks data sharing complex."""

    def __init__(
        self,
        n_data_pages: int = DEFAULT_DATA_PAGES,
        piggyback_enabled: bool = True,
        lock_value_blocks: bool = True,
        transfer_scheme: str = "medium",
        stats: Optional[StatsRegistry] = None,
        tracer: Optional[NullTracer] = None,
        injector: Optional[NullFaultInjector] = None,
        replicate: Optional["ReplicationConfig"] = None,
        disk: Optional[SharedDisk] = None,
        restart_mode: str = "eager",
    ) -> None:
        self._init_restart(restart_mode)
        #: The one seams value every component of the complex takes.
        self.seams = seams = Seams.of(stats, tracer, injector)
        self.stats, self.tracer, self.injector = seams
        if disk is not None:
            # Promotion path: adopt an already-populated disk (e.g. a
            # standby's replica image) instead of formatting a fresh one.
            self.disk = disk
        else:
            self.disk = SharedDisk(
                DEFAULT_DATA_START + n_data_pages + 64, seams)
        self.network = Network(seams, piggyback_enabled=piggyback_enabled)
        self.glm = LockManager(seams)
        self.transfer_scheme = transfer_scheme
        self.coherency = CoherencyController(self, scheme=transfer_scheme)
        self.commit_lsn = CommitLsnService(seams)
        self.space_map = SpaceMap(smp_start=DEFAULT_SMP_START,
                                  data_start=DEFAULT_DATA_START,
                                  n_data_pages=n_data_pages)
        self.instances: Dict[int, DbmsInstance] = {}
        self.lock_value_blocks = lock_value_blocks
        self._lock_values: Dict[Hashable, Lsn] = {}
        if disk is None:
            format_volume(self.disk, self.space_map)
        # The replication seam follows the NULL-object discipline: with
        # ``replicate=None`` the manager is NULL_REPLICATION
        # (enabled=False) and every call site stays byte-identical.
        self.replication = (ReplicationManager(self, replicate)
                            if replicate is not None else NULL_REPLICATION)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def add_instance(self, system_id: int, instance_cls=DbmsInstance,
                     **kwargs) -> DbmsInstance:
        """Bring a new DBMS instance into the complex.

        ``instance_cls`` lets experiments swap the LSN scheme (e.g.
        :class:`repro.baselines.naive.NaiveDbmsInstance`) while keeping
        every other component identical.
        """
        if system_id in self.instances:
            raise ReproError(f"system {system_id} already exists")
        if system_id <= 0:
            raise ValueError("system ids must be positive")
        instance = instance_cls(system_id, self, **kwargs)
        self.instances[system_id] = instance
        self.network.register(system_id, instance.log)
        self.commit_lsn.register(instance)
        return instance

    # ------------------------------------------------------------------
    # global locking (with value-block piggyback)
    # ------------------------------------------------------------------
    def lock(
        self,
        instance: DbmsInstance,
        txn_id: int,
        resource: Hashable,
        mode: LockMode,
    ) -> LockStatus:
        status = self.glm.acquire(txn_id, resource, mode)
        if status is LockStatus.GRANTED and self.lock_value_blocks:
            value = self._lock_values.get(resource)
            if value is not None:
                log = instance.log
                # At or below Local_Max_LSN the Lamport merge changes
                # nothing; only a tracer still wants the observation.
                if value > log.local_max_lsn or log.tracer.enabled:
                    log.observe_remote_max(value)
        return status

    def try_lock(
        self,
        instance: DbmsInstance,
        txn_id: int,
        resource: Hashable,
        mode: LockMode,
    ) -> LockStatus:
        """Opportunistic acquire: never enqueues (for escalation)."""
        status = self.glm.try_acquire(txn_id, resource, mode)
        if status is LockStatus.GRANTED and self.lock_value_blocks:
            value = self._lock_values.get(resource)
            if value is not None:
                instance.log.observe_remote_max(value)
        return status

    def release_lock(
        self, instance: DbmsInstance, txn_id: int, resource: Hashable
    ) -> None:
        self._store_lock_values(instance, (resource,))
        self.glm.release(txn_id, resource)

    def release_txn_locks(self, instance: DbmsInstance, txn_id: int) -> None:
        """Commit/abort-time release of everything a transaction holds."""
        self._store_lock_values(instance, self.glm.locks_of(txn_id))
        self.glm.release_all(txn_id)

    def _store_lock_values(self, instance: DbmsInstance,
                           resources: Iterable[Hashable]) -> None:
        """Leave the releaser's Local_Max_LSN in each lock's value block."""
        if not self.lock_value_blocks:
            return
        values = self._lock_values
        value = instance.log.local_max_lsn
        for resource in resources:
            # -1: a block is created even for a releaser still at LSN 0.
            if values.get(resource, -1) < value:
                values[resource] = value

    def release_system_locks(self, system_id: int) -> None:
        """Drop the retained locks of a recovered system's transactions."""
        owners = [
            owner for owner in self.glm.owners()
            if isinstance(owner, int) and owner // _SYSTEM_STRIDE == system_id
        ]
        for owner in owners:
            self.glm.release_all(owner)

    # ------------------------------------------------------------------
    # failure / recovery orchestration
    # ------------------------------------------------------------------
    def crash_instance(self, system_id: int) -> None:
        self.instances[system_id].crash()

    def restart_instance(self, system_id: int):
        """Run restart recovery for a crashed instance; returns the
        recovery summary.  Retained locks and page ownership are
        released once recovery completes.

        Under the medium transfer scheme this uses only the failed
        instance's local log (the paper's Section 3.1 payoff); under
        the fast scheme, redo replays the merged local logs for the
        pages the failed instance owned (Section 5 extension).  With
        ``restart_mode="instant"`` the same plan is indexed instead of
        replayed, and each page recovers on first touch
        (:mod:`repro.recovery.instant`).
        """
        instance = self.instances[system_id]
        if not instance.crashed:
            raise ReproError(f"system {system_id} is not down")
        plan, fix_page = self._restart_plan(system_id, instance)
        return self._restart(instance, "instance", self.transfer_scheme,
                             plan, fix_page)

    def _after_restart(self, owner: LogOwner) -> None:
        # Cold cache after recovery: keeping reconstructed pages
        # around would require re-registering every copy with the
        # coherency layer and invites stale-read hazards; dropping
        # them is simple and what a real restart does anyway.
        for bcb in list(owner.pool.pages()):
            owner.pool.drop_page(bcb.page_id)
        self.coherency.note_recovered(owner.system_id)
        self.release_system_locks(owner.system_id)

    def _log_owners(self) -> Iterable[DbmsInstance]:
        return self.instances.values()

    def _restart_plan(self, system_id: int, instance: DbmsInstance):
        """``(redo plan, undo fixer)`` of a recovering instance.

        Medium scheme: single-log redo (``None``) and
        :meth:`recovery_page_fixer`.  Fast scheme: merged-log redo of
        the analysis DPT plus the instance's retained page ownership,
        minus pages whose current version is dirty in a live pool; undo
        goes through the coherency layer, falling back to the local
        pool when the page's retained owner is another crashed system
        (complex-wide failure) — the merged-log redo already
        reconstructed every DPT page on disk, and the owner's own later
        recovery stays idempotent thanks to the page_LSN test.
        """
        if self.transfer_scheme != "fast":
            return None, self.recovery_page_fixer(instance)
        candidates = set(self.coherency.pages_owned_by(system_id))
        skip = {bcb.page_id
                for other_id, other in self.instances.items()
                if other_id != system_id and not other.crashed
                for bcb in other.pool.pages() if bcb.dirty}
        logs = self.local_logs()

        def plan(dpt):
            targets = (set(dpt) | candidates) - skip
            return collect_merged_redo(logs, targets) if targets else {}

        def fix_fast(page_id: int):
            try:
                return self.coherency.access(instance, page_id,
                                             for_update=True)
            except ProtocolError:
                return instance.pool.fix(page_id)

        return plan, fix_fast

    def recovery_page_fixer(self, instance: DbmsInstance):
        """Page accessor for a recovering instance's **undo** pass.

        Normally routes through the coherency layer (the loser's page
        may live, current, in another system's pool).  When the page's
        retained owner is *another crashed system*, its committed
        updates exist only in its stable log — the disk version is
        stale — so the page is first reconstructed from the merged
        stable logs (all covering records are forced: WAL for anything
        that reached disk or migrated, commit forces for the rest).
        The owner's own later recovery stays idempotent via the
        page_LSN test.
        """
        def fix_page(page_id: int):
            try:
                return self.coherency.access(instance, page_id,
                                             for_update=True)
            except ProtocolError:
                if instance.pool.contains(page_id):
                    instance.pool.drop_page(page_id, allow_dirty=True)
                page = self.disk.read_page(page_id)
                chains = collect_merged_redo(self.local_logs(), {page_id})
                if page_id in chains:
                    redo_chain(page, chains[page_id].records)
                self.disk.write_page(page)
                return instance.pool.install_page(page, dirty=False)

        return fix_page

    def begin_staged_restart(self, system_id: int):
        """Start a staged restart ([Moha91]-style early access): call
        ``run_redo()`` to open the system for new transactions with only
        the losers' retained locks in force, then ``run_undo()``."""
        return StagedRestart(self, self.instances[system_id])

    def crash_complex(self) -> None:
        """Every instance fails at once (site power loss)."""
        for instance in self.instances.values():
            if not instance.crashed:
                instance.crash()

    def restart_complex(self):
        """Recover every instance, one at a time (any order is fine:
        each instance's redo needs only its own log under the medium
        transfer scheme, and undo is per-transaction)."""
        summaries = {}
        with self.tracer.span(ev.SPAN_RESTART, system=0, target="complex"):
            for system_id in sorted(self.instances):
                if self.instances[system_id].crashed:
                    summaries[system_id] = self.restart_instance(system_id)
        return summaries

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def broadcast_max_lsns(self) -> None:
        """Periodic Section 3.5 exchange (on top of piggybacking)."""
        self.network.broadcast_max_lsns()

    def local_logs(self) -> List:
        """Every instance's log manager (media recovery input)."""
        return [inst.log for inst in self.instances.values()]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"SDComplex(instances={sorted(self.instances)}, "
            f"data_pages={self.space_map.n_data_pages})"
        )
