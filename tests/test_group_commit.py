"""Tests for group commit (lazy commit + batched log force)."""

import pytest

from repro import CsSystem, SDComplex
from repro.common.errors import DegradedModeError, LockWouldBlock, ReproError
from repro.common.stats import (
    LOG_FORCES,
    LOG_RECORDS_WRITTEN,
    message_kind_counter,
)
from repro.faults import points as fp
from repro.faults.injector import FaultInjector, FaultPlan
from repro.recovery.checkpoint import take_checkpoint
from repro.txn.transaction import TxnState
from repro.wal.records import RecordKind


def fresh():
    sd = SDComplex(n_data_pages=256)
    return sd, sd.add_instance(1), sd.add_instance(2)


def committed_row(instance, payload=b"v0"):
    txn = instance.begin()
    page_id = instance.allocate_page(txn)
    slot = instance.insert(txn, page_id, payload)
    instance.commit(txn)
    return page_id, slot


class TestBatching:
    def test_one_force_covers_a_batch(self):
        """Ten independent transactions, one force.  (Lazy commits keep
        their locks until synced, so the batch touches ten distinct
        records — the realistic group-commit shape.)"""
        sd, s1, _ = fresh()
        rows = [committed_row(s1, b"r%d" % i) for i in range(10)]
        forces_before = sd.stats.get(LOG_FORCES)
        for i, (page_id, slot) in enumerate(rows):
            txn = s1.begin()
            s1.update(txn, page_id, slot, b"v%d" % i)
            s1.commit(txn, lazy=True)
        assert sd.stats.get(LOG_FORCES) == forces_before
        assert s1.sync_commits() == 10
        assert sd.stats.get(LOG_FORCES) == forces_before + 1

    def test_eager_commit_drains_pending(self):
        sd, s1, _ = fresh()
        (page_a, slot_a), (page_b, slot_b) = (committed_row(s1),
                                              committed_row(s1))
        txn_a = s1.begin()
        s1.update(txn_a, page_a, slot_a, b"a")
        s1.commit(txn_a, lazy=True)
        txn_b = s1.begin()
        s1.update(txn_b, page_b, slot_b, b"b")
        s1.commit(txn_b)           # eager: forces and completes both
        assert s1.txns.active_count() == 0
        assert s1.sync_commits() == 0

    def test_sync_with_nothing_pending_is_free(self):
        sd, s1, _ = fresh()
        forces_before = sd.stats.get(LOG_FORCES)
        assert s1.sync_commits() == 0
        assert sd.stats.get(LOG_FORCES) == forces_before


class TestAckSemantics:
    def test_locks_held_until_sync(self):
        sd, s1, s2 = fresh()
        page_id, slot = committed_row(s1)
        txn = s1.begin()
        s1.update(txn, page_id, slot, b"pending")
        s1.commit(txn, lazy=True)
        other = s2.begin()
        with pytest.raises(LockWouldBlock):
            s2.update(other, page_id, slot, b"blocked")
        s1.sync_commits()
        s2.update(other, page_id, slot, b"now-ok")
        s2.commit(other)

    def test_unsynced_lazy_commit_lost_on_crash(self):
        """Group-commit loss semantics: a commit never acknowledged may
        vanish — and must vanish *atomically*."""
        sd, s1, _ = fresh()
        page_id, slot = committed_row(s1, b"durable")
        txn = s1.begin()
        s1.update(txn, page_id, slot, b"unacked")
        s1.commit(txn, lazy=True)
        sd.crash_instance(1)
        summary = sd.restart_instance(1)
        assert sd.disk.read_page(page_id).read_record(slot) == b"durable"

    def test_synced_lazy_commit_is_durable(self):
        sd, s1, _ = fresh()
        page_id, slot = committed_row(s1, b"old")
        txn = s1.begin()
        s1.update(txn, page_id, slot, b"grouped")
        s1.commit(txn, lazy=True)
        s1.sync_commits()
        sd.crash_instance(1)
        sd.restart_instance(1)
        assert sd.disk.read_page(page_id).read_record(slot) == b"grouped"

    def test_wal_force_stops_short_of_commit_record(self):
        """A WAL-driven page write forces the log only through the
        page's last *update* record; the lazy COMMIT behind it stays
        volatile, so the transaction still rolls back at restart."""
        sd, s1, _ = fresh()
        page_id, slot = committed_row(s1, b"durable")
        txn = s1.begin()
        s1.update(txn, page_id, slot, b"unacked")
        s1.commit(txn, lazy=True)
        s1.pool.write_page(page_id)   # forces up to the update only
        sd.crash_instance(1)
        summary = sd.restart_instance(1)
        assert summary.loser_transactions == 1
        assert sd.disk.read_page(page_id).read_record(slot) == b"durable"

    def test_externally_forced_lazy_commit_is_a_winner(self):
        """Once the commit record reaches stable storage by *any* path,
        restart treats the transaction as committed — acknowledgement
        is a liveness courtesy, durability follows the log."""
        sd, s1, _ = fresh()
        page_id, slot = committed_row(s1, b"old")
        txn = s1.begin()
        s1.update(txn, page_id, slot, b"lazy-win")
        s1.commit(txn, lazy=True)
        s1.log.force()                # e.g. another txn's eager commit
        sd.crash_instance(1)
        summary = sd.restart_instance(1)
        assert summary.loser_transactions == 0
        assert sd.disk.read_page(page_id).read_record(slot) == b"lazy-win"

    @pytest.mark.parametrize("scheme", ["medium", "fast"])
    @pytest.mark.parametrize("mode", ["eager", "instant"])
    def test_checkpoint_before_sync_keeps_the_lazy_winner(self, mode,
                                                           scheme):
        """A checkpoint between a lazy COMMIT and its sync: the
        checkpoint's force makes the COMMIT stable, but restart analysis
        starts after it and the END the sync writes is never forced —
        the checkpoint's own transaction table must say committed."""
        sd = SDComplex(n_data_pages=64, transfer_scheme=scheme,
                       restart_mode=mode)
        s1 = sd.add_instance(1)
        page_id, slot = committed_row(s1, b"old")
        s1.pool.flush_all()
        txn = s1.begin()
        s1.update(txn, page_id, slot, b"new")
        s1.commit(txn, lazy=True)
        take_checkpoint(s1)
        assert s1.sync_commits() == 1       # acknowledged
        sd.crash_instance(1)
        summary = sd.restart_instance(1)
        assert (summary.loser_transactions, summary.clrs_written) == (0, 0)
        verdict = s1.begin()
        assert s1.read(verdict, page_id, slot) == b"new"


class TestCsGroupCommit:
    def make_cs(self):
        from repro import CsSystem
        cs = CsSystem(n_data_pages=256)
        return cs, cs.add_client(1), cs.add_client(2)

    def committed_row(self, client, payload=b"v0"):
        txn = client.begin()
        page_id = client.allocate_page(txn)
        slot = client.insert(txn, page_id, payload)
        client.commit(txn)
        return page_id, slot

    def test_one_ship_and_force_covers_a_batch(self):
        cs, c1, _ = self.make_cs()
        rows = [self.committed_row(c1, b"r%d" % i) for i in range(5)]
        forces_before = cs.stats.get("log.forces")
        ships_before = cs.stats.get("net.messages.log_ship")
        for i, (page_id, slot) in enumerate(rows):
            txn = c1.begin()
            c1.update(txn, page_id, slot, b"v%d" % i)
            c1.commit(txn, lazy=True)
        assert cs.stats.get("log.forces") == forces_before
        assert c1.sync_commits() == 5
        assert cs.stats.get("log.forces") == forces_before + 1
        assert cs.stats.get("net.messages.log_ship") == ships_before + 1

    def test_locks_held_until_sync(self):
        from repro.common.errors import LockWouldBlock
        cs, c1, c2 = self.make_cs()
        page_id, slot = self.committed_row(c1)
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"pending")
        c1.commit(txn, lazy=True)
        other = c2.begin()
        with pytest.raises(LockWouldBlock):
            c2.update(other, page_id, slot, b"blocked")
        c1.sync_commits()
        c2.update(other, page_id, slot, b"ok")
        c2.commit(other)

    def test_unsynced_batch_lost_consistently_on_crash(self):
        cs, c1, _ = self.make_cs()
        page_id, slot = self.committed_row(c1, b"durable")
        c1.flush_all()
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"unacked")
        c1.commit(txn, lazy=True)
        cs.crash_client(1)
        summary = cs.server.recover_client(1)
        c1.rejoin()
        assert summary.loser_transactions == 0   # nothing ever shipped
        cs.quiesce()
        assert cs.server.disk.read_page(page_id).read_record(slot) \
            == b"durable"

    def test_synced_batch_durable_across_client_crash(self):
        cs, c1, _ = self.make_cs()
        page_id, slot = self.committed_row(c1, b"old")
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"batched")
        c1.commit(txn, lazy=True)
        c1.sync_commits()
        cs.crash_client(1)
        cs.recover_client(1)
        cs.quiesce()
        assert cs.server.disk.read_page(page_id).read_record(slot) \
            == b"batched"

    def test_eager_commit_drains_pending(self):
        cs, c1, _ = self.make_cs()
        (pa, sa), (pb, sb) = (self.committed_row(c1),
                              self.committed_row(c1))
        ta = c1.begin()
        c1.update(ta, pa, sa, b"a")
        c1.commit(ta, lazy=True)
        tb = c1.begin()
        c1.update(tb, pb, sb, b"b")
        c1.commit(tb)
        assert c1.txns.active_count() == 0
        assert c1.sync_commits() == 0

    def test_failed_release_keeps_the_txn_pending(self, monkeypatch):
        cs, c1, _ = self.make_cs()
        rows = [self.committed_row(c1, b"r%d" % i) for i in range(2)]
        txns = []
        for page_id, slot in rows:
            txn = c1.begin()
            c1.update(txn, page_id, slot, b"lazy")
            c1.commit(txn, lazy=True)
            txns.append(txn)
        release = cs.server.release_txn_locks

        def flaky(txn_id):
            if txn_id == txns[1].txn_id:
                raise ReproError("lock service unavailable")
            release(txn_id)

        monkeypatch.setattr(cs.server, "release_txn_locks", flaky)
        with pytest.raises(ReproError):
            c1.sync_commits()
        assert [t.state for t in txns] == [TxnState.ENDED,
                                           TxnState.COMMITTED]
        monkeypatch.undo()
        assert c1.sync_commits() == 1
        assert txns[1].state is TxnState.ENDED


# ----------------------------------------------------------------------
# a lazily committed transaction has left ACTIVE; one that logged
# nothing commits (lazily or not) and rolls back at zero log cost
# ----------------------------------------------------------------------
def sd_engine(injector=None):
    sd = SDComplex(n_data_pages=256, injector=injector)
    s1 = sd.add_instance(1)
    return sd, s1, s1.log


def cs_engine(injector=None):
    cs = CsSystem(n_data_pages=256, injector=injector)
    c1 = cs.add_client(1)
    return cs, c1, cs.server.log


#: system, engine, and the log its records end up in.
ARCHS = {"sd": sd_engine, "cs": cs_engine}

#: Every entry point that takes a transaction and must refuse one that
#: is no longer ACTIVE.
ENTRY_POINTS = {
    "insert": lambda e, t, page, slot: e.insert(t, page, b"late"),
    "update": lambda e, t, page, slot: e.update(t, page, slot, b"late"),
    "delete": lambda e, t, page, slot: e.delete(t, page, slot),
    "commit": lambda e, t, page, slot: e.commit(t, lazy=True),
    "rollback": lambda e, t, page, slot: e.rollback(t),
    "set_savepoint": lambda e, t, page, slot: e.set_savepoint(t, "late"),
    "read": lambda e, t, page, slot: e.read(t, page, slot),
    "allocate_page": lambda e, t, page, slot: e.allocate_page(t),
    "deallocate_page": lambda e, t, page, slot: e.deallocate_page(t, page),
}


def kinds_of(log, txn_id):
    return [record.kind for _, record in log.scan()
            if record.txn_id == txn_id]


class TestLazyCommitLeavesActive:
    @pytest.mark.parametrize("op", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_entry_point_rejects_lazily_committed_txn(self, arch, op):
        system, engine, log = ARCHS[arch]()
        page_id, slot = committed_row(engine, b"old")
        txn = engine.begin()
        engine.update(txn, page_id, slot, b"lazy")
        engine.commit(txn, lazy=True)
        assert txn.state is TxnState.COMMITTED
        with pytest.raises(ReproError):
            ENTRY_POINTS[op](engine, txn, page_id, slot)
        assert engine.sync_commits() == 1
        assert kinds_of(log, txn.txn_id) == [
            RecordKind.UPDATE, RecordKind.COMMIT]
        reader = engine.begin()
        assert engine.read(reader, page_id, slot) == b"lazy"
        engine.commit(reader)

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_pending_lazy_commit_holds_commit_lsn_back(self, arch):
        """Until its force, a lazy commit is not durable: an unlocked
        Commit_LSN reader must not get past its page."""
        system, engine, _ = ARCHS[arch]()
        page_id, slot = committed_row(engine)
        txn = engine.begin()
        engine.update(txn, page_id, slot, b"pending")
        engine.commit(txn, lazy=True)
        assert txn in list(engine.txns.active())
        assert system.commit_lsn.global_commit_lsn() <= txn.first_lsn
        engine.sync_commits()
        assert list(engine.txns.active()) == []
        assert system.commit_lsn.global_commit_lsn() > txn.first_lsn


class TestReadOnlyTransactions:
    @staticmethod
    def _read_only(engine, page_id, slot):
        txn = engine.begin()
        engine.read(txn, page_id, slot)
        return txn

    @pytest.mark.parametrize("lazy", [False, True])
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_commit_finishes_at_once_at_zero_log_cost(self, arch, lazy):
        system, engine, _ = ARCHS[arch]()
        page_id, slot = committed_row(engine)
        txn = self._read_only(engine, page_id, slot)
        before = system.stats.snapshot()
        engine.commit(txn, lazy=lazy)
        work = system.stats.diff(before)
        assert txn.state is TxnState.ENDED
        assert engine.txns.active_count() == 0
        assert LOG_RECORDS_WRITTEN not in work
        assert LOG_FORCES not in work
        assert message_kind_counter("log_ship") not in work
        assert message_kind_counter("commit_ack") not in work
        assert engine.sync_commits() == 0

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_rollback_writes_no_end(self, arch):
        system, engine, log = ARCHS[arch]()
        page_id, slot = committed_row(engine)
        txn = self._read_only(engine, page_id, slot)
        before = system.stats.snapshot()
        engine.rollback(txn)
        work = system.stats.diff(before)
        assert txn.state is TxnState.ENDED
        assert LOG_RECORDS_WRITTEN not in work
        assert message_kind_counter("log_ship") not in work
        assert kinds_of(log, txn.txn_id) == []

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_eager_read_only_commit_leaves_lazy_commits_pending(self, arch):
        """A reader's commit forces nothing, so it acknowledges
        nothing: the batch waits for its own sync."""
        system, engine, _ = ARCHS[arch]()
        rows = [committed_row(engine, b"r%d" % i) for i in range(3)]
        for i, (page_id, slot) in enumerate(rows[:2]):
            txn = engine.begin()
            engine.update(txn, page_id, slot, b"v%d" % i)
            engine.commit(txn, lazy=True)
        forces_before = system.stats.get(LOG_FORCES)
        engine.commit(self._read_only(engine, *rows[2]))
        assert system.stats.get(LOG_FORCES) == forces_before
        assert engine.txns.active_count() == 2
        assert engine.sync_commits() == 2
        assert system.stats.get(LOG_FORCES) == forces_before + 1


class TestSyncUnderLogDeviceFailure:
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_failed_force_degrades_and_keeps_the_batch_pending(self, arch):
        """A group-commit sync reaches the same force-or-degrade step
        as an eager commit: a failed force degrades the node that owns
        the log, and nothing in the batch is acknowledged."""
        injector = FaultInjector(FaultPlan(seed=0))
        system, engine, _ = ARCHS[arch](injector)
        page_id, slot = committed_row(engine)
        txn = engine.begin()
        engine.update(txn, page_id, slot, b"lazy")
        engine.commit(txn, lazy=True)
        injector.plan.at(fp.LOG_FORCE).on_hit(
            injector.hit_count(fp.LOG_FORCE) + 1).fail()
        with pytest.raises(DegradedModeError):
            engine.sync_commits()
        log_owner = engine if arch == "sd" else system.server
        assert log_owner.degraded
        assert txn.state is TxnState.COMMITTED
        assert txn in list(engine.txns.active())
