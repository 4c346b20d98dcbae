"""Tests for the complex-wide Commit_LSN optimization."""

from repro.common.stats import COMMIT_LSN_HITS, COMMIT_LSN_MISSES
from repro.recovery.commit_lsn import CommitLsnService
from repro.txn.manager import TransactionManager
from repro.wal.log_manager import LogManager
from repro.wal.records import make_update


class FakeSystem:
    """Minimal CommitLsnMember."""

    def __init__(self, system_id):
        self.system_id = system_id
        self.crashed = False
        self.txns = TransactionManager(system_id)
        self.log = LogManager(system_id)

    def log_updates(self, n, first_lsn_into=None):
        txn = first_lsn_into
        for _ in range(n):
            record = make_update(txn.txn_id if txn else 0, self.system_id,
                                 10, 0, b"r", b"u")
            offset = self.log.end_offset
            self.log.append(record)
            if txn is not None:
                txn.note_logged(record.lsn, offset, undoable=True)


def service_with(*systems):
    svc = CommitLsnService()
    for system in systems:
        svc.register(system)
    return svc


class TestLocalContribution:
    def test_idle_system_contributes_local_max_plus_one(self):
        s = FakeSystem(1)
        s.log_updates(5)
        svc = service_with(s)
        assert svc.local_commit_lsn(s) == 6

    def test_active_txn_contributes_its_first_lsn(self):
        s = FakeSystem(1)
        txn = s.txns.begin()
        s.log_updates(1, first_lsn_into=txn)   # first_lsn == 1
        s.log_updates(10)
        svc = service_with(s)
        assert svc.local_commit_lsn(s) == 1

    def test_oldest_of_several_txns(self):
        s = FakeSystem(1)
        t1 = s.txns.begin()
        s.log_updates(1, first_lsn_into=t1)
        t2 = s.txns.begin()
        s.log_updates(1, first_lsn_into=t2)
        svc = service_with(s)
        assert svc.local_commit_lsn(s) == t1.first_lsn


class TestGlobalValue:
    def test_minimum_across_systems(self):
        a, b = FakeSystem(1), FakeSystem(2)
        a.log_updates(100)
        txn = b.txns.begin()
        b.log_updates(1, first_lsn_into=txn)
        svc = service_with(a, b)
        assert svc.global_commit_lsn() == txn.first_lsn

    def test_lagging_idle_system_drags_value_down(self):
        """The paper's E2 concern: a system issuing low LSNs keeps the
        global Commit_LSN in the past."""
        fast, slow = FakeSystem(1), FakeSystem(2)
        fast.log_updates(1000)
        slow.log_updates(2)
        svc = service_with(fast, slow)
        assert svc.global_commit_lsn() == 3  # slow one dominates

    def test_lamport_exchange_lifts_the_value(self):
        fast, slow = FakeSystem(1), FakeSystem(2)
        fast.log_updates(1000)
        slow.log_updates(2)
        slow.log.observe_remote_max(fast.log.local_max_lsn)
        svc = service_with(fast, slow)
        assert svc.global_commit_lsn() == 1001

    def test_crashed_system_freezes_contribution(self):
        """Invariant I6 safety: a crashed system's in-flight updates
        must keep bounding the global value."""
        a, b = FakeSystem(1), FakeSystem(2)
        txn = a.txns.begin()
        a.log_updates(1, first_lsn_into=txn)   # first_lsn 1, uncommitted
        b.log_updates(5)
        svc = service_with(a, b)
        assert svc.global_commit_lsn() == 1
        a.crashed = True
        a.txns.crash()  # volatile state gone, like a real crash
        b.log_updates(100)
        assert svc.global_commit_lsn() == 1    # frozen, not 6/106

    def test_empty_service(self):
        svc = CommitLsnService()
        assert svc.global_commit_lsn() == 1


class TestCheck:
    def test_hit_and_miss_counting(self):
        s = FakeSystem(1)
        s.log_updates(10)
        svc = service_with(s)
        assert svc.check(5)        # 5 < 11
        assert not svc.check(11)
        assert not svc.check(50)
        assert svc.stats.get(COMMIT_LSN_HITS) == 1
        assert svc.stats.get(COMMIT_LSN_MISSES) == 2
        assert svc.hit_rate() == 1 / 3

    def test_hit_rate_empty(self):
        assert CommitLsnService().hit_rate() == 0.0

    def test_soundness_page_below_commit_lsn_is_committed(self):
        """If check() says yes, no active txn can have touched the page:
        every active txn's records have LSN >= its first_lsn >=
        commit_lsn > page_lsn."""
        s = FakeSystem(1)
        s.log_updates(5)                     # committed history
        txn = s.txns.begin()
        s.log_updates(1, first_lsn_into=txn)  # active from LSN 6
        svc = service_with(s)
        commit_lsn = svc.global_commit_lsn()
        assert commit_lsn == 6
        # Any page the active txn touched has page_lsn >= 6 -> miss.
        assert not svc.check(6)
        # Pages with page_lsn < 6 predate the active txn -> hit, sound.
        assert svc.check(5)
