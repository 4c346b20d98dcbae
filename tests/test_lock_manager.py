"""Tests for the global lock manager."""

import pytest

from repro.common.errors import DeadlockError
from repro.locking.lock_manager import (
    LockManager,
    LockMode,
    LockStatus,
    are_compatible,
    page_lock,
    record_lock,
    supremum,
)

R = record_lock(10, 0)
R2 = record_lock(10, 1)


class TestModeAlgebra:
    def test_compat_matrix_symmetry(self):
        for a in LockMode:
            for b in LockMode:
                assert are_compatible(a, b) == are_compatible(b, a)

    def test_x_conflicts_with_everything(self):
        for mode in LockMode:
            assert not are_compatible(LockMode.X, mode)

    def test_is_compatible_with_all_but_x(self):
        for mode in LockMode:
            assert are_compatible(LockMode.IS, mode) == (mode != LockMode.X)

    def test_s_s_compatible(self):
        assert are_compatible(LockMode.S, LockMode.S)
        assert not are_compatible(LockMode.S, LockMode.IX)

    def test_six_semantics(self):
        assert are_compatible(LockMode.SIX, LockMode.IS)
        assert not are_compatible(LockMode.SIX, LockMode.IX)
        assert not are_compatible(LockMode.SIX, LockMode.S)

    def test_supremum(self):
        assert supremum(LockMode.S, LockMode.IX) == LockMode.SIX
        assert supremum(LockMode.S, LockMode.S) == LockMode.S
        assert supremum(LockMode.IS, LockMode.X) == LockMode.X
        assert supremum(LockMode.IX, LockMode.S) == LockMode.SIX


class TestGrantAndQueue:
    def test_grant_on_free_resource(self):
        lm = LockManager()
        assert lm.acquire(1, R, LockMode.X) is LockStatus.GRANTED
        assert lm.holds(1, R, LockMode.X)

    def test_compatible_sharers(self):
        lm = LockManager()
        assert lm.acquire(1, R, LockMode.S) is LockStatus.GRANTED
        assert lm.acquire(2, R, LockMode.S) is LockStatus.GRANTED
        assert set(lm.holders(R)) == {1, 2}

    def test_conflict_queues(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.X)
        assert lm.acquire(2, R, LockMode.S) is LockStatus.WAITING
        assert lm.waiters(R) == [2]

    def test_retry_keeps_queue_position(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.X)
        lm.acquire(2, R, LockMode.S)
        assert lm.acquire(2, R, LockMode.S) is LockStatus.WAITING
        assert lm.waiters(R) == [2]

    def test_release_promotes_fifo(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.X)
        lm.acquire(2, R, LockMode.S)
        lm.acquire(3, R, LockMode.S)
        granted = lm.release(1, R)
        assert granted == [2, 3]  # both S requests grant together
        assert lm.holds(2, R, LockMode.S)
        assert lm.holds(3, R, LockMode.S)

    def test_fifo_prevents_starvation(self):
        """An S behind a queued X must not jump the queue."""
        lm = LockManager()
        lm.acquire(1, R, LockMode.S)
        lm.acquire(2, R, LockMode.X)   # waits
        assert lm.acquire(3, R, LockMode.S) is LockStatus.WAITING

    def test_release_unheld_raises(self):
        lm = LockManager()
        with pytest.raises(KeyError):
            lm.release(1, R)

    def test_independent_resources(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.X)
        assert lm.acquire(2, R2, LockMode.X) is LockStatus.GRANTED

    def test_page_and_record_locks_distinct(self):
        lm = LockManager()
        lm.acquire(1, page_lock(10), LockMode.X)
        assert lm.acquire(2, record_lock(10, 0), LockMode.X) \
            is LockStatus.GRANTED  # hierarchy is caller policy


class TestConversion:
    def test_reacquire_same_mode_is_noop(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.X)
        assert lm.acquire(1, R, LockMode.X) is LockStatus.GRANTED

    def test_upgrade_sole_holder(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.S)
        assert lm.acquire(1, R, LockMode.X) is LockStatus.GRANTED
        assert lm.holds(1, R, LockMode.X)

    def test_weaker_request_keeps_stronger_lock(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.X)
        assert lm.acquire(1, R, LockMode.S) is LockStatus.GRANTED
        assert lm.holds(1, R, LockMode.X)

    def test_upgrade_blocked_by_sharer(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.S)
        lm.acquire(2, R, LockMode.S)
        assert lm.acquire(1, R, LockMode.X) is LockStatus.WAITING

    def test_conversion_granted_ahead_of_queue(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.S)
        lm.acquire(2, R, LockMode.S)
        lm.acquire(3, R, LockMode.X)           # plain request queues
        lm.acquire(2, R, LockMode.X)           # conversion queues first
        granted = lm.release(1, R)
        assert granted[0] == 2                 # conversion wins
        assert lm.holds(2, R, LockMode.X)

    def test_ix_plus_s_becomes_six(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.IX)
        lm.acquire(1, R, LockMode.S)
        assert lm.holders(R)[1] == LockMode.SIX


class TestReleaseAll:
    def test_release_all_clears_owner(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.X)
        lm.acquire(1, R2, LockMode.S)
        lm.release_all(1)
        assert lm.locks_of(1) == {}

    def test_release_all_promotes_waiters(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.X)
        lm.acquire(2, R, LockMode.X)
        promoted = lm.release_all(1)
        assert (R, 2) in promoted

    def test_release_all_removes_queued_requests(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.X)
        lm.acquire(2, R, LockMode.X)
        lm.release_all(2)  # victim gives up while queued
        assert lm.waiters(R) == []

    def test_release_all_withdraws_queued_conversion(self):
        """Regression: the owner's queued S->X conversion sat behind
        its own grant, survived release_all, and was promoted by the
        next release — a finished transaction holding X forever."""
        lm = LockManager()
        lm.acquire("A", R, LockMode.S)
        lm.acquire("B", R, LockMode.S)
        assert lm.acquire("A", R, LockMode.X) is LockStatus.WAITING
        assert lm.release_all("A") == []
        assert lm.release("B", R) == []
        assert lm.holders(R) == {}
        assert lm.waiters(R) == []
        assert lm.owners() == set()


class TestDeadlock:
    def test_two_party_deadlock_detected(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.X)
        lm.acquire(2, R2, LockMode.X)
        assert lm.acquire(2, R, LockMode.X) is LockStatus.WAITING
        with pytest.raises(DeadlockError):
            lm.acquire(1, R2, LockMode.X)

    def test_victim_request_removed(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.X)
        lm.acquire(2, R2, LockMode.X)
        lm.acquire(2, R, LockMode.X)
        with pytest.raises(DeadlockError):
            lm.acquire(1, R2, LockMode.X)
        assert lm.waiters(R2) == []
        # Victim still holds its original lock until it rolls back.
        assert lm.holds(1, R, LockMode.X)

    def test_three_party_cycle(self):
        lm = LockManager()
        r3 = record_lock(10, 2)
        lm.acquire(1, R, LockMode.X)
        lm.acquire(2, R2, LockMode.X)
        lm.acquire(3, r3, LockMode.X)
        assert lm.acquire(1, R2, LockMode.X) is LockStatus.WAITING
        assert lm.acquire(2, r3, LockMode.X) is LockStatus.WAITING
        with pytest.raises(DeadlockError):
            lm.acquire(3, R, LockMode.X)

    def test_no_false_positive_on_chain(self):
        lm = LockManager()
        lm.acquire(1, R, LockMode.X)
        assert lm.acquire(2, R, LockMode.X) is LockStatus.WAITING
        assert lm.acquire(3, R, LockMode.X) is LockStatus.WAITING

    def test_upgrade_deadlock(self):
        """Two S holders both upgrading to X deadlock."""
        lm = LockManager()
        lm.acquire(1, R, LockMode.S)
        lm.acquire(2, R, LockMode.S)
        assert lm.acquire(1, R, LockMode.X) is LockStatus.WAITING
        with pytest.raises(DeadlockError):
            lm.acquire(2, R, LockMode.X)


class TestFastPath:
    """The uncontended-acquire fast lane must be observably identical
    to the general path: same status, same stats, same trace events."""

    def test_mask_matches_reference_matrix(self):
        reference = {
            (LockMode.IS, LockMode.IS), (LockMode.IS, LockMode.IX),
            (LockMode.IS, LockMode.S), (LockMode.IS, LockMode.SIX),
            (LockMode.IX, LockMode.IX), (LockMode.S, LockMode.S),
        }
        for a in LockMode:
            for b in LockMode:
                expected = (a, b) in reference or (b, a) in reference
                assert are_compatible(a, b) is expected, (a, b)

    def test_uncontended_acquire_counts_request(self):
        from repro.common.stats import LOCK_REQUESTS

        lm = LockManager()
        stats = lm.stats
        lm.acquire(1, R, LockMode.X)
        assert stats.get(LOCK_REQUESTS) == 1
        lm.acquire(1, R2, LockMode.S)
        assert stats.get(LOCK_REQUESTS) == 2

    def test_try_acquire_fast_path_grants(self):
        lm = LockManager()
        assert lm.try_acquire(1, R, LockMode.X) is LockStatus.GRANTED
        assert lm.holds(1, R, LockMode.X)
        assert lm.waiters(R) == []

    def test_fast_path_then_contention_behaves_normally(self):
        """A resource first touched via the fast lane must queue, convert
        and release exactly like one built by the general path."""
        lm = LockManager()
        lm.acquire(1, R, LockMode.S)          # fast lane creates the head
        assert lm.acquire(2, R, LockMode.S) is LockStatus.GRANTED
        assert lm.acquire(3, R, LockMode.X) is LockStatus.WAITING
        assert lm.waiters(R) == [3]
        lm.release(1, R)
        granted = lm.release(2, R)
        assert granted == [3]
        assert lm.holds(3, R, LockMode.X)

    def test_fast_path_emits_grant_trace(self):
        from repro.common.seams import Seams
        from repro.obs import events as ev
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        lm = LockManager(Seams.of(tracer=tracer))
        lm.acquire(1, R, LockMode.X)
        grants = [e for e in tracer.events() if e.kind == ev.LOCK_GRANT]
        assert len(grants) == 1
        assert grants[0].fields["owner"] == 1
        assert grants[0].fields["mode"] == "X"
