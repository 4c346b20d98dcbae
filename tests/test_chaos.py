"""Tests for repro.faults: the injector DSL, retry/degradation
policies, torn-write media repair, and the crash drills (``python -m
repro.chaos``: the campaign, the failover drill, the restart drill).

The drill tests run the real seeded chaos workload end to end — kill,
media sweep, restart recovery, verifier, invariant checker — so they
double as integration coverage for every fault seam in the stack.
"""

import hashlib
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.common.clock import SkewedClock
from repro.common.errors import (
    CorruptPageError,
    DegradedModeError,
    FaultInjectedError,
    LockTimeoutError,
    LockWouldBlock,
    MediaError,
    RetryExhaustedError,
    TornPageError,
)
from repro.common.stats import (
    DEGRADED_ENTRIES,
    DISK_PAGE_WRITES,
    DEGRADED_REJECTIONS,
    FAULTS_INJECTED,
    NET_DELAYED,
    NET_DROPS_INJECTED,
    NET_DUP_DROPPED,
    NET_RETRANSMITS,
    RETRY_EXHAUSTED,
    StatsRegistry,
)
from repro.cs.system import CsSystem
from repro.faults import points as fp
from repro.faults import scenarios
from repro.faults.campaign import (
    CAMPAIGN,
    FAILOVER,
    RESTART,
    Report,
    Result,
    Spec,
    enumerate_specs,
    run_campaign,
    run_drill,
    run_spec,
    run_survey,
    sabotage_redo_screening,
)
from repro.faults.injector import (
    CRASH,
    CRASH_COMPLEX,
    TORN,
    NULL_INJECTOR,
    FaultInjector,
    FaultPlan,
)
from repro.faults.policy import (
    RetryPolicy,
    run_with_lock_retry,
    run_with_retry,
)
from repro.lint import lint_source
from repro.lint.rules import RULES_BY_ID
from repro.obs import events as ev
from repro.obs.capture import capture_e1
from repro.obs.invariants import check_trace
from repro.obs.tracer import Tracer
from repro.recovery import redo
from repro.recovery.checkpoint import take_checkpoint
from repro.recovery.media import recover_page_from_media
from repro.replication import StandbyComplex
from repro.sd.complex import SDComplex
from repro.harness.verifier import verify_sd_complex


def committed_row(engine, payload=b"v1"):
    txn = engine.begin()
    page_id = engine.allocate_page(txn)
    slot = engine.insert(txn, page_id, payload)
    engine.commit(txn)
    return page_id, slot


def arm_next_hit(injector, point):
    """A site builder for the *next* crossing of ``point``."""
    return injector.plan.at(point).on_hit(injector.hit_count(point) + 1)


# ----------------------------------------------------------------------
# plan DSL / injector semantics
# ----------------------------------------------------------------------
class TestFaultPlanDsl:
    def test_nth_rule_fires_exactly_once(self):
        plan = FaultPlan(seed=0)
        plan.at("p").on_hit(3).crash()
        injector = FaultInjector(plan)
        injector.fire("p")
        injector.fire("p")
        with pytest.raises(FaultInjectedError) as excinfo:
            injector.fire("p", system=7)
        assert excinfo.value.point == "p"
        assert excinfo.value.action == CRASH
        assert excinfo.value.hit == 3
        assert excinfo.value.system == 7
        injector.fire("p")  # nth is one-shot: hit 4 passes
        assert injector.hit_count("p") == 4
        assert injector.fired() == [("p", 3, CRASH)]

    def test_every_kth_hit_fires_periodically(self):
        plan = FaultPlan(seed=0)
        plan.at("p").every_hit(2).fail()
        injector = FaultInjector(plan)
        outcomes = []
        for _ in range(6):
            try:
                injector.fire("p")
                outcomes.append("ok")
            except FaultInjectedError:
                outcomes.append("boom")
        assert outcomes == ["ok", "boom", "ok", "boom", "ok", "boom"]

    def test_probability_rule_is_seed_deterministic(self):
        def pattern(seed):
            plan = FaultPlan(seed=seed)
            plan.at("p").with_probability(0.5).fail()
            injector = FaultInjector(plan)
            fired = []
            for _ in range(64):
                try:
                    injector.fire("p")
                    fired.append(False)
                except FaultInjectedError:
                    fired.append(True)
            return fired

        first = pattern(seed=42)
        assert first == pattern(seed=42)
        assert any(first) and not all(first)
        assert pattern(seed=43) != first

    def test_empty_plan_counts_hits_without_firing(self):
        injector = FaultInjector(FaultPlan(seed=0))
        for _ in range(5):
            injector.fire("p", system=1)
        assert injector.hit_count("p") == 5
        assert injector.fired() == []

    def test_null_injector_is_disabled_and_inert(self):
        assert not NULL_INJECTOR.enabled
        assert NULL_INJECTOR.fire("p") is None
        assert NULL_INJECTOR.hit_count("p") == 0

    def test_torn_action_raises_torn_page_error(self):
        plan = FaultPlan(seed=0)
        plan.at(fp.DISK_WRITE).on_hit(1).torn()
        injector = FaultInjector(plan)
        with pytest.raises(TornPageError):
            injector.fire(fp.DISK_WRITE)


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(max_attempts=6, base_ticks=2,
                             max_backoff_ticks=9)
        assert [policy.backoff_ticks(a) for a in range(1, 6)] == [
            2, 4, 8, 9, 9]

    def test_transient_block_is_retried_to_success(self):
        clock = SkewedClock()
        policy = RetryPolicy(max_attempts=4, base_ticks=1, clock=clock)
        state = {"failures": 2, "attempts": 0}

        def attempt():
            state["attempts"] += 1
            if state["failures"]:
                state["failures"] -= 1
                raise LockWouldBlock("t1", "row-9")
            return "granted"

        assert run_with_lock_retry(policy, attempt) == "granted"
        assert state["attempts"] == 3
        assert clock.ticks > 0  # backoff consumed simulated time

    def test_persistent_block_times_out(self):
        policy = RetryPolicy(max_attempts=3, base_ticks=1,
                             clock=SkewedClock())
        calls = {"n": 0}

        def attempt():
            calls["n"] += 1
            raise LockWouldBlock("t1", "row-9")

        with pytest.raises(LockTimeoutError):
            run_with_lock_retry(policy, attempt)
        assert calls["n"] == 3

    def test_no_jitter_seed_keeps_historical_schedule(self):
        plain = RetryPolicy(max_attempts=6, base_ticks=2,
                            max_backoff_ticks=9)
        assert all(plain.jitter_ticks(a) == 0 for a in range(1, 6))
        assert [plain.backoff_ticks(a) for a in range(1, 6)] == [
            2, 4, 8, 9, 9]

    def test_jitter_is_deterministic_per_seed(self):
        one = RetryPolicy(base_ticks=4, max_backoff_ticks=64,
                          jitter_seed=7)
        two = RetryPolicy(base_ticks=4, max_backoff_ticks=64,
                          jitter_seed=7)
        other = RetryPolicy(base_ticks=4, max_backoff_ticks=64,
                            jitter_seed=8)
        schedule = [one.backoff_ticks(a) for a in range(1, 8)]
        assert schedule == [two.backoff_ticks(a) for a in range(1, 8)]
        assert schedule != [other.backoff_ticks(a) for a in range(1, 8)]

    def test_jitter_bounded_by_capped_backoff(self):
        policy = RetryPolicy(base_ticks=2, max_backoff_ticks=16,
                             jitter_seed=123)
        for attempt in range(1, 10):
            base = min(2 << (attempt - 1), 16)
            jitter = policy.jitter_ticks(attempt)
            assert 0 <= jitter < base
            assert policy.backoff_ticks(attempt) == base + jitter

    def test_attempts_are_one_based(self):
        policy = RetryPolicy(jitter_seed=1)
        with pytest.raises(ValueError):
            policy.jitter_ticks(0)
        with pytest.raises(ValueError):
            policy.backoff_ticks(0)


class TestRunWithRetry:
    def test_retries_transient_then_succeeds(self):
        clock = SkewedClock()
        policy = RetryPolicy(max_attempts=4, base_ticks=1, clock=clock)
        plan = FaultPlan(seed=0)
        plan.at(fp.NET_MSG).on_hit(1).fail()
        plan.at(fp.NET_MSG).on_hit(2).fail()
        injector = FaultInjector(plan)
        state = {"attempts": 0}

        def attempt():
            state["attempts"] += 1
            injector.fire(fp.NET_MSG, system=1)
            return "delivered"

        assert run_with_retry(policy, attempt,
                              retryable=FaultInjectedError) == "delivered"
        assert state["attempts"] == 3
        assert clock.ticks > 0

    def test_exhaustion_counts_and_raises_typed_error(self):
        policy = RetryPolicy(max_attempts=3, base_ticks=1,
                             clock=SkewedClock())
        stats = StatsRegistry()
        calls = {"n": 0}
        retries = []

        plan = FaultPlan(seed=0)
        plan.at(fp.REPL_SHIP).every_hit(1).fail()
        injector = FaultInjector(plan)

        def attempt():
            calls["n"] += 1
            injector.fire(fp.REPL_SHIP, system=9)

        with pytest.raises(RetryExhaustedError) as excinfo:
            run_with_retry(policy, attempt, retryable=FaultInjectedError,
                           stats=stats, on_retry=retries.append,
                           label="repl.ship->9")
        assert calls["n"] == 3
        assert retries == [1, 2]
        assert stats.get(RETRY_EXHAUSTED) == 1
        assert excinfo.value.attempts == 3
        assert excinfo.value.operation == "repl.ship->9"
        assert isinstance(excinfo.value.__cause__, FaultInjectedError)

    def test_should_retry_veto_propagates_immediately(self):
        """A crash-flavoured fault must not be retried away."""
        policy = RetryPolicy(max_attempts=5, clock=SkewedClock())
        stats = StatsRegistry()
        calls = {"n": 0}

        plan = FaultPlan(seed=0)
        plan.at(fp.DISK_WRITE).every_hit(1).crash()
        injector = FaultInjector(plan)

        def attempt():
            calls["n"] += 1
            injector.fire(fp.DISK_WRITE, system=1)

        with pytest.raises(FaultInjectedError):
            run_with_retry(
                policy, attempt, retryable=FaultInjectedError, stats=stats,
                should_retry=lambda exc: exc.action != CRASH)
        assert calls["n"] == 1
        assert stats.get(RETRY_EXHAUSTED) == 0

    def test_non_retryable_exception_propagates(self):
        policy = RetryPolicy(max_attempts=5, clock=SkewedClock())

        def attempt():
            raise ValueError("not a repro error")

        with pytest.raises(ValueError):
            run_with_retry(policy, attempt, retryable=FaultInjectedError)


# ----------------------------------------------------------------------
# degraded mode (log-device failure -> read-only)
# ----------------------------------------------------------------------
class TestDegradedModeSd:
    def test_log_force_failure_degrades_instance(self):
        injector = FaultInjector(FaultPlan(seed=0))
        tracer = Tracer()
        sd = SDComplex(n_data_pages=64, tracer=tracer, injector=injector)
        s1 = sd.add_instance(1)
        page_a, slot_a = committed_row(s1, b"safe")
        page_b, slot_b = committed_row(s1, b"other")
        arm_next_hit(injector, fp.LOG_FORCE).fail()

        txn = s1.begin()
        s1.update(txn, page_a, slot_a, b"doomed")
        with pytest.raises(DegradedModeError):
            s1.commit(txn)
        assert s1.degraded
        assert sd.stats.get(DEGRADED_ENTRIES) == 1
        assert any(e.kind == ev.DEGRADED_ENTER for e in tracer.events())

        # Writes are rejected, reads still served.
        reader = s1.begin()
        with pytest.raises(DegradedModeError):
            s1.insert(reader, page_b, b"nope")
        assert sd.stats.get(DEGRADED_REJECTIONS) == 1
        assert s1.read(reader, page_b, slot_b) == b"other"
        # A reader logged nothing, so its commit needs no log device.
        records = s1.log.record_count()
        s1.commit(reader)
        assert s1.log.record_count() == records
        assert sd.stats.get(DEGRADED_REJECTIONS) == 1

        # A restart repairs the log device: the unacknowledged commit
        # rolls back (its COMMIT record never reached stable storage).
        sd.crash_instance(1)
        assert not s1.degraded
        assert any(e.kind == ev.DEGRADED_EXIT for e in tracer.events())
        sd.restart_instance(1)
        verdict = s1.begin()
        assert s1.read(verdict, page_a, slot_a) == b"safe"

    def test_checkpoint_while_degraded_appends_nothing(self):
        """A checkpoint is log work: it is rejected before its BEGIN, so
        the COMMIT the failed force left behind never becomes stable."""
        injector = FaultInjector(FaultPlan(seed=0))
        sd = SDComplex(n_data_pages=64, injector=injector)
        s1 = sd.add_instance(1)
        page_a, slot_a = committed_row(s1, b"safe")
        arm_next_hit(injector, fp.LOG_FORCE).fail()
        txn = s1.begin()
        s1.update(txn, page_a, slot_a, b"doomed")
        with pytest.raises(DegradedModeError):
            s1.commit(txn)
        log = s1.log
        before = (log.end_offset, log.flushed_offset,
                  log.master_record_offset)
        with pytest.raises(DegradedModeError,
                           match="system 1 is read-only"):
            take_checkpoint(s1)
        assert (log.end_offset, log.flushed_offset,
                log.master_record_offset) == before
        sd.crash_instance(1)
        sd.restart_instance(1)
        verdict = s1.begin()
        assert s1.read(verdict, page_a, slot_a) == b"safe"

    def test_rollback_while_degraded_appends_nothing(self):
        """Rolling back the doomed transaction is log work too: no CLR
        or END follows the COMMIT the failed force left behind, and the
        transaction keeps its state and locks until restart."""
        injector = FaultInjector(FaultPlan(seed=0))
        sd = SDComplex(n_data_pages=64, injector=injector)
        s1 = sd.add_instance(1)
        page_a, slot_a = committed_row(s1, b"safe")
        arm_next_hit(injector, fp.LOG_FORCE).fail()
        txn = s1.begin()
        s1.update(txn, page_a, slot_a, b"doomed")
        with pytest.raises(DegradedModeError):
            s1.commit(txn)
        log = s1.log
        before = (log.end_offset, log.flushed_offset)
        state, locks = txn.state, set(sd.glm.locks_of(txn.txn_id))
        assert locks
        with pytest.raises(DegradedModeError,
                           match="system 1 is read-only"):
            s1.rollback(txn)
        assert (log.end_offset, log.flushed_offset) == before
        assert sd.stats.get(DEGRADED_REJECTIONS) == 1
        assert txn.state is state
        assert set(sd.glm.locks_of(txn.txn_id)) == locks
        sd.crash_instance(1)
        sd.restart_instance(1)
        verdict = s1.begin()
        assert s1.read(verdict, page_a, slot_a) == b"safe"

    def test_flush_while_degraded_forces_and_writes_nothing(self):
        """After the failed commit force, flushing the pool would force
        the failed log device and write the doomed page.  The WAL
        enforcement point refuses first: nothing is forced or written,
        one rejection per refused write, and restart reads the
        pre-commit value."""
        injector = FaultInjector(FaultPlan(seed=0))
        sd = SDComplex(n_data_pages=64, injector=injector)
        s1 = sd.add_instance(1)
        page_a, slot_a = committed_row(s1, b"safe")
        arm_next_hit(injector, fp.LOG_FORCE).fail()
        txn = s1.begin()
        s1.update(txn, page_a, slot_a, b"doomed")
        with pytest.raises(DegradedModeError):
            s1.commit(txn)
        log = s1.log
        before = (log.end_offset, log.flushed_offset,
                  sd.disk.page_lsn_on_disk(page_a),
                  sd.stats.get(DISK_PAGE_WRITES))
        rejections = sd.stats.get(DEGRADED_REJECTIONS)
        with pytest.raises(DegradedModeError,
                           match="system 1 is read-only"):
            s1.pool.flush_all()
        with pytest.raises(DegradedModeError,
                           match="system 1 is read-only"):
            s1.pool.write_page(page_a)
        assert (log.end_offset, log.flushed_offset,
                sd.disk.page_lsn_on_disk(page_a),
                sd.stats.get(DISK_PAGE_WRITES)) == before
        assert sd.stats.get(DEGRADED_REJECTIONS) == rejections + 2
        assert s1.pool.is_dirty(page_a)
        sd.crash_instance(1)
        sd.restart_instance(1)
        verdict = s1.begin()
        assert s1.read(verdict, page_a, slot_a) == b"safe"

    def test_eviction_while_degraded_passes_over_the_doomed_frame(self):
        """A clean frame, or a dirty one whose records are stable,
        still evicts while degraded; the doomed frame is passed over,
        and when nothing else can go the fix raises."""
        injector = FaultInjector(FaultPlan(seed=0))
        sd = SDComplex(n_data_pages=64, injector=injector)
        s1 = sd.add_instance(1, buffer_capacity=4)
        page_a, slot_a = committed_row(s1, b"safe")
        page_b, slot_b = committed_row(s1, b"stable")
        arm_next_hit(injector, fp.LOG_FORCE).fail()
        txn = s1.begin()
        s1.update(txn, page_a, slot_a, b"doomed")
        with pytest.raises(DegradedModeError):
            s1.commit(txn)
        pool = s1.pool
        # The doomed frame is the least recently used one.
        for bcb in list(pool.pages()):
            if bcb.page.page_id != page_a:
                pool.fix(bcb.page.page_id)
                pool.unfix(bcb.page.page_id)
        assert next(iter(pool.pages())).page.page_id == page_a
        assert pool.is_dirty(page_b)           # stable, so evictable
        log = s1.log
        before = (log.flushed_offset, sd.disk.page_lsn_on_disk(page_a))
        rejections = sd.stats.get(DEGRADED_REJECTIONS)
        for page_id in range(70, 73):
            pool.fix(page_id)                  # evicts, never page_a
            pool.unfix(page_id)
        assert pool.contains(page_a) and pool.is_dirty(page_a)
        assert not pool.contains(page_b)
        assert sd.disk.page_lsn_on_disk(page_b) is not None
        # Pin everything else: the doomed frame is all that could go.
        pinned = [bcb.page.page_id for bcb in pool.pages()
                  if bcb.page.page_id != page_a]
        for page_id in pinned:
            pool.fix(page_id)
        with pytest.raises(DegradedModeError,
                           match="system 1 is read-only"):
            pool.fix(80)
        for page_id in pinned:
            pool.unfix(page_id)
        assert (log.flushed_offset,
                sd.disk.page_lsn_on_disk(page_a)) == before
        assert sd.stats.get(DEGRADED_REJECTIONS) == rejections + 1
        sd.crash_instance(1)
        sd.restart_instance(1)
        verdict = s1.begin()
        assert s1.read(verdict, page_a, slot_a) == b"safe"
        assert s1.read(verdict, page_b, slot_b) == b"stable"


class TestDegradedModeCs:
    def test_log_force_failure_degrades_server(self):
        injector = FaultInjector(FaultPlan(seed=0))
        cs = CsSystem(n_data_pages=64, injector=injector)
        c1 = cs.add_client(1)
        page_a, slot_a = committed_row(c1, b"safe")
        page_b, slot_b = committed_row(c1, b"other")
        page_c, slot_c = committed_row(c1, b"read-me")
        arm_next_hit(injector, fp.LOG_FORCE).fail()

        txn = c1.begin()
        c1.update(txn, page_a, slot_a, b"doomed")
        with pytest.raises(DegradedModeError):
            c1.commit(txn)
        assert cs.server.degraded
        assert cs.stats.get(DEGRADED_ENTRIES) == 1

        # The client is read-only with its server: the next update is
        # rejected before it reaches the client's log.
        txn2 = c1.begin()
        with pytest.raises(DegradedModeError, match="server is read-only"):
            c1.update(txn2, page_b, slot_b, b"also-doomed")
        rejections = cs.stats.get(DEGRADED_REJECTIONS)
        assert rejections >= 1

        # A reader logged nothing: its commit never reaches the door.
        reader = c1.begin()
        assert c1.read(reader, page_c, slot_c) == b"read-me"
        c1.commit(reader)
        assert cs.stats.get(DEGRADED_REJECTIONS) == rejections

        # Server restart clears the mode and undoes the doomed update.
        cs.crash_server()
        assert not cs.server.degraded
        cs.restart_server()
        verdict = c1.begin()
        assert c1.read(verdict, page_a, slot_a) == b"safe"
        committed_row(c1, b"post-repair")  # log device works again

    def test_checkpoint_while_degraded_appends_nothing(self):
        """The server's checkpoint is rejected like its log work."""
        injector = FaultInjector(FaultPlan(seed=0))
        cs = CsSystem(n_data_pages=64, injector=injector)
        c1 = cs.add_client(1)
        page_a, slot_a = committed_row(c1, b"safe")
        arm_next_hit(injector, fp.LOG_FORCE).fail()
        txn = c1.begin()
        c1.update(txn, page_a, slot_a, b"doomed")
        with pytest.raises(DegradedModeError):
            c1.commit(txn)
        log = cs.server.log
        before = (log.end_offset, log.flushed_offset,
                  log.master_record_offset)
        with pytest.raises(DegradedModeError, match="server is read-only"):
            cs.server.take_checkpoint()
        assert (log.end_offset, log.flushed_offset,
                log.master_record_offset) == before
        cs.crash_server()
        cs.restart_server()
        verdict = c1.begin()
        assert c1.read(verdict, page_a, slot_a) == b"safe"

    def test_flush_while_degraded_forces_and_writes_nothing(self):
        """The server's pool holds the doomed page (sent back before
        the commit).  After the failed commit force, flushing it would
        force the failed device; the WAL enforcement point refuses
        first, and restart reads the pre-commit value."""
        injector = FaultInjector(FaultPlan(seed=0))
        cs = CsSystem(n_data_pages=64, injector=injector)
        c1 = cs.add_client(1)
        page_a, slot_a = committed_row(c1, b"safe")
        arm_next_hit(injector, fp.LOG_FORCE).fail()
        txn = c1.begin()
        c1.update(txn, page_a, slot_a, b"doomed")
        c1.send_page_back(page_a)
        with pytest.raises(DegradedModeError):
            c1.commit(txn)
        server = cs.server
        log = server.log
        assert server.pool.is_dirty(page_a)
        before = (log.end_offset, log.flushed_offset,
                  server.disk.page_lsn_on_disk(page_a),
                  cs.stats.get(DISK_PAGE_WRITES))
        rejections = cs.stats.get(DEGRADED_REJECTIONS)
        with pytest.raises(DegradedModeError, match="server is read-only"):
            server.pool.flush_all()
        with pytest.raises(DegradedModeError, match="server is read-only"):
            server.pool.write_page(page_a)
        assert (log.end_offset, log.flushed_offset,
                server.disk.page_lsn_on_disk(page_a),
                cs.stats.get(DISK_PAGE_WRITES)) == before
        assert cs.stats.get(DEGRADED_REJECTIONS) == rejections + 2
        cs.crash_server()
        cs.restart_server()
        verdict = c1.begin()
        assert c1.read(verdict, page_a, slot_a) == b"safe"

    def test_update_while_degraded_appends_nothing(self):
        """A client update after the server degraded is rejected at
        the client, before it appends: the client log's end (its last
        LSN and its buffered records) stays put and one rejection is
        counted."""
        injector = FaultInjector(FaultPlan(seed=0))
        cs = CsSystem(n_data_pages=64, injector=injector)
        c1 = cs.add_client(1)
        page_a, slot_a = committed_row(c1, b"safe")
        page_b, slot_b = committed_row(c1, b"other")
        arm_next_hit(injector, fp.LOG_FORCE).fail()
        txn = c1.begin()
        c1.update(txn, page_a, slot_a, b"doomed")
        with pytest.raises(DegradedModeError):
            c1.commit(txn)
        end = (c1.log.local_max_lsn, c1.log.pending_count())
        rejections = cs.stats.get(DEGRADED_REJECTIONS)
        txn2 = c1.begin()
        with pytest.raises(DegradedModeError, match="server is read-only"):
            c1.update(txn2, page_b, slot_b, b"rejected")
        assert (c1.log.local_max_lsn, c1.log.pending_count()) == end
        assert cs.stats.get(DEGRADED_REJECTIONS) == rejections + 1
        assert c1.read(txn2, page_b, slot_b) == b"other"

    def test_rollback_while_degraded_appends_nothing(self):
        """Rolling back the transaction whose commit degraded the
        server is log work: it is rejected before any undo, nothing
        reaches the client or the server log, and the transaction keeps
        its state and locks until the server restarts."""
        injector = FaultInjector(FaultPlan(seed=0))
        cs = CsSystem(n_data_pages=64, injector=injector)
        c1 = cs.add_client(1)
        page_a, slot_a = committed_row(c1, b"safe")
        arm_next_hit(injector, fp.LOG_FORCE).fail()
        txn = c1.begin()
        c1.update(txn, page_a, slot_a, b"doomed")
        with pytest.raises(DegradedModeError):
            c1.commit(txn)
        log = cs.server.log
        before = (log.end_offset, log.flushed_offset,
                  c1.log.local_max_lsn, c1.log.pending_count())
        state = txn.state
        locks = set(cs.server.glm.locks_of(txn.txn_id))
        assert locks
        rejections = cs.stats.get(DEGRADED_REJECTIONS)
        with pytest.raises(DegradedModeError, match="server is read-only"):
            c1.rollback(txn)
        assert cs.stats.get(DEGRADED_REJECTIONS) == rejections + 1
        assert (log.end_offset, log.flushed_offset,
                c1.log.local_max_lsn, c1.log.pending_count()) == before
        assert txn.state is state
        assert set(cs.server.glm.locks_of(txn.txn_id)) == locks
        cs.crash_server()
        cs.restart_server()
        verdict = c1.begin()
        assert c1.read(verdict, page_a, slot_a) == b"safe"


# ----------------------------------------------------------------------
# torn writes + media repair
# ----------------------------------------------------------------------
class TestTornWrite:
    def test_torn_write_detected_on_read_and_rebuilt(self):
        injector = FaultInjector(FaultPlan(seed=0))
        sd = SDComplex(n_data_pages=64, injector=injector)
        s1 = sd.add_instance(1)
        page_id, slot = committed_row(s1, b"precious")
        arm_next_hit(injector, fp.DISK_WRITE).torn()

        with pytest.raises(TornPageError):
            s1.pool.write_page(page_id)
        with pytest.raises(MediaError):
            sd.disk.read_page(page_id)

        recover_page_from_media(page_id, None, sd.local_logs(),
                                disk=sd.disk)
        assert sd.disk.read_page(page_id).read_record(slot) == b"precious"


# ----------------------------------------------------------------------
# network faults ride the retry/dedup machinery transparently
# ----------------------------------------------------------------------
class TestNetworkFaults:
    def _run(self, arm):
        injector = FaultInjector(FaultPlan(seed=0))
        arm(injector.plan)
        sd, tracer = scenarios.build_sd(injector, seed=0)
        scenarios.run_sd_workload(sd, 0)
        return sd

    def test_drops_are_retransmitted(self):
        sd = self._run(lambda plan: plan.at(fp.NET_MSG).every_hit(5).drop())
        assert sd.stats.get(NET_DROPS_INJECTED) > 0
        assert sd.stats.get(NET_RETRANSMITS) > 0
        assert verify_sd_complex(sd).ok

    def test_duplicates_are_deduplicated(self):
        sd = self._run(
            lambda plan: plan.at(fp.NET_MSG).every_hit(3).duplicate())
        assert sd.stats.get(NET_DUP_DROPPED) > 0
        assert verify_sd_complex(sd).ok

    def test_delays_are_parked_then_flushed(self):
        sd = self._run(lambda plan: plan.at(fp.NET_MSG).every_hit(7).delay())
        assert sd.stats.get(NET_DELAYED) > 0
        assert verify_sd_complex(sd).ok


# ----------------------------------------------------------------------
# the drills
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parent.parent
#: ``python -m repro.chaos`` stdout SHA-256 + exit code per argv, captured
#: from the three-triplet implementation the one drill protocol replaced
#: (a fresh process per argv).  Never re-freeze this to make a change
#: pass: a moved line is a behavioural difference to explain.
CHAOS_GOLDEN = json.loads(
    (REPO_ROOT / "tests" / "golden" / "chaos_digests.json").read_text())


@pytest.fixture(scope="module")
def surveys():
    return {arch: run_survey(arch, seed=0) for arch in ("sd", "cs")}


@pytest.fixture(scope="module")
def failover_smoke():
    return run_drill(FAILOVER, seed=0, smoke=True)[0]


MATRIX_POINTS = {
    "sd": (fp.LOG_FORCE, fp.INSTANCE_UPDATE, fp.DISK_WRITE),
    "cs": (fp.LOG_FORCE, fp.INSTANCE_UPDATE, fp.CS_SHIP),
}


class TestChaosGolden:
    @pytest.mark.parametrize(
        "entry", CHAOS_GOLDEN,
        ids=lambda e: "-".join(a.lstrip("-") for a in e["argv"]) or "full")
    def test_cli_output_matches_golden(self, capsys, entry):
        from repro.chaos import main

        assert main(entry["argv"]) == entry["exit"]
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == \
            entry["stdout_sha256"], out


class TestCampaignMatrix:
    @pytest.mark.parametrize("arch", ["sd", "cs"])
    @pytest.mark.parametrize("kind", [0, 1, 2])
    @pytest.mark.parametrize("action", [CRASH, CRASH_COMPLEX])
    def test_kill_and_recover(self, surveys, arch, kind, action):
        point = MATRIX_POINTS[arch][kind]
        # The full campaign's complex-wide kill sits at the middle hit.
        mid = next((spec.hit for spec in enumerate_specs(CAMPAIGN,
                                                         surveys[arch])
                    if spec.point == point and spec.action == CRASH_COMPLEX),
                   0)
        assert mid, f"{point} never hit in the {arch} workload"
        result = run_spec(CAMPAIGN, Spec(arch, point, mid, action), seed=0)
        assert result.fired, result.to_dict()
        assert result.ok, result.to_dict()

    @pytest.mark.parametrize("arch", ["sd", "cs"])
    def test_torn_spec_repairs_media(self, surveys, arch):
        torn = [s for s in enumerate_specs(CAMPAIGN, surveys[arch])
                if s.action == TORN]
        assert torn, "full campaign must include a torn-write spec"
        result = run_spec(CAMPAIGN, torn[0], seed=0)
        assert result.ok, result.to_dict()
        assert result.repaired_pages

    def test_smoke_campaign_stays_small_and_green(self, surveys):
        reports = [run_campaign(arch, seed=0, smoke=True)
                   for arch in ("sd", "cs")]
        assert sum(len(r.results) for r in reports) <= 10
        for report in reports:
            assert report.ok, report.table()
            assert surveys[report.arch].total_hits.get(fp.DISK_WRITE, 0) > 0


class TestFailoverDrill:
    def test_smoke_drill_is_green(self, failover_smoke):
        assert failover_smoke.results, "smoke drill produced no rehearsals"
        assert failover_smoke.ok, failover_smoke.table()
        acks = {result.spec.ack for result in failover_smoke.results}
        assert acks == {"local", "quorum", "all"}

    def test_acked_commits_never_lost_under_quorum_and_all(
            self, failover_smoke):
        for result in failover_smoke.results:
            if result.spec.ack in ("quorum", "all"):
                assert result.lost_commits == 0, result.to_dict()
            else:
                assert result.lost_commits <= \
                    scenarios.REPL_WINDOW_RECORDS, result.to_dict()

    def test_single_rehearsal_kills_and_promotes(self, failover_smoke):
        spec = next(result.spec for result in failover_smoke.results
                    if result.spec.ack == "quorum")
        result = run_spec(FAILOVER, spec, seed=0)
        assert result.fired, result.to_dict()
        assert result.ok, result.to_dict()
        assert result.promoted_system >= scenarios.STANDBY_BASE_ID
        assert result.image_match and result.writable


class TestRestartDrill:
    def test_smoke_drill_is_green(self):
        report = run_drill(RESTART, seed=0, smoke=True)[0]
        assert report.results, "smoke drill produced no rehearsals"
        assert report.ok, report.table()
        assert all(result.image_match for result in report.results)
        # At least one rehearsal must actually defer redo work, or the
        # drill would be comparing two eager restarts.
        assert any(result.lazy_pages > 0 for result in report.results)

    def test_same_seed_same_drill(self):
        first = run_drill(RESTART, seed=0, smoke=True)[0]
        again = run_drill(RESTART, seed=0, smoke=True)[0]
        assert ([r.to_dict() for r in first.results]
                == [r.to_dict() for r in again.results])
        assert first.table() == again.table()

    def test_drill_cli_exit_code(self, capsys):
        from repro.chaos import main

        assert main(["--drill", "restart", "--smoke"]) == 0
        assert "DRILL: OK" in capsys.readouterr().out

    def test_unknown_drill_lists_drills_and_exits_2(self, capsys):
        from repro.chaos import main

        assert main(["--drill", "bogus"]) == 2
        out = capsys.readouterr().out
        assert "failover" in out and "restart" in out


NO_FIRE = "armed rule never fired (hit count drifted?)"
RECOVERY_FAILED = "recovery failed: ReproError: boom"
VERIFY_DETAIL = "I1: page 64: quiesced disk LSN 28 != logged maximum 30"
VIOLATIONS = ("v1", "v2", "v3", "v4")
RAN = {"fired": True, "recovered": True}


def _bangs(*lines):
    return [f"      ! {line}" for line in lines]


#: Every rung of every drill's status ladder, in ladder order: (drill,
#: result fields, status word, the table's ``!`` lines for the row).
LADDER_CASES = [
    (CAMPAIGN, {"detail": NO_FIRE}, "no-fire", _bangs(NO_FIRE)),
    (CAMPAIGN, {"fired": True, "detail": RECOVERY_FAILED}, "unrecovered",
     _bangs(RECOVERY_FAILED)),
    (CAMPAIGN, {**RAN, "invariant_violations": VIOLATIONS,
                "detail": VERIFY_DETAIL}, "verify-fail",
     _bangs("v1", "v2", "v3", VERIFY_DETAIL)),
    (CAMPAIGN, {**RAN, "verifier_ok": True,
                "invariant_violations": VIOLATIONS}, "invariant-fail",
     _bangs("v1", "v2", "v3")),
    (CAMPAIGN, {**RAN, "verifier_ok": True}, "ok", []),
    (FAILOVER, {"detail": NO_FIRE}, "no-fire", _bangs(NO_FIRE)),
    (FAILOVER, {"fired": True, "detail": RECOVERY_FAILED}, "error",
     _bangs(RECOVERY_FAILED)),
    (FAILOVER, {**RAN, "image_match": True, "writable": True}, "loss", []),
    (FAILOVER, {**RAN, "loss_bounded": True, "writable": True},
     "image-mismatch", []),
    (FAILOVER, {**RAN, "loss_bounded": True, "image_match": True},
     "not-writable", []),
    (FAILOVER, {**RAN, "loss_bounded": True, "image_match": True,
                "writable": True, "invariant_violations": VIOLATIONS},
     "invariant-fail", _bangs("v1", "v2", "v3")),
    (FAILOVER, {**RAN, "loss_bounded": True, "image_match": True,
                "writable": True}, "ok", []),
    (RESTART, {"detail": NO_FIRE}, "no-fire", _bangs(NO_FIRE)),
    (RESTART, {"fired": True, "detail": RECOVERY_FAILED}, "error",
     _bangs(RECOVERY_FAILED)),
    (RESTART, {**RAN, "detail": VERIFY_DETAIL}, "image-mismatch",
     _bangs(VERIFY_DETAIL)),
    (RESTART, {**RAN, "image_match": True, "detail": VERIFY_DETAIL},
     "verify-fail", _bangs(VERIFY_DETAIL)),
    (RESTART, {**RAN, "image_match": True, "verifier_ok": True,
               "invariant_violations": VIOLATIONS}, "invariant-fail",
     _bangs("v1", "v2", "v3")),
    (RESTART, {**RAN, "image_match": True, "verifier_ok": True}, "ok", []),
]


class TestStatusLadders:
    @pytest.mark.parametrize(
        "drill,fields,status,bangs", LADDER_CASES,
        ids=[f"{drill.title.replace(' ', '-')}-{status}"
             for drill, _, status, _ in LADDER_CASES])
    def test_first_failed_check_names_the_status(self, drill, fields,
                                                 status, bangs):
        result = Result(Spec("sd", fp.DISK_WRITE, 7, drill.action, "all"),
                        drill.ladder, **fields)
        assert result.status == status
        assert result.ok == (status == "ok")
        report = Report(drill, "", seed=0, smoke=True, results=[result])
        lines = report.table().splitlines()
        assert lines[3].split()[-1] == status
        assert lines[4:-1] == bangs
        assert lines[-1].startswith(f"-- {int(result.ok)}/1 ")


def _crashed_sd(**complex_kwargs):
    tracer = Tracer()
    sd = SDComplex(n_data_pages=64, tracer=tracer, **complex_kwargs)
    for system_id in (1, 2):
        sd.add_instance(system_id)
    scenarios.run_sd_workload(sd, 3)
    sd.crash_complex()
    return tracer, lambda: (sd.restart_complex(), sd.instant_drain())


def _crashed_cs_client():
    cs, tracer = scenarios.build_cs(NULL_INJECTOR, seed=3)
    scenarios.run_cs_workload(cs, 3)
    cs.crash_client(1)
    return tracer, lambda: cs.recover_client(1)


def _restarted_standby():
    """A standby restarted over its already-applied volume and re-fed
    the stream: only the page_LSN test makes that idempotent."""
    sd, tracer = scenarios.build_replicated_sd(NULL_INJECTOR, seed=3,
                                               ack="quorum")
    scenarios.run_sd_workload(sd, 3)
    sd.replication.drain()   # the volume is current after a drain
    standby = sd.replication.standbys()[scenarios.STANDBY_BASE_ID]
    restarted = StandbyComplex(scenarios.STANDBY_BASE_ID, sd)
    restarted.disk = standby.disk
    stream = sorted(standby.replica_snapshot().items())
    return tracer, lambda: restarted.receive(stream)


class TestSabotage:
    @pytest.mark.parametrize("about_to_recover, corrupts", [
        (lambda: _crashed_sd(transfer_scheme="fast"), False),
        (lambda: _crashed_sd(restart_mode="instant"), True),
        (_crashed_cs_client, False),
        (_restarted_standby, True),
    ], ids=["fast-restart", "instant-restart", "cs-client", "standby-apply"])
    def test_every_flavour_double_applies(self, about_to_recover, corrupts):
        """A double apply either shows in the trace as a redo-screening
        violation or, where it re-applies an equal-length overwrite
        (one XOR image) to a slot of another length, fails in the
        apply itself with :class:`CorruptPageError`."""
        tracer, recover = about_to_recover()
        with sabotage_redo_screening():
            if corrupts:
                with pytest.raises(CorruptPageError,
                                   match="XOR record .* does not fit slot"):
                    recover()
                return
            recover()
        assert "redo-screening" in {
            v.invariant for v in check_trace(tracer.events())}

    def test_broken_redo_screening_turns_campaign_red(self):
        with sabotage_redo_screening():
            report = run_campaign("sd", seed=0, smoke=True)
        assert not redo._SABOTAGE_DISABLE_REDO_SCREENING
        assert not report.ok
        assert any("redo-screening" in violation
                   for result in report.failed
                   for violation in result.invariant_violations)

    @pytest.mark.parametrize("drill", ["restart", "failover"])
    def test_broken_redo_screening_turns_drill_red(self, capsys, drill):
        from repro.chaos import main

        assert main(["--drill", drill, "--smoke",
                     "--sabotage", "redo-screening"]) == 1
        assert not redo._SABOTAGE_DISABLE_REDO_SCREENING
        assert "redo-screening" in capsys.readouterr().out


# ----------------------------------------------------------------------
# CI: a step piping into ``tee`` must fail when the producer fails
# ----------------------------------------------------------------------
class TestWorkflowPipefail:
    def test_tee_workflows_default_to_bash(self):
        """GitHub's implicit shell is ``bash -e {0}`` without
        ``pipefail``, so ``cmd | tee log`` takes ``tee``'s status;
        ``shell: bash`` runs ``bash --noprofile --norc -eo pipefail``."""
        workflows = sorted((REPO_ROOT / ".github" / "workflows").glob("*.yml"))
        assert workflows
        for path in workflows:
            text = path.read_text()
            if re.search(r"\|\s*tee\b", text):
                assert re.search(r"^defaults:\n\s+run:\n\s+shell: bash$",
                                 text, re.M), path.name


# ----------------------------------------------------------------------
# zero-cost-off: an enabled-but-empty injector must be invisible, and
# the default null injector doubly so
# ----------------------------------------------------------------------
class TestDisabledInjectorIdentity:
    def test_e1_trace_is_byte_identical(self):
        baseline_tracer, baseline_summary = capture_e1()
        injected_tracer, injected_summary = capture_e1(
            injector=FaultInjector(FaultPlan(seed=0)))
        assert injected_summary == baseline_summary
        assert injected_tracer.dump_jsonl() == baseline_tracer.dump_jsonl()

    def test_chaos_workload_identical_under_empty_plan(self):
        null_sd, null_tracer = scenarios.build_sd(NULL_INJECTOR, seed=0)
        scenarios.run_sd_workload(null_sd, 0)
        injector = FaultInjector(FaultPlan(seed=0))
        live_sd, live_tracer = scenarios.build_sd(injector, seed=0)
        scenarios.run_sd_workload(live_sd, 0)
        assert live_tracer.dump_jsonl() == null_tracer.dump_jsonl()
        # The injector's own counter is the only divergence allowed,
        # and it lives outside the stats registry until a rule fires.
        assert live_sd.stats.get(FAULTS_INJECTED) == 0
        assert null_sd.stats.snapshot() == live_sd.stats.snapshot()


# ----------------------------------------------------------------------
# R007: injected fault types may only be raised by the injector
# ----------------------------------------------------------------------
class TestFaultDisciplineRule:
    def _findings(self, source, path):
        return lint_source(textwrap.dedent(source), path=path,
                           rules=[RULES_BY_ID["R007"]])

    def test_forging_an_injected_fault_is_flagged(self):
        found = self._findings(
            """
            from repro.common.errors import FaultInjectedError

            def sneaky():
                raise FaultInjectedError("disk.write", "crash")
            """,
            path="src/repro/sd/fake.py",
        )
        assert [f.rule_id for f in found] == ["R007"]

    def test_torn_page_error_is_also_guarded(self):
        found = self._findings(
            """
            from repro.common.errors import TornPageError

            def sneaky():
                raise TornPageError("disk.write", "torn")
            """,
            path="src/repro/storage/fake.py",
        )
        assert [f.rule_id for f in found] == ["R007"]

    def test_injector_package_may_raise(self):
        found = self._findings(
            """
            from repro.common.errors import FaultInjectedError

            def fire():
                raise FaultInjectedError("disk.write", "crash")
            """,
            path="src/repro/faults/injector.py",
        )
        assert found == []

    def test_propagating_a_caught_fault_is_allowed(self):
        found = self._findings(
            """
            from repro.common.errors import TornPageError

            def seam(write):
                try:
                    write()
                except TornPageError as exc:
                    cleanup = exc
                    raise
            """,
            path="src/repro/storage/fake.py",
        )
        assert found == []
