"""Tests for instant restart: redo-only on-demand per-page recovery.

Covers the equivalence discipline (instant and eager restart leave
byte-identical disk images), the open-for-business mechanics (losers
undone at open, redo deferred to demand/sweeper), the wiring knob
(``restart_mode`` defaults to the classic eager path), and the I8
``instant-recovery`` trace invariant.
"""

import pytest

from repro.common.errors import FaultInjectedError
from repro.common.stats import (
    INSTANT_DEMAND_RECOVERIES,
    INSTANT_PAGES_RECOVERED,
    INSTANT_SWEEP_RECOVERIES,
)
from repro.cs.system import CsSystem
from repro.faults import points as fp
from repro.faults.injector import NULL_INJECTOR, FaultInjector, FaultPlan
from repro.faults.scenarios import (
    build_cs,
    build_sd,
    run_cs_workload,
    run_sd_workload,
)
from repro.obs import events as ev
from repro.obs.invariants import check_trace, first_violation
from repro.obs.tracer import TraceEvent
from repro.sd.complex import SDComplex


# ----------------------------------------------------------------------
# small direct fixtures
# ----------------------------------------------------------------------
def small_sd(mode="eager", scheme="medium"):
    sd = SDComplex(n_data_pages=64, transfer_scheme=scheme,
                   restart_mode=mode)
    return sd, sd.add_instance(1), sd.add_instance(2)


def seed_pages(engine, n=4):
    """``n`` committed records on ``n`` fresh pages, all still dirty in
    the pool — restart redo work, one chain per page."""
    handles = []
    txn = engine.begin()
    for _ in range(n):
        page_id = engine.allocate_page(txn)
        handles.append((page_id, engine.insert(txn, page_id, b"v0")))
    engine.commit(txn)
    return handles


# ----------------------------------------------------------------------
# equivalence: instant == eager, byte for byte
# ----------------------------------------------------------------------
def run_sd_scenario(mode, scheme):
    """Chaos scenario workload, crash one instance, restart in ``mode``."""
    sd, tracer = build_sd(NULL_INJECTOR, seed=7)
    sd.transfer_scheme = scheme
    sd.coherency.scheme = scheme
    sd.restart_mode = mode
    run_sd_workload(sd, seed=7)
    victim = min(sd.instances)
    sd.crash_instance(victim)
    summary = sd.restart_instance(victim)
    if mode == "instant":
        sd.instant_drain()
    for system_id in sorted(sd.instances):
        sd.instances[system_id].pool.flush_all()
    return sd, tracer, summary


def run_cs_scenario(mode):
    cs, tracer = build_cs(NULL_INJECTOR, seed=7)
    cs.server.restart_mode = mode
    run_cs_workload(cs, seed=7)
    cs.crash_server()
    summary = cs.restart_server()
    if mode == "instant":
        cs.server.instant_drain()
    cs.quiesce()
    return cs, tracer, summary


class TestEquivalence:
    @pytest.mark.parametrize("scheme", ["medium", "fast"])
    def test_sd_instant_digest_matches_eager(self, scheme):
        eager_sd, _, eager_summary = run_sd_scenario("eager", scheme)
        instant_sd, tracer, instant_summary = run_sd_scenario(
            "instant", scheme)
        assert instant_sd.disk.digest() == eager_sd.disk.digest()
        assert (instant_summary.records_redone
                == eager_summary.records_redone)
        assert (instant_summary.clrs_written
                == eager_summary.clrs_written)
        assert check_trace(tracer.events()) == []

    def test_cs_instant_digest_matches_eager(self):
        eager_cs, _, eager_summary = run_cs_scenario("eager")
        instant_cs, tracer, instant_summary = run_cs_scenario("instant")
        assert (instant_cs.server.disk.digest()
                == eager_cs.server.disk.digest())
        assert (instant_summary.records_redone
                == eager_summary.records_redone)
        assert check_trace(tracer.events()) == []


# ----------------------------------------------------------------------
# the knob
# ----------------------------------------------------------------------
class TestRestartModeKnob:
    def test_default_is_eager_and_registry_stays_empty(self):
        sd, s1, _ = small_sd()
        assert sd.restart_mode == "eager"
        seed_pages(s1)
        sd.crash_instance(1)
        sd.restart_instance(1)
        assert sd.instant == {}
        assert s1.pool.recovery_intercept is None

    def test_unknown_restart_mode_rejected(self):
        with pytest.raises(ValueError):
            SDComplex(restart_mode="lazy")
        with pytest.raises(ValueError):
            CsSystem(restart_mode="lazy")


# ----------------------------------------------------------------------
# lazy mechanics
# ----------------------------------------------------------------------
class TestLazyRecovery:
    def test_open_defers_redo_then_first_touch_recovers(self):
        sd, s1, s2 = small_sd(mode="instant")
        handles = seed_pages(s1)
        sd.crash_instance(1)
        sd.restart_instance(1)
        manager = sd.instant[1]
        pending = manager.pending_pages()
        page_id, slot = handles[0]
        assert page_id in pending
        # A survivor's read is the first touch: the coherency guard
        # must apply the page's chain before serving it.
        txn = s2.begin()
        assert s2.read(txn, page_id, slot) == b"v0"
        s2.commit(txn)
        assert page_id not in manager.pending_pages()
        assert manager.demand_recoveries >= 1
        assert sd.stats.get(INSTANT_DEMAND_RECOVERIES) >= 1

    def test_failed_recovery_leaves_the_page_pending(self):
        """A chain leaves the pending set only after its apply returns:
        a ``fail`` at ``instant.recover`` keeps the page pending, and
        the retry applies the same stable chain."""
        injector = FaultInjector(FaultPlan(seed=0))
        sd = SDComplex(n_data_pages=64, restart_mode="instant",
                       injector=injector)
        s1, s2 = sd.add_instance(1), sd.add_instance(2)
        handles = seed_pages(s1)
        sd.crash_instance(1)
        sd.restart_instance(1)
        manager = sd.instant[1]
        page_id, slot = handles[0]
        injector.plan.at(fp.INSTANT_RECOVER).on_hit(
            injector.hit_count(fp.INSTANT_RECOVER) + 1).fail()
        with pytest.raises(FaultInjectedError):
            manager.pending.recover(page_id)
        assert page_id in manager.pending_pages()
        txn = s2.begin()
        assert s2.read(txn, page_id, slot) == b"v0"
        s2.commit(txn)
        assert page_id not in manager.pending_pages()
        assert manager.demand_recoveries == 1

    def test_sweeper_recovers_in_sorted_deterministic_increments(self):
        sd, s1, _ = small_sd(mode="instant")
        seed_pages(s1, n=5)
        sd.crash_instance(1)
        sd.restart_instance(1)
        manager = sd.instant[1]
        expected = manager.pending_pages()
        assert expected
        order = []
        while not manager.drained:
            before = manager.pending_pages()
            assert manager.sweep(max_pages=1) == 1
            order.extend(sorted(set(before)
                                - set(manager.pending_pages())))
        assert order == expected
        assert sd.stats.get(INSTANT_SWEEP_RECOVERIES) == len(expected)

    def test_drain_clears_registry_and_intercepts(self):
        sd, s1, s2 = small_sd(mode="instant")
        seed_pages(s1)
        sd.crash_instance(1)
        sd.restart_instance(1)
        # The restarting instance's pool carries the intercept;
        # survivors are guarded at the coherency seam instead.
        assert s1.pool.recovery_intercept is not None
        assert sd.instant_drain() > 0
        assert sd.instant == {}
        assert s1.pool.recovery_intercept is None
        assert s2.pool.recovery_intercept is None
        assert sd.stats.get(INSTANT_PAGES_RECOVERED) > 0

    def test_losers_are_undone_at_open(self):
        sd, s1, _ = small_sd(mode="instant")
        handles = seed_pages(s1)
        page_id, slot = handles[0]
        in_flight = s1.begin()
        s1.update(in_flight, page_id, slot, b"in-flight")
        s1.pool.write_page(page_id)  # steal the uncommitted image
        s1.log.force()
        sd.crash_instance(1)
        summary = sd.restart_instance(1)
        assert summary.loser_transactions == 1
        assert summary.clrs_written >= 1
        sd.instant_drain()
        s1.pool.flush_all()
        assert sd.disk.read_page(page_id).read_record(slot) == b"v0"

    def test_recover_page_is_idempotent_per_page(self):
        sd, s1, _ = small_sd(mode="instant")
        handles = seed_pages(s1, n=2)
        sd.crash_instance(1)
        sd.restart_instance(1)
        manager = sd.instant[1]
        page_id = handles[0][0]
        assert manager.pending.recover(page_id) is True
        assert manager.pending.recover(page_id) is False


# ----------------------------------------------------------------------
# I8: the instant-recovery trace invariant
# ----------------------------------------------------------------------
def _ev(seq, system, kind, /, **fields):
    return TraceEvent(seq=seq, system=system, kind=kind, fields=fields)


class TestInstantInvariant:
    def test_stale_access_before_recovery_flagged(self):
        events = [
            _ev(1, 1, ev.INSTANT_OPEN, mode="medium", pages=[5, 6],
                losers=0),
            _ev(2, 2, ev.PAGE_READ, page=5),
        ]
        found = check_trace(events)
        assert first_violation(found, "instant-recovery") is not None

    def test_access_after_recovery_clean(self):
        events = [
            _ev(1, 1, ev.INSTANT_OPEN, mode="medium", pages=[5],
                losers=0),
            _ev(2, 1, ev.INSTANT_PAGE, page=5, redone=1, skipped=0,
                via="demand"),
            _ev(3, 2, ev.PAGE_READ, page=5),
            _ev(4, 1, ev.INSTANT_DONE, recovered=1, demand=1, swept=0),
        ]
        assert check_trace(events) == []

    def test_done_with_pending_pages_flagged(self):
        events = [
            _ev(1, 1, ev.INSTANT_OPEN, mode="cs", pages=[5], losers=0),
            _ev(2, 1, ev.INSTANT_DONE, recovered=0, demand=0, swept=0),
        ]
        found = check_trace(events)
        assert first_violation(found, "instant-recovery") is not None

    def test_undeclared_recover_page_flagged(self):
        events = [
            _ev(1, 1, ev.INSTANT_PAGE, page=9, redone=0, skipped=0,
                via="sweep"),
        ]
        found = check_trace(events)
        assert first_violation(found, "instant-recovery") is not None
