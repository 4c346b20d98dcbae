"""Tests for log-shipping replication: shipper, standby, promotion."""

import pytest

from repro.common.errors import ReproError
from repro.common.stats import (
    MERGE_COMPARISONS,
    RETRY_EXHAUSTED,
    REPL_DEGRADED_ENTRIES,
    REPL_RECORDS_SHIPPED,
    StatsRegistry,
)
from repro.faults import points as fp
from repro.faults.campaign import _reference_failover_digest
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.policy import RetryPolicy
from repro.obs import events as ev
from repro.obs.tracer import Tracer
from repro.replication import (
    ACK_ALL,
    ACK_LOCAL,
    ACK_QUORUM,
    NULL_REPLICATION,
    ReplicationConfig,
    StandbyComplex,
)
from repro.sd.complex import SDComplex
from repro.wal.merge import merge_local_logs
from repro.wal.records import LogRecord, RecordKind, stamp_and_encode_batch


def build(ack=ACK_QUORUM, n_standbys=2, window=4, batch=2, injector=None,
          tracer=None, retry=None):
    sd = SDComplex(
        n_data_pages=64, tracer=tracer, injector=injector,
        replicate=ReplicationConfig(ack=ack, window_records=window,
                                    batch_records=batch, retry=retry),
    )
    for system_id in (1, 2):
        sd.add_instance(system_id)
    standbys = [sd.replication.add_standby(9 + i) for i in range(n_standbys)]
    return sd, standbys


def commit_one(instance, payload=b"payload"):
    txn = instance.begin()
    page_id = instance.allocate_page(txn)
    instance.insert(txn, page_id, payload)
    instance.commit(txn)
    return page_id


class TestNullReplication:
    def test_default_complex_has_null_replication(self):
        sd = SDComplex(n_data_pages=64)
        assert sd.replication is NULL_REPLICATION
        assert not sd.replication.enabled

    def test_null_rejects_standbys(self):
        sd = SDComplex(n_data_pages=64)
        with pytest.raises(ReproError):
            sd.replication.add_standby(9)

    def test_explicit_none_kwargs_trace_identical(self):
        """``replicate=None, disk=None`` must be inert: same seed, same
        trace as a construction without the new keywords at all."""
        def run(**kwargs):
            tracer = Tracer()
            sd = SDComplex(n_data_pages=64, tracer=tracer, **kwargs)
            instance = sd.add_instance(1)
            commit_one(instance)
            return [(e.kind, tuple(sorted(e.fields.items())))
                    for e in tracer.events()]

        assert run() == run(replicate=None, disk=None)


class TestShipping:
    def test_quorum_ships_everything_at_commit(self):
        sd, standbys = build(ack=ACK_QUORUM)
        commit_one(sd.instances[1])
        assert sd.replication.pending_records() == 0
        commit_lsn = sd.replication.commit_acks[-1].lsn
        for standby in standbys:
            # Everything stable at the commit point is on the standby;
            # only the post-commit END record (appended after the ack
            # round, still volatile) may trail.
            assert int(standby.applied_max_lsn) >= commit_lsn

    def test_acks_are_cumulative_per_standby(self):
        sd, standbys = build(ack=ACK_ALL)
        commit_one(sd.instances[1])
        commit_one(sd.instances[2])
        for standby in standbys:
            assert sd.replication.acked_lsn(standby.system_id) == \
                int(standby.applied_max_lsn)

    def test_local_mode_bounds_unshipped_tail_by_window(self):
        sd, _ = build(ack=ACK_LOCAL, window=4)
        for _ in range(5):
            commit_one(sd.instances[1])
        assert sd.replication.pending_records() <= 4

    def test_drain_ships_the_local_tail(self):
        sd, standbys = build(ack=ACK_LOCAL, window=4)
        commit_one(sd.instances[1])
        sd.instances[1].log.force()
        sd.replication.drain()
        assert sd.replication.pending_records() == 0
        for standby in standbys:
            assert standby.applied_max_lsn == \
                sd.instances[1].log.local_max_lsn

    def test_standby_disk_mirrors_committed_page(self):
        """Apply and write-back run off the commit path; after a drain
        the standby's disk mirrors the primary's."""
        sd, standbys = build(ack=ACK_ALL)
        page_id = commit_one(sd.instances[1], b"mirrored row")
        sd.instances[1].pool.flush_all()
        sd.replication.drain()
        primary_lsn = sd.disk.page_lsn_on_disk(page_id)
        for standby in standbys:
            assert standby.disk.page_lsn_on_disk(page_id) == primary_lsn
            assert bytes(standby.disk.raw_image(page_id)) == \
                bytes(sd.disk.raw_image(page_id))

    def test_only_stable_records_ship(self):
        """The volatile log tail never leaves the primary: a lazy
        (unforced) commit is invisible to the standbys."""
        sd, standbys = build(ack=ACK_QUORUM)
        instance = sd.instances[1]
        txn = instance.begin()
        page_id = instance.allocate_page(txn)
        instance.insert(txn, page_id, b"lazy")
        instance.commit(txn, lazy=True)
        sd.replication.drain()
        shipped_max = max((s.applied_max_lsn for s in standbys), default=0)
        assert shipped_max < instance.log.local_max_lsn
        instance.sync_commits()
        instance.log.force()
        sd.replication.drain()
        assert all(s.applied_max_lsn == instance.log.local_max_lsn
                   for s in standbys)


def stable_lsn(standby):
    """Highest LSN on the stable part of the standby's replica logs."""
    return max((int(record.lsn)
                for log in standby.replica_logs()
                for _, record in log.scan(include_unflushed=False)),
               default=0)


class TestStandbyWal:
    def test_failed_replica_force_leaves_no_page_ahead_of_the_log(self):
        """Log, force, apply: when the replica log's force fails, no
        standby page may carry a page_LSN the stable log cannot undo."""
        plan = FaultPlan(seed=0)
        sd, (standby,) = build(
            ack=ACK_LOCAL, n_standbys=1, window=64, batch=64,
            injector=FaultInjector(plan), retry=RetryPolicy(max_attempts=1))
        commit_one(sd.instances[1])      # stays home: the window holds it
        # Every log force from here on fails; the next ones are the
        # replica log's, inside receive.
        plan.at(fp.LOG_FORCE).every_hit(1).fail()
        sd.replication.drain()
        stable = stable_lsn(standby)
        assert stable < standby.applied_max_lsn   # the batch did arrive
        for page_id in standby.disk.written_page_ids():
            assert (standby.disk.page_lsn_on_disk(page_id) or 0) <= stable

    def test_healthy_laggard_is_not_degraded(self):
        """At quorum one of two standbys forces each commit; the other
        holds it unforced and is healthy, not ack-degraded."""
        tracer = Tracer()
        stats = StatsRegistry()
        sd = SDComplex(n_data_pages=64, stats=stats, tracer=tracer,
                       replicate=ReplicationConfig())
        instance = sd.add_instance(1)
        for system_id in (9, 10):
            sd.replication.add_standby(system_id)
        txn = instance.begin()
        page_id = instance.allocate_page(txn)
        slot = instance.insert(txn, page_id, b"row 00")
        instance.commit(txn)
        lagged = 0
        for index in range(64):
            txn = instance.begin()
            instance.update(txn, page_id, slot, b"row %02d" % index)
            instance.commit(txn)
            ack = sd.replication.commit_acks[-1]
            assert ack.satisfied
            assert sd.replication.acked_lsn(9) >= ack.lsn
            assert sd.replication.absorbed_lsn(10) >= ack.lsn
            lagged += sd.replication.acked_lsn(10) < ack.lsn
            assert not sd.replication.ack_degraded
        assert lagged > 32               # the laggard really lags
        assert stats.get(REPL_DEGRADED_ENTRIES) == 0
        assert not [e for e in tracer.events()
                    if e.kind == ev.REPL_DEGRADED_ENTER]


class TestStandbyCrash:
    @pytest.mark.parametrize("n_standbys", [2, 3])
    @pytest.mark.parametrize("ack", [ACK_QUORUM, ACK_ALL])
    def test_satisfied_commits_survive_every_standby_crashing(
            self, ack, n_standbys):
        """Acked means forced: lose the primary and every standby's
        volatile state after each of six commits — every satisfied
        commit is still in the best standby's replica log, and its
        promoted disk equals a from-scratch replay of that log."""
        for n_commits in range(1, 7):
            sd, standbys = build(ack=ack, n_standbys=n_standbys,
                                 window=64, batch=8)
            for index in range(n_commits):
                commit_one(sd.instances[1 + index % 2],
                           b"row %02d" % index)
            sd.crash_complex()
            for standby in standbys:
                standby.crash()
            best = max(standbys,
                       key=lambda s: (int(s.durable_lsn), -s.system_id))
            snapshot = best.replica_snapshot()
            held = {(source_id, record.txn_id)
                    for source_id, blob in snapshot.items()
                    for _, record in LogRecord.parse_stream(blob)
                    if record.kind == RecordKind.COMMIT}
            acks = sd.replication.commit_acks
            assert len(acks) == n_commits and all(a.satisfied for a in acks)
            assert {(a.system, a.txn) for a in acks} <= held
            promoted = best.promote()
            assert promoted.disk.digest() == _reference_failover_digest(
                best.system_id, sd, snapshot)

    def test_crash_drops_the_unforced_tail_and_the_unapplied_window(self):
        sd, standbys = build(ack=ACK_QUORUM, window=64, batch=8)
        page_id = commit_one(sd.instances[1], b"held, not forced")
        forcer, laggard = standbys
        assert laggard.absorbed_lsn == forcer.absorbed_lsn
        assert laggard.durable_lsn < forcer.durable_lsn
        # Durable on the forcer, but applied only once a window of page
        # records waits: neither disk has the page yet.
        assert not forcer.disk.page_exists(page_id)
        assert not laggard.disk.page_exists(page_id)
        laggard.crash()
        assert laggard.absorbed_lsn == laggard.durable_lsn == \
            stable_lsn(laggard)
        assert not laggard.disk.page_exists(page_id)
        forcer.crash()
        assert forcer.durable_lsn == stable_lsn(forcer) >= \
            sd.replication.commit_acks[-1].lsn
        # Promotion's redo brings the durable, never-applied row back.
        reader = forcer.promote().instances[forcer.system_id]
        txn = reader.begin()
        assert reader.read(txn, page_id, 0) == b"held, not forced"
        reader.commit(txn)

    def test_crash_with_dirty_cache_and_unapplied_chains(self):
        """A standby that dies holding applied-but-unwritten pages and
        durable-but-unapplied chains promotes to the reference image."""
        sd, (forcer, _) = build(ack=ACK_QUORUM, window=8, batch=8)
        for index in range(7):
            commit_one(sd.instances[1 + index % 2], b"row %02d" % index)
        assert forcer._cache.dirty_page_table() and forcer._pending.pages()
        forcer.crash()
        snapshot = forcer.replica_snapshot()
        promoted = forcer.promote()
        assert promoted.disk.digest() == _reference_failover_digest(
            forcer.system_id, sd, snapshot)

    def test_promote_redoes_a_chain_spanning_sources_in_lsn_order(self):
        """A page's durable, unapplied chain spans two replica logs and
        its higher LSN sits in the lower-id log: promotion must redo
        the merged logs, not one log after the other."""
        sd, (_, laggard) = build(ack=ACK_QUORUM, window=64)
        one, two = sd.instances[1], sd.instances[2]
        txn = one.begin()
        page_id = one.allocate_page(txn)
        one.insert(txn, page_id, b"a0")
        one.insert(txn, page_id, b"b0")
        one.commit(txn)
        txn = two.begin()
        two.update(txn, page_id, 0, b"a2")
        two.commit(txn)
        txn = one.begin()
        one.update(txn, page_id, 1, b"b1")
        one.commit(txn)
        for log in laggard.replica_logs():
            log.force()
        laggard.crash()
        snapshot = laggard.replica_snapshot()
        promoted = laggard.promote()
        reader = promoted.instances[laggard.system_id]
        txn = reader.begin()
        assert reader.read(txn, page_id, 0) == b"a2"
        assert reader.read(txn, page_id, 1) == b"b1"
        reader.commit(txn)
        assert promoted.disk.digest() == _reference_failover_digest(
            laggard.system_id, sd, snapshot)

    def test_promote_merges_the_replica_logs_once(self):
        """Two sources with a shipped loser cost one merge of the
        replica logs, not one per source (whose second pass also read
        the first restart's CLRs)."""
        sd, (standby, _) = build(ack=ACK_QUORUM, window=64, batch=8)
        for index in range(12):
            commit_one(sd.instances[1 + index % 2], b"row %02d" % index)
        one = sd.instances[1]
        loser = one.begin()
        one.insert(loser, one.allocate_page(loser), b"in flight")
        one.log.force()
        sd.replication.drain()
        sd.crash_complex()
        snapshot = standby.replica_snapshot()
        merge_once = StatsRegistry()
        for _ in merge_local_logs(standby.replica_logs(), stats=merge_once):
            pass
        before = sd.stats.get(MERGE_COMPARISONS)
        promoted = standby.promote()
        assert sd.stats.get(MERGE_COMPARISONS) - before == \
            merge_once.get(MERGE_COMPARISONS) > 0
        assert promoted.disk.digest() == _reference_failover_digest(
            standby.system_id, sd, snapshot)

    def test_crashed_standby_takes_no_batches_and_no_vote(self):
        """Four commits on one page, the forcer crashes, three more
        commits, a drain: the crashed standby is disconnected instead
        of absorbing onto images its crash made stale, and it still
        promotes to the reference image of what it held."""
        sd = SDComplex(n_data_pages=64, replicate=ReplicationConfig(
            ack=ACK_QUORUM, window_records=64))
        instance = sd.add_instance(1)
        forcer, _ = [sd.replication.add_standby(9 + i) for i in range(2)]
        txn = instance.begin()
        page_id = instance.allocate_page(txn)
        slot = instance.insert(txn, page_id, b"row 0")
        instance.commit(txn)

        def commit(payload):
            txn = instance.begin()
            instance.update(txn, page_id, slot, payload)
            instance.commit(txn)

        for index in range(1, 4):
            commit(b"row %d" % index)
        forcer.crash()
        snapshot = forcer.replica_snapshot()
        for index in range(4, 7):
            commit(b"row %d" % index)
        sd.replication.drain()
        assert not sd.replication.connected(forcer.system_id)
        assert all(ack.satisfied for ack in sd.replication.commit_acks)
        assert forcer.replica_snapshot() == snapshot
        promoted = forcer.promote()
        assert promoted.disk.digest() == _reference_failover_digest(
            forcer.system_id, sd, snapshot)


class TestStandbyApply:
    def test_duplicate_reship_is_screened(self):
        sd, standbys = build(ack=ACK_ALL)
        commit_one(sd.instances[1])
        standby = standbys[0]
        snapshot = standby.replica_snapshot()
        before = standby.applied_max_lsn
        applied = standby.receive(sorted(snapshot.items()))
        assert applied == 0
        assert standby.applied_max_lsn == before

    def test_control_records_are_never_parsed(self, monkeypatch):
        """The absorb screen knows a COMMIT, ABORT or END by its kind
        byte, in the narrow and in the full header shape alike."""
        sd, standbys = build(ack=ACK_ALL)
        commit_one(sd.instances[1])
        standby = standbys[0]
        records = [LogRecord(RecordKind.COMMIT, txn_id=7),
                   LogRecord(RecordKind.ABORT, txn_id=2**40),
                   LogRecord(RecordKind.END, txn_id=2**40)]
        parts, _ = stamp_and_encode_batch(records, 10_000, 1)
        assert [part[0] for part in parts] == [3, 4 | 0x80, 5 | 0x80]
        parsed = []
        from_bytes = LogRecord.from_bytes.__func__
        monkeypatch.setattr(LogRecord, "from_bytes", classmethod(
            lambda cls, data, offset=0:
            parsed.append(offset) or from_bytes(cls, data, offset)))
        assert standby.receive([(1, b"".join(parts))]) == 3
        assert parsed == []

    def test_quorum_vs_all_differ_with_lost_standby(self):
        """One unreachable standby of two: quorum (2 of 3 votes with
        the primary's own force) still satisfied, ``all`` is not — and
        neither stalls the commit."""
        for ack, expect in ((ACK_QUORUM, True), (ACK_ALL, False)):
            sd, _ = build(ack=ack)
            sd.replication._links[10].connected = False
            commit_one(sd.instances[1])
            last = sd.replication.commit_acks[-1]
            assert last.satisfied is expect
            assert sd.replication.ack_degraded

    def test_ship_retry_exhaustion_degrades_not_stalls(self):
        plan = FaultPlan(seed=0)
        plan.at(fp.REPL_SHIP).every_hit(1).fail()
        injector = FaultInjector(plan)
        stats = StatsRegistry()
        sd = SDComplex(
            n_data_pages=64, stats=stats, injector=injector,
            replicate=ReplicationConfig(
                ack=ACK_ALL, retry=RetryPolicy(max_attempts=2)),
        )
        instance = sd.add_instance(1)
        sd.replication.add_standby(9)
        commit_one(instance)  # must not raise: degrade, never stall
        assert not sd.replication.connected(9)
        assert sd.replication.ack_degraded
        assert not sd.replication.commit_acks[-1].satisfied
        assert stats.get(RETRY_EXHAUSTED) > 0
        assert stats.get(REPL_DEGRADED_ENTRIES) > 0
        assert stats.get(REPL_RECORDS_SHIPPED) == 0


class TestPromotion:
    def test_promoted_complex_accepts_new_work(self):
        sd, standbys = build(ack=ACK_QUORUM)
        commit_one(sd.instances[1])
        sd.crash_complex()
        promoted = standbys[0].promote()
        instance = promoted.instances[9]
        before = int(standbys[0].applied_max_lsn)
        commit_one(instance, b"after failover")
        assert int(instance.log.local_max_lsn) > before

    def test_promotion_rolls_back_inflight_primary_txns(self):
        """A transaction mid-flight at the crash (updates shipped, no
        commit record) must be undone on the promoted standby."""
        sd, standbys = build(ack=ACK_QUORUM)
        instance = sd.instances[1]
        committed_page = commit_one(instance, b"keep me")
        txn = instance.begin()
        loser_page = instance.allocate_page(txn)
        instance.insert(txn, loser_page, b"lose me")
        instance.log.force()          # updates reach stable storage...
        sd.replication.drain()        # ...and ship to the standbys
        sd.crash_complex()
        standby = standbys[0]
        promoted = standby.promote()
        clr_kinds = {record.kind
                     for log in standby.replica_logs()
                     for _, record in log.scan()}
        assert RecordKind.CLR in clr_kinds
        reader = promoted.instances[9]
        read_txn = reader.begin()
        assert reader.read(read_txn, committed_page, 0) == b"keep me"
        reader.commit(read_txn)

    def test_salvaged_logs_close_the_lag(self):
        """Shared-disk salvage: promoting with the dead primary's
        stable logs loses nothing, even in async local mode."""
        sd, standbys = build(ack=ACK_LOCAL, window=16)
        for _ in range(4):
            commit_one(sd.instances[1])
        assert sd.replication.pending_records() > 0  # real lag
        sd.crash_complex()
        standby = standbys[0]
        standby.promote(salvaged_logs=sd.local_logs())
        stable_commits = {
            (log.system_id, record.txn_id)
            for log in sd.local_logs()
            for _, record in log.scan(include_unflushed=False)
            if record.kind == RecordKind.COMMIT
        }
        replica_commits = {
            (log.system_id, record.txn_id)
            for log in standby.replica_logs()
            for _, record in log.scan()
            if record.kind == RecordKind.COMMIT
        }
        assert stable_commits <= replica_commits

    def test_promote_seeds_lsn_clock_above_applied(self):
        sd, standbys = build(ack=ACK_ALL)
        commit_one(sd.instances[1])
        sd.crash_complex()
        standby = standbys[0]
        promoted = standby.promote()
        assert promoted.instances[9].log.local_max_lsn >= \
            standby.applied_max_lsn


class TestStandbyGuards:
    def test_rejects_duplicate_standby(self):
        sd, _ = build()
        with pytest.raises(ReproError):
            sd.replication.add_standby(9)

    def test_rejects_primary_instance_id(self):
        sd, _ = build()
        with pytest.raises(ReproError):
            sd.replication.add_standby(1)

    def test_rejects_a_standby_attached_after_records_shipped(self):
        """A late standby would start at the ship cursor, missing the
        rows already shipped, and still vote under ``all``."""
        sd = SDComplex(n_data_pages=64,
                       replicate=ReplicationConfig(ack=ACK_ALL))
        instance = sd.add_instance(1)
        early = sd.replication.add_standby(9)
        rows = [commit_one(instance, b"row %d" % i) for i in range(3)]
        with pytest.raises(ReproError, match="after records shipped"):
            sd.replication.add_standby(10)
        rows += [commit_one(instance, b"row %d" % i) for i in range(3, 6)]
        sd.replication.drain()
        assert list(sd.replication.standbys()) == [9]
        reader = early.promote().instances[9]
        txn = reader.begin()
        assert [reader.read(txn, page_id, 0) for page_id in rows] == [
            b"row %d" % i for i in range(6)]
        reader.commit(txn)

    def test_standby_formats_space_maps(self):
        sd, standbys = build()
        for smp_page_id in sd.space_map.smp_page_ids():
            assert smp_page_id in standbys[0].disk.written_page_ids()
