"""Ack accounting against a brute-force reference.

Every small configuration of the replicated commit point is run: 1-3
standbys x 3 commits x {no fault, a failed ship (retried away, or lost
with a one-attempt budget), a lost ack, a lost ship followed by a lost
ack, a link cut before a commit} x the three ack levels.  After each
commit the shipper's verdict is compared with what the standbys
themselves hold: ``CommitAck.satisfied`` must be true exactly when the
level's number of standbys have the commit record on the *stable* part
of their replica log.

The mutation this test exists to catch: deciding ``satisfied`` from
the absorbed LSN (received, not forced) passes everything else in the
suite and fails here on the lost-ship rows (a standby asked to force
is gone and the next one only holds the record; when the probe asking
it to force is lost too, it never forces at all).
"""

from repro.faults import points as fp
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults.policy import RetryPolicy
from repro.replication import (
    ACK_ALL,
    ACK_LEVELS,
    ACK_LOCAL,
    ACK_QUORUM,
    ReplicationConfig,
)
from repro.sd.complex import SDComplex
from repro.wal.records import RecordKind

N_COMMITS = 3
FIRST_STANDBY = 9


def scenarios(n_standbys):
    """``(label, faults [(point, hit)], retry attempts, cut (commit,
    standby))`` for every fault history over ``N_COMMITS`` commits."""
    yield "no fault", [], 3, None
    # One ship and one ack per standby and commit, plus retries and
    # probes; hits past the last one never fire (= no fault).
    hits = range(1, n_standbys * N_COMMITS + 3)
    for hit in hits:
        yield f"ship {hit} retried", [(fp.REPL_SHIP, hit)], 3, None
        yield f"ship {hit} lost", [(fp.REPL_SHIP, hit)], 1, None
        yield f"ack {hit} lost", [(fp.REPL_ACK, hit)], 3, None
        for ack_hit in hits:
            yield (f"ship {hit} and ack {ack_hit} lost",
                   [(fp.REPL_SHIP, hit), (fp.REPL_ACK, ack_hit)], 1, None)
    for commit in range(N_COMMITS):
        for standby in range(FIRST_STANDBY, FIRST_STANDBY + n_standbys):
            yield (f"link {standby} cut before commit {commit}",
                   [], 3, (commit, standby))


def votes_needed(level, n_standbys):
    return {ACK_LOCAL: 0,
            ACK_QUORUM: (n_standbys + 1) // 2,
            ACK_ALL: n_standbys}[level]


def holds_durably(standby, ack):
    """Is the commit record of ``ack`` on the stable part of the
    standby's replica log?  Read straight off the standby."""
    for log in standby.replica_logs():
        if log.system_id != ack.system:
            continue
        for addr, record in log.scan():
            if (record.kind == RecordKind.COMMIT
                    and record.txn_id == ack.txn):
                return log.is_stable(addr.offset + len(record.to_bytes()))
    return False


def run(level, n_standbys, faults, attempts, cut):
    plan = FaultPlan(seed=0)
    for point, hit in faults:
        plan.at(point).on_hit(hit).fail()
    sd = SDComplex(
        n_data_pages=64, injector=FaultInjector(plan),
        replicate=ReplicationConfig(
            ack=level, retry=RetryPolicy(max_attempts=attempts)))
    instances = [sd.add_instance(1), sd.add_instance(2)]
    standbys = [sd.replication.add_standby(FIRST_STANDBY + i)
                for i in range(n_standbys)]
    repl = sd.replication
    seen = {s.system_id: (0, 0) for s in standbys}
    for commit in range(N_COMMITS):
        if cut is not None and cut[0] == commit:
            repl._disconnect(repl._links[cut[1]], "cut by the test")
        instance = instances[commit % 2]
        txn = instance.begin()
        page_id = instance.allocate_page(txn)
        instance.insert(txn, page_id, b"row %d" % commit)
        instance.commit(txn)             # must never raise
        ack = repl.commit_acks[-1]
        durable = sum(holds_durably(s, ack) for s in standbys)
        assert ack.satisfied == (durable >= votes_needed(level, n_standbys)), (
            f"commit {commit}: satisfied={ack.satisfied} with "
            f"{durable} durable standby(s)")
        if level == ACK_ALL and repl.ack_degraded:
            assert not ack.satisfied
        for sid, before in seen.items():
            now = (repl.absorbed_lsn(sid), repl.acked_lsn(sid))
            assert now[0] >= before[0] and now[1] >= before[1], (
                f"standby {sid} acked LSNs regressed: {before} -> {now}")
            assert now[0] >= now[1]
            seen[sid] = now
    assert len(repl.commit_acks) == N_COMMITS


def test_satisfied_iff_the_levels_count_of_standbys_forced():
    checked = 0
    for n_standbys in (1, 2, 3):
        for level in ACK_LEVELS:
            for label, faults, attempts, cut in scenarios(n_standbys):
                try:
                    run(level, n_standbys, faults, attempts, cut)
                except AssertionError as exc:
                    raise AssertionError(
                        f"{level}, {n_standbys} standby(s), {label}: {exc}"
                    ) from exc
                checked += 1
    hits = [n * N_COMMITS + 2 for n in (1, 2, 3)]
    assert checked == 3 * sum(1 + h * (3 + h) + (h - 2) for h in hits)


def test_another_logs_forced_lsns_do_not_vouch_for_a_late_commit():
    """Two primary logs do not interleave in LSN order across commits:
    a transaction left open on one instance commits with LSNs below
    what the other instance already shipped.  A standby that forced the
    higher LSNs has not thereby forced the late, lower ones — acks are
    per log."""
    plan = FaultPlan(seed=0)
    sd = SDComplex(
        n_data_pages=64, injector=FaultInjector(plan),
        replicate=ReplicationConfig(
            ack=ACK_QUORUM, window_records=16,
            retry=RetryPolicy(max_attempts=1)))
    busy, late = sd.add_instance(1), sd.add_instance(2)
    forcer, laggard = (sd.replication.add_standby(9),
                       sd.replication.add_standby(10))
    repl = sd.replication
    open_txn = late.begin()
    page_id = late.allocate_page(open_txn)
    late.insert(open_txn, page_id, b"written early, committed late")
    while laggard.durable_lsn <= open_txn.last_lsn + 1:
        txn = busy.begin()
        busy.insert(txn, busy.allocate_page(txn), b"filler")
        busy.commit(txn)
    sd.replication.drain()               # both standbys forced, tails empty
    # The standby asked to force is lost on the next ship; the laggard
    # holds the commit record and its acked durable LSN is already
    # above it.
    plan.at(fp.REPL_SHIP).on_hit(
        sd.injector.hit_count(fp.REPL_SHIP) + 1).fail()
    late.commit(open_txn)
    ack = repl.commit_acks[-1]
    assert not repl.connected(forcer.system_id)
    assert ack.lsn < repl.acked_lsn(laggard.system_id)
    assert ack.satisfied
    assert holds_durably(laggard, ack)
