"""The vectorized bulk-op lane: ``update_many`` / ``read_many`` and the
:mod:`repro.workload.bulk` driver.

The lane's contract is "same page contents, fewer records and round
trips": a bulk call must leave the pages the per-call loop it replaces
leaves (page_LSNs aside) and the same recoverable state, while taking
one page lock and one fix per distinct page, one log append per batch,
and one log record, LSN and ``PAGE_UPDATE`` event per *page run*
(consecutive ops on one page): a run of one op is logged as ``update``
logs it, a longer run as one ``SLOTS`` record.  Partial failure must
never leave an applied-but-unlogged mutation (rollback depends on it).
Recovery of ``SLOTS`` records is covered in ``test_bulk_records.py``.
"""

import pytest

from repro.common.errors import ReproError
from repro.common.stats import (
    BULK_OPS_APPLIED,
    BULK_READ_BATCHES,
    BULK_UPDATE_BATCHES,
    LOCK_REQUESTS,
    LOG_FORCES,
)
from repro.obs import events as ev
from repro.obs.tracer import Tracer
from repro.sd.complex import SDComplex
from repro.workload.bulk import (
    BulkConfig,
    TxnBatch,
    build_batches,
    run_bulk,
    run_per_call,
)
from repro.wal.records import NO_SLOT, PageOp, iter_slots
from repro.workload.generator import populate_pages

from tests.test_disk_golden import content_digest

#: A page record's header (the narrow page shape) and a ``SLOTS``
#: entry's head (slot u16, length u16).
PAGE_HEADER = 29
ENTRY_HEAD = 4

N_PAGES = 4
RECORDS_PER_PAGE = 4


def build_engine(tracer=None, isolation="cursor_stability"):
    sd = SDComplex(n_data_pages=64, tracer=tracer)
    engine = sd.add_instance(1, isolation=isolation)
    handles = populate_pages(engine, N_PAGES, RECORDS_PER_PAGE)
    return sd, engine, handles


def payloads(engine, handles):
    txn = engine.begin()
    values = [engine.read(txn, page_id, slot) for page_id, slot in handles]
    engine.commit(txn)
    return values


UPDATE_PLAN = [  # two distinct pages, repeated hits on one of them
    (0, 0, b"a" * 32), (0, 1, b"b" * 32),   # one XOR run: SLOTS
    (0, 2, b"short"),                       # length change: its own SET
    (0, 3, b"c" * 32),                      # a run of one XOR
    (1, 0, b"ccc"), (0, 0, b"d" * 32),
]


def plan_for(handles):
    return [(handles[p * RECORDS_PER_PAGE + s][0],
             handles[p * RECORDS_PER_PAGE + s][1], v)
            for p, s, v in UPDATE_PLAN]


class TestUpdateMany:
    def test_page_contents_equal_per_call_updates(self):
        """Every page the plan touches holds what N ``update`` calls
        leave (same records, slot by slot; page_LSN left out)."""
        per_sd, per_call, handles_a = build_engine()
        txn = per_call.begin()
        for page_id, slot, value in plan_for(handles_a):
            per_call.update(txn, page_id, slot, value)
        per_call.commit(txn)

        bulk_sd, bulk, handles_b = build_engine()
        txn = bulk.begin()
        bulk.update_many(txn, plan_for(handles_b))
        bulk.commit(txn)

        per_call.pool.flush_all()
        bulk.pool.flush_all()
        assert content_digest(bulk_sd.disk) == content_digest(per_sd.disk)
        assert payloads(bulk, handles_b) == payloads(per_call, handles_a)

    def test_one_record_per_page_run_with_exact_bytes(self):
        """The plan logs one record per run of equal-length
        overwrites of one page and one per length-changing overwrite,
        chained by ``prev_lsn``, each exactly the page header plus its
        images."""
        _, engine, handles = build_engine()
        txn = engine.begin()
        engine.update(txn, *handles[-1], b"an earlier record")
        prev = txn.last_lsn
        first = engine.log.end_offset
        engine.update_many(txn, plan_for(handles))
        records = [r for _, r in engine.log.scan(from_offset=first)]
        page0, page1 = handles[0][0], handles[RECORDS_PER_PAGE][0]
        assert [(r.page_id, r.slot) for r in records] == [
            (page0, NO_SLOT), (page0, 2), (page0, 3), (page1, 0), (page0, 0)]
        xor = 1 + 32
        assert [len(r.to_bytes()) for r in records] == [
            PAGE_HEADER + 1 + 2 * (ENTRY_HEAD + xor),   # SLOTS, no undo
            PAGE_HEADER + (1 + 5) + (1 + 32),           # SET and old SET
            PAGE_HEADER + xor,                          # runs of one,
            PAGE_HEADER + (1 + 3) + (1 + 32),           # logged as
            PAGE_HEADER + xor,                          # ``update`` logs
        ]
        assert sum(len(r.to_bytes()) for r in records) == \
            engine.log.end_offset - first
        assert [r.prev_lsn for r in records] == \
            [prev] + [r.lsn for r in records[:-1]]
        assert txn.last_lsn == records[-1].lsn
        assert len(txn.undo_entries) == 1 + len(records)
        engine.commit(txn)

    def test_equal_length_run_is_one_self_inverse_record(self):
        """A run of equal-length overwrites, one slot twice, logs one
        ``SLOTS`` record of ``XOR`` entries and no undo image."""
        _, engine, handles = build_engine()
        (page_id, s0), (_, s1) = handles[0], handles[1]
        plan = [(page_id, s0, b"x" * 32), (page_id, s1, b"y" * 32),
                (page_id, s0, b"z" * 32)]
        txn = engine.begin()
        first = engine.log.end_offset
        engine.update_many(txn, plan)
        (record,) = [r for _, r in engine.log.scan(from_offset=first)]
        assert record.undo == b""
        assert [(slot, op[0]) for slot, op in iter_slots(record.redo[1:])] \
            == [(s0, PageOp.XOR), (s1, PageOp.XOR), (s0, PageOp.XOR)]
        assert len(record.to_bytes()) == \
            PAGE_HEADER + 1 + 3 * (ENTRY_HEAD + 1 + 32)
        engine.commit(txn)

    def test_one_page_update_event_per_record(self):
        tracer = Tracer()
        _, engine, handles = build_engine(tracer=tracer)
        txn = engine.begin()
        first = engine.log.end_offset
        before = {}
        for page_id, _ in handles:
            before[page_id] = engine.fix_page(page_id).page_lsn
            engine.unfix_page(page_id)
        mark = len(tracer.events())
        engine.update_many(txn, plan_for(handles))
        records = [r for _, r in engine.log.scan(from_offset=first)]
        events = [e.fields for e in tracer.events()[mark:]
                  if e.kind == ev.PAGE_UPDATE]
        page_lsn = dict(before)
        expected = []
        for record in records:
            expected.append(dict(
                page=record.page_id, slot=record.slot, txn=txn.txn_id,
                lsn=record.lsn, page_lsn_prev=page_lsn[record.page_id],
                kind="UPDATE"))
            page_lsn[record.page_id] = record.lsn
        assert [{k: f[k] for k in expected[0]} for f in events] == expected
        engine.commit(txn)

    def test_one_page_lock_per_distinct_page(self):
        sd, engine, handles = build_engine()
        before = sd.stats.get(LOCK_REQUESTS)
        txn = engine.begin()
        engine.update_many(txn, plan_for(handles))
        assert sd.stats.get(LOCK_REQUESTS) - before == 2  # pages 0 and 1
        assert sd.stats.get(BULK_UPDATE_BATCHES) == 1
        assert sd.stats.get(BULK_OPS_APPLIED) == len(UPDATE_PLAN)
        engine.commit(txn)

    def test_rollback_restores_every_record(self):
        _, engine, handles = build_engine()
        before = payloads(engine, handles)
        txn = engine.begin()
        engine.update_many(txn, plan_for(handles))
        engine.rollback(txn)
        assert payloads(engine, handles) == before

    def test_mid_batch_failure_logs_applied_prefix(self):
        """An op that fails mid-batch surfaces its error, but the
        already applied prefix is logged (and therefore undoable)."""
        _, engine, handles = build_engine()
        page_id, slot = handles[0]
        before = payloads(engine, handles)
        txn = engine.begin()
        bad = [(page_id, slot, b"prefix"), (page_id, 99, b"never")]
        with pytest.raises(IndexError):
            engine.update_many(txn, bad)
        # The prefix was applied and logged...
        probe = engine.begin()  # escalated page lock is still held
        assert engine.log.scan is not None
        logged = [r for _, r in engine.log.scan()
                  if r.txn_id == txn.txn_id]
        assert len(logged) == 1
        engine.rollback(probe)
        # ...so rollback can restore it.
        engine.rollback(txn)
        assert payloads(engine, handles) == before

    def test_empty_slot_is_a_repro_error(self):
        _, engine, handles = build_engine()
        page_id, slot = handles[0]
        txn = engine.begin()
        engine.delete(txn, page_id, slot)
        with pytest.raises(ReproError):
            engine.update_many(txn, [(page_id, slot, b"x")])
        engine.rollback(txn)

    def test_empty_batch_is_a_no_op(self):
        sd, engine, _ = build_engine()
        txn = engine.begin()
        engine.update_many(txn, [])
        engine.commit(txn)
        assert sd.stats.get(BULK_UPDATE_BATCHES) == 0


class TestReadMany:
    def test_values_match_per_call_reads(self):
        _, engine, handles = build_engine()
        txn = engine.begin()
        expected = [engine.read(txn, page_id, slot)
                    for page_id, slot in handles]
        assert engine.read_many(txn, handles) == expected
        engine.commit(txn)

    def test_one_s_lock_per_distinct_page(self):
        sd, engine, handles = build_engine()
        txn = engine.begin()
        before = sd.stats.get(LOCK_REQUESTS)
        engine.read_many(txn, handles)  # N_PAGES distinct pages
        assert sd.stats.get(LOCK_REQUESTS) - before == N_PAGES
        assert sd.stats.get(BULK_READ_BATCHES) == 1
        engine.commit(txn)

    def test_sees_own_uncommitted_bulk_updates(self):
        _, engine, handles = build_engine()
        txn = engine.begin()
        engine.update_many(txn, plan_for(handles))
        plan = plan_for(handles)
        # Last write per (page, slot) wins.
        expected = {(p, s): v for p, s, v in plan}
        got = engine.read_many(txn, [(p, s) for p, s, _ in plan])
        assert got == [expected[(p, s)] for p, s, _ in plan]
        engine.rollback(txn)


class TestBulkDriver:
    CONFIG = BulkConfig(n_transactions=12, ops_per_txn=16, seed=5)

    def test_bulk_and_per_call_drivers_converge(self):
        _, per_engine, per_handles = build_engine()
        per_run = run_per_call(
            per_engine, build_batches(self.CONFIG, per_handles))

        bulk_sd, bulk_engine, bulk_handles = build_engine()
        bulk_run = run_bulk(
            bulk_engine, build_batches(self.CONFIG, bulk_handles))

        assert (per_run.committed, per_run.reads, per_run.updates) == \
            (bulk_run.committed, bulk_run.reads, bulk_run.updates)
        assert payloads(per_engine, per_handles) == \
            payloads(bulk_engine, bulk_handles)
        assert bulk_run.syncs >= 1
        assert bulk_sd.stats.get(BULK_UPDATE_BATCHES) == \
            self.CONFIG.n_transactions

    def test_group_commit_forces_less_than_eager_commit(self):
        """With low page contention across consecutive transactions the
        lazy commits actually group (a pending group's held page locks
        force an early sync, so the batches here round-robin disjoint
        pages)."""
        def round_robin(handles):
            batches = []
            for i in range(12):
                page_id, slot = handles[(i % N_PAGES) * RECORDS_PER_PAGE]
                batches.append(TxnBatch(
                    updates=[(page_id, slot, b"txn %02d" % i)]))
            return batches

        per_sd, per_engine, per_handles = build_engine()
        run_per_call(per_engine, round_robin(per_handles))

        bulk_sd, bulk_engine, bulk_handles = build_engine()
        run = run_bulk(bulk_engine, round_robin(bulk_handles),
                       group_commit_every=4)

        assert run.committed == 12
        assert bulk_sd.stats.get(LOG_FORCES) < per_sd.stats.get(LOG_FORCES)
        assert payloads(per_engine, per_handles) == \
            payloads(bulk_engine, bulk_handles)

    def test_repeatable_read_holds_read_locks_to_sync(self):
        sd, engine, handles = build_engine(isolation="repeatable_read")
        run = run_bulk(engine, build_batches(self.CONFIG, handles))
        assert run.committed == self.CONFIG.n_transactions
        assert payloads(engine, handles)  # engine is still usable

    def test_rejects_nonpositive_group(self):
        _, engine, handles = build_engine()
        with pytest.raises(ValueError):
            run_bulk(engine, [], group_commit_every=0)
