"""Deterministic budgets for the per-call lane — counts, never timers.

The per-call lane (``begin/read/update/commit`` on one instance) is the
floor under most perf-lab rows.  What it costs in the Python substrate
is, to a first approximation, the number of interpreted calls it makes;
these tests pin that number, the logical work it must keep doing, and
the two structural properties the diet rests on: commit-time lock
release independent of the lock table's size, and a reader that blocks
*before* it pulls the page across systems.
"""

import copy
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro import CsSystem, SDComplex
from repro.common.errors import DeadlockError, LockWouldBlock
from repro.common.stats import (
    DISK_PAGE_READS,
    DISK_PAGE_WRITES,
    LOCK_REQUESTS,
    LOG_BYTES_WRITTEN,
    LOG_FORCES,
    LOG_RECORDS_WRITTEN,
    MESSAGE_BYTES,
    MESSAGES_SENT,
    REPL_RECORDS_APPLIED,
    message_kind_counter,
)
from repro.locking import lock_manager as lock_manager_module
from repro.locking.lock_manager import LockManager, LockMode, LockStatus
from repro.obs import events as ev
from repro.obs.tracer import Tracer
from repro.replication import ACK_ALL, ACK_QUORUM, ReplicationConfig

PAYLOAD_BYTES = 64
#: Interpreted calls per canonical transaction: 361 before the diet,
#: ~185 after it, 179 once a COMMIT ends the transaction (no END), on
#: CPython 3.11.  The ceiling leaves room for the frame-accounting
#: differences between 3.10 and 3.12.
CALL_CEILING = 230
#: The same transaction on a CS client: 217 before SD and CS shared one
#: transaction front end, 207 after it, 206 once a raw append returns
#: its offset instead of a LogAddress, 196 once a COMMIT ends the
#: transaction, on CPython 3.11; the same slack as CALL_CEILING.
CS_CALL_CEILING = 250
#: The same transaction with ``ReplicationConfig()`` and two standbys:
#: 491 before the ship-path diet, 340 after it, 247 once the standbys
#: apply off the commit path, 245 once their raw appends return an
#: offset instead of a LogAddress, 237 once a COMMIT ends the
#: transaction, on CPython 3.11.
REPLICATED_CALL_CEILING = 370
#: What the canonical transaction writes to one log: two equal-length
#: overwrites (a 29-byte page header and one XOR image each) and a
#: COMMIT (a 19-byte control header, no payload), its last record.
TXN_LOG_BYTES = 2 * (29 + 1 + PAYLOAD_BYTES) + 19


# ----------------------------------------------------------------------
# (a) the canonical transaction: calls and logical work
# ----------------------------------------------------------------------
def _warm_engine(replicate=None):
    sd = SDComplex(n_data_pages=64, replicate=replicate)
    engine = sd.add_instance(1, buffer_capacity=128)
    if replicate is not None:
        for system_id in (9, 10):
            sd.replication.add_standby(system_id)
    return sd, engine, _load_rows(engine)


def _load_rows(engine):
    """Four pages of eight records each, committed in one transaction."""
    txn = engine.begin()
    rows = []
    for _ in range(4):
        page_id = engine.allocate_page(txn)
        slots = [engine.insert(txn, page_id, bytes([r + 1]) * PAYLOAD_BYTES)
                 for r in range(8)]
        rows.append((page_id, slots))
    engine.commit(txn)
    return rows


def _canonical_txn(engine, rows, i):
    """2 reads + 2 updates on four different pages, then commit."""
    txn = engine.begin()
    engine.read(txn, rows[0][0], rows[0][1][i % 8])
    engine.update(txn, rows[1][0], rows[1][1][i % 8],
                  bytes([i % 200 + 1]) * PAYLOAD_BYTES)
    engine.read(txn, rows[2][0], rows[2][1][i % 8])
    engine.update(txn, rows[3][0], rows[3][1][i % 8],
                  bytes([i % 200 + 2]) * PAYLOAD_BYTES)
    engine.commit(txn)


def _read_only_txn(engine, rows, i):
    """4 reads on four different pages, then commit."""
    txn = engine.begin()
    for page_id, slots in rows:
        engine.read(txn, page_id, slots[i % 8])
    engine.commit(txn)


def _load_bench_common():
    """``benchmarks/_common.py``, the one home of the call counter."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "_common.py"
    spec = importlib.util.spec_from_file_location("_bench_common", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_COMMON = _load_bench_common()


def _calls_within(ceiling, what, fn, *args, per=1, less=0):
    """Assert ``fn(*args)`` makes at most ``ceiling`` interpreted calls
    (less ``less``, divided by ``per``); a failure prints the top of
    the per-function call histogram, so it names the frame that
    grew."""
    histogram = Counter()
    calls, _ = _COMMON.count_calls(fn, *args, histogram=histogram)
    calls = (calls - less) / per
    assert calls <= ceiling, (
        f"{calls:g} interpreted calls per {what} (budget {ceiling}); "
        f"most-called functions:\n{_COMMON.top_calls(histogram)}")


class TestCanonicalTransaction:
    def test_interpreted_calls_within_budget(self):
        _, engine, rows = _warm_engine()
        for i in range(20):
            _canonical_txn(engine, rows, i)
        _calls_within(CALL_CEILING, "4-op transaction",
                      _canonical_txn, engine, rows, 20)

    def test_logical_work_is_pinned(self):
        """Same locks, records, bytes and forces as before the diet."""
        sd, engine, rows = _warm_engine()
        for i in range(20):
            _canonical_txn(engine, rows, i)
        before = sd.stats.snapshot()
        _canonical_txn(engine, rows, 20)
        work = sd.stats.diff(before)
        assert work == {
            # page + record lock per op
            LOCK_REQUESTS: 8,
            # 2 updates, COMMIT
            LOG_RECORDS_WRITTEN: 3,
            LOG_BYTES_WRITTEN: TXN_LOG_BYTES,
            LOG_FORCES: 1,
        }


class TestCsCanonicalTransaction:
    """The same transaction on one client of a CS system: the log work
    moves to the server's single log, and every lock is a round trip."""

    @staticmethod
    def _steady():
        cs = CsSystem(n_data_pages=64)
        client = cs.add_client(1)
        rows = _load_rows(client)
        for i in range(20):
            _canonical_txn(client, rows, i)
        return cs, client, rows

    def test_logical_work_is_pinned(self):
        cs, client, rows = self._steady()
        before = cs.stats.snapshot()
        _canonical_txn(client, rows, 20)
        work = cs.stats.diff(before)
        assert work == {
            # one record lock per op; the readers' go back at once
            LOCK_REQUESTS: 4,
            message_kind_counter("lock_request"): 4,
            message_kind_counter("lock_reply"): 4,
            message_kind_counter("unlock"): 2,
            # 2 updates and the COMMIT: one ship, one server force
            LOG_RECORDS_WRITTEN: 3,
            LOG_BYTES_WRITTEN: TXN_LOG_BYTES,
            LOG_FORCES: 1,
            message_kind_counter("log_ship"): 1,
            message_kind_counter("commit_ack"): 1,
            MESSAGES_SENT: 12,
            # the log ship carries the transaction's log bytes
            MESSAGE_BYTES: 704 + TXN_LOG_BYTES,
        }

    def test_interpreted_calls_within_budget(self):
        _, client, rows = self._steady()
        _calls_within(CS_CALL_CEILING, "CS 4-op transaction",
                      _canonical_txn, client, rows, 20)


class TestReplicatedCanonicalTransaction:
    """The quorum row: what two standbys add to the transaction above,
    in forces, messages, log bytes and calls."""

    @staticmethod
    def _steady(ack=ACK_QUORUM):
        sd, engine, rows = _warm_engine(ReplicationConfig(ack=ack))
        for i in range(20):
            _canonical_txn(engine, rows, i)
        # Every standby forced and applied: the next window_records
        # absorbed records are away from a laggard's window boundary.
        sd.replication.drain()
        return sd, engine, rows

    @pytest.mark.parametrize("ack, forces", [(ACK_QUORUM, 2), (ACK_ALL, 3)])
    def test_one_commit_costs_the_levels_forces(self, ack, forces):
        sd, engine, rows = self._steady(ack)
        before = sd.stats.snapshot()
        _canonical_txn(engine, rows, 20)
        work = sd.stats.diff(before)
        # The primary's force plus one per standby whose vote the level
        # needs; a ship and an ack per standby; three copies of the log.
        assert work[LOG_FORCES] == forces
        assert work[MESSAGES_SENT] == 4
        assert work[LOG_BYTES_WRITTEN] == 3 * TXN_LOG_BYTES == 3 * 207
        assert work[LOG_RECORDS_WRITTEN] == 3    # replica logs count bytes

    def test_laggard_forces_once_per_window(self):
        sd, engine, rows = self._steady()
        window = sd.replication.config.window_records
        commits = 64
        before = sd.stats.get(LOG_FORCES)
        for i in range(20, 20 + commits):
            _canonical_txn(engine, rows, i)
        # Two forces per commit, and three records ship with each (two
        # updates, the COMMIT): the laggard forces on the first ship
        # that brings its unforced records to window_records, so once
        # every ceil(window / 3) = 22 commits.
        assert sd.stats.get(LOG_FORCES) - before == \
            2 * commits + commits // -(-window // 3) == 130

    def test_warm_commits_touch_no_standby_disk(self):
        """The standbys apply into their page caches: a window of warm
        commits, applies included, reads and writes no page."""
        sd, engine, rows = self._steady()
        before = sd.stats.snapshot()
        for i in range(20, 84):
            _canonical_txn(engine, rows, i)
        work = sd.stats.diff(before)
        assert work[REPL_RECORDS_APPLIED] > 0
        assert work.get(DISK_PAGE_READS, 0) == 0
        assert work.get(DISK_PAGE_WRITES, 0) == 0

    def test_drain_writes_each_dirty_cached_page_once(self):
        """Two pages updated on each of two standbys: one write each,
        and a second drain writes nothing."""
        sd, engine, rows = self._steady()
        for i in range(20, 84):
            _canonical_txn(engine, rows, i)
        before = sd.stats.snapshot()
        sd.replication.drain()
        assert sd.stats.diff(before).get(DISK_PAGE_WRITES, 0) == 2 * 2
        before = sd.stats.snapshot()
        sd.replication.drain()
        assert sd.stats.diff(before).get(DISK_PAGE_WRITES, 0) == 0

    def test_interpreted_calls_within_budget(self):
        _, engine, rows = self._steady()
        _calls_within(REPLICATED_CALL_CEILING, "replicated 4-op transaction",
                      _canonical_txn, engine, rows, 20)

    def test_warm_window_calls_within_budget(self):
        """64 warm commits, the standbys' window applies included: 296.1
        interpreted calls per commit before the standby applied through
        the pending-chain set, 288.25 with it and a table-driven
        ``decode_op``, 286.25 once a raw append returns its offset,
        281.75 once a COMMIT ends the transaction, on CPython 3.11."""
        _, engine, rows = self._steady()
        commits = 64

        def window():
            for i in range(20, 20 + commits):
                _canonical_txn(engine, rows, i)

        # Less the window's own calls of _canonical_txn.
        _calls_within(REPLICATED_CALL_CEILING,
                      f"replicated commit over {commits}", window,
                      per=commits, less=commits)


class TestReadOnlyCanonicalTransaction:
    """The zero rows: a transaction that only read has nothing to make
    durable, so no commit path logs, forces, ships or waits for it."""

    @staticmethod
    def _work(system, engine, rows):
        for i in range(20):
            _read_only_txn(engine, rows, i)
        before = system.stats.snapshot()
        _read_only_txn(engine, rows, 20)
        return system.stats.diff(before)

    @pytest.mark.parametrize("ack", [None, ACK_QUORUM, ACK_ALL])
    def test_sd_logs_forces_and_ships_nothing(self, ack):
        """Unreplicated and at both synchronous ack levels: a page and
        a record lock per read; no record, byte, force (standbys'
        included), batch or message."""
        sd, engine, rows = _warm_engine(
            None if ack is None else ReplicationConfig(ack=ack))
        assert self._work(sd, engine, rows) == {LOCK_REQUESTS: 8}

    def test_cs_sends_no_ship_or_ack_and_forces_nothing(self):
        cs = CsSystem(n_data_pages=64)
        client = cs.add_client(1)
        work = self._work(cs, client, _load_rows(client))
        assert work.get(message_kind_counter("log_ship"), 0) == 0
        assert work.get(message_kind_counter("commit_ack"), 0) == 0
        assert work.get(LOG_FORCES, 0) == 0
        assert work.get(LOG_RECORDS_WRITTEN, 0) == 0


# ----------------------------------------------------------------------
# (b) commit-time lock release is O(locks held)
# ----------------------------------------------------------------------
def _lines_in_lock_manager(fn, *args):
    """Source lines executed inside lock_manager.py while ``fn`` runs."""
    filename = lock_manager_module.__file__
    lines = 0

    def tracer(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != filename:
            return None
        if event == "line":
            lines += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return lines


class TestReleaseCostIndependentOfTableSize:
    @staticmethod
    def _manager(other_locks):
        lm = LockManager()
        for n in range(other_locks):
            lm.acquire(("other", n % 7), ("record", 900, n), LockMode.X)
        for n in range(8):
            lm.acquire("me", ("record", 1, n), LockMode.X)
        return lm

    @pytest.mark.parametrize("method", ["release_all", "locks_of"])
    def test_same_lines_with_0_and_2000_foreign_locks(self, method):
        small = self._manager(0)
        large = self._manager(2000)
        assert len(large.resources()) == 2008
        cost_small = _lines_in_lock_manager(getattr(small, method), "me")
        cost_large = _lines_in_lock_manager(getattr(large, method), "me")
        assert cost_small > 0
        assert cost_large == cost_small


# ----------------------------------------------------------------------
# (c) a reader that is about to block does not move the page
# ----------------------------------------------------------------------
class TestBlockedReadMovesNothing:
    def test_blocked_read_costs_no_transfer_and_no_disk_write(self):
        sd = SDComplex(n_data_pages=64)
        writer_sys, reader_sys = sd.add_instance(1), sd.add_instance(2)
        setup = writer_sys.begin()
        page_id = writer_sys.allocate_page(setup)
        slot = writer_sys.insert(setup, page_id, b"v0")
        writer_sys.commit(setup)
        writer = writer_sys.begin()
        writer_sys.update(writer, page_id, slot, b"v1")   # record X lock
        transfers = message_kind_counter("page_transfer")
        copies = message_kind_counter("page_copy")

        before = sd.stats.snapshot()
        reader = reader_sys.begin()
        with pytest.raises(LockWouldBlock):
            reader_sys.read(reader, page_id, slot)
        moved = sd.stats.diff(before)
        assert moved.get(transfers, 0) == 0
        assert moved.get(copies, 0) == 0
        assert moved.get(DISK_PAGE_WRITES, 0) == 0
        assert sd.coherency.writer_of(page_id) == 1

        writer_sys.commit(writer)
        before = sd.stats.snapshot()
        assert reader_sys.read(reader, page_id, slot) == b"v1"
        moved = sd.stats.diff(before)
        assert moved.get(transfers, 0) == 1
        assert moved.get(copies, 0) == 0
        reader_sys.commit(reader)


class TestReadMissEventOrder:
    def test_single_system_read_miss_locks_then_reads_the_page(self):
        """Lock -> fix -> read, the order ``update`` uses: on a pool
        miss the lock events precede the eviction and the disk read.
        (Before the diet the page was fixed once ahead of the locks, so
        the same events came out with the I/O first.)"""
        tracer = Tracer()
        sd = SDComplex(n_data_pages=64, tracer=tracer)
        engine = sd.add_instance(1, buffer_capacity=2)
        rows = []
        for _ in range(3):   # three pages through a two-frame pool
            txn = engine.begin()
            page_id = engine.allocate_page(txn)
            rows.append((page_id, engine.insert(txn, page_id, b"v0")))
            engine.commit(txn)
        page_id, slot = rows[0]
        assert not engine.pool.contains(page_id)

        reader = engine.begin()
        tracer.clear()
        assert engine.read(reader, page_id, slot) == b"v0"
        kinds = [event.kind for event in tracer.events()
                 if not event.kind.startswith("span.")]
        assert kinds == [
            ev.LOCK_GRANT, ev.LSN_OBSERVE,     # page IS
            ev.LOCK_GRANT, ev.LSN_OBSERVE,     # record S
            ev.DISK_WRITE, ev.PAGE_WRITE, ev.PAGE_EVICT,   # make room
            ev.DISK_READ, ev.PAGE_READ,
            ev.LOCK_RELEASE,                   # cursor stability
        ]


# ----------------------------------------------------------------------
# (d) the owner index against a brute-force scan of the table
# ----------------------------------------------------------------------
OWNERS = ("t1", "t2", "t3", "t4")
RESOURCES = tuple(("record", 1, n) for n in range(6))


def _scan_locks_of(lm, owner):
    return {resource: head.granted[owner]
            for resource, head in lm._table.items()
            if owner in head.granted}


def _scan_queued(lm, owner):
    return {resource for resource, head in lm._table.items()
            if any(r.owner == owner for r in head.queue)}


def _reference_release_all(lm, owner):
    """The pre-index algorithm, kept as the reference: one sweep of the
    whole table in head-creation order.  (It differs from the parent's
    only in withdrawing the owner's queued conversion on a head the
    owner also holds — the leak this PR fixes.)"""
    promoted = []
    lm._waiting_on.pop(owner, None)
    for resource in list(lm._table):
        head = lm._table[resource]
        before = len(head.queue)
        head.queue = [r for r in head.queue if r.owner != owner]
        if owner in head.granted:
            del head.granted[owner]
        elif len(head.queue) == before:
            continue
        promoted.extend(
            (resource, new_owner)
            for new_owner in lm._promote(resource, head))
    return promoted


def _table_state(lm):
    return {resource: (lm.holders(resource), lm.waiters(resource))
            for resource in lm.resources()}


def _check_index(lm):
    for owner in OWNERS:
        assert lm.locks_of(owner) == _scan_locks_of(lm, owner)
        assert set(lm._queued.get(owner, ())) == _scan_queued(lm, owner)
    scanned = set()
    for head in lm._table.values():
        scanned.update(head.granted)
        scanned.update(r.owner for r in head.queue)
    assert lm.owners() == scanned == set(lm._held) | set(lm._queued)
    for resource, head in lm._table.items():
        assert head.granted or head.queue, "empty head left in the table"
        assert lm.holders(resource) == head.granted
        assert lm.waiters(resource) == [r.owner for r in head.queue]


_OPS = st.lists(
    st.tuples(
        st.sampled_from(("acquire", "acquire", "try_acquire",
                         "release", "release_all")),
        st.sampled_from(OWNERS),
        st.sampled_from(RESOURCES),
        st.sampled_from(list(LockMode)),
    ),
    max_size=60,
)


class TestOwnerIndexMatchesTableScan:
    @given(ops=_OPS)
    def test_random_histories(self, ops):
        lm = LockManager()
        for op, owner, resource, mode in ops:
            if op == "acquire":
                try:
                    lm.acquire(owner, resource, mode)
                except DeadlockError:
                    pass  # the victim's request is withdrawn
            elif op == "try_acquire":
                status = lm.try_acquire(owner, resource, mode)
                assert status is not LockStatus.WAITING
            elif op == "release":
                if lm.holds(owner, resource):
                    lm.release(owner, resource)
            else:
                reference = copy.deepcopy(lm)
                expected = _reference_release_all(reference, owner)
                assert lm.release_all(owner) == expected
                assert _table_state(lm) == _table_state(reference)
                assert list(lm.resources()) == list(reference.resources())
            _check_index(lm)
        for owner in OWNERS:
            lm.release_all(owner)
        assert lm.resources() == [] and lm.owners() == set()
        assert lm._held == {} and lm._queued == {}

    def test_promotions_reported_in_table_order(self):
        """The owner's acquisition order (r1 then r0) differs from the
        table's head-creation order (r0 then r1); promotions follow
        the table."""
        lm = LockManager()
        r0, r1 = RESOURCES[0], RESOURCES[1]
        lm.acquire("w0", r0, LockMode.S)       # creates r0's head first
        lm.acquire("me", r1, LockMode.X)
        lm.acquire("me", r0, LockMode.S)
        lm.release("w0", r0)
        lm.acquire("w0", r0, LockMode.X)       # waits behind me's S
        lm.acquire("w1", r1, LockMode.X)       # waits behind me's X
        assert lm.release_all("me") == [(r0, "w0"), (r1, "w1")]
