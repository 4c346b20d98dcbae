"""Cost must not depend on log age (docs/performance.md, "Cost vs log age").

Restart, the replicated commit point and RecLSN -> RecAddr mapping read
the records added since they last looked — the checkpoint, the ship
cursor, the client's current run of batches — never the whole log.
Everything here is deterministic: costs are counted in bytes handed to
``LogManager.scan`` (``log.bytes_scanned``), not timed.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.stats import LOG_BYTES_SCANNED, StatsRegistry
from repro.cs.server import CsServer
from repro.cs.system import CsSystem
from repro.recovery.checkpoint import archive_log, take_checkpoint
from repro.replication import ReplicationConfig
from repro.sd.complex import SDComplex
from repro.wal.client_log import ClientLogManager
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord, RecordKind, make_update


def committed_rows(engine, n):
    txn = engine.begin()
    rows = []
    for _ in range(n):
        page_id = engine.allocate_page(txn)
        rows.append((page_id, engine.insert(txn, page_id, b"v0")))
    engine.commit(txn)
    return rows


def update_rows(engine, rows, rng, n_txns):
    for _ in range(n_txns):
        txn = engine.begin()
        for page_id, slot in rng.sample(rows, 3):
            engine.update(txn, page_id, slot, bytes([rng.randrange(256)]) * 8)
        engine.commit(txn)


# ----------------------------------------------------------------------
# (a) restart reads the window since the checkpoint, whatever the age
# ----------------------------------------------------------------------
@pytest.mark.parametrize("restart_mode", ["eager", "instant"])
def test_restart_scan_does_not_grow_with_crash_cycles(restart_mode):
    stats = StatsRegistry()
    sd = SDComplex(n_data_pages=64, stats=stats, restart_mode=restart_mode)
    engine = sd.add_instance(1)
    rows = committed_rows(engine, 16)
    scanned = []
    for cycle in range(4):
        rng = random.Random(1992)  # the same work every cycle
        update_rows(engine, rows, rng, 30)
        engine.pool.flush_all()
        take_checkpoint(engine)
        update_rows(engine, rows, rng, 10)
        loser = engine.begin()
        engine.update(loser, *rows[0], b"in-flight")
        engine.log.force()
        sd.crash_instance(1)
        before = stats.get(LOG_BYTES_SCANNED)
        sd.restart_instance(1)
        sd.instant_drain()
        scanned.append(stats.get(LOG_BYTES_SCANNED) - before)
        assert engine.read(engine.begin(), *rows[0]) != b"in-flight"
    assert scanned[0] > 0
    assert scanned[3] <= 1.1 * scanned[0], scanned


# ----------------------------------------------------------------------
# (b) a quorum commit reads what was appended since the last one
# ----------------------------------------------------------------------
def test_quorum_commit_scans_only_the_new_records():
    stats = StatsRegistry()
    sd = SDComplex(n_data_pages=64, stats=stats,
                   replicate=ReplicationConfig())
    engines = [sd.add_instance(1), sd.add_instance(2)]
    for system_id in (9, 10):
        sd.replication.add_standby(system_id)
    rows = [committed_rows(engine, 4) for engine in engines]
    rng = random.Random(7)
    for step in range(40):
        which = step % 2
        ends = sum(engine.log.end_offset for engine in engines)
        before = stats.get(LOG_BYTES_SCANNED)
        update_rows(engines[which], rows[which], rng, 1)
        appended = sum(engine.log.end_offset for engine in engines) - ends
        assert 0 < stats.get(LOG_BYTES_SCANNED) - before <= appended
    assert sd.replication.pending_records() == 0


# ----------------------------------------------------------------------
# (c) recover_local_max from the checkpoint is exact
# ----------------------------------------------------------------------
def _log_ops(with_client_batches):
    ops = [
        st.tuples(st.just("append"), st.integers(0, 400)),
        st.tuples(st.just("observe"), st.integers(0, 400)),
        st.tuples(st.just("checkpoint"), st.just(0)),
        st.tuples(st.just("archive"), st.just(0)),
    ]
    if with_client_batches:
        ops += [
            st.tuples(st.just("ship"), st.integers(0, 1)),
            st.tuples(st.just("client_crash"), st.integers(0, 1)),
        ]
    return st.lists(st.one_of(*ops), min_size=1, max_size=40)


def _check_recover_local_max(ops):
    log = LogManager(0)
    clients = [ClientLogManager(1), ClientLogManager(2)]
    for kind, arg in ops:
        if kind == "append":
            log.append(make_update(1, 0, 64, 0, b"r", b"u"), page_lsn=arg)
        elif kind == "observe":
            log.observe_remote_max(arg)
        elif kind == "checkpoint":
            begin = log.append(LogRecord(kind=RecordKind.BEGIN_CHECKPOINT))
            log.append(LogRecord(kind=RecordKind.END_CHECKPOINT))
            log.force()
            log.master_record_offset = begin.offset
        elif kind == "archive":
            log.archive_up_to(log.master_record_offset or 0)
        elif kind == "ship":
            # A client batch: LSNs assigned by the client, interleaving
            # low and high with everything else in the server log.
            client = clients[arg]
            for _ in range(3):
                client.append(make_update(1, arg + 1, 65, 0, b"r", b"u"))
            log.append_raw(client.ship())
        elif kind == "client_crash":
            clients[arg].crash()  # its LSNs restart from zero
    log.force()
    log.crash()
    brute_force = max((r.lsn for _, r in log.scan()), default=0)
    log.local_max_lsn = 0
    assert log.recover_local_max() == brute_force
    assert log.local_max_lsn == brute_force


@settings(deadline=None)
@given(ops=_log_ops(with_client_batches=False))
def test_recover_local_max_is_exact_for_an_sd_local_log(ops):
    _check_recover_local_max(ops)


@settings(deadline=None)
@given(ops=_log_ops(with_client_batches=True))
def test_recover_local_max_is_exact_for_a_cs_server_log(ops):
    _check_recover_local_max(ops)


def test_recover_local_max_after_archiving_a_live_engine_log():
    sd = SDComplex(n_data_pages=64)
    engine = sd.add_instance(1)
    rows = committed_rows(engine, 4)
    update_rows(engine, rows, random.Random(3), 5)
    engine.pool.flush_all()
    assert archive_log(engine) > 0
    update_rows(engine, rows, random.Random(4), 5)
    brute_force = max(r.lsn for _, r in engine.log.scan())
    engine.log.local_max_lsn = 0
    assert engine.log.recover_local_max() == brute_force


# ----------------------------------------------------------------------
# (d) map_rec_lsn == the linear walk over every batch ever shipped
# ----------------------------------------------------------------------
class _ShippingClient:
    """Stands in for a client at ``receive_log_records``: ships records
    with chosen LSNs."""

    def __init__(self, client_id):
        self.client_id = client_id
        self.log = self
        self._data = b""

    def load(self, lsns):
        self._data = b"".join(
            LogRecord(kind=RecordKind.DUMMY, system_id=self.client_id,
                      lsn=lsn).to_bytes() for lsn in lsns)

    def ship(self):
        data, self._data = self._data, b""
        return data


def _linear_map_rec_lsn(server, client_id, rec_lsn):
    for batch in server._batches.get(client_id, []):
        if batch.first_lsn <= rec_lsn <= batch.last_lsn:
            return batch.offset
    return 0


@settings(deadline=None)
@given(ops=st.lists(st.one_of(
    st.tuples(st.just("ship"), st.integers(1, 4), st.integers(1, 4)),
    st.tuples(st.just("client_crash"), st.integers(0, 30), st.just(0)),
    st.tuples(st.just("server_restart"), st.just(0), st.just(0)),
), min_size=1, max_size=30))
def test_map_rec_lsn_equals_the_linear_reference(ops):
    server = CsServer(n_data_pages=64)
    client = _ShippingClient(1)
    next_lsn = top = 1
    for kind, a, b in ops:
        if kind == "ship":
            # ``a`` LSNs skipped since the last batch, ``b`` records.
            first = next_lsn + a - 1
            client.load(range(first, first + b))
            server.receive_log_records(client)
            next_lsn = first + b
            top = max(top, next_lsn)
        elif kind == "client_crash":
            next_lsn = 1 + a  # the recovered client's LSNs restart low
        else:
            server.crash()
            server.restart()
            assert server.map_rec_lsn(1, 1) == 0
        for rec_lsn in range(top + 2):
            assert (server.map_rec_lsn(1, rec_lsn)
                    == _linear_map_rec_lsn(server, 1, rec_lsn))


# ----------------------------------------------------------------------
# (e) a loser older than the checkpoint: undo widens its index once;
#     CS client recovery indexes its own window the same way
# ----------------------------------------------------------------------
@pytest.mark.parametrize("restart_mode", ["eager", "instant"])
def test_loser_active_at_the_checkpoint_is_fully_undone(restart_mode):
    sd = SDComplex(n_data_pages=64, restart_mode=restart_mode)
    engine = sd.add_instance(1)
    (old_row, new_row) = committed_rows(engine, 2)
    loser = engine.begin()
    engine.update(loser, *old_row, b"before-ckpt")
    # Steal the uncommitted update to disk: only undo can remove it.
    engine.pool.flush_all()
    take_checkpoint(engine)
    engine.update(loser, *new_row, b"after-ckpt")
    engine.pool.flush_all()
    sd.crash_instance(1)
    summary = sd.restart_instance(1)
    sd.instant_drain()
    assert summary.loser_transactions == 1
    assert summary.clrs_written == 2
    engine.pool.flush_all()
    for row in (old_row, new_row):
        assert sd.disk.read_page(row[0]).read_record(row[1]) == b"v0"


def cs_client_recovery_scan(prior_txns):
    """``log.bytes_scanned`` by recovering a client that checkpointed
    after ``prior_txns`` committed transactions and then shipped one
    loser update."""
    stats = StatsRegistry()
    cs = CsSystem(n_data_pages=64, stats=stats)
    client = cs.add_client(1)
    rows = committed_rows(client, 4)
    update_rows(client, rows, random.Random(1992), prior_txns)
    client.flush_all()
    client.checkpoint()
    loser = client.begin()
    client.update(loser, *rows[0], b"in-flight")
    client.send_page_back(rows[0][0])
    cs.crash_client(1)
    before = stats.get(LOG_BYTES_SCANNED)
    summary = cs.recover_client(1)
    assert (summary.records_scanned, summary.clrs_written) == (1, 1)
    return stats.get(LOG_BYTES_SCANNED) - before


def test_cs_client_recovery_scan_does_not_grow_with_history():
    """Undo indexes the client's window, not the whole server log."""
    assert cs_client_recovery_scan(50) == cs_client_recovery_scan(200)


def test_cs_client_loser_active_at_the_checkpoint_is_fully_undone():
    cs = CsSystem(n_data_pages=64)
    client = cs.add_client(1)
    (old_row, new_row) = committed_rows(client, 2)
    loser = client.begin()
    client.update(loser, *old_row, b"before-ckpt")
    # Ship the page and steal it to disk: it leaves the client's
    # dirty-page table, so the checkpoint opens the window after it.
    client.flush_all()
    cs.server.pool.flush_all()
    client.checkpoint()
    client.update(loser, *new_row, b"after-ckpt")
    client.flush_all()
    cs.crash_client(1)
    summary = cs.recover_client(1)
    assert (summary.loser_transactions, summary.clrs_written) == (1, 2)
    cs.quiesce()
    for row in (old_row, new_row):
        assert cs.server.disk.read_page(row[0]).read_record(row[1]) == b"v0"


# ----------------------------------------------------------------------
# (f) the standby parses each shipped record once
# ----------------------------------------------------------------------
def test_standby_parses_each_shipped_record_once(monkeypatch):
    sd = SDComplex(n_data_pages=64, replicate=ReplicationConfig())
    sd.add_instance(1)
    standby = sd.replication.add_standby(9)
    records = [
        LogRecord(kind=RecordKind.DUMMY, system_id=1, lsn=lsn, extra=b"x" * lsn)
        for lsn in range(1, 7)
    ]
    shipped = [record.to_bytes() for record in records]
    # One record per item and several records in one item.
    batch = [(1, data) for data in shipped[:3]] + [(1, b"".join(shipped[3:]))]

    parses = []
    real = LogRecord.from_bytes.__func__

    def spy(cls, data, offset=0):
        parses.append(offset)
        return real(cls, data, offset)

    def boom(self):  # pragma: no cover - failure path
        raise AssertionError("shipped record re-encoded on the standby")

    monkeypatch.setattr(LogRecord, "from_bytes", classmethod(spy))
    monkeypatch.setattr(LogRecord, "to_bytes", boom)
    assert standby.receive(batch) == len(records)
    assert len(parses) == len(records)
    monkeypatch.undo()

    (replica,) = standby.replica_logs()
    assert replica.flushed_offset == replica.end_offset
    assert [r.to_bytes() for _, r in replica.scan()] == shipped
    # A re-shipped batch screens out as duplicates, still one parse each.
    assert standby.receive(batch) == 0
