"""Unit tests for CS server internals: batches, txn table, checkpoints."""

import pytest

from repro import CsSystem
from repro.common.errors import ReproError
from repro.cs.server import SERVER_ID
from repro.wal.records import CheckpointData, RecordKind


def committed_row(client, payload=b"v0"):
    txn = client.begin()
    page_id = client.allocate_page(txn)
    slot = client.insert(txn, page_id, payload)
    client.commit(txn)
    return page_id, slot


class TestBatchBookkeeping:
    def test_each_ship_becomes_a_batch(self, cs):
        c1 = cs.clients[1]
        committed_row(c1)
        committed_row(c1)
        batches = cs.server._batches[1]
        assert len(batches) == 2
        # Batches are contiguous, ordered spans of the client's LSNs.
        assert batches[0].last_lsn < batches[1].first_lsn
        offsets = [b.offset for b in batches]
        assert offsets == sorted(offsets)

    def test_empty_ship_creates_no_batch(self, cs):
        c1 = cs.clients[1]
        assert cs.server.receive_log_records(c1) is None
        assert 1 not in cs.server._batches

    def test_map_rec_lsn_returns_batch_start(self, cs):
        c1 = cs.clients[1]
        committed_row(c1)
        batch = cs.server._batches[1][0]
        assert cs.server.map_rec_lsn(1, batch.first_lsn) == batch.offset
        assert cs.server.map_rec_lsn(1, batch.last_lsn) == batch.offset


class TestTxnTable:
    def test_commit_marks_committed(self, cs):
        c1 = cs.clients[1]
        txn = c1.begin()
        page_id = c1.allocate_page(txn)
        c1.insert(txn, page_id, b"x")
        c1.send_page_back(page_id)           # ships without COMMIT
        assert cs.server._txn_table[txn.txn_id] == txn.last_lsn
        c1.commit(txn)
        # The COMMIT, shipped alone, retires the entry: no END follows.
        assert txn.txn_id not in cs.server._txn_table
        kinds = [r.kind for _, r in cs.server.log.scan()
                 if r.txn_id == txn.txn_id]
        assert kinds[-1] == RecordKind.COMMIT
        assert RecordKind.END not in kinds

    def test_server_checkpoint_contains_inflight_only(self, cs):
        c1 = cs.clients[1]
        committed_row(c1)
        txn = c1.begin()
        page_id = c1.allocate_page(txn)
        c1.insert(txn, page_id, b"open")
        c1.send_page_back(page_id)
        cs.server.take_checkpoint()
        end_record = [r for _, r in cs.server.log.scan()
                      if r.kind == RecordKind.END_CHECKPOINT][-1]
        data = CheckpointData.from_bytes(end_record.extra)
        assert txn.txn_id in data.transactions
        c1.commit(txn)

    def test_server_checkpoint_sets_master_record(self, cs):
        committed_row(cs.clients[1])
        offset = cs.server.take_checkpoint()
        assert cs.server.log.master_record_offset == offset


class TestRestartUndoWithEqualLsns:
    """ROADMAP item 0: equal LSNs on different pages are legal under
    the USN rule (clients assign LSNs locally), so restart undo must
    not resolve a loser's records by LSN alone."""

    @pytest.mark.parametrize("cache_capacity", [0, 3])
    def test_each_loser_is_undone_on_its_own_page(self, cache_capacity):
        system = CsSystem(n_data_pages=128)
        c1 = system.add_client(1, cache_capacity=cache_capacity)
        c2 = system.add_client(2, cache_capacity=cache_capacity)
        (page_a, slot_a), (page_b, slot_b) = [
            committed_row(c1, b"init") for _ in range(2)]
        # A recovered client restarts its LSNs low ...
        system.crash_client(1)
        system.recover_client(1)
        # ... so these two uncommitted updates get the same LSN.
        loser_1 = c1.begin()
        c1.update(loser_1, page_a, slot_a, b"AAAA")
        loser_2 = c2.begin()
        c2.update(loser_2, page_b, slot_b, b"BBBB")
        c1.checkpoint()
        c2.checkpoint()
        updates = [r for _, r in system.server.log.scan()
                   if r.kind == RecordKind.UPDATE
                   and r.txn_id in (loser_1.txn_id, loser_2.txn_id)]
        assert len(updates) == 2
        assert updates[0].lsn == updates[1].lsn
        system.crash_server()
        summary = system.restart_server()
        assert summary.clrs_written == 2
        disk = system.server.disk
        assert disk.read_page(page_a).read_record(slot_a) == b"init"
        assert disk.read_page(page_b).read_record(slot_b) == b"init"


class TestGuards:
    def test_duplicate_client_id_rejected(self, cs):
        from repro.cs.client import CsClient
        with pytest.raises(ReproError):
            CsClient(1, cs.server)

    def test_server_id_reserved(self, cs):
        from repro.cs.client import CsClient
        with pytest.raises(ValueError):
            CsClient(SERVER_ID, cs.server)

    def test_recover_live_client_rejected(self, cs):
        with pytest.raises(ReproError):
            cs.server.recover_client(1)

    def test_operations_rejected_when_server_down(self, cs):
        c1 = cs.clients[1]
        committed_row(c1)
        cs.crash_server()
        with pytest.raises(ReproError):
            cs.server.take_checkpoint()
        with pytest.raises(ReproError):
            cs.server.recover_client(1)
        cs.restart_server()
        committed_row(c1)   # back in business

    def test_restart_requires_crash(self, cs):
        with pytest.raises(ReproError):
            cs.server.restart()


class TestServerWal:
    def test_server_forces_log_before_writing_client_pages(self, cs):
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1)
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"dirty")
        c1.send_page_back(page_id)
        # The shipped records sit in the server log (possibly unforced
        # past the last explicit force); evicting the dirty page must
        # force first — write_page does it via the BCB high-water mark.
        bcb = cs.server.pool.bcb(page_id)
        assert bcb.dirty
        cs.server.pool.write_page(page_id)
        assert cs.server.log.flushed_offset >= bcb.last_update_end
        c1.rollback(txn)
