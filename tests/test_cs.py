"""Integration tests for the client-server architecture."""

import pytest

from repro import CsSystem
from repro.common.errors import LockWouldBlock, ProtocolError, ReproError
from repro.wal.records import LogRecord, RecordKind


def committed_row(client, payload=b"v0"):
    txn = client.begin()
    page_id = client.allocate_page(txn)
    slot = client.insert(txn, page_id, payload)
    client.commit(txn)
    return page_id, slot


class TestBasicOperation:
    def test_insert_read_roundtrip(self, cs):
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1, b"hello")
        txn = c1.begin()
        assert c1.read(txn, page_id, slot) == b"hello"
        c1.commit(txn)

    def test_commit_ships_log_records(self, cs):
        c1 = cs.clients[1]
        committed_row(c1)
        assert c1.log.pending_count() == 0
        kinds = [r.kind for _, r in cs.server.log.scan()]
        assert RecordKind.COMMIT in kinds

    def test_commit_forces_server_log(self, cs):
        c1 = cs.clients[1]
        committed_row(c1)
        assert cs.server.log.flushed_offset == cs.server.log.end_offset

    def test_client_lsns_assigned_locally(self, cs):
        """No server round trip per log record: records carry LSNs the
        client assigned before shipping."""
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1)
        client_records = [r for _, r in cs.server.log.scan()
                          if r.system_id == 1]
        lsns = [r.lsn for r in client_records]
        assert lsns == sorted(lsns)
        assert len(lsns) >= 3  # SMP update, format... insert, commit, end

    def test_cross_client_page_sharing(self, cs):
        c1, c2 = cs.clients[1], cs.clients[2]
        page_id, slot = committed_row(c1, b"from-c1")
        txn = c2.begin()
        assert c2.read(txn, page_id, slot) == b"from-c1"
        c2.commit(txn)

    def test_cross_client_update_recalls_dirty_page(self, cs):
        c1, c2 = cs.clients[1], cs.clients[2]
        page_id, slot = committed_row(c1, b"one")
        assert cs.server._writer.get(page_id) == 1
        txn = c2.begin()
        c2.update(txn, page_id, slot, b"two")
        c2.commit(txn)
        assert cs.server._writer.get(page_id) == 2
        assert page_id not in c1.cache
        txn = c1.begin()
        assert c1.read(txn, page_id, slot) == b"two"
        c1.commit(txn)

    def test_server_log_interleaves_client_streams(self, cs):
        """Section 3.2.2: successive server-log records may not have
        increasing LSNs — per-client streams do."""
        c1, c2 = cs.clients[1], cs.clients[2]
        committed_row(c1)
        committed_row(c2)
        committed_row(c1)
        per_client = {1: [], 2: []}
        for _, record in cs.server.log.scan():
            if record.system_id in per_client and record.lsn:
                per_client[record.system_id].append(record.lsn)
        for lsns in per_client.values():
            assert lsns == sorted(lsns)

    def test_per_page_lsns_increase_across_clients(self, cs):
        c1, c2 = cs.clients[1], cs.clients[2]
        page_id, slot = committed_row(c1)
        values = [b"a", b"b", b"c", b"d"]
        for i, value in enumerate(values):
            client = (c1, c2)[i % 2]
            txn = client.begin()
            client.update(txn, page_id, slot, value)
            client.commit(txn)
        lsns = [r.lsn for _, r in cs.server.log.scan()
                if r.page_id == page_id]
        assert lsns == sorted(lsns)
        assert len(lsns) == len(set(lsns))


class TestRollback:
    def test_client_rollback_restores(self, cs):
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1, b"orig")
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"oops")
        c1.rollback(txn)
        txn = c1.begin()
        assert c1.read(txn, page_id, slot) == b"orig"
        c1.commit(txn)

    def test_rollback_works_after_records_shipped(self, cs):
        """Undo uses the client's retained copies even after the
        originals went to the server (Section 3.1)."""
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1, b"orig")
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"shipped")
        c1.send_page_back(page_id)   # ships records + page
        c1.rollback(txn)
        txn = c1.begin()
        assert c1.read(txn, page_id, slot) == b"orig"
        c1.commit(txn)

    def test_partial_rollback(self, cs):
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1, b"v0")
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"v1")
        c1.set_savepoint(txn, "sp")
        c1.update(txn, page_id, slot, b"v2")
        c1.rollback(txn, to_savepoint="sp")
        c1.commit(txn)
        txn = c1.begin()
        assert c1.read(txn, page_id, slot) == b"v1"
        c1.commit(txn)


class TestClientFailure:
    def test_committed_data_in_lost_cache_recovered(self, cs):
        """Client commits (records shipped+forced) but the dirty page
        never left the cache; server redo rebuilds it."""
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1, b"committed")
        assert page_id in c1.cache
        cs.crash_client(1)
        summary = cs.recover_client(1)
        assert summary.records_redone > 0
        cs.server.pool.flush_all()
        assert cs.server.disk.read_page(page_id).read_record(slot) == b"committed"

    def test_uncommitted_shipped_updates_undone(self, cs):
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1, b"good")
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"BAD")
        c1.send_page_back(page_id)       # dirty page + records at server
        cs.crash_client(1)
        summary = cs.recover_client(1)
        assert summary.loser_transactions == 1
        assert summary.clrs_written >= 1
        cs.server.pool.flush_all()
        assert cs.server.disk.read_page(page_id).read_record(slot) == b"good"

    def test_unshipped_updates_simply_vanish(self, cs):
        """Protocol guarantee: unshipped records can only cover pages
        that never reached the server — consistent loss."""
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1, b"good")
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"BAD")   # buffered only
        cs.crash_client(1)
        summary = cs.recover_client(1)
        assert summary.loser_transactions == 0
        cs.server.pool.flush_all()
        assert cs.server.disk.read_page(page_id).read_record(slot) == b"good"

    def test_client_checkpoint_bounds_recovery(self, cs):
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1)
        c1.flush_all()   # data page AND the dirty SMP page go back
        c1.checkpoint()
        cs.crash_client(1)
        summary = cs.recover_client(1)
        assert summary.records_scanned == 0   # nothing after checkpoint

    def test_locks_retained_until_recovery(self, cs):
        c1, c2 = cs.clients[1], cs.clients[2]
        page_id, slot = committed_row(c1, b"good")
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"BAD")
        c1.send_page_back(page_id)
        cs.crash_client(1)
        t2 = c2.begin()
        with pytest.raises((LockWouldBlock, ProtocolError)):
            c2.update(t2, page_id, slot, b"blocked")
        cs.recover_client(1)
        c2.update(t2, page_id, slot, b"ok")
        c2.commit(t2)

    def test_dirty_page_of_crashed_client_fenced(self, cs):
        c1, c2 = cs.clients[1], cs.clients[2]
        page_id, slot = committed_row(c1)
        cs.crash_client(1)
        txn = c2.begin()
        with pytest.raises((ProtocolError, LockWouldBlock)):
            c2.update(txn, page_id, slot, b"x")
        cs.recover_client(1)
        c2.update(txn, page_id, slot, b"x")
        c2.commit(txn)

    def test_failed_client_can_rejoin_and_work(self, cs):
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1, b"before")
        cs.crash_client(1)
        cs.recover_client(1)
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"after")
        c1.commit(txn)
        txn = c1.begin()
        assert c1.read(txn, page_id, slot) == b"after"
        c1.commit(txn)


class TestServerFailure:
    def test_server_restart_recovers_committed_data(self, cs):
        c1, c2 = cs.clients[1], cs.clients[2]
        row1 = committed_row(c1, b"one")
        row2 = committed_row(c2, b"two")
        # Recall pages to the server so its buffer holds them dirty.
        c1.flush_all()
        c2.flush_all()
        cs.server.take_checkpoint()
        cs.crash_server()
        assert c1.crashed and c2.crashed
        cs.restart_server()
        for (page_id, slot), value in ((row1, b"one"), (row2, b"two")):
            assert cs.server.disk.read_page(page_id).read_record(slot) == value

    def test_server_restart_undoes_inflight_txns(self, cs):
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1, b"good")
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"BAD")
        c1.send_page_back(page_id)
        cs.server.pool.flush_all()    # stolen to disk
        cs.crash_server()
        summary = cs.restart_server()
        assert summary.loser_transactions == 1
        assert cs.server.disk.read_page(page_id).read_record(slot) == b"good"

    def test_operations_rejected_while_server_down(self, cs):
        c1 = cs.clients[1]
        committed_row(c1)
        cs.crash_server()
        with pytest.raises(ReproError):
            c1.begin()


class TestRecLsnMapping:
    def test_rec_lsn_maps_into_containing_batch(self, cs):
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1)
        # Several ship batches.
        for value in (b"a", b"b"):
            txn = c1.begin()
            c1.update(txn, page_id, slot, value)
            c1.commit(txn)
        batches = cs.server._batches[1]
        assert len(batches) >= 2
        for batch in batches:
            mid = (batch.first_lsn + batch.last_lsn) // 2
            if batch.first_lsn <= mid <= batch.last_lsn:
                assert cs.server.map_rec_lsn(1, mid) == batch.offset

    def test_unknown_rec_lsn_maps_conservatively_to_zero(self, cs):
        assert cs.server.map_rec_lsn(1, 999999) == 0

    def test_received_dirty_page_gets_rec_addr(self, cs):
        c1 = cs.clients[1]
        page_id, slot = committed_row(c1)
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"x")
        c1.commit(txn)
        c1.send_page_back(page_id)
        bcb = cs.server.pool.bcb(page_id)
        assert bcb.dirty
        assert bcb.rec_addr is not None


class TestCommitLsnInCs:
    def test_commit_lsn_read_without_lock(self, cs):
        from repro.common.stats import COMMIT_LSN_HITS, LOCK_REQUESTS
        c1, c2 = cs.clients[1], cs.clients[2]
        page_id, slot = committed_row(c1, b"data")
        cs.broadcast_max_lsns()
        locks_before = cs.stats.get(LOCK_REQUESTS)
        txn = c2.begin()
        value = c2.read(txn, page_id, slot, use_commit_lsn=True)
        c2.commit(txn)
        assert value == b"data"
        assert cs.stats.get(COMMIT_LSN_HITS) == 1
        assert cs.stats.get(LOCK_REQUESTS) == locks_before

    def test_reader_on_a_bare_server_finds_its_service(self):
        """``read(..., use_commit_lsn=True)`` needs no service argument:
        the server's Commit_LSN covers every attached client, as an SD
        complex's covers its instances."""
        from repro.common.stats import LOCK_REQUESTS
        from repro.cs.client import CsClient
        from repro.cs.server import CsServer
        server = CsServer(n_data_pages=64)
        writer, reader = CsClient(1, server), CsClient(2, server)
        page_id, slot = committed_row(writer, b"data")
        txn = reader.begin()
        before = server.stats.snapshot()
        assert reader.read(txn, page_id, slot, use_commit_lsn=True) == b"data"
        assert server.stats.diff(before).get(LOCK_REQUESTS, 0) == 0
        reader.commit(txn)


class TestCsReallocStaleCopies:
    def test_other_clients_stale_copy_purged_on_realloc(self, cs):
        c1, c2 = cs.clients[1], cs.clients[2]
        page_id, slot = committed_row(c1, b"old")
        txn = c2.begin()
        assert c2.read(txn, page_id, slot) == b"old"   # cached at c2
        c2.commit(txn)
        txn = c1.begin()
        c1.delete(txn, page_id, slot)
        c1.deallocate_page(txn, page_id)
        c1.commit(txn)
        c1.flush_all()
        txn = c2.begin()
        c2.allocate_page(txn, page_id=page_id)
        new_slot = c2.insert(txn, page_id, b"new")
        c2.commit(txn)
        txn = c1.begin()
        assert c1.read(txn, page_id, new_slot) == b"new"
        c1.commit(txn)


class TestClientUndoUsesCurrentVersion:
    def test_recovery_recalls_page_from_live_client(self, cs):
        """Regression (found by hypothesis): C1's uncommitted update
        migrates (with the page) to C2, which updates another record in
        its cache without shipping; C1 crashes.  The server must recall
        the page from C2 before compensating, or the CLR's LSN can
        collide with C2's unshipped record."""
        c1, c2 = cs.clients[1], cs.clients[2]
        page_id, slot_a = committed_row(c1, b"init")
        loser = c1.begin()
        slot_b = c1.insert(loser, page_id, b"uncommitted")
        winner = c2.begin()
        c2.update(winner, page_id, slot_a, b"by-c2")   # recalls from c1
        cs.crash_client(1)
        cs.recover_client(1)
        c2.commit(winner)
        cs.quiesce()
        page = cs.server.disk.read_page(page_id)
        assert page.read_record(slot_a) == b"by-c2"
        assert page.read_record(slot_b) is None


class TestCsIsolation:
    def test_repeatable_read_holds_lock(self):
        cs = CsSystem(n_data_pages=256)
        reader = cs.add_client(1, isolation="repeatable_read")
        writer = cs.add_client(2)
        page_id, slot = committed_row(reader, b"v0")
        txn = reader.begin()
        first = reader.read(txn, page_id, slot)
        other = writer.begin()
        with pytest.raises(LockWouldBlock):
            writer.update(other, page_id, slot, b"v1")
        assert reader.read(txn, page_id, slot) == first
        reader.commit(txn)
        writer.update(other, page_id, slot, b"v1")
        writer.commit(other)

    def test_cursor_stability_releases_lock(self, cs):
        c1, c2 = cs.clients[1], cs.clients[2]
        page_id, slot = committed_row(c1, b"v0")
        txn = c2.begin()
        c2.read(txn, page_id, slot)
        other = c1.begin()
        c1.update(other, page_id, slot, b"v1")   # not blocked
        c1.commit(other)
        c2.commit(txn)

    def test_read_keeps_own_write_lock(self, cs):
        """Regression (same class as the SD bug): reading a record this
        txn already X-locked must not drop the X lock."""
        c1, c2 = cs.clients[1], cs.clients[2]
        page_id, slot = committed_row(c1, b"v0")
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"mine")
        assert c1.read(txn, page_id, slot) == b"mine"
        other = c2.begin()
        with pytest.raises((LockWouldBlock, ProtocolError)):
            c2.update(other, page_id, slot, b"steal")
        c1.commit(txn)
        c2.update(other, page_id, slot, b"steal")
        c2.commit(other)

    def test_invalid_isolation_rejected(self):
        cs = CsSystem(n_data_pages=128)
        with pytest.raises(ValueError):
            cs.add_client(1, isolation="serializable-ish")
