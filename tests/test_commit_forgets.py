"""A COMMIT is a transaction's last record, and every table forgets the
transaction there.

No END follows a COMMIT: restart analysis, the CS server's transaction
table (folded from shipped records), a client's retained records and
an instance's transaction manager all drop a committed transaction at
its COMMIT, so committed work leaves no residue that a checkpoint
could list or a recovery could mistake for a loser.
"""

import pytest

from repro import CsSystem, SDComplex
from repro.recovery.checkpoint import take_checkpoint
from repro.wal.records import CheckpointData, RecordKind

N_COMMITS = 6


def committed_work(engine, n=N_COMMITS):
    """``n`` committed update transactions, each inserting one row:
    eager ones, then lazy ones and their group-commit sync.  Returns
    the rows (page, slot, value) and the txn ids."""
    setup = engine.begin()
    page_id = engine.allocate_page(setup)
    engine.commit(setup)
    rows, txn_ids = [], [setup.txn_id]
    for i in range(n):
        txn = engine.begin()
        value = b"v%d" % i
        rows.append((page_id, engine.insert(txn, page_id, value), value))
        engine.commit(txn, lazy=i >= n // 2)
        txn_ids.append(txn.txn_id)
    assert engine.sync_commits() == n - n // 2
    return rows, txn_ids


def last_checkpoint(log):
    return [CheckpointData.from_bytes(record.extra)
            for _, record in log.scan()
            if record.kind == RecordKind.END_CHECKPOINT][-1]


class TestNoResidue:
    def test_sd_instance_forgets_committed_transactions(self):
        sd = SDComplex(n_data_pages=64)
        s1 = sd.add_instance(1)
        _, txn_ids = committed_work(s1)
        assert s1.txns.active_count() == 0
        kinds = [record.kind for _, record in s1.log.scan()
                 if record.txn_id in txn_ids]
        assert RecordKind.END not in kinds
        assert kinds.count(RecordKind.COMMIT) == len(txn_ids)
        take_checkpoint(s1)
        assert last_checkpoint(s1.log).transactions == {}

    def test_cs_tables_forget_committed_transactions(self):
        cs = CsSystem(n_data_pages=64)
        clients = [cs.add_client(1), cs.add_client(2)]
        txn_ids = []
        for client in clients:
            txn_ids += committed_work(client)[1]
        assert cs.server._txn_table == {}
        for client in clients:
            assert client.txns.active_count() == 0
            assert client.log._txn_records == {}
            client.checkpoint()
            offset, data = cs.server._client_checkpoints[client.client_id]
            assert data.transactions == {}
        kinds = [record.kind for _, record in cs.server.log.scan()
                 if record.txn_id in txn_ids]
        assert RecordKind.END not in kinds
        cs.server.take_checkpoint()
        assert last_checkpoint(cs.server.log).transactions == {}

    @pytest.mark.parametrize("arch", ["sd", "cs"])
    def test_restart_after_committed_work_finds_no_loser(self, arch):
        if arch == "sd":
            world = SDComplex(n_data_pages=64)
            engine = world.add_instance(1)
            rows, _ = committed_work(engine)
            world.crash_instance(1)
            summary = world.restart_instance(1)
        else:
            world = CsSystem(n_data_pages=64)
            engine = world.add_client(1)
            rows, _ = committed_work(engine)
            world.crash_server()
            summary = world.restart_server()
        assert (summary.loser_transactions, summary.clrs_written) == (0, 0)
        verdict = engine.begin()
        assert [engine.read(verdict, page_id, slot)
                for page_id, slot, _ in rows] == [v for _, _, v in rows]


class TestLazyCommitBeforeClientCheckpoint:
    def test_synced_lazy_commit_survives_client_recovery(self):
        """A lazy commit's COMMIT ships ahead of the client checkpoint
        taken before its sync.  The checkpoint must not list it in
        flight: with no dirty page to widen the window, client recovery
        starts at the checkpoint, never sees the COMMIT, and would roll
        back a commit its sync acknowledged."""
        cs = CsSystem(n_data_pages=64)
        c1 = cs.add_client(1)
        setup = c1.begin()
        page_id = c1.allocate_page(setup)
        slot = c1.insert(setup, page_id, b"v0")
        c1.commit(setup)
        txn = c1.begin()
        c1.update(txn, page_id, slot, b"v1")
        c1.commit(txn, lazy=True)
        c1.flush_all()          # nothing dirty at the checkpoint
        c1.checkpoint()
        assert c1.sync_commits() == 1
        cs.crash_client(1)
        summary = cs.recover_client(1)
        assert summary.loser_transactions == 0
        c2 = cs.add_client(2)
        reader = c2.begin()
        assert c2.read(reader, page_id, slot) == b"v1"
