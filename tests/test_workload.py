"""Tests for the workload generator and interleaved drivers."""

from repro import CsSystem, SDComplex
from repro.workload.generator import (
    OpKind,
    WorkloadConfig,
    build_scripts,
    populate_pages,
    run_interleaved_cs,
    run_interleaved_sd,
)


class TestScriptGeneration:
    def test_deterministic_under_seed(self):
        handles = [(64, 0), (64, 1), (65, 0)]
        cfg = WorkloadConfig(seed=5)
        a = build_scripts(cfg, 2, handles)
        b = build_scripts(cfg, 2, handles)
        assert [(s.system_index, [(o.kind, o.page_id, o.slot, o.payload)
                                  for o in s.ops]) for s in a] == \
               [(s.system_index, [(o.kind, o.page_id, o.slot, o.payload)
                                  for o in s.ops]) for s in b]

    def test_seed_changes_workload(self):
        handles = [(64, 0), (64, 1), (65, 0)]
        a = build_scripts(WorkloadConfig(seed=1), 2, handles)
        b = build_scripts(WorkloadConfig(seed=2), 2, handles)
        assert a != b or True  # scripts are dataclasses; compare ops
        ops_a = [(o.kind, o.page_id, o.slot) for s in a for o in s.ops]
        ops_b = [(o.kind, o.page_id, o.slot) for s in b for o in s.ops]
        assert ops_a != ops_b

    def test_transactions_round_robin_across_systems(self):
        handles = [(64, 0)]
        scripts = build_scripts(WorkloadConfig(n_transactions=6), 3, handles)
        assert [s.system_index for s in scripts] == [0, 1, 2, 0, 1, 2]

    def test_filler_rates_apply_per_system(self):
        handles = [(64, 0)]
        cfg = WorkloadConfig(n_transactions=4, filler_rates=(10, 0))
        scripts = build_scripts(cfg, 2, handles)
        for script in scripts:
            fillers = [o for o in script.ops if o.kind is OpKind.FILLER]
            if script.system_index == 0:
                assert len(fillers) == 1 and fillers[0].filler_records == 10
            else:
                assert not fillers

    def test_read_fraction_extremes(self):
        handles = [(64, 0), (65, 1)]
        all_reads = build_scripts(
            WorkloadConfig(read_fraction=1.0, n_transactions=5), 1, handles)
        assert all(o.kind is OpKind.READ
                   for s in all_reads for o in s.ops)
        all_writes = build_scripts(
            WorkloadConfig(read_fraction=0.0, n_transactions=5), 1, handles)
        assert all(o.kind is OpKind.UPDATE
                   for s in all_writes for o in s.ops)


class TestPopulate:
    def test_populate_sd(self):
        sd = SDComplex(n_data_pages=128)
        s1 = sd.add_instance(1)
        handles = populate_pages(s1, n_pages=3, records_per_page=4)
        assert len(handles) == 12
        txn = s1.begin()
        for page_id, slot in handles:
            assert s1.read(txn, page_id, slot) is not None
        s1.commit(txn)

    def test_populate_cs(self):
        cs = CsSystem(n_data_pages=128)
        c1 = cs.add_client(1)
        handles = populate_pages(c1, n_pages=2, records_per_page=3)
        assert len(handles) == 6


class TestDrivers:
    def test_sd_driver_commits_everything(self):
        sd = SDComplex(n_data_pages=256)
        instances = [sd.add_instance(i) for i in (1, 2)]
        handles = populate_pages(instances[0], 4, 4)
        cfg = WorkloadConfig(n_transactions=10, ops_per_txn=3, seed=3)
        scripts = build_scripts(cfg, 2, handles)
        result = run_interleaved_sd(instances, scripts)
        assert result.committed == 10
        for instance in instances:
            assert instance.txns.active_count() == 0

    def test_sd_driver_state_recoverable_after_run(self):
        sd = SDComplex(n_data_pages=256)
        instances = [sd.add_instance(i) for i in (1, 2)]
        handles = populate_pages(instances[0], 4, 4)
        scripts = build_scripts(
            WorkloadConfig(n_transactions=8, seed=11), 2, handles)
        run_interleaved_sd(instances, scripts)
        sd.crash_complex()
        sd.restart_complex()
        for page_id, slot in handles:
            assert sd.disk.read_page(page_id).read_record(slot) is not None

    def test_cs_driver_commits_everything(self):
        cs = CsSystem(n_data_pages=256)
        clients = [cs.add_client(i) for i in (1, 2)]
        handles = populate_pages(clients[0], 4, 4)
        cfg = WorkloadConfig(n_transactions=10, ops_per_txn=3, seed=3)
        scripts = build_scripts(cfg, 2, handles)
        result = run_interleaved_cs(clients, scripts)
        assert result.committed == 10

    def test_hot_page_contention_generates_retries(self):
        sd = SDComplex(n_data_pages=256)
        instances = [sd.add_instance(i) for i in (1, 2)]
        handles = populate_pages(instances[0], 2, 2)
        cfg = WorkloadConfig(n_transactions=16, ops_per_txn=4,
                             read_fraction=0.0, hot_fraction=1.0,
                             n_hot_pages=1, seed=9)
        scripts = build_scripts(cfg, 2, handles)
        result = run_interleaved_sd(instances, scripts)
        assert result.committed + result.aborted_deadlock >= 16
        assert result.lock_retries > 0


class TestInsertOps:
    def test_insert_fraction_generates_inserts(self):
        handles = [(64, 0), (65, 0)]
        cfg = WorkloadConfig(n_transactions=6, ops_per_txn=4,
                             read_fraction=0.0, insert_fraction=1.0,
                             seed=2)
        scripts = build_scripts(cfg, 1, handles)
        assert all(op.kind is OpKind.INSERT
                   for s in scripts for op in s.ops)

    def test_insert_workload_runs_and_recovers(self):
        sd = SDComplex(n_data_pages=256)
        instances = [sd.add_instance(i) for i in (1, 2)]
        handles = populate_pages(instances[0], 4, 2)
        cfg = WorkloadConfig(n_transactions=10, ops_per_txn=3,
                             read_fraction=0.2, insert_fraction=0.5,
                             payload_bytes=16, seed=4)
        scripts = build_scripts(cfg, 2, handles)
        result = run_interleaved_sd(instances, scripts)
        assert result.committed == 10
        sd.crash_complex()
        sd.restart_complex()
        from repro.harness import verify_sd_complex
        report = verify_sd_complex(sd, quiesced=True)
        assert report.ok, [str(v) for v in report.violations]
