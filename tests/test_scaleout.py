"""Tests for the seeded scale-out workload (repro.workload.scaleout)."""

from repro.sd.complex import SDComplex
from repro.workload.scaleout import (
    HIGH_SHARING,
    LOW_SHARING,
    ScaleoutConfig,
    build_scaleout_scripts,
    populate_scaleout,
    run_scaleout,
)


def build_complex(n_instances=4):
    sd = SDComplex(n_data_pages=256)
    for system_id in range(1, n_instances + 1):
        sd.add_instance(system_id)
    return sd


def script_fingerprint(scripts):
    return [
        (s.system_index,
         [(op.kind, op.page_id, op.slot, op.payload) for op in s.ops])
        for s in scripts
    ]


def fake_handles(config, n_systems):
    hot = [(1000 + i, 0) for i in range(config.n_hot_pages)]
    private = {
        index: [(2000 + index * 100 + p, 0)
                for p in range(config.pages_per_instance)]
        for index in range(n_systems)
    }
    return hot, private


class TestScriptGeneration:
    def test_scripts_are_deterministic(self):
        config = ScaleoutConfig(seed=21)
        hot, private = fake_handles(config, 4)
        a = build_scaleout_scripts(config, 4, hot, private)
        b = build_scaleout_scripts(config, 4, hot, private)
        assert script_fingerprint(a) == script_fingerprint(b)

    def test_seed_changes_scripts(self):
        config = ScaleoutConfig(seed=21)
        hot, private = fake_handles(config, 4)
        a = build_scaleout_scripts(config, 4, hot, private)
        b = build_scaleout_scripts(
            ScaleoutConfig(seed=22), 4, hot, private)
        assert script_fingerprint(a) != script_fingerprint(b)

    def test_round_robin_placement(self):
        config = ScaleoutConfig(n_transactions=12)
        hot, private = fake_handles(config, 4)
        scripts = build_scaleout_scripts(config, 4, hot, private)
        assert [s.system_index for s in scripts] == [
            t % 4 for t in range(12)]

    def test_sharing_ratio_drives_hot_page_traffic(self):
        def hot_fraction(config):
            hot, private = fake_handles(config, 4)
            hot_pages = {page_id for page_id, _ in hot}
            scripts = build_scaleout_scripts(config, 4, hot, private)
            ops = [op for s in scripts for op in s.ops]
            return sum(
                1 for op in ops if op.page_id in hot_pages) / len(ops)

        low = hot_fraction(LOW_SHARING)
        high = hot_fraction(HIGH_SHARING)
        assert low < 0.15
        assert high > 0.5
        assert high > low

    def test_private_ops_stay_on_own_slice(self):
        config = ScaleoutConfig(n_transactions=16)
        hot, private = fake_handles(config, 4)
        hot_pages = {page_id for page_id, _ in hot}
        scripts = build_scaleout_scripts(config, 4, hot, private)
        for script in scripts:
            own = {page_id for page_id, _ in private[script.system_index]}
            for op in script.ops:
                assert op.page_id in hot_pages or op.page_id in own


class TestPopulate:
    def test_populate_creates_hot_set_and_private_slices(self):
        sd = build_complex(4)
        config = ScaleoutConfig()
        hot, private = populate_scaleout(sd, config)
        assert len(hot) == config.n_hot_pages * config.records_per_page
        assert set(private) == {0, 1, 2, 3}
        expected = config.pages_per_instance * config.records_per_page
        for handles in private.values():
            assert len(handles) == expected
        all_pages = {page_id for page_id, _ in hot}
        for handles in private.values():
            slice_pages = {page_id for page_id, _ in handles}
            assert not (all_pages & slice_pages)
            all_pages |= slice_pages


class TestEndToEnd:
    def test_run_is_reproducible_across_complexes(self):
        def one_run():
            sd = build_complex(4)
            result = run_scaleout(sd, LOW_SHARING)
            return result, sd.disk.digest()

        result_a, disk_a = one_run()
        result_b, disk_b = one_run()
        assert result_a == result_b
        assert disk_a == disk_b
        assert result_a.committed > 0

    def test_high_sharing_contends_more(self):
        low = run_scaleout(build_complex(4), LOW_SHARING)
        high = run_scaleout(build_complex(4), HIGH_SHARING)
        assert low.committed > 0 and high.committed > 0
        assert (high.lock_retries + high.aborted_deadlock
                >= low.lock_retries + low.aborted_deadlock)
