"""Tests for the partitioned global lock manager (repro.cluster.glm)."""

import zlib

import pytest

from repro.cluster import ClusterConfig, PartitionedLockManager, shard_of
from repro.common.errors import DeadlockError, FaultInjectedError
from repro.common.stats import (
    CLUSTER_CROSS_SHARD_CHECKS,
    StatsRegistry,
    glm_shard_counter,
)
from repro.faults import points as fpoints
from repro.faults.injector import FaultInjector, FaultPlan
from repro.locking.lock_manager import (
    LockManager,
    LockMode,
    LockStatus,
    page_lock,
    record_lock,
)


def resources_on_distinct_shards(n_shards, count=2):
    """Deterministically pick ``count`` record locks on distinct shards."""
    picked = {}
    for slot in range(1000):
        resource = record_lock(10, slot)
        index = shard_of(resource, n_shards)
        if index not in picked:
            picked[index] = resource
        if len(picked) == count:
            return [picked[i] for i in sorted(picked)][:count]
    raise AssertionError("could not find resources on distinct shards")


class TestRouting:
    def test_routing_is_crc32_of_repr(self):
        """The routing function is pinned to CRC-32 over repr — any
        drift (e.g. to the salted builtin hash) silently breaks
        cross-run determinism of shard counters and traces."""
        for resource in (record_lock(3, 1), page_lock(7), ("custom", 42)):
            expected = zlib.crc32(repr(resource).encode("utf-8")) % 4
            assert shard_of(resource, 4) == expected

    def test_routing_is_stable_across_managers(self):
        glm_a = PartitionedLockManager(4)
        glm_b = PartitionedLockManager(4)
        for slot in range(64):
            resource = record_lock(5, slot)
            assert glm_a.shard_index(resource) == glm_b.shard_index(resource)

    def test_single_shard_short_circuits(self):
        for resource in (record_lock(1, 1), page_lock(9)):
            assert shard_of(resource, 1) == 0

    def test_routing_spreads_over_all_shards(self):
        hits = {shard_of(record_lock(p, s), 4)
                for p in range(8) for s in range(8)}
        assert hits == {0, 1, 2, 3}

    def test_shard_request_counters(self):
        stats = StatsRegistry()
        glm = PartitionedLockManager(4, stats=stats)
        resources = [record_lock(11, s) for s in range(32)]
        for resource in resources:
            glm.acquire("t1", resource, LockMode.S)
        per_shard = [stats.get(glm_shard_counter(i)) for i in range(4)]
        assert sum(per_shard) == len(resources)
        expected = [0, 0, 0, 0]
        for resource in resources:
            expected[shard_of(resource, 4)] += 1
        assert per_shard == expected


class TestFacadeProtocol:
    """The facade must be a drop-in for the monolithic LockManager."""

    def test_acquire_release_round_trip(self):
        glm = PartitionedLockManager(4)
        r = record_lock(2, 3)
        assert glm.acquire("t1", r, LockMode.X) is LockStatus.GRANTED
        assert glm.holds("t1", r, LockMode.X)
        assert glm.holders(r) == {"t1": LockMode.X}
        assert glm.acquire("t2", r, LockMode.S) is LockStatus.WAITING
        assert glm.waiters(r) == ["t2"]
        promoted = glm.release("t1", r)
        assert promoted == ["t2"]
        assert glm.holds("t2", r, LockMode.S)

    def test_release_all_sweeps_every_shard(self):
        glm = PartitionedLockManager(4)
        resources = [record_lock(13, s) for s in range(16)]
        assert {shard_of(r, 4) for r in resources} == {0, 1, 2, 3}
        for resource in resources:
            glm.acquire("t1", resource, LockMode.X)
        assert set(glm.locks_of("t1")) == set(resources)
        glm.release_all("t1")
        assert glm.locks_of("t1") == {}
        assert glm.owners() == set()

    def test_owners_and_resources_merge_shards(self):
        glm = PartitionedLockManager(4)
        a, b = resources_on_distinct_shards(4)
        glm.acquire("t1", a, LockMode.S)
        glm.acquire("t2", b, LockMode.S)
        assert glm.owners() == {"t1", "t2"}
        assert set(glm.resources()) == {a, b}

    def test_matches_monolithic_on_scripted_sequence(self):
        """Same grant/wait decisions as the monolithic manager for a
        scripted contention sequence."""
        mono = LockManager()
        glm = PartitionedLockManager(4)
        script = [
            ("t1", record_lock(4, 0), LockMode.S),
            ("t2", record_lock(4, 0), LockMode.S),
            ("t2", record_lock(4, 1), LockMode.X),
            ("t1", record_lock(4, 1), LockMode.S),
            ("t3", record_lock(4, 2), LockMode.X),
        ]
        for owner, resource, mode in script:
            assert (glm.acquire(owner, resource, mode)
                    is mono.acquire(owner, resource, mode))


class TestCrossShardDeadlock:
    def test_cycle_spanning_two_shards_detected(self):
        glm = PartitionedLockManager(4)
        r0, r1 = resources_on_distinct_shards(4)
        glm.acquire("t1", r0, LockMode.X)
        glm.acquire("t2", r1, LockMode.X)
        assert glm.acquire("t1", r1, LockMode.X) is LockStatus.WAITING
        with pytest.raises(DeadlockError):
            glm.acquire("t2", r0, LockMode.X)

    def test_cross_shard_checks_counted(self):
        stats = StatsRegistry()
        glm = PartitionedLockManager(4, stats=stats)
        r0, r1 = resources_on_distinct_shards(4)
        glm.acquire("t1", r0, LockMode.X)
        glm.acquire("t2", r1, LockMode.X)
        glm.acquire("t1", r1, LockMode.X)
        with pytest.raises(DeadlockError):
            glm.acquire("t2", r0, LockMode.X)
        assert stats.get(CLUSTER_CROSS_SHARD_CHECKS) > 0

    def test_no_false_positive_on_cross_shard_chain(self):
        glm = PartitionedLockManager(4)
        r0, r1 = resources_on_distinct_shards(4)
        glm.acquire("t1", r0, LockMode.X)
        glm.acquire("t2", r1, LockMode.X)
        assert glm.acquire("t3", r0, LockMode.X) is LockStatus.WAITING
        assert glm.acquire("t3", r1, LockMode.X) is LockStatus.WAITING


class TestFaultPoint:
    def test_glm_acquire_point_fires(self):
        plan = FaultPlan(seed=0).at(fpoints.GLM_ACQUIRE).on_hit(2).fail()
        injector = FaultInjector(plan)
        glm = PartitionedLockManager(4, injector=injector)
        glm.acquire("t1", record_lock(1, 0), LockMode.S)
        with pytest.raises(FaultInjectedError):
            glm.acquire("t1", record_lock(1, 1), LockMode.S)
        assert injector.hit_count(fpoints.GLM_ACQUIRE) == 2

    def test_null_injector_never_consulted(self):
        glm = PartitionedLockManager(4)
        assert glm.acquire(
            "t1", record_lock(1, 0), LockMode.S) is LockStatus.GRANTED


class TestConfigValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            PartitionedLockManager(0)
        with pytest.raises(ValueError):
            ClusterConfig(lock_shards=0)
        with pytest.raises(ValueError):
            ClusterConfig(n_instances=0)
