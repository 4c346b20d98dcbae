"""Frozen outcomes of the storage spine: disk bytes, trace and counters.

``tests/golden/disk_digests.json`` was captured at the last commit that
still had the classic dict-of-bytes disk, with it selected
(``SharedDisk(slab=False)``); the slab spine produced the same digests
there.  The slab is now the only spine, and each scenario must still
leave the same SHA-256 of the disk images (:meth:`SharedDisk.digest`),
of the JSONL trace and of the stats snapshot.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.common.clock import SkewedClock
from repro.faults import scenarios
from repro.faults.injector import NULL_INJECTOR
from repro.obs.tracer import Tracer
from repro.sd.complex import SDComplex

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "disk_digests.json").read_text())


def e1_anomaly():
    """The Section 1.5 lost-update scenario (capture_e1's script)."""
    tracer = Tracer()
    sd = SDComplex(n_data_pages=128, tracer=tracer)
    instances = {}
    for system_id, (offset, rate) in ((1, (37.0, 1.13)), (2, (74.0, 1.26))):
        instances[system_id] = sd.add_instance(
            system_id, lock_granularity="page",
            clock=SkewedClock(offset=offset, rate=rate))
    s1, s2 = instances[1], instances[2]
    txn = s2.begin()
    page_id = s2.allocate_page(txn)
    slot = s2.insert(txn, page_id, b"original")
    s2.commit(txn)
    s2.pool.write_page(page_id)
    s2.write_filler(50)
    t2 = s2.begin()
    s2.update(t2, page_id, slot, b"t2-update")
    s2.commit(t2)
    t1 = s1.begin()
    s1.update(t1, page_id, slot, b"t1-committed")
    s1.commit(t1)
    sd.crash_instance(1)
    sd.restart_instance(1)
    assert sd.disk.read_page(page_id).read_record(slot) == b"t1-committed"
    return sd, tracer, sd.disk


def e7_restart():
    """E7-style: the seeded chaos workload, then a whole-complex crash
    and restart (real redo and undo)."""
    sd, tracer = scenarios.build_sd(NULL_INJECTOR, seed=3)
    scenarios.run_sd_workload(sd, 3)
    sd.crash_complex()
    sd.restart_complex()
    return sd, tracer, sd.disk


def chaos_sd():
    """The chaos campaign's SD workload, no crash."""
    sd, tracer = scenarios.build_sd(NULL_INJECTOR, seed=0)
    scenarios.run_sd_workload(sd, 0)
    return sd, tracer, sd.disk


def cs_restart():
    """The chaos campaign's CS workload, then a server crash and
    restart."""
    cs, tracer = scenarios.build_cs(NULL_INJECTOR, seed=0)
    scenarios.run_cs_workload(cs, 0)
    cs.crash_server()
    cs.restart_server()
    return cs, tracer, cs.server.disk


SCENARIOS = {"e1-anomaly": e1_anomaly, "e7-restart": e7_restart,
             "chaos-sd": chaos_sd, "cs-restart": cs_restart}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_single_spine_reproduces_golden(name):
    world, tracer, disk = SCENARIOS[name]()
    assert {
        "disk_sha256": disk.digest(),
        "trace_sha256": sha256(tracer.dump_jsonl()),
        "stats_sha256": sha256(json.dumps(world.stats.snapshot(),
                                          sort_keys=True)),
    } == GOLDEN[name]
