"""Frozen outcomes of the storage spine and the restart pipeline: disk
bytes, trace and counters.

``tests/golden/disk_digests.json`` holds the SHA-256 of the disk images
(:meth:`SharedDisk.digest`), of the JSONL trace and of the stats
snapshot per scenario.  The first four were captured at the last commit
that still had the classic dict-of-bytes disk (the slab spine produced
the same digests there).  ``cs-client`` and ``sd-staged`` were captured
at the last commit whose CS client recovery and staged restart still
had their own analysis/undo code.  CS client recovery's
``log.bytes_scanned`` is frozen as its own key, outside the stats
digest: it was a ceiling from then (7 402 bytes) until it was made the
exact count the scenario reads (927), so a scan that grows fails.

``content_sha256`` digests what the pages *say*: for each written page
its id, type and live records, with no page_LSN and no checksum.  A
change that only renumbers LSNs (dropping the END after COMMIT did)
moves ``disk_sha256`` and leaves this digest byte-identical.
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
from repro.storage.page import Page

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


def cs_client():
    """A CS client crashes with two losers: one older than the client's
    checkpoint, and one whose page was recalled to the live second
    client under record locking (undo must recall it back first)."""
    cs, tracer = scenarios.build_cs(NULL_INJECTOR, seed=0)
    handles = scenarios.run_cs_workload(cs, 0)
    c1, c2 = cs.clients[1], cs.clients[2]
    old = c1.begin()
    c1.update(old, *handles[4], b"before the checkpoint")
    c1.checkpoint()
    c1.update(old, *handles[12], b"after the checkpoint")
    recalled = c1.begin()
    c1.update(recalled, *handles[0], b"recalled loser")
    winner = c2.begin()
    c2.update(winner, *handles[1], b"held by c2")  # recalls from c1
    cs.crash_client(1)
    summary = cs.recover_client(1)
    assert (summary.loser_transactions, summary.clrs_written) == (2, 3)
    c2.commit(winner)
    cs.quiesce()
    return cs, tracer, cs.server.disk


def sd_staged():
    """Staged restart: redo, a survivor's update on the loser's page in
    the open window, then undo."""
    sd, tracer = scenarios.build_sd(NULL_INJECTOR, seed=3)
    handles = scenarios.run_sd_workload(sd, 3)
    s1, s2 = sd.instances[1], sd.instances[2]
    loser = s1.begin()
    s1.update(loser, *handles[0], b"in flight")
    s1.pool.flush_all()
    sd.crash_instance(1)
    staged = sd.begin_staged_restart(1)
    staged.run_redo()
    survivor = s2.begin()
    s2.update(survivor, *handles[1], b"during the window")
    s2.commit(survivor)
    staged.run_undo()
    return sd, tracer, sd.disk


SCENARIOS = {"e1-anomaly": e1_anomaly, "e7-restart": e7_restart,
             "chaos-sd": chaos_sd, "cs-restart": cs_restart,
             "cs-client": cs_client, "sd-staged": sd_staged}

#: Scenarios whose ``log.bytes_scanned`` is frozen as its own key.
SCAN_KEYED = {"cs-client"}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def content_digest(disk):
    """SHA-256 of every written page's id, type and live records
    (counts no I/O; page_LSN and checksum left out)."""
    digest = hashlib.sha256()
    for page_id in disk.written_page_ids():
        page = Page.from_bytes(disk.raw_image(page_id))
        digest.update(repr((page_id, int(page.page_type),
                            list(page.records()))).encode())
    return digest.hexdigest()


def outcome(name):
    world, tracer, disk = SCENARIOS[name]()
    stats = world.stats.snapshot()
    got = {"disk_sha256": disk.digest(),
           "content_sha256": content_digest(disk),
           "trace_sha256": sha256(tracer.dump_jsonl())}
    if name in SCAN_KEYED:
        got["log_bytes_scanned"] = stats.pop("log.bytes_scanned")
    got["stats_sha256"] = sha256(json.dumps(stats, sort_keys=True))
    return got


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_single_spine_reproduces_golden(name):
    assert outcome(name) == GOLDEN[name]
