"""Frozen restart outcomes: the one redo path reproduces the old ones.

``tests/golden/redo_digests.json`` was captured at the last commit that
still had the serial log-order redo loops (``redo_parallelism=1``).
The per-page-chain kernel (:mod:`repro.recovery.redo`) must leave the
same disk bytes, materialised pages and redone/screened counts.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.common.errors import FaultInjectedError
from repro.faults import points as fp
from repro.faults import scenarios
from repro.faults.injector import NULL_INJECTOR, FaultInjector, FaultPlan
from repro.obs import events as ev
from repro.obs.tracer import Tracer
from repro.sd.complex import SDComplex
from repro.workload.scaleout import ScaleoutConfig, run_scaleout

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "redo_digests.json").read_text())

#: Sharing high enough that hot pages land in several instances' redo
#: sets, small enough to keep the file quick.
WORKLOAD = ScaleoutConfig(n_transactions=24, sharing_ratio=0.2, seed=11)
SEED = 3


def build_scaleout(scheme, injector=NULL_INJECTOR):
    """The 4-instance complex with the workload run, about to crash."""
    sd = SDComplex(n_data_pages=256, transfer_scheme=scheme,
                   tracer=Tracer(), injector=injector)
    for system_id in range(1, 5):
        sd.add_instance(system_id)
    assert run_scaleout(sd, WORKLOAD).committed > 0
    return sd


def build_cs(injector=NULL_INJECTOR):
    """Two clients' seeded workload against one server, about to crash
    with committed work off disk and one shipped in-flight update."""
    cs, _ = scenarios.build_cs(injector, SEED)
    handles = scenarios.run_cs_workload(cs, SEED)
    (page_a, slot_a), (page_b, slot_b) = handles[0], handles[-1]
    winner = cs.clients[1].begin()
    cs.clients[1].update(winner, page_a, slot_a, b"committed, off disk")
    cs.clients[1].commit(winner)
    loser = cs.clients[2].begin()
    cs.clients[2].update(loser, page_b, slot_b, b"in flight")
    cs.clients[2].send_page_back(page_b)
    cs.server.log.force()
    return cs


def open_world(name, injector=NULL_INJECTOR):
    """``(world, crash, restart, disk)`` of a whole-deployment failure
    scenario, workload done, not yet crashed."""
    if name == "cs-server":
        cs = build_cs(injector)
        return cs, cs.crash_server, cs.restart_server, cs.server.disk
    sd = build_scaleout(name.split("-")[1], injector)
    return sd, sd.crash_complex, sd.restart_complex, sd.disk


def whole_crash(name):
    world, crash, restart, disk = open_world(name)
    crash()
    summaries = restart()
    return world, disk, {0: summaries} if name == "cs-server" else summaries


def run_with_loser(sd):
    """The seeded 2-system workload, then an in-flight insert on system
    1 whose log records are stable."""
    scenarios.run_sd_workload(sd, SEED)
    instance = sd.instances[1]
    loser = instance.begin()
    instance.insert(loser, instance.allocate_page(loser), b"in flight")
    instance.log.force()


def live_peer_crash(_name):
    """System 1 fails alone; system 2 keeps its pool (medium scheme)."""
    sd, _ = scenarios.build_sd(NULL_INJECTOR, SEED)
    run_with_loser(sd)
    sd.crash_instance(1)
    return sd, sd.disk, {1: sd.restart_instance(1)}


def standby_promote(_name):
    """Whole-primary loss with the in-flight transaction shipped."""
    sd, _ = scenarios.build_replicated_sd(NULL_INJECTOR, SEED, ack="quorum")
    run_with_loser(sd)
    sd.replication.drain()
    sd.crash_complex()
    standby = sd.replication.standbys()[scenarios.STANDBY_BASE_ID]
    return standby.promote(), standby.disk, {}


SCENARIOS = {"sd-medium": whole_crash, "sd-fast": whole_crash,
             "cs-server": whole_crash, "sd-live-peer": live_peer_crash,
             "standby-promote": standby_promote}


def outcome(name):
    world, disk, summaries = SCENARIOS[name](name)
    return world, {
        "disk_sha256": disk.digest(),
        "written_page_ids": list(disk.written_page_ids()),
        "redo_counts": [[sid, s.records_redone, s.redo_skipped_by_lsn]
                        for sid, s in sorted(summaries.items())],
    }


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_single_redo_path_reproduces_golden(name):
    _, got = outcome(name)
    assert got == GOLDEN[name]


def test_complex_usable_after_restart():
    """The recovered complex takes (and survives) a fresh workload."""
    sd, _ = outcome("sd-medium")
    rerun = run_scaleout(sd, ScaleoutConfig(n_transactions=12, seed=3))
    assert rerun.committed > 0


# ----------------------------------------------------------------------
# crash during redo, recover again
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def chain_write_backs(name):
    """How many pages the first restarted system's redo pass writes
    back — its first disk writes after the crash, one per chain with
    an applied record."""
    world, crash, restart, _ = open_world(name)
    crash()
    restart()
    first = 0 if name == "cs-server" else 1
    return len({event.fields["page"] for event in world.tracer.events()
                if event.kind == ev.RECOVERY_REDO and event.system == first})


def interrupted_restart(name, where, then_instant=False):
    """Kill the restart at a chain write-back, crash everything again,
    restart to completion (eagerly, or instantly and drained); returns
    the final disk digest."""
    total = chain_write_backs(name)
    k = {"first": 1, "middle": (total + 1) // 2, "last": total}[where]
    injector = FaultInjector(FaultPlan())
    world, crash, restart, disk = open_world(name, injector)
    crash()
    injector.plan.at(fp.DISK_WRITE).on_hit(
        injector.hit_count(fp.DISK_WRITE) + k).crash()
    with pytest.raises(FaultInjectedError):
        restart()
    crash()
    if then_instant:
        world.restart_mode = "instant"
    restart()
    if then_instant:
        assert world.instant_drain() > 0
    return disk.digest()


@pytest.mark.parametrize("name, where, then_instant", [
    (name, where, False) for name in ("sd-medium", "sd-fast", "cs-server")
    for where in ("first", "middle", "last")
] + [("sd-medium", "middle", True)])
def test_crash_during_redo_then_recover(name, where, then_instant):
    assert (interrupted_restart(name, where, then_instant)
            == GOLDEN[name]["disk_sha256"])
