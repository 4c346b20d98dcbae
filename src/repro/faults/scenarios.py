"""Seeded chaos workloads the campaign runner tortures.

Each scenario builds a small, fully deterministic stack (seeded
workload, recording tracer, the caller's injector threaded through
every seam) and drives it to completion — or to the injected fault.
The shape is deliberately chosen to make every fault point hot:

* two systems, so instance-scoped crashes leave a survivor;
* mixed reads/updates over hot pages, so locks and the coherency
  protocol carry real traffic (``net.msg``, ``instance.update``);
* periodic mid-workload pool flushes, so pages reach disk *between*
  transactions (``disk.write`` / ``buffer.write`` hits) and restart
  recovery's redo screening actually engages — without flushes every
  page version on disk predates the whole log and screening is
  vacuous, which would let a broken redo pass go unnoticed.

The same builders serve the campaign's survey pass (enabled injector,
empty plan) and its torture runs (one-shot crash rules), so hit counts
line up between the two by construction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cs.system import CsSystem
from repro.faults.injector import NullFaultInjector
from repro.obs.tracer import Tracer
from repro.replication import ReplicationConfig
from repro.sd.complex import SDComplex
from repro.workload.generator import (
    WorkloadConfig,
    build_scripts,
    populate_pages,
    run_interleaved_cs,
    run_interleaved_sd,
)

#: Scenario geometry, shared by survey and torture runs.
N_SYSTEMS = 2
N_PAGES = 4
RECORDS_PER_PAGE = 4
N_TRANSACTIONS = 12
OPS_PER_TXN = 4
#: Flush one (alternating) pool every FLUSH_PERIOD committed txns.
FLUSH_PERIOD = 2
#: Failover-drill replication shape: two standbys so ``quorum`` (2 of
#: 3 votes) and ``all`` (both standbys) are genuinely different levels,
#: and a small window/batch so the async ``local`` mode actually leaves
#: an unshipped tail for the drill's loss bound to bite on.
STANDBY_BASE_ID = 9
N_STANDBYS = 2
REPL_WINDOW_RECORDS = 8
REPL_BATCH_RECORDS = 4


def _workload_config(seed: int) -> WorkloadConfig:
    return WorkloadConfig(
        n_transactions=N_TRANSACTIONS,
        ops_per_txn=OPS_PER_TXN,
        read_fraction=0.4,
        payload_bytes=24,
        hot_fraction=0.5,
        n_hot_pages=2,
        seed=seed,
    )


def build_sd(injector: NullFaultInjector,
             seed: int) -> Tuple[SDComplex, Tracer]:
    """A two-instance SD complex under a recording tracer."""
    return _two_instance_sd(injector, None)


def _two_instance_sd(
    injector: NullFaultInjector, replicate: Optional[ReplicationConfig]
) -> Tuple[SDComplex, Tracer]:
    tracer = Tracer()
    sd = SDComplex(n_data_pages=64, tracer=tracer, injector=injector,
                   replicate=replicate)
    for system_id in (1, 2):
        sd.add_instance(system_id)
    return sd, tracer


def run_sd_workload(sd: SDComplex, seed: int) -> List[Tuple[int, int]]:
    """Populate and drive the seeded workload (may raise an injected
    fault mid-flight; the caller owns the response).  Returns the
    populated ``(page_id, slot)`` handles — the campaign uses the page
    ids to pick torn-write targets that media recovery can rebuild."""
    instances = [sd.instances[sid] for sid in sorted(sd.instances)]
    handles = populate_pages(instances[0], N_PAGES, RECORDS_PER_PAGE)
    scripts = build_scripts(_workload_config(seed), len(instances), handles)
    counter = {"commits": 0}

    def flusher() -> None:
        counter["commits"] += 1
        if counter["commits"] % FLUSH_PERIOD:
            return
        target = instances[(counter["commits"] // FLUSH_PERIOD)
                           % len(instances)]
        if not target.crashed:
            target.pool.flush_all()

    run_interleaved_sd(instances, scripts, between_txns=flusher)
    return handles


def build_replicated_sd(injector: NullFaultInjector, seed: int,
                        ack: str) -> Tuple[SDComplex, Tracer]:
    """The failover-drill stack: :func:`build_sd` plus log shipping.

    Same two-instance primary as :func:`build_sd`, with replication at
    the requested write-ack level and :data:`N_STANDBYS` hot standbys
    attached before the workload starts.
    """
    sd, tracer = _two_instance_sd(injector, ReplicationConfig(
        ack=ack,
        window_records=REPL_WINDOW_RECORDS,
        batch_records=REPL_BATCH_RECORDS,
    ))
    for index in range(N_STANDBYS):
        sd.replication.add_standby(STANDBY_BASE_ID + index)
    return sd, tracer


def build_cs(injector: NullFaultInjector,
             seed: int) -> Tuple[CsSystem, Tracer]:
    """A two-client CS system under a recording tracer."""
    tracer = Tracer()
    cs = CsSystem(n_data_pages=64, tracer=tracer, injector=injector)
    for client_id in (1, 2):
        cs.add_client(client_id)
    return cs, tracer


def run_cs_workload(cs: CsSystem, seed: int) -> List[Tuple[int, int]]:
    clients = [cs.clients[cid] for cid in sorted(cs.clients)]
    handles = populate_pages(clients[0], N_PAGES, RECORDS_PER_PAGE)
    scripts = build_scripts(_workload_config(seed), len(clients), handles)
    counter = {"commits": 0}

    def flusher() -> None:
        counter["commits"] += 1
        if counter["commits"] % FLUSH_PERIOD:
            return
        target = clients[(counter["commits"] // FLUSH_PERIOD) % len(clients)]
        if not target.crashed:
            target.flush_all()
        if not cs.server.crashed:
            # Push shipped pages through to disk so server-side redo
            # screening has disk versions to screen against.
            cs.server.pool.flush_all()

    run_interleaved_cs(clients, scripts, between_txns=flusher)
    return handles
