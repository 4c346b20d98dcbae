"""F1 — Figure 1 as an executable artifact.

The paper's only figure is the shared-disks architecture diagram: N
systems, each with a private buffer pool and local log, over shared
disks, coordinated by global locking and page transfer.  This bench
builds that topology, pushes a mixed workload through it, and prints
the structure plus the message/IO flows the diagram implies — then
proves the configuration recovers from a full-complex failure.
"""

from repro.harness import Table, print_banner
from repro.workload.generator import (
    WorkloadConfig,
    build_scripts,
    populate_pages,
    run_interleaved_sd,
)

from _common import assert_pinned, build_sd

N_SYSTEMS = 3


def run_experiment():
    sd, instances = build_sd(N_SYSTEMS, n_data_pages=512)
    handles = populate_pages(instances[0], 8, 4)
    cfg = WorkloadConfig(n_transactions=24, ops_per_txn=4,
                         read_fraction=0.4, hot_fraction=0.6,
                         n_hot_pages=3, seed=31)
    scripts = build_scripts(cfg, N_SYSTEMS, handles)
    result = run_interleaved_sd(instances, scripts)
    # Snapshot the running topology (buffer frames empty post-restart).
    topology = [
        (f"S{inst.system_id}", len(inst.pool), inst.log.end_offset,
         inst.log.record_count(), f"{inst.clock.now():.0f}")
        for inst in instances
    ]
    sd.crash_complex()
    sd.restart_complex()
    for page_id, slot in handles:
        assert sd.disk.read_page(page_id).read_record(slot) is not None
    # The periodic Section 3.5 exchange, after restart re-seeded each
    # Local_Max_LSN from its own log.
    sd.broadcast_max_lsns()
    return sd, instances, result, topology


def tables(results):
    sd, instances, result, topology = results
    topo = Table(["system", "buffer frames", "local log bytes",
                  "local log records", "Local_Max_LSN", "clock skew"])
    for (name, frames, log_bytes, records, clock), instance in zip(
            topology, instances):
        topo.add_row(name, frames, log_bytes, records,
                     instance.log.local_max_lsn, clock)
    flows = Table(["flow", "count"])
    snapshot = sd.stats.snapshot()
    for name in sorted(snapshot):
        if name.startswith("net.messages.") or name.startswith("disk."):
            flows.add_row(name, snapshot[name])
    flows.add_row("transactions committed", result.committed)
    flows.add_row("deadlock aborts", result.aborted_deadlock)
    return topo, flows


def test_f1_architecture(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    _, instances, result, _ = results
    print_banner("F1", "the shared disks architecture, executed")
    topo, flows = tables(results)
    topo.show()
    print()
    flows.show()
    assert_pinned("F1", topo, flows)
    assert result.committed >= 20
    # Every system kept its own log (private logs, the figure's point).
    assert len({inst.log.system_id for inst in instances}) == N_SYSTEMS
    maxima = [inst.log.local_max_lsn for inst in instances]
    assert max(maxima) - min(maxima) <= 2, \
        "after a broadcast, Local_Max_LSNs are close together"
