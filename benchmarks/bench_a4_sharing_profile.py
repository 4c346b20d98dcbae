"""A4 (ablation) — data-sharing cost profile vs contention.

The paper's introduction frames the SD-vs-SN debate (Sections 1.1-1.2):
data sharing lets any system touch any data at the price of coherency
traffic on *shared* data.  This ablation runs a teller-style workload
at 1/2/4 systems under two access patterns — partitioned (each system
works its own accounts) and fully shared (everyone hammers the same
hot accounts) — and reports the coherency costs per committed
transaction.  Shape expected: partitioned workloads add systems almost
for free; shared-hot workloads pay page transfers and lock waits that
grow with the system count.
"""

from repro.common.stats import LOCK_WAITS, message_kind_counter
from repro.harness import Table, print_banner
from repro.workload.generator import (
    WorkloadConfig,
    build_scripts,
    populate_pages,
    run_interleaved_sd,
)

from _common import assert_pinned, build_sd

TXNS_PER_SYSTEM = 12


def run(n_systems: int, shared: bool):
    sd, instances = build_sd(n_systems, n_data_pages=1024)
    handles = populate_pages(instances[0], n_pages=4 * n_systems,
                             records_per_page=4)
    if shared:
        cfg = WorkloadConfig(
            n_transactions=TXNS_PER_SYSTEM * n_systems, ops_per_txn=4,
            read_fraction=0.2, hot_fraction=1.0, n_hot_pages=2, seed=13,
        )
        scripts = build_scripts(cfg, n_systems, handles)
    else:
        # Partitioned: each system gets a disjoint slice of accounts.
        cfg = WorkloadConfig(
            n_transactions=TXNS_PER_SYSTEM, ops_per_txn=4,
            read_fraction=0.2, hot_fraction=0.0, seed=13,
        )
        per_system = len(handles) // n_systems
        scripts = []
        for i in range(n_systems):
            mine = handles[i * per_system:(i + 1) * per_system]
            for script in build_scripts(cfg, 1, mine):
                script.system_index = i
                scripts.append(script)
    result = run_interleaved_sd(instances, scripts)
    committed = max(result.committed, 1)
    return {
        "committed": result.committed,
        "transfers/txn": (
            sd.stats.get(message_kind_counter("page_transfer")) / committed
        ),
        "invalidations/txn": (
            sd.stats.get(message_kind_counter("invalidate")) / committed
        ),
        "lock waits/txn": sd.stats.get(LOCK_WAITS) / committed,
        "deadlock aborts": result.aborted_deadlock,
    }


def run_experiment():
    out = {}
    for n_systems in (1, 2, 4):
        out[(n_systems, "partitioned")] = run(n_systems, shared=False)
        out[(n_systems, "shared-hot")] = run(n_systems, shared=True)
    return out


def tables(results):
    table = Table(["systems", "pattern", "committed", "transfers/txn",
                   "invalidations/txn", "lock waits/txn", "deadlocks"])
    for (n_systems, pattern), row in sorted(results.items(),
                                            key=lambda kv: (kv[0][1], kv[0][0])):
        table.add_row(n_systems, pattern, row["committed"],
                      row["transfers/txn"], row["invalidations/txn"],
                      row["lock waits/txn"], row["deadlock aborts"])
    return (table,)


def test_a4_sharing_profile(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_banner("A4", "data-sharing cost profile vs contention")
    (table,) = tables(results)
    table.show()
    assert_pinned("A4", table)
    # Partitioned work stays (nearly) coherency-free at any width:
    # the only transfers are each system's first fetch of its slice,
    # no invalidations, and lock waits (intra-system concurrency) do
    # not grow with the system count.
    for n_systems in (1, 2, 4):
        part = results[(n_systems, "partitioned")]
        assert part["transfers/txn"] < 0.5
        assert part["invalidations/txn"] == 0
    assert results[(4, "partitioned")]["lock waits/txn"] <= \
        results[(1, "partitioned")]["lock waits/txn"] + 0.5
    # Shared-hot pays: transfers grow once more than one system plays.
    assert results[(4, "shared-hot")]["transfers/txn"] > \
        results[(1, "shared-hot")]["transfers/txn"]
    assert results[(1, "shared-hot")]["transfers/txn"] == 0