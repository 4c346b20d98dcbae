"""A1 (ablation) — medium vs fast page-transfer schemes.

DESIGN.md calls out the transfer-scheme choice as the design decision
behind the paper's Section 3.1 assumption: the **medium** scheme buys
single-log restart recovery by paying a disk write per cross-system
transfer; the **fast** scheme (Section 5 / [MoNa91]) skips the write
but must redo from the merged local logs at restart.

The ablation drives the same hot-page ping-pong workload under both
schemes and reports the I/O trade plus the recovery cost, verifying
correctness under both.
"""

from repro import SDComplex
from repro.common.stats import (
    DISK_PAGE_WRITES,
    LOG_FORCES,
    message_kind_counter,
)
from repro.harness import Table, print_banner

from _common import assert_pinned

ROUNDS = 40


def run(scheme):
    sd = SDComplex(n_data_pages=128, transfer_scheme=scheme)
    s1, s2 = sd.add_instance(1), sd.add_instance(2)
    txn = s1.begin()
    page_id = s1.allocate_page(txn)
    slot = s1.insert(txn, page_id, b"base")
    s1.commit(txn)
    for i in range(ROUNDS):
        instance = (s1, s2)[i % 2]
        txn = instance.begin()
        instance.update(txn, page_id, slot, b"r%03d" % i)
        instance.commit(txn)
    writes = sd.stats.get(DISK_PAGE_WRITES)
    transfers = sd.stats.get(message_kind_counter("page_transfer"))
    forces = sd.stats.get(LOG_FORCES)
    # Crash the current owner; recover; verify the last committed value.
    owner = sd.coherency.writer_of(page_id)
    sd.crash_instance(owner)
    summary = sd.restart_instance(owner)
    value = sd.disk.read_page(page_id).read_record(slot)
    assert value == b"r%03d" % (ROUNDS - 1), (scheme, value)
    return writes, transfers, forces, summary


def run_experiment():
    return {scheme: run(scheme) for scheme in ("medium", "fast")}


def tables(results):
    table = Table(["scheme", "disk writes", "page transfers",
                   "log forces", "restart redo records",
                   "restart redo source"])
    for scheme, (writes, transfers, forces, summary) in results.items():
        table.add_row(scheme, writes, transfers, forces,
                      summary.records_redone,
                      "local log only" if scheme == "medium"
                      else "merged local logs")
    return (table,)


def test_a1_transfer_schemes(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_banner("A1", f"transfer schemes under {ROUNDS}-round hot-page "
                       "ping-pong")
    (table,) = tables(results)
    table.show()
    assert_pinned("A1", table)
    medium = results["medium"]
    fast = results["fast"]
    assert fast[0] < medium[0], "fast must save the per-transfer writes"
    assert medium[0] >= ROUNDS - 2, "medium pays ~one write per transfer"
    # Fast restart replays the page's full multi-system history.
    assert fast[3].records_redone > medium[3].records_redone
