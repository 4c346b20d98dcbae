"""A3 (ablation) — group commit: log forces vs batch size.

Not from the paper directly, but the paper's footnote 2 argues a
shared global log bottlenecks on per-force synchronization; private
local logs make the force a purely local cost, and group commit then
amortizes even that.  This ablation measures forces per transaction as
the lazy-commit batch size grows, with durability semantics tested in
tests/test_group_commit.py.
"""

from repro.common.stats import LOG_FORCES
from repro.harness import Table, print_banner

from _common import assert_pinned, build_sd, committed_row


def run(batch_size: int, n_txns: int = 60):
    sd, (s1,) = build_sd(1, n_data_pages=512)
    rows = [committed_row(s1, b"seed") for _ in range(n_txns)]
    forces_before = sd.stats.get(LOG_FORCES)
    pending = 0
    for i, (page_id, slot) in enumerate(rows):
        txn = s1.begin()
        s1.update(txn, page_id, slot, b"v%03d" % i)
        s1.commit(txn, lazy=batch_size > 1)
        pending += 1
        if pending >= batch_size:
            s1.sync_commits()
            pending = 0
    s1.sync_commits()
    return sd.stats.get(LOG_FORCES) - forces_before


def run_experiment():
    return {batch: run(batch) for batch in (1, 4, 16, 60)}


def tables(results):
    table = Table(["batch size", "log forces", "forces/txn"])
    for batch, forces in sorted(results.items()):
        table.add_row(batch, forces, forces / 60)
    return (table,)


def test_a3_group_commit(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_banner("A3", "group commit: forces per 60 transactions")
    (table,) = tables(results)
    table.show()
    assert_pinned("A3", table)
    assert results[1] == 60
    assert results[4] <= 16
    assert results[60] <= 2
