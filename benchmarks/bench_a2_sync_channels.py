"""A2 (ablation) — which channel keeps Local_Max_LSNs close together?

Section 3.5 says the Local_Max_LSN exchange "can be piggybacked onto
the other messages being exchanged between the systems" — but which
messages carry how much freight?  This ablation runs the same skewed
workload under four synchronization configurations and reports the
Commit_LSN hit rate and the residual LSN gap between systems:

* none            — no exchange at all (the paper's failure mode)
* locks only      — lock value blocks (causality through conflicts)
* piggyback only  — maxima on coherency/page-transfer messages
* broadcast       — the explicit periodic exchange on top of piggyback
"""

from repro import SDComplex
from repro.common.stats import COMMIT_LSN_HITS, COMMIT_LSN_MISSES
from repro.harness import Table, print_banner

from _common import assert_pinned

ROUNDS = 25
SKEW = 20


def run(piggyback: bool, value_blocks: bool, broadcast: bool):
    sd = SDComplex(n_data_pages=256, piggyback_enabled=piggyback,
                   lock_value_blocks=value_blocks)
    busy = sd.add_instance(1)
    quiet = sd.add_instance(2)
    txn = busy.begin()
    hot_page = busy.allocate_page(txn)
    hot_slot = busy.insert(txn, hot_page, b"hot")
    busy.commit(txn)
    # Warm-up: the busy system's LSNs race ahead, then it creates the
    # *cold* data the quiet system will read — a page whose page_LSN is
    # far above anything the quiet system has issued.
    for i in range(30):
        t = busy.begin()
        busy.update(t, hot_page, hot_slot, b"warm%03d" % i)
        busy.commit(t)
    txn = busy.begin()
    cold_page = busy.allocate_page(txn)
    cold_slot = busy.insert(txn, cold_page, b"cold-data")
    busy.commit(txn)
    for round_ in range(ROUNDS):
        for _ in range(SKEW):
            t = busy.begin()
            busy.update(t, hot_page, hot_slot, b"w%04d" % round_)
            busy.commit(t)
        if broadcast:
            sd.broadcast_max_lsns()
        reader = quiet.begin()
        quiet.read(reader, cold_page, cold_slot, use_commit_lsn=True)
        quiet.commit(reader)
    hits = sd.stats.get(COMMIT_LSN_HITS)
    misses = sd.stats.get(COMMIT_LSN_MISSES)
    gap = abs(busy.log.local_max_lsn - quiet.log.local_max_lsn)
    return hits / (hits + misses), gap


def run_experiment():
    return {
        "none": run(piggyback=False, value_blocks=False, broadcast=False),
        "locks only": run(piggyback=False, value_blocks=True,
                          broadcast=False),
        "piggyback only": run(piggyback=True, value_blocks=False,
                              broadcast=False),
        "broadcast": run(piggyback=True, value_blocks=True, broadcast=True),
    }


def tables(results):
    table = Table(["channel", "Commit_LSN hit rate", "final LSN gap"])
    for label, (rate, gap) in results.items():
        table.add_row(label, rate, gap)
    return (table,)


def test_a2_sync_channels(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_banner("A2", f"LSN synchronization channels "
                       f"({SKEW}:1 skew, {ROUNDS} rounds)")
    (table,) = tables(results)
    table.show()
    assert_pinned("A2", table)
    assert results["none"][0] < 0.2, "no channel -> the check collapses"
    # Any real channel keeps the check alive...
    for label in ("locks only", "piggyback only", "broadcast"):
        assert results[label][0] >= 0.9, label
    # ...and the broadcast keeps the values tightest.
    assert results["broadcast"][1] <= results["none"][1]
