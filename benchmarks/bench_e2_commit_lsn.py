"""E2 — Commit_LSN hit rate vs LSN-rate skew (Sections 2 P4, 3.5).

Paper claim: LSNs issued by different systems should stay close
together; "while no inconsistency will arise if one or more systems
keep issuing low LSNs, the smaller values will ... keep the global
Commit_LSN value too much in the past and the conservative check ...
will fail more often".  The Lamport Local_Max_LSN exchange fixes it.

The bench runs a busy system (many updates per round) next to a quiet
one (one update per round) and measures the quiet reader's Commit_LSN
hit rate with and without the Section 3.5 exchange, across skews.
Lock value blocks are disabled so the periodic broadcast is the *only*
synchronization channel.
"""

from repro import SDComplex
from repro.common.stats import COMMIT_LSN_HITS, COMMIT_LSN_MISSES
from repro.harness import Table, print_banner

from _common import assert_pinned

ROUNDS = 30


def run(skew: int, exchange: bool) -> float:
    sd = SDComplex(n_data_pages=256, piggyback_enabled=exchange,
                   lock_value_blocks=False)
    busy = sd.add_instance(1)
    quiet = sd.add_instance(2)
    txn = busy.begin()
    hot_page = busy.allocate_page(txn)
    hot_slot = busy.insert(txn, hot_page, b"hot")
    busy.commit(txn)
    txn = quiet.begin()
    own_page = quiet.allocate_page(txn)
    own_slot = quiet.insert(txn, own_page, b"own")
    quiet.commit(txn)

    for round_ in range(ROUNDS):
        for _ in range(skew):
            t = busy.begin()
            busy.update(t, hot_page, hot_slot, b"w%04d" % round_)
            busy.commit(t)
        t = quiet.begin()
        quiet.update(t, own_page, own_slot, b"q%04d" % round_)
        quiet.commit(t)
        if exchange:
            sd.broadcast_max_lsns()
        # Quiet system reads the hot page under cursor stability.
        reader = quiet.begin()
        quiet.read(reader, hot_page, hot_slot, use_commit_lsn=True)
        quiet.commit(reader)
    hits = sd.stats.get(COMMIT_LSN_HITS)
    misses = sd.stats.get(COMMIT_LSN_MISSES)
    return hits / (hits + misses)


def run_experiment():
    results = {}
    for skew in (1, 10, 50):
        results[skew] = (run(skew, exchange=False),
                         run(skew, exchange=True))
    return results


def tables(results):
    table = Table(["busy:quiet skew", "hit rate (no exchange)",
                   "hit rate (Lamport exchange)"])
    for skew, (without, with_) in sorted(results.items()):
        table.add_row(f"{skew}:1", without, with_)
    return (table,)


def test_e2_commit_lsn_hit_rate(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_banner("E2", "Commit_LSN hit rate vs LSN-rate skew")
    (table,) = tables(results)
    table.show()
    assert_pinned("E2", table)
    # Shape: the exchange keeps the check effective at every skew; the
    # skewed no-exchange runs collapse.
    for skew, (without, with_) in results.items():
        assert with_ >= 0.9, f"exchange arm should hit (skew {skew})"
        if skew >= 10:
            assert without < with_, "skew must hurt the no-exchange arm"
    assert results[50][0] <= results[1][0] + 1e-9
