"""S4 — instant restart: time-to-first-transaction vs eager restart.

Eager ARIES restart (Section 3.2) redoes every dirty page and undoes
every loser before the system accepts a single new transaction, so the
time to the first post-crash commit grows with the dirty-page count.
Instant restart (``restart_mode="instant"``) opens for business right
after the analysis and undo passes: redo is deferred into per-page log
chains that are applied on first access (or by the background
sweeper), so the first transaction pays only for the pages it touches.

The bench runs an identical update-heavy workload twice, crashes the
instance, and measures **time-to-first-transaction in deterministic
disk ticks** — disk page reads + writes between the crash and the
first post-restart commit.  It gates on:

* **latency** — the instant path's time-to-first-transaction is at
  least 3x below eager restart's (``instant * 3 <= eager``);
* **equivalence** — after the sweeper drains, both runs leave SHA-256
  identical disk images (laziness cut latency, not correctness).
"""

from repro.common.stats import (
    DISK_PAGE_READS,
    DISK_PAGE_WRITES,
    INSTANT_DEMAND_RECOVERIES,
    INSTANT_SWEEP_RECOVERIES,
)
from repro.harness import Table, print_banner
from repro.harness.experiment import ExperimentResult
from repro.sd.complex import SDComplex
from repro.workload.generator import populate_pages

from _common import bench_main

N_PAGES = 32
RECORDS_PER_PAGE = 8
N_UPDATE_ROUNDS = 4
#: Every FLUSH_EVERY-th commit steals one page to disk, so restart sees
#: a realistic mix of redo work and page_LSN-screened records.
FLUSH_EVERY = 10
MODES = ("eager", "instant")


def _build(mode):
    sd = SDComplex(n_data_pages=256, restart_mode=mode)
    engine = sd.add_instance(1)
    handles = populate_pages(engine, N_PAGES, RECORDS_PER_PAGE)
    return sd, engine, handles


def _run_workload(engine, handles):
    """Deterministic single-record transactions over every handle."""
    pages = sorted({page_id for page_id, _ in handles})
    committed = 0
    for round_no in range(N_UPDATE_ROUNDS):
        for index, (page_id, slot) in enumerate(handles):
            txn = engine.begin()
            engine.update(txn, page_id, slot,
                          f"r{round_no}v{index}".encode())
            engine.commit(txn)
            committed += 1
            if committed % FLUSH_EVERY == 0:
                stolen = pages[(committed // FLUSH_EVERY) % len(pages)]
                if engine.pool.contains(stolen):
                    engine.pool.write_page(stolen)
    return committed


def _ticks(stats):
    return stats.get(DISK_PAGE_READS) + stats.get(DISK_PAGE_WRITES)


def run_variant(mode):
    """One leg: workload, crash, restart, first transaction, drain."""
    sd, engine, handles = _build(mode)
    committed = _run_workload(engine, handles)
    # Leave one loser in flight, stolen to disk, so restart has undo
    # work on both paths (instant pays it at open, like eager).
    loser_page, loser_slot = handles[-1]
    in_flight = engine.begin()
    engine.update(in_flight, loser_page, loser_slot, b"in-flight")
    engine.pool.write_page(loser_page)
    engine.log.force()
    sd.crash_instance(1)
    before = _ticks(sd.stats)
    summary = sd.restart_instance(1)
    # Time-to-first-transaction: the first post-restart commit, on the
    # restarted instance, touching one page.
    page_id, slot = handles[0]
    txn = engine.begin()
    engine.update(txn, page_id, slot, b"first-post-restart")
    engine.commit(txn)
    ttft = _ticks(sd.stats) - before
    lazy = 0
    if mode == "instant":
        lazy = sum(len(sd.instant[sid].pending_pages())
                   for sid in sorted(sd.instant))
        sd.instant_drain()
    engine.pool.flush_all()
    return {
        "committed": committed,
        "ttft_ticks": ttft,
        "lazy_after_first_txn": lazy,
        "summary": summary,
        "digest": sd.disk.digest(),
        "demand": sd.stats.get(INSTANT_DEMAND_RECOVERIES),
        "swept": sd.stats.get(INSTANT_SWEEP_RECOVERIES),
        "stats": sd.stats,
    }


def run_experiment():
    return {mode: run_variant(mode) for mode in MODES}


def build_result():
    runs = run_experiment()
    eager, instant = runs["eager"], runs["instant"]
    speedup = eager["ttft_ticks"] / max(instant["ttft_ticks"], 1)
    images_match = eager["digest"] == instant["digest"]
    result = ExperimentResult(
        "S4",
        "instant restart commits its first post-crash transaction in "
        ">= 3x fewer disk ticks than eager restart and, once the "
        "sweeper drains, leaves a SHA-256 identical disk image",
    )
    table = Table(["mode", "txns", "ttft ticks", "redone", "losers",
                   "CLRs", "lazy pages", "demand", "swept"])
    for mode in MODES:
        row = runs[mode]
        summary = row["summary"]
        table.add_row(mode, row["committed"], row["ttft_ticks"],
                      summary.records_redone,
                      summary.loser_transactions, summary.clrs_written,
                      row["lazy_after_first_txn"], row["demand"],
                      row["swept"])
    result.add_table(
        "time-to-first-transaction (disk ticks, crash -> first commit)",
        table)
    result.record("eager_ttft_ticks", eager["ttft_ticks"])
    result.record("instant_ttft_ticks", instant["ttft_ticks"])
    result.record("ttft_speedup", round(speedup, 2))
    result.record("lazy_pages_after_first_txn",
                  instant["lazy_after_first_txn"])
    result.record("images_match", images_match)
    result.attach_stats(instant["stats"])
    return result.conclude(
        images_match
        and instant["ttft_ticks"] * 3 <= eager["ttft_ticks"]
    )


def main(argv=None):
    return bench_main(build_result, argv)


if __name__ == "__main__":
    raise SystemExit(main())


def test_s4_instant(benchmark):
    result = benchmark.pedantic(build_result, rounds=1, iterations=1)
    print_banner("S4", "instant restart time-to-first-transaction")
    print(result.render())
    assert result.holds
