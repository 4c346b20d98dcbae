"""E7 — SD instance restart recovery from its own local log only.

Paper claim (Sections 3.1-3.2): under the medium page-transfer scheme,
"only one system's log is needed for restart redo recovery.  That is, a
real time merged log is not required."  Checkpoints bound the redo scan
via the RecAddr machinery of Section 3.2.2.

The bench runs a multi-system workload, crashes one instance and
recovers it using nothing but that instance's log, at several
checkpoint intervals; it verifies durability/atomicity and reports the
redo scan work.
"""

from repro.common.errors import ReproError
from repro.harness import Table, print_banner
from repro.recovery.checkpoint import take_checkpoint
from repro.workload.generator import (
    WorkloadConfig,
    build_scripts,
    populate_pages,
    run_interleaved_sd,
)

from _common import assert_pinned, build_sd


def run(checkpoint_every):
    sd, instances = build_sd(3, n_data_pages=512)
    handles = populate_pages(instances[0], 6, 4)
    cfg = WorkloadConfig(n_transactions=30, ops_per_txn=4,
                         read_fraction=0.3, seed=17)
    scripts = build_scripts(cfg, 3, handles)
    counter = {"n": 0}

    def maybe_checkpoint():
        counter["n"] += 1
        if checkpoint_every and counter["n"] % checkpoint_every == 0:
            for instance in instances:
                take_checkpoint(instance)

    run_interleaved_sd(instances, scripts, between_txns=maybe_checkpoint)
    # Leave one transaction in flight on the victim, stolen to disk.
    victim = instances[0]
    in_flight = victim.begin()
    page_id, slot = handles[0]
    try:
        victim.update(in_flight, page_id, slot, b"inflight")
        victim.pool.write_page(page_id)
        victim.log.force()
    except ReproError:
        pass  # best-effort in-flight work; crash comes next
    sd.crash_instance(victim.system_id)
    summary = sd.restart_instance(victim.system_id)
    # Durability check against the other systems' view.
    reader = instances[1]
    txn = reader.begin()
    for page_id, slot in handles:
        assert reader.read(txn, page_id, slot) is not None
    reader.commit(txn)
    log_bytes = victim.log.end_offset
    return summary, log_bytes


def run_experiment():
    results = []
    for checkpoint_every in (0, 10, 3):
        summary, log_bytes = run(checkpoint_every)
        results.append((checkpoint_every or "never", summary, log_bytes))
    return results


def tables(results):
    table = Table(["checkpoint every", "analyzed", "redone",
                   "skipped by LSN", "losers", "CLRs",
                   "redo scan start", "log bytes"])
    for label, summary, log_bytes in results:
        table.add_row(label, summary.records_analyzed,
                      summary.records_redone, summary.redo_skipped_by_lsn,
                      summary.loser_transactions, summary.clrs_written,
                      summary.redo_scan_start, log_bytes)
    return (table,)


def test_e7_sd_restart(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_banner("E7", "SD instance restart (local log only)")
    (table,) = tables(results)
    table.show()
    assert_pinned("E7", table)
    never = results[0][1]
    frequent = results[-1][1]
    assert frequent.records_analyzed <= never.records_analyzed, \
        "checkpoints must bound the analysis scan"
    assert all(s.loser_transactions >= 1 for _, s, _ in results), \
        "the in-flight transaction must be a loser"
