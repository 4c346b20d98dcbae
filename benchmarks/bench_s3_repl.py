"""S3 — log-shipping replication: lag and per-ack commit cost.

The USN scheme makes a hot standby cheap: the primary's local logs
k-way merge by LSN alone (Section 3.2.2), so one continuous redo
stream keeps a whole standby complex current.  What the write-ack
level buys — and costs — should then be visible in three numbers:

* **replication lag** (records collected but not yet shipped) at the
  end of a committed workload: zero for ``quorum``/``all`` (the commit
  point ships everything stable), bounded by the in-flight window for
  asynchronous ``local``;
* **commit cost** in fabric messages per commit: ``local`` commits
  pay nothing at the commit point until the window overflows, while
  ``quorum``/``all`` pay the ship + ack round trips synchronously;
* **commit cost** in log forces per commit: 1 without replication,
  1 + *n* at ``all`` (every standby forces every commit), and in
  between a ``quorum`` commit waits for one standby's force while the
  other forces on its window, and ``local`` waits for none.

Everything is counted, not timed (rule R002), so the table is
byte-stable across runs.
"""

from repro.common.stats import (
    LOG_FORCES,
    MESSAGES_SENT,
    REPL_ACKS,
    REPL_RECORDS_SHIPPED,
    StatsRegistry,
)
from repro.harness import Table, print_banner
from repro.harness.experiment import ExperimentResult
from repro.replication import ReplicationConfig
from repro.sd.complex import SDComplex

from _common import assert_pinned, bench_main

N_COMMITS = 24
N_STANDBYS = 2
#: About three commits' worth of records: a window a single commit
#: fills would make every standby force every commit at every level.
WINDOW_RECORDS = 16
BATCH_RECORDS = 4


def build(ack):
    """An SD complex with two instances; replicated unless ack is None."""
    stats = StatsRegistry()
    replicate = None
    if ack is not None:
        replicate = ReplicationConfig(ack=ack,
                                      window_records=WINDOW_RECORDS,
                                      batch_records=BATCH_RECORDS)
    sd = SDComplex(n_data_pages=128, stats=stats, replicate=replicate)
    instances = [sd.add_instance(system_id) for system_id in (1, 2)]
    if ack is not None:
        for index in range(N_STANDBYS):
            sd.replication.add_standby(9 + index)
    return sd, instances


def drive(sd, instances):
    """N_COMMITS alternating single-insert transactions; returns the
    fabric messages and log forces they cost."""
    before = sd.stats.snapshot()
    for index in range(N_COMMITS):
        instance = instances[index % len(instances)]
        txn = instance.begin()
        page_id = instance.allocate_page(txn)
        instance.insert(txn, page_id, b"s3 row %02d" % index)
        instance.commit(txn)
    cost = sd.stats.diff(before)
    return cost.get(MESSAGES_SENT, 0), cost.get(LOG_FORCES, 0)


def run_experiment():
    rows = []
    for ack in (None, "local", "quorum", "all"):
        sd, instances = build(ack)
        messages, forces = drive(sd, instances)
        if ack is None:
            lag, drained_lag, shipped, acks = "-", "-", 0, 0
        else:
            lag = sd.replication.pending_records()
            sd.replication.drain()
            drained_lag = sd.replication.pending_records()
            shipped = sd.stats.get(REPL_RECORDS_SHIPPED)
            acks = sd.stats.get(REPL_ACKS)
        rows.append((ack or "off", messages,
                     round(messages / N_COMMITS, 2),
                     lag, drained_lag, shipped, acks,
                     round(forces / N_COMMITS, 2)))
    return rows


COLUMNS = ["ack", "messages", "msgs/commit", "lag", "lag after drain",
           "records shipped", "acks", "forces/commit"]


def costs_ordered(rows):
    """Messages and forces per commit are ordered by ack strictness,
    with the force count exact at both ends."""
    off, local, quorum, all_ = rows
    return (off[1] < local[1] <= quorum[1] <= all_[1]
            and off[7] == 1 < local[7] < quorum[7] < all_[7] == 1 + N_STANDBYS)


def tables(rows):
    table = Table(COLUMNS)
    for row in rows:
        table.add_row(*row)
    return (table,)


def build_result():
    rows = run_experiment()
    result = ExperimentResult(
        "S3",
        "write-ack levels trade commit-point messages for replication "
        "lag: local lag is window-bounded, quorum/all lag is zero",
    )
    result.add_table(
        f"{N_COMMITS} commits, {N_STANDBYS} standbys, "
        f"window={WINDOW_RECORDS}, batch={BATCH_RECORDS}", *tables(rows))
    off, local, quorum, all_ = rows
    result.record("off_messages", off[1])
    result.record("local_lag", local[3])
    result.record("quorum_lag", quorum[3])
    result.record("all_lag", all_[3])
    ok = (
        costs_ordered(rows)
        and local[3] <= WINDOW_RECORDS and local[4] == 0
        and quorum[3] == 0 and all_[3] == 0
    )
    return result.conclude(ok)


def main(argv=None):
    return bench_main(build_result, argv)


if __name__ == "__main__":
    raise SystemExit(main())


def test_s3_repl(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_banner("S3", "log-shipping replication lag and commit cost")
    (table,) = tables(rows)
    table.show()
    assert_pinned("S3", table)
    off, local, quorum, all_ = rows
    # Replication off must not send replication traffic at all.
    assert off[5] == 0 and off[6] == 0
    # Asynchronous local: lag bounded by the window, drain empties it.
    assert local[3] <= WINDOW_RECORDS
    assert local[4] == 0
    # Synchronous levels: nothing pending after the last commit.
    assert quorum[3] == 0 and all_[3] == 0
    # Commit-point message and force cost is ordered by ack strictness.
    assert costs_ordered(rows)
