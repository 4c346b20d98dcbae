"""E10 — single global log (VAXcluster) vs private local logs.

Paper claim (Section 4.1 and footnote 2): "a single log that could be
written into by any system directly leads to inefficient usage of
resources because of the need for global synchronization ...  every
write to the global log requires acquiring a global lock to serialize
the space allocation in the log file.  Acquiring a global lock involves
sending and receiving messages."

The bench commits the same per-system transaction load under both
designs and counts global-log lock acquisitions and their messages.
It also demonstrates the record reordering the VAX scheme permits
(tolerable only under force-before-commit + physical logging).
"""

from repro.baselines.global_log import GlobalLogComplex
from repro.common.stats import (
    DISK_PAGE_WRITES,
    GLOBAL_LOG_LOCK_MESSAGES,
    GLOBAL_LOG_LOCKS,
    LOG_FORCES,
    StatsRegistry,
)
from repro.harness import Table, print_banner

from _common import assert_pinned, build_sd, committed_row


def run_global_log(n_systems, commits_per_system):
    complex_ = GlobalLogComplex(n_data_pages=256)
    systems = [complex_.add_system(i + 1) for i in range(n_systems)]
    for i, system in enumerate(systems):
        base = complex_.data_start + i * commits_per_system
        for j in range(commits_per_system):
            complex_.format_page(base + j)
    txn = 0
    for j in range(commits_per_system):
        for i, system in enumerate(systems):
            txn += 1
            page = complex_.data_start + i * commits_per_system + j
            system.insert(txn_id=txn, page_id=page, payload=b"p")
            system.commit(txn)
    return (complex_.stats.get(GLOBAL_LOG_LOCKS),
            complex_.stats.get(GLOBAL_LOG_LOCK_MESSAGES),
            complex_.stats.get(DISK_PAGE_WRITES))


def run_usn(n_systems, commits_per_system):
    sd, instances = build_sd(n_systems, n_data_pages=512)
    for instance in instances:
        for _ in range(commits_per_system):
            committed_row(instance)
    return (sd.stats.get(GLOBAL_LOG_LOCKS),
            sd.stats.get(LOG_FORCES),
            sd.stats.get(DISK_PAGE_WRITES))


def run_experiment():
    rows = []
    commits = 20
    for n_systems in (2, 4, 8):
        glocks, gmsgs, gwrites = run_global_log(n_systems, commits)
        ulocks, uforces, uwrites = run_usn(n_systems, commits)
        rows.append((n_systems, commits * n_systems,
                     glocks, gmsgs, gwrites,
                     ulocks, uforces, uwrites))
    return rows


def tables(rows):
    table = Table(["systems", "commits",
                   "global-log locks", "lock messages",
                   "page writes (force policy)",
                   "USN global locks", "USN log forces",
                   "USN page writes (no-force)"])
    for row in rows:
        table.add_row(*row)
    return (table,)


def test_e10_global_log_cost(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_banner("E10", "global shared log vs private local logs")
    (table,) = tables(rows)
    table.show()
    assert_pinned("E10", table)
    for (n_systems, commits, glocks, gmsgs, gwrites,
         ulocks, uforces, uwrites) in rows:
        assert glocks == commits, "one global lock per commit force"
        assert gmsgs == 2 * commits
        assert ulocks == 0, "private local logs take no global lock"
        assert gwrites >= commits, "force policy writes every dirty page"
        assert uwrites < gwrites, "no-force writes less than force"
