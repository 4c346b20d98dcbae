"""E3 — log merge cost: LSN-only (USN) vs (page, LSN) (Lomet).

Paper claim (Section 4.2): "With our method, since we ensure that all
successive log records in a local log have higher and higher LSN
values, the comparison for merging can be done simply, based solely on
the LSN field", whereas Lomet's merge "requires that both the page
number field and the LSN field of the log records be compared" and the
local logs are not even LSN-sorted.

The bench builds k local logs of n records over a shared page set under
both schemes and measures key comparisons (exact counters) and wall
time for a full merge.
"""

from repro.baselines.lomet import LometLogManager
from repro.common.clock import wall_seconds
from repro.common.stats import MERGE_COMPARISONS, StatsRegistry
from repro.harness import Table, format_factor, print_banner
from repro.wal.log_manager import LogManager
from repro.wal.merge import lomet_merge, merge_local_logs
from repro.wal.records import make_update

from _common import assert_pinned

N_PAGES = 64


def build_usn_logs(k, n):
    logs = []
    for system in range(1, k + 1):
        log = LogManager(system)
        for i in range(n):
            log.append(make_update(1, system, 100 + (i % N_PAGES), 0,
                                   b"r", b"u"))
        logs.append(log)
    return logs


def build_lomet_logs(k, n):
    logs = []
    for system in range(1, k + 1):
        log = LometLogManager(system)
        versions = {}
        for i in range(n):
            page_id = 100 + (i % N_PAGES)
            record = make_update(1, system, page_id, 0, b"r", b"u")
            log.append(record, page_lsn=versions.get(page_id, 0))
            versions[page_id] = record.lsn
        logs.append(log)
    return logs


def measure(k, n):
    usn_logs = build_usn_logs(k, n)
    usn_stats = StatsRegistry()
    t0 = wall_seconds()
    usn_count = sum(1 for _ in merge_local_logs(usn_logs, stats=usn_stats))
    usn_time = wall_seconds() - t0

    l_logs = build_lomet_logs(k, n)
    l_stats = StatsRegistry()
    t0 = wall_seconds()
    l_count = sum(1 for _ in lomet_merge(l_logs, stats=l_stats))
    l_time = wall_seconds() - t0

    assert usn_count == l_count == k * n
    return (usn_stats.get(MERGE_COMPARISONS),
            l_stats.get(MERGE_COMPARISONS), usn_time, l_time)


def run_experiment():
    rows = []
    for k in (2, 4, 8):
        n = 20_000 // k
        usn_cmp, lomet_cmp, usn_time, lomet_time = measure(k, n)
        rows.append((k, n, usn_cmp, lomet_cmp,
                     format_factor(lomet_cmp, usn_cmp),
                     usn_time * 1e3, lomet_time * 1e3))
    return rows


def tables(rows):
    table = Table(["k logs", "records/log", "USN comparisons",
                   "Lomet comparisons", "factor", "USN ms", "Lomet ms"])
    for row in rows:
        table.add_row(*row)
    return (table,)


def test_e3_merge_comparisons(benchmark):
    rows = run_experiment()
    print_banner("E3", "k-way log merge: LSN-only vs (page, LSN)")
    (table,) = tables(rows)
    table.show()
    assert_pinned("E3", table, drop=("USN ms", "Lomet ms"))
    for row in rows:
        assert row[3] > row[2], "Lomet merge must cost more comparisons"
    # Wall-time benchmark of the USN merge itself at the largest k.
    logs = build_usn_logs(8, 2500)
    benchmark(lambda: sum(1 for _ in merge_local_logs(logs)))
