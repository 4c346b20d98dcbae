"""Tests for log merging: LSN-only (USN) vs (page, LSN) (Lomet)."""

from hypothesis import given, settings, strategies as st

from repro.common.stats import MERGE_COMPARISONS, StatsRegistry
from repro.recovery.redo import collect_merged_redo
from repro.wal.log_manager import LogManager
from repro.wal.merge import lomet_merge, merge_local_logs
from repro.wal.records import make_update
from repro.baselines.lomet import LometLogManager


def usn_logs(assignments):
    """Build logs from {system_id: [(page_id, hint), ...]}."""
    logs = []
    for system_id, updates in assignments.items():
        log = LogManager(system_id)
        for page_id, hint in updates:
            log.append(make_update(1, system_id, page_id, 0, b"r", b"u"),
                       page_lsn=hint)
        logs.append(log)
    return logs


class TestUsnMerge:
    def test_merged_stream_sorted_by_lsn(self):
        logs = usn_logs({
            1: [(10, 0), (11, 5), (10, 20)],
            2: [(12, 3), (10, 9)],
        })
        merged = [r.lsn for _, r in merge_local_logs(logs)]
        assert merged == sorted(merged)

    def test_all_records_present(self):
        logs = usn_logs({1: [(10, 0)] * 5, 2: [(11, 0)] * 7})
        assert len(list(merge_local_logs(logs))) == 12

    def test_equal_lsns_allowed_for_different_pages(self):
        """Two local logs may assign the same LSN — necessarily to
        different pages — and the merge may order them either way."""
        a = LogManager(1)
        a.append(make_update(1, 1, 10, 0, b"r", b"u"))       # LSN 1
        b = LogManager(2)
        b.append(make_update(2, 2, 11, 0, b"r", b"u"))       # LSN 1
        merged = list(merge_local_logs([a, b]))
        assert {r.page_id for _, r in merged} == {10, 11}
        assert [r.lsn for _, r in merged] == [1, 1]

    def test_from_offsets_shortens_scan(self):
        log = LogManager(1)
        log.append(make_update(1, 1, 10, 0, b"r", b"u"))
        cut = log.end_offset
        log.append(make_update(1, 1, 11, 0, b"r", b"u"))
        merged = list(merge_local_logs([log], from_offsets={1: cut}))
        assert [r.page_id for _, r in merged] == [11]

    def test_comparison_counting(self):
        stats = StatsRegistry()
        logs = usn_logs({1: [(10, 0)] * 50, 2: [(11, 0)] * 50})
        list(merge_local_logs(logs, stats=stats))
        assert stats.get(MERGE_COMPARISONS) > 0

    def test_per_page_filter(self):
        logs = usn_logs({1: [(10, 0), (11, 0), (10, 50)], 2: [(10, 5)]})
        chains = collect_merged_redo(logs, {10})
        assert list(chains) == [10]
        records = chains[10].records
        lsns = [r.lsn for r in records]
        assert all(r.page_id == 10 for r in records)
        assert lsns == sorted(lsns)
        assert len(lsns) == 3


def lomet_logs(assignments):
    """Build Lomet logs from {system_id: [(page_id, before_lsn), ...]}."""
    logs = []
    for system_id, updates in assignments.items():
        log = LometLogManager(system_id)
        for page_id, before in updates:
            log.append(make_update(1, system_id, page_id, 0, b"r", b"u"),
                       page_lsn=before)
        logs.append(log)
    return logs


class TestLometMerge:
    def test_lomet_local_log_not_lsn_sorted(self):
        """The premise of Section 4.2: per-page sequences make a local
        log's LSNs jump around."""
        log = lomet_logs({1: [(10, 100), (11, 2), (10, 101)]})[0]
        lsns = [r.lsn for _, r in log.scan()]
        assert lsns == [101, 3, 102]
        assert lsns != sorted(lsns)

    def test_per_page_order_preserved(self):
        logs = lomet_logs({
            1: [(10, 0), (11, 5), (10, 1)],
            2: [(10, 2), (11, 6)],
        })
        merged = list(lomet_merge(logs))
        by_page = {}
        for _, record in merged:
            by_page.setdefault(record.page_id, []).append(record.lsn)
        for lsns in by_page.values():
            assert lsns == sorted(lsns)

    def test_all_records_present(self):
        logs = lomet_logs({1: [(10, i) for i in range(5)],
                           2: [(11, i) for i in range(7)]})
        assert len(list(lomet_merge(logs))) == 12

    def test_lomet_needs_more_comparisons_than_usn(self):
        """The E3 claim, in miniature: same logical workload, the
        (page, LSN) merge pays more comparisons than the LSN-only one."""
        updates = {1: [(10 + (i % 4), i) for i in range(100)],
                   2: [(20 + (i % 4), i) for i in range(100)]}
        usn_stats = StatsRegistry()
        list(merge_local_logs(usn_logs(
            {s: [(p, 0) for p, _ in ups] for s, ups in updates.items()}
        ), stats=usn_stats))
        lomet_stats = StatsRegistry()
        list(lomet_merge(lomet_logs(updates), stats=lomet_stats))
        assert (lomet_stats.get(MERGE_COMPARISONS)
                > usn_stats.get(MERGE_COMPARISONS))


@settings(max_examples=40, deadline=None)
@given(
    per_log=st.lists(
        st.lists(st.tuples(st.integers(10, 20), st.integers(0, 50)),
                 max_size=30),
        min_size=1, max_size=4,
    )
)
def test_property_usn_merge_is_sorted_and_complete(per_log):
    logs = usn_logs({i + 1: ups for i, ups in enumerate(per_log)})
    merged = list(merge_local_logs(logs))
    lsns = [r.lsn for _, r in merged]
    assert lsns == sorted(lsns)
    assert len(merged) == sum(len(ups) for ups in per_log)


@settings(max_examples=40, deadline=None)
@given(
    per_log=st.lists(
        st.lists(st.integers(10, 14), max_size=30),
        min_size=1, max_size=4,
    )
)
def test_property_lomet_merge_preserves_per_page_runs(per_log):
    """Each (log, page) run must appear in its original order."""
    logs = []
    expected_runs = {}
    for i, pages in enumerate(per_log):
        system_id = i + 1
        log = LometLogManager(system_id)
        page_versions = {}
        for page_id in pages:
            before = page_versions.get(page_id, 0)
            record = make_update(1, system_id, page_id, 0, b"r", b"u")
            log.append(record, page_lsn=before)
            page_versions[page_id] = record.lsn
            expected_runs.setdefault((system_id, page_id), []).append(record.lsn)
        logs.append(log)
    merged = list(lomet_merge(logs))
    seen_runs = {}
    for addr, record in merged:
        seen_runs.setdefault((addr.system_id, record.page_id),
                             []).append(record.lsn)
    assert seen_runs == expected_runs


class TestIncrementalMerge:
    """Generator-driven consumption: the merge is the log shipper's
    steady-state input, so it must stream lazily, resume from byte
    cursors, and honour the stable (forced) boundary."""

    def test_merge_is_lazy(self):
        """Consuming one entry must not exhaust the source scans."""
        logs = usn_logs({1: [(10, 0)] * 100, 2: [(11, 0)] * 100})
        stats = StatsRegistry()
        stream = merge_local_logs(logs, stats=stats)
        next(stream)
        partial = stats.get(MERGE_COMPARISONS)
        list(stream)
        assert partial < stats.get(MERGE_COMPARISONS)

    def test_cursor_resume_covers_later_appends(self):
        """The shipper pattern: merge, remember end offsets, append
        more, merge again from the cursors — the two passes together
        see every record exactly once."""
        logs = usn_logs({1: [(10, 0)] * 3, 2: [(11, 0)] * 2})
        first_pass = list(merge_local_logs(logs))
        cursors = {log.system_id: log.end_offset for log in logs}
        logs[0].append(make_update(1, 1, 12, 0, b"r", b"u"))
        logs[1].append(make_update(2, 2, 13, 0, b"r", b"u"))
        second_pass = list(merge_local_logs(logs, from_offsets=cursors))
        assert len(first_pass) == 5
        # System 2's new record carries the lower LSN (3 vs 4), so the
        # resumed merge yields page 13 first.
        assert [r.page_id for _, r in second_pass] == [13, 12]
        seen = [(a.system_id, a.offset) for a, _ in first_pass + second_pass]
        assert len(seen) == len(set(seen))

    def test_cursor_resume_with_empty_source_joining_mid_stream(self):
        """A log that joins the fleet between passes — empty on its
        first resume, populated by the next — must neither break the
        heap seed nor duplicate records once it has some."""
        logs = usn_logs({1: [(10, 0)] * 2})
        first_pass = list(merge_local_logs(logs))
        cursors = {log.system_id: log.end_offset for log in logs}
        newcomer = LogManager(3)  # joins mid-stream, nothing logged yet
        logs.append(newcomer)
        cursors[3] = 0
        logs[0].append(make_update(1, 1, 11, 0, b"r", b"u"))
        second_pass = list(merge_local_logs(logs, from_offsets=cursors))
        # The empty newcomer contributes nothing and breaks nothing.
        assert [r.page_id for _, r in second_pass] == [11]
        cursors = {log.system_id: log.end_offset for log in logs}
        newcomer.append(make_update(3, 3, 12, 0, b"r", b"u"))
        third_pass = list(merge_local_logs(logs, from_offsets=cursors))
        # Now only the newcomer has new records; the exhausted sources
        # (cursor == end offset) yield empty remainders.
        assert [(a.system_id, r.page_id) for a, r in third_pass] \
            == [(3, 12)]
        seen = [(a.system_id, a.offset)
                for a, _ in first_pass + second_pass + third_pass]
        assert len(seen) == len(set(seen))

    def test_stable_only_stops_at_flushed_boundary(self):
        log = LogManager(1)
        log.append(make_update(1, 1, 10, 0, b"r", b"u"))
        log.force()
        log.append(make_update(1, 1, 11, 0, b"r", b"u"))  # volatile tail
        stable = [r.page_id for _, r in
                  merge_local_logs([log], stable_only=True)]
        everything = [r.page_id for _, r in merge_local_logs([log])]
        assert stable == [10]
        assert everything == [10, 11]
        log.force()
        assert [r.page_id for _, r in
                merge_local_logs([log], stable_only=True)] == [10, 11]

    def test_equal_lsn_tie_emits_both_exactly_once(self):
        """Ties across logs (same LSN, necessarily different pages) are
        both emitted, in non-decreasing LSN order, whatever tiebreak
        the heap picks."""
        a = LogManager(1)
        b = LogManager(2)
        for _ in range(3):
            a.append(make_update(1, 1, 10, 0, b"r", b"u"))
            b.append(make_update(2, 2, 11, 0, b"r", b"u"))
        merged = list(merge_local_logs([a, b]))
        lsns = [r.lsn for _, r in merged]
        assert lsns == sorted(lsns) == [1, 1, 2, 2, 3, 3]
        by_page = {}
        for _, record in merged:
            by_page.setdefault(record.page_id, []).append(record.lsn)
        assert by_page == {10: [1, 2, 3], 11: [1, 2, 3]}

    def test_equal_lsn_tie_stable_per_source_order(self):
        """Within one source the merge must preserve log order even
        through ties (the heap's tiebreak index guarantees it)."""
        a = LogManager(1)
        b = LogManager(2)
        a.append(make_update(1, 1, 10, 0, b"r", b"u"))    # LSN 1
        b.append(make_update(2, 2, 11, 0, b"r", b"u"))    # LSN 1
        b.append(make_update(2, 2, 12, 0, b"r", b"u"))    # LSN 2
        a.append(make_update(1, 1, 13, 0, b"r", b"u"))    # LSN 2
        merged = [(addr.system_id, record.lsn)
                  for addr, record in merge_local_logs([a, b])]
        for system_id in (1, 2):
            own = [lsn for sid, lsn in merged if sid == system_id]
            assert own == sorted(own)
