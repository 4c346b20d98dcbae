"""Tests for repro.obs: tracer, timeline, invariant checker, CLI.

The flagship assertions mirror the acceptance criteria: the E1
(Section 1.5) scenario traced under naive LSNs must trip the
page-lsn-monotonic invariant, the same scenario under USN must check
clean, and tracing must not perturb the simulation (same stats
counters with and without a recording tracer).
"""

import json

import pytest

from repro.harness.experiment import ExperimentResult, Table
from repro.obs import (
    NULL_TRACER,
    TraceEvent,
    Tracer,
    check_trace,
    load_trace,
    render_timeline,
    summarize_trace,
)
from repro.obs import events as ev
from repro.obs.capture import capture_e1
from repro.obs.cli import main as trace_cli
from repro.obs.invariants import first_violation, render_violations
from repro.obs.tracer import _jsonable


# ----------------------------------------------------------------------
# tracer core
# ----------------------------------------------------------------------
class TestTracer:
    def test_null_tracer_swallows_everything(self):
        NULL_TRACER.emit("x.y", system=1, a=1)
        assert NULL_TRACER.events() == []
        assert NULL_TRACER.enabled is False

    def test_emit_assigns_monotonic_seq(self):
        tracer = Tracer()
        tracer.emit("a.b", system=1)
        tracer.emit("c.d", system=2, x=1)
        seqs = [e.seq for e in tracer.events()]
        assert seqs == [1, 2]

    def test_kind_field_does_not_collide_with_event_kind(self):
        tracer = Tracer()
        tracer.emit(ev.PAGE_UPDATE, system=1, kind="UPDATE", page=5)
        event = tracer.events()[0]
        assert event.kind == ev.PAGE_UPDATE
        assert event.fields["kind"] == "UPDATE"

    def test_clock_registration_stamps_readings(self):
        from repro.common.clock import SkewedClock

        tracer = Tracer()
        tracer.register_clock(1, SkewedClock(offset=10.0, rate=2.0))
        tracer.emit("a", system=1)
        tracer.emit("b", system=2)  # no clock registered
        with_clock, without = tracer.events()
        assert with_clock.clock is not None
        assert with_clock.ticks == 1
        assert without.clock is None

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        tracer.emit("a.b", system=1, page=5, data=b"\x01\x02",
                    res=("record", 5, 0))
        path = tmp_path / "t.jsonl"
        assert tracer.write(str(path)) == 1
        events = load_trace(str(path))
        assert len(events) == 1
        assert events[0].kind == "a.b"
        assert events[0].fields["data"] == "0x0102"
        assert events[0].fields["res"] == ["record", 5, 0]

    def test_canonical_json_is_sorted_and_compact(self):
        event = TraceEvent(seq=1, system=2, kind="k", fields={"b": 1, "a": 2})
        line = event.to_json()
        assert " " not in line
        data = json.loads(line)
        assert list(data) == sorted(data)

    def test_jsonable_coercions(self):
        assert _jsonable(b"\xff") == "0xff"
        assert _jsonable((1, 2)) == [1, 2]
        assert _jsonable({1: b"a"}) == {"1": "0x61"}
        assert _jsonable(True) is True
        assert _jsonable(None) is None


# ----------------------------------------------------------------------
# timeline rendering
# ----------------------------------------------------------------------
class TestTimeline:
    def _trace(self):
        tracer = Tracer()
        tracer.emit(ev.LOG_APPEND, system=1, lsn=5, page=64)
        tracer.emit(ev.NET_MSG, system=2, src=2, dst=1, kind="x", nbytes=100)
        tracer.emit(ev.PAGE_UPDATE, system=1, page=64, lsn=6,
                    page_lsn_prev=5, kind="UPDATE", txn=7)
        return tracer.events()

    def test_render_has_column_per_system(self):
        out = render_timeline(self._trace())
        header = out.splitlines()[0]
        assert "sys1" in header and "sys2" in header

    def test_render_truncates(self):
        out = render_timeline(self._trace(), max_rows=2)
        assert "(1 more events)" in out

    def test_empty_trace(self):
        assert render_timeline([]) == "(empty trace)"

    def test_single_system_trace(self):
        tracer = Tracer()
        tracer.emit(ev.LOG_APPEND, system=3, lsn=1)
        tracer.emit(ev.LOG_FORCE, system=3, up_to=1)
        out = render_timeline(tracer.events())
        header = out.splitlines()[0]
        assert "sys3" in header and "sys1" not in header
        assert len(out.splitlines()) == 4  # header, rule, two events

    def test_width_clamps_labels_with_ellipsis(self):
        out = render_timeline(self._trace(), column_width=12)
        body = out.splitlines()[2:]
        labels = [line.split("  ")[-1].strip() for line in body]
        assert any(label.endswith("…") for label in labels)
        assert all(len(label) <= 12 for label in labels)

    def test_max_rows_zero_means_unlimited(self):
        out = render_timeline(self._trace(), max_rows=0)
        assert "more events" not in out
        assert len(out.splitlines()) == 2 + len(self._trace())

    def test_summary_tables(self):
        tables, metrics = summarize_trace(self._trace())
        titles = [t for t, _ in tables]
        assert "events by kind / system" in titles
        assert "page_LSN stamp history" in titles
        assert "message size distribution" in titles
        assert metrics.get_labeled("trace.events", kind=ev.LOG_APPEND) == 1
        hist = metrics.histograms()["trace.message_bytes"]
        assert hist.total == 1


# ----------------------------------------------------------------------
# invariant checker on synthetic traces
# ----------------------------------------------------------------------
def _ev(seq, system, kind, /, **fields):
    return TraceEvent(seq=seq, system=system, kind=kind, fields=fields)


class TestInvariants:
    def test_clean_trace_passes(self):
        events = [
            _ev(1, 0, ev.LOCK_GRANT, owner=7, resource=["page", 64]),
            _ev(2, 1, ev.PAGE_UPDATE, page=64, lsn=6, page_lsn_prev=5,
                kind="UPDATE", txn=7),
            _ev(3, 0, ev.LOCK_RELEASE_ALL, owner=7),
        ]
        assert check_trace(events) == []

    def test_page_lsn_regression_flagged(self):
        events = [
            _ev(1, 1, ev.PAGE_UPDATE, page=64, lsn=3, page_lsn_prev=10,
                kind="CLR", txn=None),
        ]
        found = check_trace(events)
        assert first_violation(found, "page-lsn-monotonic") is not None

    def test_redo_below_page_lsn_flagged(self):
        events = [
            _ev(1, 1, ev.RECOVERY_REDO, page=64, lsn=3, page_lsn_prev=10),
        ]
        found = check_trace(events)
        invs = {v.invariant for v in found}
        assert "redo-screening" in invs

    def test_wrong_skip_flagged(self):
        events = [_ev(1, 1, ev.RECOVERY_SKIP, page=64, lsn=9, page_lsn=3)]
        found = check_trace(events)
        assert first_violation(found, "redo-screening") is not None

    def test_correct_redo_and_skip_clean(self):
        events = [
            _ev(1, 1, ev.RECOVERY_REDO, page=64, lsn=11, page_lsn_prev=10),
            _ev(2, 1, ev.RECOVERY_SKIP, page=64, lsn=9, page_lsn=11),
        ]
        assert check_trace(events) == []

    def test_update_without_lock_flagged(self):
        events = [
            _ev(1, 1, ev.PAGE_UPDATE, page=64, lsn=6, page_lsn_prev=5,
                kind="UPDATE", txn=7),
        ]
        found = check_trace(events)
        assert first_violation(found, "update-under-lock") is not None

    def test_update_under_record_lock_clean(self):
        events = [
            _ev(1, 0, ev.LOCK_GRANT, owner=7, resource=["record", 64, 0]),
            _ev(2, 1, ev.PAGE_UPDATE, page=64, lsn=6, page_lsn_prev=5,
                kind="UPDATE", txn=7),
        ]
        assert check_trace(events) == []

    def test_released_lock_no_longer_covers(self):
        events = [
            _ev(1, 0, ev.LOCK_GRANT, owner=7, resource=["page", 64]),
            _ev(2, 0, ev.LOCK_RELEASE, owner=7, resource=["page", 64]),
            _ev(3, 1, ev.PAGE_UPDATE, page=64, lsn=6, page_lsn_prev=5,
                kind="UPDATE", txn=7),
        ]
        found = check_trace(events)
        assert first_violation(found, "update-under-lock") is not None

    def test_smp_and_clr_stamps_exempt_from_lock_check(self):
        events = [
            _ev(1, 1, ev.PAGE_UPDATE, page=1, lsn=6, page_lsn_prev=5,
                kind="SMP_UPDATE", txn=7),
            _ev(2, 1, ev.PAGE_UPDATE, page=2, lsn=8, page_lsn_prev=7,
                kind="CLR", txn=7),
        ]
        assert check_trace(events) == []

    def test_lamport_merge_backwards_flagged(self):
        events = [
            _ev(1, 1, ev.LSN_OBSERVE, remote=10, before=5, after=5),
        ]
        found = check_trace(events)
        assert first_violation(found, "lamport") is not None

    def test_lamport_merge_correct_clean(self):
        events = [
            _ev(1, 1, ev.LSN_OBSERVE, remote=10, before=5, after=10),
            _ev(2, 1, ev.LSN_OBSERVE, remote=3, before=10, after=10),
        ]
        assert check_trace(events) == []

    def test_append_after_commit_flagged(self):
        """I9: a rollback of a transaction whose COMMIT failed to
        force — a CLR and an END after that COMMIT, no crash."""
        events = [
            _ev(1, 1, ev.LOG_APPEND, lsn=5, kind="UPDATE", txn=7, page=64,
                offset=0),
            _ev(2, 1, ev.LOG_APPEND, lsn=6, kind="COMMIT", txn=7,
                page=None, offset=30),
            _ev(3, 1, ev.LOG_APPEND, lsn=7, kind="CLR", txn=7, page=64,
                offset=49),
            _ev(4, 1, ev.LOG_APPEND, lsn=8, kind="END", txn=7, page=None,
                offset=98),
        ]
        found = [v for v in check_trace(events)
                 if v.invariant == "log-consistency"]
        assert [v.seq for v in found] == [3, 4]
        assert "txn 7 appended a CLR record after its COMMIT" in \
            found[0].message

    def test_post_commit_end_flagged(self):
        """The END an update transaction used to write after its
        COMMIT breaks the rule too: a COMMIT is the last record."""
        events = [
            _ev(1, 1, ev.LOG_APPEND, lsn=6, kind="COMMIT", txn=7,
                page=None, offset=30),
            _ev(2, 1, ev.LOG_FORCE, up_to=49),
            _ev(3, 1, ev.LOG_APPEND, lsn=7, kind="END", txn=7, page=None,
                offset=49),
        ]
        assert first_violation(check_trace(events), "log-consistency")

    def test_restart_undoing_a_lost_commit_is_clean(self):
        """A COMMIT past the last force is gone after a crash: restart
        rolling its transaction back appends legally.  A forced one is
        not: restart must never append for it."""
        def history(up_to):
            return [
                _ev(1, 1, ev.LOG_APPEND, lsn=6, kind="COMMIT", txn=7,
                    page=None, offset=30),
                _ev(2, 1, ev.LOG_FORCE, up_to=up_to),
                _ev(3, 1, ev.SPAN_BEGIN, span=1, name=ev.SPAN_ANALYSIS,
                    parent=None),
                _ev(4, 1, ev.SPAN_END, span=1, name=ev.SPAN_ANALYSIS),
                _ev(5, 1, ev.LOG_APPEND, lsn=7, kind="CLR", txn=7, page=64,
                    offset=30),
            ]
        assert check_trace(history(up_to=30)) == []
        assert first_violation(check_trace(history(up_to=49)),
                               "log-consistency").seq == 5

    def test_cs_client_commit_counts_once_shipped_and_forced(self):
        """A CS client's COMMIT has no offset until its ship; client
        recovery may undo an unshipped one, never a forced one."""
        def history(forced):
            events = [
                _ev(1, 1, ev.LOG_APPEND, lsn=6, kind="COMMIT", txn=7,
                    page=None, offset=None),
                _ev(2, 0, ev.CS_SHIP, client=1, nbytes=19, offset=100),
            ]
            if forced:
                events.append(_ev(3, 0, ev.LOG_FORCE, up_to=119))
            return events + [
                _ev(4, 0, ev.SPAN_BEGIN, span=1, name=ev.SPAN_ANALYSIS,
                    parent=None),
                _ev(5, 0, ev.SPAN_END, span=1, name=ev.SPAN_ANALYSIS),
                _ev(6, 0, ev.LOG_APPEND, lsn=7, kind="END", txn=7,
                    page=None, offset=119),
            ]
        assert check_trace(history(forced=False)) == []
        assert first_violation(check_trace(history(forced=True)),
                               "log-consistency").seq == 6

    def test_render_violations_all_clear(self):
        assert "OK" in render_violations([])

    def test_render_violations_lists_each(self):
        found = check_trace(
            [_ev(1, 1, ev.PAGE_UPDATE, page=64, lsn=3, page_lsn_prev=10,
                 kind="CLR")]
        )
        text = render_violations(found)
        assert "1 violation(s)" in text
        assert "seq=1" in text


# ----------------------------------------------------------------------
# the flagship integration: E1 traced under naive vs USN LSNs
# ----------------------------------------------------------------------
class TestE1Capture:
    def test_naive_run_trips_page_lsn_monotonicity(self):
        tracer, summary = capture_e1("naive")
        assert summary["committed_update_survived"] is False
        violations = check_trace(tracer.events())
        hit = first_violation(violations, "page-lsn-monotonic")
        assert hit is not None, "naive LSNs must regress page_LSN on E1"
        assert "Section 1.5" in hit.message

    def test_usn_run_is_invariant_clean(self):
        tracer, summary = capture_e1("usn")
        assert summary["committed_update_survived"] is True
        assert check_trace(tracer.events()) == []

    def test_usn_trace_shows_lamport_exchanges(self):
        tracer, _ = capture_e1("usn")
        kinds = {e.kind for e in tracer.events()}
        assert ev.LSN_OBSERVE in kinds
        assert ev.PAGE_TRANSFER in kinds
        assert ev.RECOVERY_REDO in kinds

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            capture_e1("bogus")

    def test_tracing_does_not_perturb_the_run(self):
        """Tracing must be a pure observer: the traced and untraced
        runs of one scenario produce identical stats counters and the
        same survivor — the null tracer mints no counters of its own."""
        from repro.sd.complex import SDComplex

        def run(tracer):
            complex_ = SDComplex(n_data_pages=128, tracer=tracer)
            s1 = complex_.add_instance(1, lock_granularity="page")
            s2 = complex_.add_instance(2, lock_granularity="page")
            txn = s2.begin()
            page_id = s2.allocate_page(txn)
            slot = s2.insert(txn, page_id, b"original")
            s2.commit(txn)
            t1 = s1.begin()
            s1.update(t1, page_id, slot, b"t1")
            s1.commit(t1)
            complex_.crash_instance(1)
            complex_.restart_instance(1)
            survivor = complex_.disk.read_page(page_id).read_record(slot)
            return complex_.stats.snapshot(), survivor

        untraced_counters, untraced_survivor = run(None)
        traced_counters, traced_survivor = run(Tracer())
        assert traced_counters == untraced_counters
        assert traced_survivor == untraced_survivor


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_capture_and_render(self, tmp_path, capsys):
        out = tmp_path / "e1.jsonl"
        assert trace_cli(["--capture", "e1-usn", "-o", str(out)]) == 0
        capsys.readouterr()
        assert trace_cli([str(out), "--check"]) == 0
        rendered = capsys.readouterr().out
        assert "sys1" in rendered
        assert "invariants: OK" in rendered

    def test_check_exits_one_on_violation(self, tmp_path, capsys):
        out = tmp_path / "e1_naive.jsonl"
        assert trace_cli(["--capture", "e1-naive", "-o", str(out)]) == 0
        capsys.readouterr()
        assert trace_cli([str(out), "--check"]) == 1
        assert "page-lsn-monotonic" in capsys.readouterr().out

    def test_no_args_is_usage_error(self, capsys):
        assert trace_cli([]) == 2

    def test_bench_render(self, tmp_path, capsys):
        result = ExperimentResult("EX", "claim text")
        result.record("m", 1)
        table = Table(["a", "b"])
        table.add_row(1, 2)
        result.add_table("demo", table)
        result.conclude(True)
        path = tmp_path / "BENCH_EX.json"
        path.write_text(json.dumps(result.to_dict()))
        assert trace_cli(["--bench", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[EX] HOLDS: claim text" in out
        assert "demo" in out

    def test_missing_trace_file_is_one_line_exit_2(self, capsys):
        assert trace_cli(["/nonexistent/trace.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "no such trace file" in err

    def test_empty_trace_file_is_one_line_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert trace_cli(["summary", str(empty)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "empty" in err

    def _captured(self, tmp_path, capsys, scenario="e7-restart"):
        out = tmp_path / f"{scenario}.jsonl"
        assert trace_cli(["--capture", scenario, "-o", str(out)]) == 0
        capsys.readouterr()
        return str(out)

    def test_summary_json(self, tmp_path, capsys):
        path = self._captured(tmp_path, capsys)
        assert trace_cli(["summary", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["systems"] == [0, 1]
        assert payload["events"] > 0
        counters = payload["metrics"]["counters"]
        assert counters["trace.events{kind=span.begin}"] == \
            counters["trace.events{kind=span.end}"]

    def test_summary_json_check_reports_violations(self, tmp_path, capsys):
        path = self._captured(tmp_path, capsys, scenario="e1-naive")
        assert trace_cli(["summary", path, "--json", "--check"]) == 1
        payload = json.loads(capsys.readouterr().out)
        invariants = {v["invariant"] for v in payload["violations"]}
        assert "page-lsn-monotonic" in invariants

    def test_spans_subcommand(self, tmp_path, capsys):
        path = self._captured(tmp_path, capsys)
        assert trace_cli(["spans", path]) == 0
        out = capsys.readouterr().out
        assert "restart" in out and "incl=" in out

    def test_critical_path_subcommand(self, tmp_path, capsys):
        path = self._captured(tmp_path, capsys)
        assert trace_cli(["critical-path", path, "--root", "restart"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("critical path:")
        assert "self-ticks" in out

    def test_critical_path_no_match_exits_one(self, tmp_path, capsys):
        path = self._captured(tmp_path, capsys)
        assert trace_cli(["critical-path", path, "--root", "nope"]) == 1
        assert "no matching root span" in capsys.readouterr().err

    def test_export_perfetto_subcommand(self, tmp_path, capsys):
        from repro.obs.export import validate_perfetto

        path = self._captured(tmp_path, capsys)
        out_file = tmp_path / "trace.perfetto.json"
        assert trace_cli(
            ["export", path, "--perfetto", "-o", str(out_file)]) == 0
        validate_perfetto(json.loads(out_file.read_text()))

    def test_export_prom_subcommand(self, tmp_path, capsys):
        path = self._captured(tmp_path, capsys)
        assert trace_cli(["export", path, "--prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE trace_events counter" in out

    def test_diff_subcommand(self, tmp_path, capsys):
        path = self._captured(tmp_path, capsys)
        assert trace_cli(["diff", path, path]) == 0
        assert "(no span differences)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# ExperimentResult round trip
# ----------------------------------------------------------------------
class TestExperimentResult:
    def test_round_trip_preserves_tables_and_counters(self):
        result = ExperimentResult("E9", "media recovery works")
        result.record("pages", 7)
        result.counters = {"log.records_written": 12}
        table = Table(["x"])
        table.add_row(3.14159)
        result.add_table("t", table)
        result.conclude(True)
        clone = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone.render() == result.render()
        assert clone.counters == result.counters
        assert clone.holds is True

    def test_attach_stats_snapshots_counters_and_histograms(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        metrics.incr("a.b", 3)
        metrics.observe("h", 5)
        result = ExperimentResult("EX", "c")
        result.attach_stats(metrics)
        assert result.counters == {"a.b": 3}
        assert result.histograms["h"]["total"] == 1

    def test_table_from_dict_validates_width(self):
        with pytest.raises(ValueError):
            Table.from_dict({"columns": ["a"], "rows": [["1", "2"]]})
