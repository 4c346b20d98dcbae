"""Tests for the span layer: emission, trees, profiling, diffing.

The flagship assertions mirror the acceptance criteria: a traced E1
commit and a traced E7 restart each yield a span tree whose root
inclusive cost equals the sum of the critical path's step costs, span
emission is deterministic down to span ids and parent links (two runs
produce byte-identical JSONL), and the extended invariant checker
flags broken span brackets.
"""

import pytest

from repro.obs import (
    NULL_TRACER,
    TraceEvent,
    Tracer,
    build_span_forest,
    check_trace,
    critical_path,
    diff_traces,
    path_cost,
    render_diff,
    render_span_tree,
    select_root,
    self_costs,
    spans_by_name,
)
from repro.obs import events as ev
from repro.obs.capture import capture_e1, capture_e7
from repro.obs.invariants import first_violation
from repro.obs.profile import render_critical_path, render_self_costs
from repro.obs.tracer import NULL_SPAN


# ----------------------------------------------------------------------
# span emission
# ----------------------------------------------------------------------
class TestSpanEmission:
    def test_null_tracer_span_is_free(self):
        with NULL_TRACER.span("commit", system=1, txn=7) as handle:
            pass
        assert handle is NULL_SPAN
        assert handle.span_id == -1
        assert NULL_TRACER.events() == []

    def test_span_emits_paired_events(self):
        tracer = Tracer()
        with tracer.span("commit", system=1, txn=7):
            tracer.emit("log.append", system=1, lsn=5)
        kinds = [e.kind for e in tracer.events()]
        assert kinds == [ev.SPAN_BEGIN, "log.append", ev.SPAN_END]
        begin, _, end = tracer.events()
        assert begin.fields["name"] == "commit"
        assert begin.fields["txn"] == 7
        assert begin.fields["parent"] == -1
        assert end.fields["span"] == begin.fields["span"]

    def test_nested_spans_link_parents(self):
        tracer = Tracer()
        with tracer.span("restart", system=1) as outer:
            with tracer.span("redo", system=1) as inner:
                pass
        begins = [e for e in tracer.events() if e.kind == ev.SPAN_BEGIN]
        assert begins[0].fields["span"] == outer.span_id
        assert begins[1].fields["parent"] == outer.span_id
        assert inner.span_id != outer.span_id

    def test_explicit_parent_overrides_stack(self):
        tracer = Tracer()
        with tracer.span("a", system=1) as a:
            with tracer.span("b", system=1, parent=-1):
                pass
        begins = [e for e in tracer.events() if e.kind == ev.SPAN_BEGIN]
        assert begins[1].fields["parent"] == -1
        assert a.span_id == begins[0].fields["span"]

    def test_exception_closes_span_with_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("commit", system=1):
                raise RuntimeError("boom")
        end = tracer.events()[-1]
        assert end.kind == ev.SPAN_END
        assert end.fields["error"] == "RuntimeError"

    def test_double_close_is_idempotent(self):
        tracer = Tracer()
        handle = tracer.span_begin("commit", system=1)
        tracer.span_end(handle)
        tracer.span_end(handle)  # second close must not emit again
        ends = [e for e in tracer.events() if e.kind == ev.SPAN_END]
        assert len(ends) == 1


# ----------------------------------------------------------------------
# forest reconstruction
# ----------------------------------------------------------------------
def _traced_tree():
    tracer = Tracer()
    with tracer.span("restart", system=1, target="instance"):
        with tracer.span("recovery", system=1, mode="restart"):
            with tracer.span("analysis", system=1):
                tracer.emit("x", system=1)
            with tracer.span("redo", system=1):
                tracer.emit("x", system=1)
                tracer.emit("x", system=1)
    return tracer.events()


class TestSpanForest:
    def test_tree_shape(self):
        forest = build_span_forest(_traced_tree())
        assert len(forest) == 1
        root = forest[0]
        assert root.name == "restart"
        assert [c.name for c in root.children] == ["recovery"]
        recovery = root.children[0]
        assert [c.name for c in recovery.children] == ["analysis", "redo"]

    def test_costs_nest(self):
        root = build_span_forest(_traced_tree())[0]
        recovery = root.children[0]
        analysis, redo = recovery.children
        assert analysis.inclusive == 2  # begin, x, end
        assert redo.inclusive == 3
        assert recovery.exclusive == recovery.inclusive - 5
        assert root.exclusive >= 0

    def test_unclosed_span_tolerated(self):
        tracer = Tracer()
        tracer.span_begin("restart", system=1)
        forest = build_span_forest(tracer.events())
        assert forest[0].closed is False
        assert forest[0].inclusive == 0
        assert "[unclosed]" in render_span_tree(forest)

    def test_dangling_parent_promoted_to_root(self):
        events = [
            TraceEvent(seq=1, system=1, kind=ev.SPAN_BEGIN,
                       fields={"span": 5, "name": "redo", "parent": 99}),
            TraceEvent(seq=2, system=1, kind=ev.SPAN_END,
                       fields={"span": 5, "name": "redo"}),
        ]
        forest = build_span_forest(events)
        assert len(forest) == 1 and forest[0].name == "redo"

    def test_spans_by_name(self):
        forest = build_span_forest(_traced_tree())
        assert [n.name for n in spans_by_name(forest, "redo")] == ["redo"]
        assert spans_by_name(forest, "nope") == []

    def test_render_depth_prunes(self):
        forest = build_span_forest(_traced_tree())
        shallow = render_span_tree(forest, max_depth=1)
        assert "restart" in shallow and "analysis" not in shallow
        assert render_span_tree([]) == "(no spans)"


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------
class TestCriticalPath:
    def test_telescoping_identity_synthetic(self):
        root = build_span_forest(_traced_tree())[0]
        steps = critical_path(root)
        assert [s.node.name for s in steps] == ["restart", "recovery", "redo"]
        assert path_cost(steps) == root.inclusive

    def test_leaf_charged_full_inclusive(self):
        root = build_span_forest(_traced_tree())[0]
        steps = critical_path(root)
        assert steps[-1].cost == steps[-1].node.inclusive

    def test_self_costs_sum_to_total_inclusive(self):
        forest = build_span_forest(_traced_tree())
        rows = self_costs(forest)
        assert sum(ticks for _, _, ticks in rows) == forest[0].inclusive
        assert rows == sorted(rows, key=lambda r: (-r[2], r[0]))

    def test_select_root_filters(self):
        tracer = Tracer()
        with tracer.span("commit", system=1, txn=7):
            tracer.emit("x", system=1)
        with tracer.span("commit", system=1, txn=8):
            tracer.emit("x", system=1)
            tracer.emit("x", system=1)
        forest = build_span_forest(tracer.events())
        assert select_root(forest).attrs["txn"] == 8  # costlier wins
        assert select_root(forest, txn=7).attrs["txn"] == 7
        assert select_root(forest, name="restart") is None

    def test_renderers_are_total(self):
        root = build_span_forest(_traced_tree())[0]
        out = render_critical_path(critical_path(root))
        assert out.startswith(f"critical path: {root.inclusive} ticks")
        assert "(no spans)" == render_critical_path([])
        assert "(no spans)" == render_self_costs([])


# ----------------------------------------------------------------------
# acceptance: captures, identity, determinism
# ----------------------------------------------------------------------
class TestCaptureAcceptance:
    def test_e1_commit_critical_path_identity(self):
        tracer, _ = capture_e1("usn")
        forest = build_span_forest(tracer.events())
        root = select_root(forest, name="commit")
        assert root is not None and root.inclusive > 0
        assert path_cost(critical_path(root)) == root.inclusive

    def test_e7_restart_critical_path_identity(self):
        tracer, summary = capture_e7()
        assert summary["loser_rolled_back"] is True
        assert summary["records_redone"] > 0
        forest = build_span_forest(tracer.events())
        root = select_root(forest, name="restart")
        assert root is not None and root.inclusive > 0
        assert path_cost(critical_path(root)) == root.inclusive
        names = {n.name for n in root.walk()}
        assert {"restart", "recovery", "analysis", "redo", "undo"} <= names

    def test_e7_trace_is_invariant_clean(self):
        tracer, _ = capture_e7()
        assert check_trace(tracer.events()) == []

    def test_span_emission_is_deterministic(self):
        first, _ = capture_e7()
        second, _ = capture_e7()
        assert first.dump_jsonl() == second.dump_jsonl()

    def test_e1_span_emission_is_deterministic(self):
        first, _ = capture_e1("usn")
        second, _ = capture_e1("usn")
        assert first.dump_jsonl() == second.dump_jsonl()


# ----------------------------------------------------------------------
# trace diff
# ----------------------------------------------------------------------
class TestDiff:
    def test_identical_traces_diff_empty(self):
        tracer, _ = capture_e7()
        deltas = diff_traces(tracer.events(), tracer.events())
        assert all(d.delta == 0 for d in deltas)
        assert render_diff(deltas) == "(no span differences)"

    def test_differing_traces_rank_by_delta(self):
        a, _ = capture_e7(n_txns=2)
        b, _ = capture_e7(n_txns=6)
        deltas = diff_traces(a.events(), b.events())
        changed = [d for d in deltas if d.delta]
        assert changed, "more txns must cost more ticks somewhere"
        magnitudes = [abs(d.delta) for d in changed]
        assert magnitudes == sorted(magnitudes, reverse=True)
        out = render_diff(deltas, top=3)
        assert "span path" in out

    def test_path_aggregation_joins_names(self):
        forest_events = _traced_tree()
        deltas = diff_traces([], forest_events)
        paths = {d.path for d in deltas}
        assert "restart/recovery/redo" in paths


# ----------------------------------------------------------------------
# invariant checker extensions (I6/I7 spans)
# ----------------------------------------------------------------------
def _ev(seq, system, kind, /, **fields):
    return TraceEvent(seq=seq, system=system, kind=kind, fields=fields)


class TestSpanInvariants:
    def test_unclosed_span_flagged(self):
        events = [_ev(1, 1, ev.SPAN_BEGIN, span=1, name="commit",
                      parent=-1)]
        v = first_violation(check_trace(events), "span-pairing")
        assert v is not None and "never closed" in v.message

    def test_orphan_end_flagged(self):
        events = [_ev(1, 1, ev.SPAN_END, span=9, name="commit")]
        v = first_violation(check_trace(events), "span-pairing")
        assert v is not None and "without an open" in v.message

    def test_duplicate_begin_flagged(self):
        events = [
            _ev(1, 1, ev.SPAN_BEGIN, span=1, name="a", parent=-1),
            _ev(2, 1, ev.SPAN_BEGIN, span=1, name="b", parent=-1),
        ]
        v = first_violation(check_trace(events), "span-pairing")
        assert v is not None and "duplicate" in v.message

    def test_cross_system_close_flagged(self):
        events = [
            _ev(1, 1, ev.SPAN_BEGIN, span=1, name="a", parent=-1),
            _ev(2, 2, ev.SPAN_END, span=1, name="a"),
        ]
        v = first_violation(check_trace(events), "span-pairing")
        assert v is not None and "began on system 1" in v.message

    def test_non_lifo_close_flagged(self):
        events = [
            _ev(1, 1, ev.SPAN_BEGIN, span=1, name="outer", parent=-1),
            _ev(2, 1, ev.SPAN_BEGIN, span=2, name="inner", parent=1),
            _ev(3, 1, ev.SPAN_END, span=1, name="outer"),
            _ev(4, 1, ev.SPAN_END, span=2, name="inner"),
        ]
        v = first_violation(check_trace(events), "span-nesting")
        assert v is not None and "LIFO" in v.message

    def test_properly_nested_clean(self):
        events = [
            _ev(1, 1, ev.SPAN_BEGIN, span=1, name="outer", parent=-1),
            _ev(2, 1, ev.SPAN_BEGIN, span=2, name="inner", parent=1),
            _ev(3, 1, ev.SPAN_END, span=2, name="inner"),
            _ev(4, 1, ev.SPAN_END, span=1, name="outer"),
        ]
        assert check_trace(events) == []
