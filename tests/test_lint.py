"""Tests for reprolint (repro.lint): rules, suppressions, CLI, and the
tier-1 gate that keeps the real tree clean forever.

Each rule is exercised in both directions — a fixture snippet seeded
with a violation must produce a finding with the right rule ID and
line, and the corresponding clean snippet must produce none.
"""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, lint_source
from repro.lint import cache as result_cache
from repro.lint.cfg import WithEnter, WithExit, build_cfg, reachable_blocks
from repro.lint.dataflow import LocksetAnalysis, ReachingDefinitions
from repro.lint.engine import Finding, parse_suppressions
from repro.lint.rules import RULES_BY_ID
from repro.lint.sarif import SARIF_VERSION, findings_to_sarif, render_sarif

REPO = Path(__file__).resolve().parent.parent

#: Synthetic path that makes fixtures look like library modules.
SRC = "src/repro/fake/module.py"
#: ... and like test modules.
TST = "tests/test_fake.py"


def findings_for(source, path=SRC, rule=None):
    rules = None if rule is None else [RULES_BY_ID[rule]]
    return lint_source(textwrap.dedent(source), path=path, rules=rules)


def ids_of(findings):
    return [f.rule_id for f in findings]


# ----------------------------------------------------------------------
# R001 — wal-discipline
# ----------------------------------------------------------------------
class TestR001:
    def test_direct_page_lsn_write_flagged(self):
        found = findings_for(
            """
            def redo(page, record):
                page.page_lsn = record.lsn
            """
        )
        assert ids_of(found) == ["R001"]
        assert found[0].line == 3

    def test_augmented_write_flagged(self):
        found = findings_for("page.page_lsn += 1\n")
        assert ids_of(found) == ["R001"]

    def test_allowed_in_apply_module(self):
        source = "def stamp(page, lsn):\n    page.page_lsn = lsn\n"
        assert findings_for(source, path="src/repro/recovery/apply.py") == []
        assert findings_for(source, path="src/repro/storage/page.py") == []

    def test_unlogged_mutation_flagged(self):
        found = findings_for(
            """
            def mutate(page, payload):
                return page.insert_record(payload)
            """
        )
        assert ids_of(found) == ["R001"]
        assert "no log append" in found[0].message

    def test_logged_mutation_clean(self):
        assert (
            findings_for(
                """
                def mutate(self, page, payload):
                    slot = page.insert_record(payload)
                    self.log.append(make_record(payload), page_lsn=page.page_lsn)
                    return slot
                """
            )
            == []
        )

    def test_mutation_via_log_wrapper_clean(self):
        assert (
            findings_for(
                """
                def mutate(self, page, payload):
                    page.update_record(0, payload)
                    self._log_applied_update(page, payload)
                """
            )
            == []
        )

    def test_tests_exempt(self):
        source = "def test_x(page):\n    page.page_lsn = 5\n"
        assert findings_for(source, path=TST) == []


# ----------------------------------------------------------------------
# R002 — clock-discipline
# ----------------------------------------------------------------------
class TestR002:
    def test_wall_clock_flagged(self):
        found = findings_for(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert ids_of(found) == ["R002"]

    def test_sleep_flagged(self):
        found = findings_for("import time\ntime.sleep(1)\n")
        assert ids_of(found) == ["R002"]

    def test_from_import_flagged(self):
        found = findings_for(
            "from time import perf_counter\nelapsed = perf_counter()\n"
        )
        assert ids_of(found) == ["R002"]

    def test_datetime_now_flagged(self):
        found = findings_for(
            "import datetime\nts = datetime.datetime.now()\n"
        )
        assert ids_of(found) == ["R002"]
        found = findings_for(
            "from datetime import datetime\nts = datetime.now()\n"
        )
        assert ids_of(found) == ["R002"]

    def test_global_rng_flagged(self):
        found = findings_for("import random\nx = random.randint(1, 6)\n")
        assert ids_of(found) == ["R002"]

    def test_unseeded_random_flagged(self):
        found = findings_for("import random\nrng = random.Random()\n")
        assert ids_of(found) == ["R002"]

    def test_seeded_random_clean(self):
        assert findings_for("import random\nrng = random.Random(42)\n") == []
        assert (
            findings_for(
                "import random as _random\nrng = _random.Random(11)\n"
            )
            == []
        )

    def test_clock_module_exempt(self):
        source = "import time\nnow = time.time()\n"
        assert findings_for(source, path="src/repro/common/clock.py") == []

    def test_applies_to_tests(self):
        found = findings_for("import time\nt = time.time()\n", path=TST)
        assert ids_of(found) == ["R002"]


# ----------------------------------------------------------------------
# R003 — lsn-hygiene
# ----------------------------------------------------------------------
class TestR003:
    def test_address_vs_int_flagged(self):
        found = findings_for(
            """
            def check(addr, lsn):
                return addr < lsn
            """
        )
        assert ids_of(found) == ["R003"]

    def test_constructed_address_vs_literal_flagged(self):
        found = findings_for(
            "from repro.common.lsn import LogAddress\n"
            "ok = LogAddress(1, 2) > 10\n"
        )
        assert ids_of(found) == ["R003"]

    def test_null_sentinel_ordering_flagged(self):
        found = findings_for(
            "from repro.common.lsn import NULL_LOG_ADDRESS\n"
            "def f(addr):\n"
            "    return NULL_LOG_ADDRESS < addr\n"
        )
        assert ids_of(found) == ["R003"]
        assert "is_null_address" in found[0].message

    def test_cross_address_ordering_flagged_outside_wal(self):
        found = findings_for(
            "def f(addr_a, addr_b):\n    return addr_a < addr_b\n"
        )
        assert ids_of(found) == ["R003"]

    def test_address_ordering_allowed_in_wal(self):
        source = "def f(addr_a, addr_b):\n    return addr_a < addr_b\n"
        assert findings_for(source, path="src/repro/wal/merge.py") == []
        assert findings_for(source, path="src/repro/common/lsn.py") == []

    def test_lsn_vs_lsn_clean(self):
        assert (
            findings_for(
                "def f(record, page):\n"
                "    return record.lsn > page.page_lsn\n"
            )
            == []
        )

    def test_offset_vs_int_clean(self):
        # addr.offset is a same-log byte position, not an address value.
        assert (
            findings_for("def f(addr, end):\n    return addr.offset < end\n")
            == []
        )


# ----------------------------------------------------------------------
# R004 — lock-pairing
# ----------------------------------------------------------------------
class TestR004:
    def test_acquire_without_release_flagged(self):
        found = findings_for(
            """
            class Broken:
                def grab(self, txn, resource, mode):
                    return self.lock_manager.acquire(txn, resource, mode)
            """
        )
        assert ids_of(found) == ["R004"]

    def test_acquire_with_release_in_scope_clean(self):
        assert (
            findings_for(
                """
                class Fine:
                    def grab(self, txn, resource, mode):
                        return self.glm.acquire(txn, resource, mode)

                    def drop(self, txn):
                        self.glm.release_all(txn)
                """
            )
            == []
        )

    def test_module_level_pairing(self):
        found = findings_for(
            "def grab(glm, txn, r, m):\n    glm.acquire(txn, r, m)\n"
        )
        assert ids_of(found) == ["R004"]
        assert (
            findings_for(
                "def grab(glm, txn, r, m):\n    glm.acquire(txn, r, m)\n"
                "def drop(glm, txn, r):\n    glm.release(txn, r)\n"
            )
            == []
        )

    def test_non_lock_receiver_ignored(self):
        # Not lock-ish: e.g. a semaphore-free queue with an acquire name.
        assert (
            findings_for("def f(conn):\n    conn.acquire(1)\n") == []
        )

    def test_tests_exempt(self):
        source = "def test_grab(glm):\n    glm.acquire(1, 2, 3)\n"
        assert findings_for(source, path=TST) == []


# ----------------------------------------------------------------------
# R005 — error-discipline
# ----------------------------------------------------------------------
class TestR005:
    def test_bare_except_flagged(self):
        found = findings_for(
            """
            def f():
                try:
                    g()
                except:
                    pass
            """
        )
        assert ids_of(found) == ["R005"]

    def test_swallowed_exception_flagged(self):
        found = findings_for(
            """
            def f():
                try:
                    g()
                except Exception:
                    pass
            """
        )
        assert ids_of(found) == ["R005"]

    def test_broad_in_tuple_flagged(self):
        found = findings_for(
            """
            def f():
                try:
                    g()
                except (ValueError, Exception):
                    pass
            """
        )
        assert ids_of(found) == ["R005"]

    def test_reraise_clean(self):
        assert (
            findings_for(
                """
                def f(log):
                    try:
                        g()
                    except Exception:
                        log.note("boom")
                        raise
                """
            )
            == []
        )

    def test_specific_type_clean(self):
        assert (
            findings_for(
                """
                from repro.common.errors import ReproError

                def f():
                    try:
                        g()
                    except ReproError:
                        pass
                """
            )
            == []
        )


# ----------------------------------------------------------------------
# R006 — stats-discipline
# ----------------------------------------------------------------------
class TestR006:
    def test_inline_literal_flagged(self):
        found = findings_for(
            """
            def f(self):
                self.stats.incr("net.messages.sent")
            """
        )
        assert ids_of(found) == ["R006"]
        assert "net.messages.sent" in found[0].message

    def test_inline_observe_flagged(self):
        found = findings_for(
            "def f(metrics, v):\n    metrics.observe('lock.waits', v)\n"
        )
        assert ids_of(found) == ["R006"]

    def test_inline_incr_labeled_flagged(self):
        found = findings_for(
            "def f(metrics):\n"
            "    metrics.incr_labeled('trace.events', kind='x')\n"
        )
        assert ids_of(found) == ["R006"]

    def test_fstring_name_flagged(self):
        found = findings_for(
            "def f(self, kind):\n"
            "    self.stats.incr(f'net.messages.{kind}')\n"
        )
        assert ids_of(found) == ["R006"]
        assert "f-string" in found[0].message

    def test_constant_name_clean(self):
        assert (
            findings_for(
                """
                from repro.common.stats import MESSAGES_SENT

                def f(self):
                    self.stats.incr(MESSAGES_SENT)
                """
            )
            == []
        )

    def test_helper_built_name_clean(self):
        assert (
            findings_for(
                """
                from repro.common.stats import message_kind_counter

                def f(self, kind):
                    self.stats.incr(message_kind_counter(kind))
                """
            )
            == []
        )

    def test_non_registry_receiver_ignored(self):
        assert (
            findings_for("def f(q):\n    q.incr('depth')\n") == []
        )

    def test_stats_module_exempt(self):
        source = "def f(self):\n    self.stats.incr('x')\n"
        assert findings_for(source, path="src/repro/common/stats.py") == []

    def test_tests_exempt(self):
        source = "def test_f(stats):\n    stats.incr('x')\n"
        assert findings_for(source, path=TST) == []


# ----------------------------------------------------------------------
# R008 — seam-threading (cross-file via the ProjectIndex)
# ----------------------------------------------------------------------
class TestR008:
    def test_dropped_seam_flagged(self):
        found = findings_for(
            """
            class Child:
                def __init__(self, size, seams=None):
                    self.stats, self.tracer, self.injector = seams

            class Parent:
                def __init__(self, seams=None):
                    self.child = Child(4)
            """
        )
        assert ids_of(found) == ["R008"]
        assert "seams" in found[0].message

    def test_seam_passed_by_keyword_clean(self):
        assert (
            findings_for(
                """
                class Child:
                    def __init__(self, size, seams=None):
                        self.stats, self.tracer, self.injector = seams

                class Parent:
                    def __init__(self, seams=None):
                        self.child = Child(4, seams=seams)
                """
            )
            == []
        )

    def test_explicit_null_is_a_visible_decision(self):
        assert (
            findings_for(
                """
                class Child:
                    def __init__(self, seams=None):
                        self.stats, self.tracer, self.injector = seams

                class Parent:
                    def __init__(self, seams=None):
                        self.child = Child(seams=Seams.of())
                """
            )
            == []
        )

    def test_kwargs_splat_counts_as_passed(self):
        assert (
            findings_for(
                """
                class Child:
                    def __init__(self, seams=None):
                        self.stats, self.tracer, self.injector = seams

                class Parent:
                    def __init__(self, seams=None, **kw):
                        self.child = Child(**kw)
                """
            )
            == []
        )

    def test_scope_without_seam_clean(self):
        # A scope that never held the seams cannot drop them.
        assert (
            findings_for(
                """
                class Child:
                    def __init__(self, seams=None):
                        self.stats, self.tracer, self.injector = seams

                def make():
                    return Child()
                """
            )
            == []
        )

    def test_method_inherits_class_seam(self):
        found = findings_for(
            """
            class Child:
                def __init__(self, seams=None):
                    self.stats, self.tracer, self.injector = seams

            class Parent:
                def __init__(self, seams=None):
                    self.seams = seams

                def spawn(self):
                    return Child()
            """
        )
        assert ids_of(found) == ["R008"]

    def test_tests_exempt(self):
        source = (
            "class Child:\n"
            "    def __init__(self, seams=None):\n"
            "        self.seams = seams\n"
            "def test_make(seams):\n"
            "    return Child()\n"
        )
        assert findings_for(source, path=TST) == []


# ----------------------------------------------------------------------
# R009 — lock-release-paths (flow-sensitive, via the CFG lockset)
# ----------------------------------------------------------------------
class TestR009:
    def test_early_return_leak_flagged(self):
        found = findings_for(
            """
            class C:
                def f(self, txn):
                    self.glm.acquire(txn, 1, 2)
                    if txn:
                        return None
                    self.glm.release(txn, 1)
                    return txn
            """
        )
        assert ids_of(found) == ["R009"]
        assert "normal return path" in found[0].message

    def test_raise_path_leak_flagged(self):
        found = findings_for(
            """
            class C:
                def f(self, txn):
                    self.glm.acquire(txn, 1, 2)
                    self._work(txn)
                    self.glm.release(txn, 1)
            """
        )
        assert ids_of(found) == ["R009"]
        assert "escaping-exception path" in found[0].message

    def test_try_finally_clean(self):
        assert (
            findings_for(
                """
                class C:
                    def f(self, txn):
                        self.glm.acquire(txn, 1, 2)
                        try:
                            return self._work(txn)
                        finally:
                            self.glm.release(txn, 1)
                """
            )
            == []
        )

    def test_straight_line_pairing_clean(self):
        # A trailing release must not manufacture a phantom raise path
        # out of the lock protocol's own calls.
        assert (
            findings_for(
                """
                class C:
                    def f(self, txn):
                        self.glm.acquire(txn, 1, 2)
                        self.glm.release(txn, 1)
                """
            )
            == []
        )

    def test_release_all_clean(self):
        assert (
            findings_for(
                """
                class C:
                    def f(self, txn):
                        self.glm.acquire(txn, 1, 2)
                        self.glm.release_all(txn)
                """
            )
            == []
        )

    def test_acquire_without_any_release_is_r004_territory(self):
        # Structural omission (no release anywhere) belongs to R004;
        # R009 only judges path coverage when both halves exist.
        found = findings_for(
            """
            class C:
                def f(self, txn):
                    self.glm.acquire(txn, 1, 2)
            """,
            rule="R009",
        )
        assert found == []

    def test_tests_exempt(self):
        source = (
            "def test_leak(glm, txn):\n"
            "    glm.acquire(txn, 1, 2)\n"
            "    if txn:\n"
            "        return\n"
            "    glm.release(txn, 1)\n"
        )
        assert findings_for(source, path=TST) == []


# ----------------------------------------------------------------------
# R011 — flow-sensitive WAL ordering (one unlogged branch is enough)
# ----------------------------------------------------------------------
class TestR011:
    def test_unlogged_fast_path_flagged(self):
        found = findings_for(
            """
            class C:
                def f(self, page, rec, fast):
                    if fast:
                        page.update_record(0, rec)
                        return
                    page.update_record(0, rec)
                    self.log.append(rec, page_lsn=page.page_lsn)
            """,
            rule="R011",
        )
        assert ids_of(found) == ["R011"]
        assert found[0].line == 5  # the fast-path mutation

    def test_all_paths_logged_clean(self):
        assert (
            findings_for(
                """
                class C:
                    def f(self, page, rec, fast):
                        page.update_record(0, rec)
                        self.log.append(rec, page_lsn=page.page_lsn)
                """,
                rule="R011",
            )
            == []
        )

    def test_later_log_forgives_earlier_mutation(self):
        # Mutate-then-log is the WAL protocol itself; the log records
        # the mutation before any path can force the page.
        assert (
            findings_for(
                """
                class C:
                    def f(self, page, rec, first, second):
                        page.update_record(0, first)
                        page.update_record(1, second)
                        self.log.append(first, page_lsn=page.page_lsn)
                """,
                rule="R011",
            )
            == []
        )

    def test_function_without_logging_is_r001_territory(self):
        # No logging call at all: the structural rule (R001) owns it.
        found = findings_for(
            """
            class C:
                def f(self, page, rec):
                    page.update_record(0, rec)
            """,
            rule="R011",
        )
        assert found == []

    def test_raise_path_not_flagged(self):
        # An exception between mutate and log aborts the transaction;
        # recovery undoes the mutation, so only the normal exit counts.
        assert (
            findings_for(
                """
                class C:
                    def f(self, page, rec):
                        page.update_record(0, rec)
                        self._validate(rec)
                        self.log.append(rec, page_lsn=page.page_lsn)
                """,
                rule="R011",
            )
            == []
        )


# ----------------------------------------------------------------------
# R012 — determinism hygiene in trace-emitting functions
# ----------------------------------------------------------------------
class TestR012:
    def test_set_iteration_flagged(self):
        found = findings_for(
            """
            class C:
                def f(self, pages):
                    for p in set(pages):
                        self.tracer.emit("touch", page=p)
            """
        )
        assert ids_of(found) == ["R012"]

    def test_sorted_iteration_clean(self):
        assert (
            findings_for(
                """
                class C:
                    def f(self, pages):
                        for p in sorted(set(pages)):
                            self.tracer.emit("touch", page=p)
                """
            )
            == []
        )

    def test_set_via_reaching_definition_flagged(self):
        found = findings_for(
            """
            class C:
                def f(self, pages):
                    pending = set(pages)
                    for p in pending:
                        self.tracer.emit("touch", page=p)
            """
        )
        assert ids_of(found) == ["R012"]

    def test_id_call_flagged(self):
        found = findings_for(
            """
            class C:
                def f(self, page):
                    self.tracer.emit("touch", key=id(page))
            """
        )
        assert ids_of(found) == ["R012"]

    def test_wall_seconds_flagged(self):
        found = findings_for(
            """
            class C:
                def f(self, page):
                    t = wall_seconds()
                    self.tracer.emit("touch", at=t)
            """
        )
        assert ids_of(found) == ["R012"]

    def test_non_emitting_function_clean(self):
        # Iteration order only matters where it can reach the trace.
        assert (
            findings_for(
                """
                class C:
                    def f(self, pages):
                        total = 0
                        for p in set(pages):
                            total += p
                        return total
                """
            )
            == []
        )

    def test_applies_to_tests(self):
        # Unlike the structural rules, R012 covers tests too: a test
        # helper that emits in arbitrary order is a flaky trace test.
        source = (
            "def test_emit(tracer, pages):\n"
            "    for p in set(pages):\n"
            "        tracer.emit('touch', page=p)\n"
        )
        assert ids_of(findings_for(source, path=TST)) == ["R012"]


# ----------------------------------------------------------------------
# R013 — span discipline (with usage; span_end on all exit paths)
# ----------------------------------------------------------------------
class TestR013:
    def test_bare_span_call_flagged(self):
        found = findings_for(
            """
            class C:
                def f(self, txn):
                    self.tracer.span("commit", txn=txn)
                    return txn
            """
        )
        assert ids_of(found) == ["R013"]

    def test_with_span_clean(self):
        assert (
            findings_for(
                """
                class C:
                    def f(self, txn):
                        with self.tracer.span("commit", txn=txn):
                            return self.apply(txn)
                """
            )
            == []
        )

    def test_returned_span_clean(self):
        # A factory handing the handle to its caller is not the leak.
        assert (
            findings_for(
                """
                class C:
                    def open_span(self, txn):
                        return self.tracer.span("commit", txn=txn)
                """
            )
            == []
        )

    def test_manual_begin_without_end_flagged(self):
        found = findings_for(
            """
            class C:
                def f(self, txn):
                    handle = self.tracer.span_begin("commit", txn=txn)
                    return self.apply(txn)
            """
        )
        assert ids_of(found) == ["R013"]

    def test_manual_begin_early_return_flagged(self):
        found = findings_for(
            """
            class C:
                def f(self, txn):
                    handle = self.tracer.span_begin("commit", txn=txn)
                    if txn is None:
                        return None
                    self.tracer.span_end(handle)
                    return txn
            """
        )
        assert ids_of(found) == ["R013"]

    def test_manual_begin_raise_path_flagged(self):
        # apply() may raise between begin and end; no try/finally.
        found = findings_for(
            """
            class C:
                def f(self, txn):
                    handle = self.tracer.span_begin("commit", txn=txn)
                    result = self.apply(txn)
                    self.tracer.span_end(handle)
                    return result
            """
        )
        assert ids_of(found) == ["R013"]
        assert "escaping-exception" in found[0].message

    def test_manual_begin_try_finally_clean(self):
        assert (
            findings_for(
                """
                class C:
                    def f(self, txn):
                        handle = self.tracer.span_begin("commit", txn=txn)
                        try:
                            return self.apply(txn)
                        finally:
                            self.tracer.span_end(handle)
                """
            )
            == []
        )

    def test_non_tracer_receiver_ignored(self):
        # .span() on something that is not a tracer is out of scope.
        assert (
            findings_for(
                """
                class C:
                    def f(self, layout):
                        return self.grid.span(3)
                """
            )
            == []
        )


# ----------------------------------------------------------------------
# suppression comments
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_trailing_disable(self):
        assert (
            findings_for(
                "def f(page, lsn):\n"
                "    page.page_lsn = lsn  # reprolint: disable=R001 -- why\n"
            )
            == []
        )

    def test_standalone_disable_applies_to_next_line(self):
        assert (
            findings_for(
                "def f(page, lsn):\n"
                "    # reprolint: disable=R001 -- justified\n"
                "    page.page_lsn = lsn\n"
            )
            == []
        )

    def test_disable_wrong_rule_keeps_finding(self):
        found = findings_for(
            "def f(page, lsn):\n"
            "    page.page_lsn = lsn  # reprolint: disable=R005\n"
        )
        assert ids_of(found) == ["R001"]

    def test_disable_all(self):
        assert (
            findings_for(
                "def f(page, lsn):\n"
                "    page.page_lsn = lsn  # reprolint: disable=all\n"
            )
            == []
        )

    def test_file_wide_disable(self):
        assert (
            findings_for(
                "# reprolint: disable-file=R001\n"
                "def f(page, lsn):\n"
                "    page.page_lsn = lsn\n"
                "def g(page, lsn):\n"
                "    page.page_lsn = lsn\n"
            )
            == []
        )

    def test_multi_rule_pragma(self):
        supp = parse_suppressions("x = 1  # reprolint: disable=R001,R002\n")
        assert supp.is_suppressed("R001", 1)
        assert supp.is_suppressed("R002", 1)
        assert not supp.is_suppressed("R003", 1)


# ----------------------------------------------------------------------
# engine / CLI
# ----------------------------------------------------------------------
class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        found = lint_source("def broken(:\n", path=SRC)
        assert ids_of(found) == ["E000"]

    def test_finding_render_format(self):
        found = findings_for("page.page_lsn = 1\n")
        rendered = found[0].render()
        assert rendered.startswith(f"{SRC}:1:")
        assert "R001" in rendered

    def test_rule_catalog_complete(self):
        assert [r.id for r in ALL_RULES] == [
            "R001",
            "R002",
            "R003",
            "R004",
            "R005",
            "R006",
            "R007",
            "R008",
            "R009",
            "R011",
            "R012",
            "R013",
        ]
        for rule in ALL_RULES:
            assert rule.description

    def test_cli_clean_file_exits_zero(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        from repro.lint.__main__ import main

        assert main([str(target)]) == 0

    def test_cli_violation_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "module.py"
        target.write_text("def f(page):\n    page.page_lsn = 1\n")
        from repro.lint.__main__ import main

        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out
        assert "module.py:2:" in out

    def test_cli_select(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text("def f(page):\n    page.page_lsn = 1\n")
        from repro.lint.__main__ import main

        assert main(["--select", "R002", str(target)]) == 0
        assert main(["--select", "R001", str(target)]) == 1

    def test_cli_list_rules(self, capsys):
        from repro.lint.__main__ import main

        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_cli_unknown_rule_is_usage_error(self, capsys):
        import pytest

        from repro.lint.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["--select", "R999", "src"])
        assert exc.value.code == 2
        assert "R999" in capsys.readouterr().err

    def test_cli_missing_path_is_usage_error(self, capsys):
        from repro.lint.__main__ import main

        assert main(["path/does/not/exist"]) == 2
        assert "no such file" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the analysis engine: CFG construction
# ----------------------------------------------------------------------
def _cfg_for(source, **kwargs):
    tree = ast.parse(textwrap.dedent(source))
    func = next(
        n for n in ast.walk(tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return func, build_cfg(func, **kwargs)


def _block_with(cfg, node_type):
    """The first block whose payload includes a statement of node_type."""
    for block in cfg.blocks:
        for payload in block.stmts:
            if isinstance(payload, node_type):
                return block
    raise AssertionError(f"no block holds a {node_type.__name__}")


class TestCfg:
    def test_straight_line_has_no_raise_path(self):
        _, cfg = _cfg_for(
            """
            def f():
                x = 1
                return x
            """
        )
        reached = reachable_blocks(cfg)
        assert cfg.exit_id in reached
        assert cfg.raise_id not in reached

    def test_call_adds_exception_edge(self):
        _, cfg = _cfg_for("def f():\n    g()\n")
        reached = reachable_blocks(cfg)
        assert cfg.exit_id in reached
        assert cfg.raise_id in reached

    def test_call_may_raise_predicate_narrows_edges(self):
        _, cfg = _cfg_for(
            "def f():\n    g()\n",
            call_may_raise=lambda call: False,
        )
        assert cfg.raise_id not in reachable_blocks(cfg)

    def test_branch_paths_both_reach_exit(self):
        _, cfg = _cfg_for(
            """
            def f(p):
                if p:
                    return 1
                return 2
            """
        )
        returns = [
            b for b in cfg.blocks
            if any(isinstance(s, ast.Return) for s in b.stmts)
        ]
        assert len(returns) == 2
        for block in returns:
            assert cfg.exit_id in block.succs

    def test_loop_header_has_back_edge(self):
        _, cfg = _cfg_for(
            """
            def f(n):
                while n:
                    n -= 1
                return n
            """
        )
        header = _block_with(cfg, ast.While)
        preds = cfg.preds()[header.id]
        assert len(preds) >= 2  # entry side plus the back edge

    def test_finally_suite_duplicated_per_path(self):
        # One copy runs on normal completion, one on the exception
        # path — the same finally statement appears in two blocks.
        func, cfg = _cfg_for(
            """
            def f():
                try:
                    g()
                finally:
                    x = 1
            """
        )
        final_stmt = next(
            n for n in ast.walk(func) if isinstance(n, ast.Assign)
        )
        copies = [b for b in cfg.blocks if final_stmt in b.stmts]
        assert len(copies) >= 2

    def test_with_produces_enter_and_both_exits(self):
        _, cfg = _cfg_for(
            """
            def f(lock):
                with lock:
                    g()
            """
        )
        enters = [
            b for b in cfg.blocks
            if any(isinstance(s, WithEnter) for s in b.stmts)
        ]
        exits = [
            b for b in cfg.blocks
            if any(isinstance(s, WithExit) for s in b.stmts)
        ]
        assert len(enters) == 1
        assert len(exits) == 2  # normal __exit__ and exceptional __exit__

    def test_exception_edge_carries_in_state(self):
        # The raising statement's own effects must not be visible on
        # its exception edge: the block reaches raise_id via exc_succs,
        # never via succs.
        _, cfg = _cfg_for("def f(self):\n    self.g()\n")
        call_block = _block_with(cfg, ast.Expr)
        assert cfg.raise_id in call_block.exc_succs
        assert cfg.raise_id not in call_block.succs


# ----------------------------------------------------------------------
# the analysis engine: dataflow
# ----------------------------------------------------------------------
class TestDataflow:
    def test_reaching_definitions_join_branches(self):
        func, cfg = _cfg_for(
            """
            def f(flag):
                x = set()
                if flag:
                    x = []
                return x
            """
        )
        defs = ReachingDefinitions(cfg, func)
        return_block = _block_with(cfg, ast.Return)
        values = defs.values_at(return_block.id, "x")
        assert len(values) == 2  # both definitions reach the return
        kinds = {type(v) for v in values}
        assert kinds == {ast.Call, ast.List}

    def test_parameters_reach_with_opaque_value(self):
        func, cfg = _cfg_for("def f(flag):\n    return flag\n")
        defs = ReachingDefinitions(cfg, func)
        return_block = _block_with(cfg, ast.Return)
        assert defs.values_at(return_block.id, "flag") == [None]

    def test_redefinition_kills_previous(self):
        func, cfg = _cfg_for(
            """
            def f():
                x = set()
                x = sorted(x)
                return x
            """
        )
        defs = ReachingDefinitions(cfg, func)
        return_block = _block_with(cfg, ast.Return)
        values = defs.values_at(return_block.id, "x")
        assert len(values) == 1  # the sorted() def killed the set() def

    def test_may_lockset_sees_leaking_path(self):
        func, cfg = _cfg_for(
            """
            def f(self, txn):
                self.glm.acquire(txn, 1, 2)
                if txn:
                    return None
                self.glm.release(txn, 1)
                return txn
            """,
            call_may_raise=lambda call: False,
        )
        lockset = LocksetAnalysis(cfg, lambda name: name == "glm")
        held = lockset.held_at_exit()
        assert held == {"self.glm": [cfg.exit_id]}

    def test_balanced_protocol_holds_nothing_at_exit(self):
        func, cfg = _cfg_for(
            """
            def f(self, txn):
                self.glm.acquire(txn, 1, 2)
                self.glm.release(txn, 1)
            """,
            call_may_raise=lambda call: False,
        )
        lockset = LocksetAnalysis(cfg, lambda name: name == "glm")
        assert lockset.held_at_exit() == {}


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
class TestSarif:
    def _one_finding(self):
        return findings_for("def f(page):\n    page.page_lsn = 1\n")

    def test_log_shape(self):
        findings = self._one_finding()
        log = findings_to_sarif(findings, ALL_RULES)
        assert log["version"] == SARIF_VERSION == "2.1.0"
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == [
            r.id for r in ALL_RULES
        ]

    def test_result_points_back_into_catalog(self):
        findings = self._one_finding()
        log = findings_to_sarif(findings, ALL_RULES)
        run = log["runs"][0]
        assert len(run["results"]) == 1
        result = run["results"][0]
        assert result["ruleId"] == "R001"
        catalog = run["tool"]["driver"]["rules"]
        assert catalog[result["ruleIndex"]]["id"] == result["ruleId"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == findings[0].line
        assert region["startColumn"] == findings[0].col

    def test_engine_pseudo_rule_appended(self):
        findings = lint_source("def broken(:\n", path=SRC)
        log = findings_to_sarif(findings, ALL_RULES)
        run = log["runs"][0]
        catalog = run["tool"]["driver"]["rules"]
        assert len(catalog) == len(ALL_RULES) + 1
        assert catalog[-1]["id"] == "E000"
        assert run["results"][0]["ruleIndex"] == len(ALL_RULES)

    def test_render_is_deterministic_json(self):
        findings = self._one_finding()
        first = render_sarif(findings, ALL_RULES)
        second = render_sarif(findings, ALL_RULES)
        assert first == second
        assert json.loads(first)["version"] == "2.1.0"

    def test_cli_sarif_file(self, tmp_path):
        from repro.lint.__main__ import main

        target = tmp_path / "module.py"
        target.write_text("def f(page):\n    page.page_lsn = 1\n")
        out = tmp_path / "log.sarif"
        assert main(
            ["--no-cache", "--sarif-file", str(out), "-q", str(target)]
        ) == 1
        log = json.loads(out.read_text())
        assert log["version"] == "2.1.0"
        assert log["runs"][0]["results"][0]["ruleId"] == "R001"


# ----------------------------------------------------------------------
# the content-hash result cache
# ----------------------------------------------------------------------
class TestCache:
    def test_key_is_stable_and_content_sensitive(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text("x = 1\n")
        first = result_cache.compute_key([str(target)], ALL_RULES)
        again = result_cache.compute_key([str(target)], ALL_RULES)
        assert first == again
        target.write_text("x = 2\n")
        assert result_cache.compute_key([str(target)], ALL_RULES) != first

    def test_key_depends_on_rule_selection(self, tmp_path):
        target = tmp_path / "module.py"
        target.write_text("x = 1\n")
        all_key = result_cache.compute_key([str(target)], ALL_RULES)
        one_key = result_cache.compute_key([str(target)], ALL_RULES[:1])
        assert all_key != one_key

    def test_store_load_roundtrip(self, tmp_path):
        cache_file = str(tmp_path / "cache.json")
        findings = [
            Finding(path="a.py", line=3, col=5, rule_id="R001",
                    message="unlogged mutation"),
        ]
        result_cache.store(cache_file, "key1", findings)
        assert result_cache.load(cache_file, "key1") == findings
        assert result_cache.load(cache_file, "other") is None

    def test_load_tolerates_corruption(self, tmp_path):
        cache_file = tmp_path / "cache.json"
        cache_file.write_text("{not json")
        assert result_cache.load(str(cache_file), "key") is None
        cache_file.write_text('{"format": 999, "entries": {}}')
        assert result_cache.load(str(cache_file), "key") is None

    def test_mru_pruning(self, tmp_path):
        cache_file = str(tmp_path / "cache.json")
        for i in range(result_cache.MAX_ENTRIES + 4):
            result_cache.store(cache_file, f"key{i}", [])
        assert result_cache.load(cache_file, "key0") is None
        newest = f"key{result_cache.MAX_ENTRIES + 3}"
        assert result_cache.load(cache_file, newest) == []

    def test_cli_second_run_is_cached(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        target = tmp_path / "module.py"
        target.write_text("def f(page):\n    page.page_lsn = 1\n")
        cache_file = str(tmp_path / "cache.json")
        assert main(["--cache-file", cache_file, str(target)]) == 1
        assert "cached" not in capsys.readouterr().err
        # Same tree, same rules: the replay must re-render and re-exit
        # identically, from the cache.
        assert main(["--cache-file", cache_file, str(target)]) == 1
        captured = capsys.readouterr()
        assert "cached" in captured.err
        assert "R001" in captured.out

    def test_cli_no_cache_bypasses(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        target = tmp_path / "module.py"
        target.write_text("x = 1\n")
        cache_file = str(tmp_path / "cache.json")
        assert main(["--cache-file", cache_file, str(target)]) == 0
        capsys.readouterr()
        args = ["--no-cache", "--cache-file", cache_file, str(target)]
        assert main(args) == 0
        assert "cached" not in capsys.readouterr().err

    def test_edit_invalidates(self, tmp_path, capsys):
        from repro.lint.__main__ import main

        target = tmp_path / "module.py"
        target.write_text("x = 1\n")
        cache_file = str(tmp_path / "cache.json")
        assert main(["--cache-file", cache_file, str(target)]) == 0
        target.write_text("def f(page):\n    page.page_lsn = 1\n")
        capsys.readouterr()
        assert main(["--cache-file", cache_file, str(target)]) == 1
        assert "cached" not in capsys.readouterr().err


# ----------------------------------------------------------------------
# the tier-1 gate: the real tree stays clean, and stays *checkable*
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def repo_lint_run():
    """One uncached CLI run over the whole tree, as SARIF, shared by
    the verdicts on its exit code and on its results."""
    return subprocess.run(
        [
            sys.executable, "-m", "repro.lint", "--no-cache", "--sarif",
            "src", "tests", "benchmarks", "examples",
        ],
        cwd=str(REPO),
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
    )


class TestRealTree:
    def test_whole_tree_is_clean(self, repo_lint_run):
        results = json.loads(repo_lint_run.stdout)["runs"][0]["results"]
        rendered = []
        for result in results:
            where = result["locations"][0]["physicalLocation"]
            rendered.append(
                f"{where['artifactLocation']['uri']}:"
                f"{where['region']['startLine']}: {result['ruleId']} "
                f"{result['message']['text']}")
        assert results == [], "\n".join(rendered)

    def test_each_rule_still_fires_on_seeded_violation(self):
        """Guard against rules rotting into no-ops: every rule must
        still produce a finding on its canonical violation."""
        seeded = {
            "R001": "def f(page, lsn):\n    page.page_lsn = lsn\n",
            "R002": "import time\nt = time.time()\n",
            "R003": "def f(addr, lsn):\n    return addr < lsn\n",
            "R004": (
                "class C:\n"
                "    def f(self):\n"
                "        self.glm.acquire(1, 2, 3)\n"
            ),
            "R005": "try:\n    pass\nexcept Exception:\n    pass\n",
            "R006": (
                "class C:\n"
                "    def f(self):\n"
                "        self.stats.incr('made.up.counter')\n"
            ),
            "R007": (
                "def f():\n"
                "    raise FaultInjectedError('disk.write', 'crash')\n"
            ),
            "R008": (
                "class Child:\n"
                "    def __init__(self, size, seams=None):\n"
                "        self.seams = seams\n"
                "class Parent:\n"
                "    def __init__(self, seams=None):\n"
                "        self.child = Child(4)\n"
            ),
            "R009": (
                "class C:\n"
                "    def f(self, txn):\n"
                "        self.glm.acquire(txn, 1, 2)\n"
                "        if txn:\n"
                "            return None\n"
                "        self.glm.release(txn, 1)\n"
                "        return txn\n"
            ),
            "R011": (
                "class C:\n"
                "    def f(self, page, rec, fast):\n"
                "        if fast:\n"
                "            page.update_record(0, rec)\n"
                "            return\n"
                "        page.update_record(0, rec)\n"
                "        self.log.append(rec, page_lsn=page.page_lsn)\n"
            ),
            "R012": (
                "class C:\n"
                "    def f(self, pages):\n"
                "        for p in set(pages):\n"
                "            self.tracer.emit('touch', page=p)\n"
            ),
            "R013": (
                "class C:\n"
                "    def f(self, txn):\n"
                "        self.tracer.span('commit', txn=txn)\n"
            ),
        }
        assert set(seeded) == {r.id for r in ALL_RULES}
        for rule_id, source in seeded.items():
            found = findings_for(source, rule=rule_id)
            assert ids_of(found) == [rule_id], (rule_id, found)

    def test_cli_end_to_end_on_repo(self, repo_lint_run):
        assert repo_lint_run.returncode == 0, (
            repo_lint_run.stdout + repo_lint_run.stderr)


# ----------------------------------------------------------------------
# optional externals: mypy strict core and ruff, when installed
# ----------------------------------------------------------------------
def _have(module):
    try:
        __import__(module)
        return True
    except ImportError:
        return False


@pytest.mark.skipif(not _have("mypy"), reason="mypy not installed")
def test_mypy_strict_core_passes():
    result = subprocess.run(
        [sys.executable, "-m", "mypy"],
        cwd=str(REPO),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout


@pytest.mark.skipif(not _have("ruff"), reason="ruff not installed")
def test_ruff_passes():
    result = subprocess.run(
        [sys.executable, "-m", "ruff", "check", "src", "tests"],
        cwd=str(REPO),
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout
