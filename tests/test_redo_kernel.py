"""Structural guard: one redo kernel, one restart pipeline, no knob.

The paper's redo rule — apply iff ``record.LSN > page_LSN`` (Section
3.2.1) — lives in :func:`repro.recovery.redo.redo_chain` and nowhere
else, so the sabotage seam covers every recovery flavour.  Likewise
the rest of restart has one home each: the Lamport clock re-seed, the
transaction-table fold, the undo walk and the CLR writer.  Source
walks, plus one traced restart that pins the specified replay order.
"""

import ast
from pathlib import Path

from repro.faults import scenarios
from repro.faults.injector import NULL_INJECTOR
from repro.obs import events as ev
from repro.obs.invariants import check_trace

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The trace checker re-derives the rule from events; Commit_LSN
#: compares a page_LSN with a transaction-begin LSN, not a record's.
ALLOWED_ELSEWHERE = {"obs/invariants.py", "recovery/commit_lsn.py"}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        yield path.relative_to(SRC).as_posix(), source, ast.parse(source)


def _terminal(node):
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def test_one_page_lsn_comparison():
    sites = []
    for name, _, tree in _modules():
        if name in ALLOWED_ELSEWHERE:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            record_lsn = any(isinstance(operand, ast.Attribute)
                             and operand.attr == "lsn"
                             for operand in operands)
            if record_lsn and "page_lsn" in map(_terminal, operands):
                sites.append(f"{name}:{node.lineno}")
    assert len(sites) == 1 and sites[0].startswith("recovery/redo.py:"), sites


def _functions(predicate, skip=()):
    """``module:function`` of every function whose own body (nested
    functions included) satisfies ``predicate(nodes)``."""
    found = []
    for name, _, tree in _modules():
        if name.startswith(skip):
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if predicate(list(ast.walk(node))):
                    found.append(f"{name}:{node.name}")
    return found


def _calls(nodes, callee):
    return sum(isinstance(node, ast.Call) and _terminal(node.func) == callee
               for node in nodes)


def test_one_undo_walk_follows_undo_next():
    """Outside the record format (``wal/``), only the undo walk reads a
    CLR's ``undo_next_lsn``."""
    readers = _functions(
        lambda nodes: any(isinstance(node, ast.Attribute)
                          and node.attr == "undo_next_lsn"
                          and isinstance(node.ctx, ast.Load)
                          for node in nodes),
        skip=("wal/",))
    assert readers == ["recovery/aries.py:_undo_pass"], readers


def test_one_transaction_table_fold():
    def folds(nodes):
        compared = {operand.attr for node in nodes
                    if isinstance(node, ast.Compare)
                    for operand in (node.left, *node.comparators)
                    if isinstance(operand, ast.Attribute)
                    and _terminal(operand.value) == "RecordKind"}
        return {"COMMIT", "END"} <= compared

    assert _functions(folds) == ["recovery/aries.py:_fold_txn"]


def test_one_clr_writer():
    sites = _functions(lambda nodes: _calls(nodes, "make_clr") > 0,
                       skip=("wal/records.py",))
    assert sites == ["recovery/apply.py:compensate"], sites


def test_one_clock_reseed_in_recovery():
    sites = [site for site in _functions(
        lambda nodes: _calls(nodes, "recover_local_max") > 0)
        if site.startswith("recovery/")]
    assert sites == ["recovery/aries.py:_prologue"], sites


def test_no_threads_and_no_parallelism_knob():
    offenders = []
    for name, source, tree in _modules():
        if "redo_parallelism" in source:
            offenders.append(f"{name}: redo_parallelism")
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            offenders += [f"{name}: {module}" for module in imported
                          if module.split(".")[0] in ("concurrent",
                                                      "threading")]
    assert offenders == []


def test_redo_events_grouped_by_page_then_log_order():
    """Eager restart replays chain by chain in ascending page id, log
    order within a page — per-page LSNs increase, so that is the
    sorted order of ``(page, lsn)``."""
    sd, tracer = scenarios.build_sd(NULL_INJECTOR, seed=3)
    scenarios.run_sd_workload(sd, 3)
    sd.crash_complex()
    sd.restart_complex()
    assert check_trace(tracer.events()) == []
    for system_id in sd.instances:
        replayed = [(event.fields["page"], event.fields["lsn"])
                    for event in tracer.events()
                    if event.system == system_id
                    and event.kind in (ev.RECOVERY_REDO, ev.RECOVERY_SKIP)]
        assert replayed == sorted(replayed)
        pages = [page for page, _ in replayed]
        assert len(set(pages)) > 1 and len(pages) > len(set(pages))
