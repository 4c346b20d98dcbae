"""R001 — WAL discipline for page_LSN updates; R011 — per-path order.

The paper's WAL protocol requires that a page's ``page_lsn`` advance
only as the result of a logged update: normal processing stamps the LSN
the log manager just assigned (Section 3.2.1), redo stamps the record's
LSN, undo stamps the CLR's LSN.  Any other write to ``page_lsn``
bypasses the protocol and silently breaks the page_LSN test that both
restart and media recovery rely on.

Two checks:

* **R001a** — assignment to a ``page_lsn`` attribute anywhere outside
  the two modules that own the protocol (``storage/page.py`` defines
  the setter; ``recovery/apply.py`` holds the stamping helpers).
* **R001b** — a function that mutates page contents (``insert_record``,
  ``update_record``, ``delete_record``, ``insert_record_at``,
  ``write_payload``) without any sign of logging in the same function:
  no ``*.append`` on a log-ish receiver, no ``apply_*`` helper, no call
  to a ``*log*``-named wrapper.  Page mutations that are never logged
  cannot be redone and violate WAL.

**R011** is the flow-sensitive refinement: in a function that *does*
log (so R001b stays quiet), every CFG path from a page mutation to the
function's normal exit must still pass a logging call — an early
``return`` or a branch that skips the append leaves that path's
mutation unlogged even though the function "logs somewhere".  The
escaping-exception exit is deliberately not checked: a raise between
mutation and append is the abort path, and recovery undoes it.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.lint.cfg import build_cfg, block_calls
from repro.lint.dataflow import solve_forward
from repro.lint.engine import (
    Finding,
    LintContext,
    Rule,
    function_calls,
    terminal_name,
    walk_functions,
)

#: Modules allowed to assign ``page_lsn`` directly.
_ALLOWED_ASSIGN = ("storage/page.py", "recovery/apply.py")

#: Module prefixes exempt from the mutation-without-logging check:
#: the storage layer is *below* WAL (space-map bit flips are logged by
#: their callers), and apply.py is the redo/undo executor itself.
_ALLOWED_MUTATE_PREFIXES = ("repro/storage/",)

_MUTATORS = frozenset(
    {
        "insert_record",
        "insert_record_at",
        "update_record",
        "delete_record",
        "write_payload",
    }
)

_APPLY_HELPERS = frozenset(
    {"apply_op", "apply_redo", "apply_undo", "apply_payload", "stamp_page_lsn"}
)

_APPENDS = frozenset({"append", "append_raw", "append_parsed"})


def _receiver_name(call: ast.Call) -> Optional[str]:
    """Terminal identifier of the object a method is called on."""
    if isinstance(call.func, ast.Attribute):
        return terminal_name(call.func.value)
    return None


def _is_logging_call(call: ast.Call) -> bool:
    name = terminal_name(call.func)
    if name is None:
        return False
    if name in _APPLY_HELPERS:
        return True
    if name in _APPENDS:
        receiver = _receiver_name(call)
        return receiver is not None and "log" in receiver.lower()
    # Wrappers like ``self._log(...)`` / ``self._log_applied_update(...)``.
    return "log" in name.lower()


class WalDisciplineRule(Rule):
    id = "R001"
    name = "wal-discipline"
    description = (
        "page_lsn must be stamped via storage/page.py or "
        "recovery/apply.py, and page mutations must be logged"
    )
    applies_to_tests = False  # tests build pages directly by design

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        yield from self._check_assignments(ctx)
        yield from self._check_unlogged_mutations(ctx)

    # -- R001a ---------------------------------------------------------
    def _check_assignments(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.in_module(*_ALLOWED_ASSIGN):
            return
        for node in ast.walk(ctx.tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute) and target.attr == "page_lsn":
                    yield ctx.finding(
                        self.id,
                        node,
                        "direct page_lsn write outside the WAL path; "
                        "use recovery.apply.stamp_page_lsn / apply_redo "
                        "/ apply_payload",
                    )

    # -- R001b ---------------------------------------------------------
    def _check_unlogged_mutations(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.in_module(*_ALLOWED_ASSIGN):
            return
        if any(ctx.module_path.startswith(p) for p in _ALLOWED_MUTATE_PREFIXES):
            return
        for func in walk_functions(ctx.tree):
            mutations = []
            logged = False
            for call in function_calls(func):
                name = terminal_name(call.func)
                if (
                    isinstance(call.func, ast.Attribute)
                    and name in _MUTATORS
                ):
                    mutations.append(call)
                if _is_logging_call(call):
                    logged = True
            if mutations and not logged:
                for call in mutations:
                    yield ctx.finding(
                        self.id,
                        call,
                        f"page mutation '{terminal_name(call.func)}' in "
                        f"'{getattr(func, 'name', '?')}' with no log append "
                        "in the same function (unlogged update cannot be "
                        "redone)",
                    )

# ----------------------------------------------------------------------
# R011 — per-path WAL ordering (CFG/dataflow)
# ----------------------------------------------------------------------
#: Abstract state: (log-seen-on-every-path-so-far, unlogged mutations).
_WalState = Tuple[bool, FrozenSet[Tuple[int, int, str]]]


class WalPathOrderRule(Rule):
    id = "R011"
    name = "wal-path-order"
    description = (
        "every CFG path that mutates a page must pass a log append; a "
        "branch or early return that skips the append leaves that "
        "path's mutation unlogged"
    )
    applies_to_tests = False  # mirrors R001

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.in_module(*_ALLOWED_ASSIGN):
            return
        if any(ctx.module_path.startswith(p) for p in _ALLOWED_MUTATE_PREFIXES):
            return
        for func in walk_functions(ctx.tree):
            yield from self._check_function(ctx, func)

    def _check_function(
        self, ctx: LintContext, func: ast.AST
    ) -> Iterator[Finding]:
        # Only functions that log somewhere: fully unlogged mutators are
        # R001b's finding, and reporting both would be noise.
        mutators: List[ast.Call] = []
        logs = False
        for call in function_calls(func):
            name = terminal_name(call.func)
            if isinstance(call.func, ast.Attribute) and name in _MUTATORS:
                mutators.append(call)
            if _is_logging_call(call):
                logs = True
        if not mutators or not logs:
            return

        sites = {
            (c.lineno, c.col_offset, terminal_name(c.func) or "?"): c
            for c in mutators
        }
        cfg = build_cfg(func)

        def join(a: _WalState, b: _WalState) -> _WalState:
            return (a[0] and b[0], a[1] | b[1])

        def transfer(block_id: int, state: _WalState) -> _WalState:
            has_log, naked = state
            for payload in cfg.block(block_id).stmts:
                pending = set(naked)
                logged_here = False
                for call in block_calls(payload):
                    name = terminal_name(call.func)
                    if (
                        isinstance(call.func, ast.Attribute)
                        and name in _MUTATORS
                        and not has_log
                    ):
                        pending.add(
                            (call.lineno, call.col_offset, name or "?")
                        )
                    if _is_logging_call(call):
                        logged_here = True
                if logged_here:
                    # The append covers this path: earlier mutations on
                    # it are now bracketed by a log record.
                    has_log, pending = True, set()
                naked = frozenset(pending)
            return (has_log, naked)

        bottom: _WalState = (False, frozenset())
        states = solve_forward(cfg, bottom, bottom, join, transfer)
        _, exit_naked = states[cfg.exit_id][0]
        for site in sorted(exit_naked):
            call = sites.get(site)
            if call is None:
                continue
            yield ctx.finding(
                self.id,
                call,
                f"page mutation '{site[2]}' in "
                f"'{getattr(func, 'name', '?')}' reaches the function "
                "exit on a path with no log append (the function logs "
                "on other paths) — every mutating path must write the "
                "log record",
            )
