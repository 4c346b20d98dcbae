"""R004 — lock acquire/release pairing; R009 — release on all paths.

The global lock manager's single-threaded protocol (DESIGN.md; paper
Section 2) parks conflicting requests instead of blocking, so a lock
that is acquired and never released does not deadlock the process — it
silently serialises every later transaction that touches the resource.
That failure mode never crashes a test; it just makes results wrong
under concurrency.

R004 is the scope-level heuristic: within one class (or the module's
top-level functions taken together), any call to ``*.acquire`` /
``*.try_acquire`` on a lock-ish receiver (terminal identifier
containing ``lock`` or ``lm``/``glm``) must be matched by at least one
``*.release`` / ``*.release_all`` call, or a ``with`` statement over
the same kind of receiver, somewhere in the same scope.

R009 is the per-path refinement on top of the CFG: inside a function
that both acquires *and* releases locally (a self-contained critical
section — cross-method protocols stay R004's domain), the may-lockset
must be empty at the normal exit and at the escaping-exception exit.
An early ``return`` that skips the release, or a call between
``acquire`` and ``release`` with no ``try``/``finally`` guarding the
release, both leave a path on which the lock leaks.  The lock
protocol's own calls are modelled as non-raising so a bare trailing
``release()`` does not manufacture a phantom held-at-raise path.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.cfg import build_cfg
from repro.lint.dataflow import LocksetAnalysis
from repro.lint.engine import (
    Finding,
    LintContext,
    Rule,
    dotted,
    function_calls,
    terminal_name,
    walk_functions,
)

_ACQUIRES = frozenset({"acquire", "try_acquire"})
_RELEASES = frozenset({"release", "release_all"})


def _lockish(name: Optional[str]) -> bool:
    if name is None:
        return False
    lowered = name.lower()
    return "lock" in lowered or lowered in ("glm", "lm", "llm")


def _receiver(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return terminal_name(call.func.value)
    return None


class LockPairingRule(Rule):
    id = "R004"
    name = "lock-pairing"
    description = (
        "lock-manager acquire without any matching release/release_all "
        "in the same class or module scope"
    )
    applies_to_tests = False  # tests exercise unpaired acquires on purpose

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        scopes: List[Tuple[str, List[ast.stmt]]] = []
        module_level: List[ast.stmt] = []
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef):
                scopes.append((node.name, node.body))
            else:
                module_level.append(node)
        scopes.append(("<module>", module_level))
        for scope_name, body in scopes:
            acquires: List[ast.Call] = []
            released = False
            for stmt in body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        name = terminal_name(node.func)
                        if (
                            name in _ACQUIRES
                            and isinstance(node.func, ast.Attribute)
                            and _lockish(_receiver(node))
                        ):
                            acquires.append(node)
                        elif name in _RELEASES and isinstance(
                            node.func, ast.Attribute
                        ):
                            released = True
                    elif isinstance(node, (ast.With, ast.AsyncWith)):
                        for item in node.items:
                            if _lockish(terminal_name(item.context_expr)):
                                released = True  # context manager pairs itself
            if acquires and not released:
                for call in acquires:
                    yield ctx.finding(
                        self.id,
                        call,
                        f"'{_receiver(call)}.{terminal_name(call.func)}' in "
                        f"scope '{scope_name}' has no matching release/"
                        "release_all anywhere in the scope — leaked locks "
                        "serialise all later transactions",
                    )

# ----------------------------------------------------------------------
# R009 — per-path release (CFG/lockset)
# ----------------------------------------------------------------------
_LOCK_PROTOCOL = frozenset({"acquire", "try_acquire", "release", "release_all"})


def _is_lock_protocol_call(call: ast.Call) -> bool:
    """A lock-protocol method call on a lock-ish receiver."""
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in _LOCK_PROTOCOL
        and _lockish(terminal_name(call.func.value))
    )


class LockReleasePathsRule(Rule):
    id = "R009"
    name = "lock-release-paths"
    description = (
        "an acquired lock must be released on every CFG path out of "
        "the function, including exception edges (use try/finally or "
        "the context manager)"
    )
    applies_to_tests = False  # tests exercise leaked locks on purpose

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for func in walk_functions(ctx.tree):
            yield from self._check_function(ctx, func)

    def _check_function(
        self, ctx: LintContext, func: ast.AST
    ) -> Iterator[Finding]:
        # Only self-contained critical sections: the function must both
        # acquire and release locally.  ``try_acquire`` may legitimately
        # fail, so its conditional release pattern is left to R004.
        acquires: Dict[str, List[ast.Call]] = {}
        releases = False
        for call in function_calls(func):
            if not isinstance(call.func, ast.Attribute):
                continue
            if not _lockish(terminal_name(call.func.value)):
                continue
            if call.func.attr == "acquire":
                acquires.setdefault(dotted(call.func.value), []).append(call)
            elif call.func.attr in _RELEASES:
                releases = True
        if not acquires or not releases:
            return

        cfg = build_cfg(
            func, call_may_raise=lambda c: not _is_lock_protocol_call(c)
        )
        lockset = LocksetAnalysis(cfg, _lockish)
        leaked = lockset.held_at_exit()
        for key, exit_ids in sorted(leaked.items()):
            if key.startswith("with:"):
                continue  # context managers release by construction
            calls = acquires.get(key)
            if not calls:
                continue
            paths = []
            if cfg.exit_id in exit_ids:
                paths.append("a normal return path")
            if cfg.raise_id in exit_ids:
                paths.append("an escaping-exception path")
            where = " and ".join(paths)
            for call in sorted(calls, key=lambda c: (c.lineno, c.col_offset)):
                yield ctx.finding(
                    self.id,
                    call,
                    f"'{key}.acquire' is not released on {where} out of "
                    f"'{getattr(func, 'name', '?')}'; guard the release "
                    "with try/finally or use the context manager",
                )
