"""R012 — determinism hygiene in trace-emitting code.

PR 2's guarantee is that two runs with the same seed produce
byte-identical JSONL traces; E1 capture regression-tests exactly that.
The guarantee dies quietly whenever event *ordering* depends on
iteration order of an unordered container, on CPython object addresses,
or on real time.  This rule enforces it statically in precisely the
code that can reach the trace stream: the module call graph's
"emitting" closure — functions that call ``*.emit`` on a tracer-ish
receiver directly or through a local callee.

Inside an emitting function, the rule flags:

* a ``for`` loop whose body (transitively) emits and whose iterable is
  set-like — a ``set``/``frozenset`` display, comprehension or
  constructor call, or a name whose reaching definitions include one;
* the same for raw dict views (``.keys()``/``.values()``/``.items()``)
  not wrapped in ``sorted(...)`` — insertion order is deterministic in
  CPython but depends on arrival order, which is exactly what parallel
  phases perturb (the ``for page_id in sorted(chains)`` replay loop in
  recovery/redo.py is the canonical fix);
* ``id(...)`` used anywhere in an emitting function — addresses differ
  between runs, so they must never feed keys or sort orders;
* ``wall_seconds()`` — the sanctioned bench-timing escape hatch must
  not leak into anything that emits.

``obs/tracer.py`` itself is exempt: the bus canonicalises payloads via
``json.dumps(sort_keys=True)`` and owns the one legitimate clock read.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.callgraph import ModuleGraph
from repro.lint.cfg import CFG, build_cfg
from repro.lint.dataflow import ReachingDefinitions
from repro.lint.engine import (
    Finding,
    LintContext,
    Rule,
    function_calls,
    terminal_name,
)

_EXEMPT_MODULES = ("obs/tracer.py",)

_DICT_VIEWS = frozenset({"keys", "values", "items"})

#: One layer of order-preserving wrappers to peel off the iterable.
_ORDER_PRESERVING = frozenset({"enumerate", "reversed", "list", "tuple"})

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})


def _is_setish_expr(expr: ast.AST) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in _SET_CONSTRUCTORS
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra: a | b, a & b, a - b, a ^ b over set-ish operands
        return _is_setish_expr(expr.left) or _is_setish_expr(expr.right)
    return False


def _core_iterable(expr: ast.AST) -> ast.AST:
    """Peel order-preserving wrappers: ``enumerate(x)`` iterates ``x``."""
    while (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id in _ORDER_PRESERVING
        and expr.args
    ):
        expr = expr.args[0]
    return expr


def _body_emits(
    stmt: ast.stmt, graph: ModuleGraph, emitting: Set[str]
) -> bool:
    """Does the loop body reach an emit (directly or via local callees)?"""
    for body in (stmt.body, getattr(stmt, "orelse", [])):
        for inner in body:
            for node in ast.walk(inner):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if isinstance(node, ast.Call) and graph.emits_transitively(
                    node, emitting
                ):
                    return True
    return False


class DeterminismHygieneRule(Rule):
    id = "R012"
    name = "determinism-hygiene"
    description = (
        "no set iteration, unsorted dict-view iteration, id()-keyed "
        "ordering, or wall-clock reads in functions that can emit "
        "trace events (byte-identical JSONL traces, PR 2)"
    )
    applies_to_tests = True  # test helpers that emit must stay ordered too

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.in_module(*_EXEMPT_MODULES):
            return
        graph = ModuleGraph(ctx.tree)
        emitting = graph.emitting_functions()
        if not emitting:
            return
        for name in sorted(emitting):
            func = graph.functions[name]
            yield from self._check_function(ctx, graph, emitting, name, func)

    def _check_function(
        self,
        ctx: LintContext,
        graph: ModuleGraph,
        emitting: Set[str],
        name: str,
        func: ast.AST,
    ) -> Iterator[Finding]:
        cfg: Optional[CFG] = None
        reaching: Optional[ReachingDefinitions] = None
        loops: List[ast.stmt] = [
            node
            for node in ast.walk(func)
            if isinstance(node, (ast.For, ast.AsyncFor))
            and _body_emits(node, graph, emitting)
        ]
        for loop in loops:
            iterable = _core_iterable(loop.iter)  # type: ignore[attr-defined]
            if (
                isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Name)
                and iterable.func.id == "sorted"
            ):
                continue
            if _is_setish_expr(iterable):
                yield ctx.finding(
                    self.id,
                    loop,
                    f"loop in emitting function '{name}' iterates a set "
                    "— set order is arbitrary and the loop body emits "
                    "trace events; iterate sorted(...) instead",
                )
                continue
            if (
                isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Attribute)
                and iterable.func.attr in _DICT_VIEWS
            ):
                yield ctx.finding(
                    self.id,
                    loop,
                    f"loop in emitting function '{name}' iterates a raw "
                    f".{iterable.func.attr}() view — event order then "
                    "follows insertion order; wrap it in sorted(...)",
                )
                continue
            if isinstance(iterable, ast.Name):
                if cfg is None:
                    cfg = build_cfg(func)
                    reaching = ReachingDefinitions(cfg, func)
                block_id = self._block_of(cfg, loop)
                if block_id is None or reaching is None:
                    continue
                values = reaching.values_at(block_id, iterable.id)
                if values and all(
                    v is not None and _is_setish_expr(v) for v in values
                ):
                    yield ctx.finding(
                        self.id,
                        loop,
                        f"loop in emitting function '{name}' iterates "
                        f"'{iterable.id}', which every reaching "
                        "definition builds as a set; iterate "
                        "sorted(...) instead",
                    )

        for node in function_calls(func):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == "id":
                yield ctx.finding(
                    self.id,
                    node,
                    f"id() in emitting function '{name}' — object "
                    "addresses differ between runs; key on a stable "
                    "identifier instead",
                )
            elif terminal_name(callee) == "wall_seconds":
                yield ctx.finding(
                    self.id,
                    node,
                    f"wall_seconds() in emitting function '{name}' — "
                    "the bench-timing escape hatch must never feed the "
                    "trace stream; use the simulated clock",
                )

    @staticmethod
    def _block_of(cfg: CFG, stmt: ast.stmt) -> Optional[int]:
        for block in cfg.blocks:
            for payload in block.stmts:
                if payload is stmt:
                    return block.id
        return None
