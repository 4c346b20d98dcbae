"""R008 — seam threading for stats, observability and fault injection.

Every component of a world takes the world's stats registry, tracer and
fault injector as one ``seams`` value (:mod:`repro.common.seams`) and
passes it down to every component it constructs.  A constructor chain
that drops it silently gives the child fresh, silent seams (its own
registry, ``NULL_TRACER``, ``NULL_INJECTOR``): counters go missing,
traces lose a whole subtree of events and fault campaigns can never
reach the child — and nothing fails, the coverage just quietly shrinks.

The rule is interprocedural via the cross-file
:class:`~repro.lint.callgraph.ProjectIndex`: for every function that
has ``seams`` in scope (its own parameter, or a method of a class whose
``__init__`` accepts it), each constructor call to a class whose
``__init__`` accepts ``seams`` must pass it — by keyword
(``seams=self.seams`` *or* an explicit ``seams=Seams.of()``, which is a
visible decision), by a covering positional argument, or by a
``*args``/``**kwargs`` splat.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Tuple

from repro.lint.callgraph import SEAM_NAMES
from repro.lint.engine import (
    Finding,
    LintContext,
    Rule,
    function_calls,
    terminal_name,
)


def _own_seams(func: ast.AST) -> FrozenSet[str]:
    """Seam names among the function's own parameters."""
    args = getattr(func, "args", None)
    if args is None:
        return frozenset()
    names = {a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)}
    return frozenset(names & SEAM_NAMES)


def _seam_scopes(
    tree: ast.Module, ctx: LintContext
) -> Iterator[Tuple[ast.AST, FrozenSet[str]]]:
    """Every function definition paired with the seams in its scope."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            signature = ctx.project.seam_classes.get(node.name)
            class_seams = signature.accepts if signature else frozenset()
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, class_seams | _own_seams(item)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, _own_seams(node)


class SeamThreadingRule(Rule):
    id = "R008"
    name = "seam-threading"
    description = (
        "a scope that holds the seams value must pass it to every "
        "seams-accepting subsystem it constructs (no silently fresh "
        "stats/NULL_TRACER/NULL_INJECTOR mid-stack)"
    )
    applies_to_tests = False  # fixtures construct bare subsystems freely

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for func, seams in _seam_scopes(ctx.tree, ctx):
            if not seams:
                continue
            for call in function_calls(func):
                class_name = None
                if isinstance(call.func, ast.Name):
                    class_name = call.func.id
                elif isinstance(call.func, ast.Attribute):
                    class_name = call.func.attr
                if class_name is None:
                    continue
                signature = ctx.project.seam_classes.get(class_name)
                if signature is None:
                    continue
                dropped: List[str] = sorted(
                    seam
                    for seam in (signature.accepts & seams)
                    if not signature.passed_by(call, seam)
                )
                for seam in dropped:
                    yield ctx.finding(
                        self.id,
                        call,
                        f"'{class_name}(...)' in "
                        f"'{getattr(func, 'name', '?')}' does not pass "
                        f"'{seam}' although the enclosing scope holds "
                        f"it — the child silently resolves fresh, silent "
                        f"seams and drops its counters, events and faults",
                    )
