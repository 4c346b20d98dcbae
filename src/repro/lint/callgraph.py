"""Module-granular call graph and the cross-file seam index.

Two structures back the interprocedural halves of the flow-aware rules:

* :class:`ModuleGraph` — one module's functions/methods keyed by bare
  name, the local call edges between them, and the derived closure the
  rules ask for: which functions can (transitively) emit trace events.
  Name-based resolution is deliberate: within one module of this
  codebase bare function names are unambiguous, and staying inside the
  module keeps the analysis cheap and the findings explainable.

* :class:`ProjectIndex` — the cross-file half: for every class in the
  linted tree, whether its ``__init__`` accepts the one ``seams``
  argument (stats, tracer and fault injector as one value,
  :mod:`repro.common.seams`), and at which positional index.  R008
  uses it to demand that a seam-holding constructor threads the seams
  into every subsystem it builds.  The engine builds
  one index per run (over *all* files handed to ``lint_paths``) so the
  rule sees callees defined in other modules.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.lint.engine import (
    function_calls,
    terminal_name,
    walk_functions,
)

#: The constructor argument every subsystem threads: one world's
#: stats, tracer and fault injector (:class:`repro.common.seams.Seams`).
SEAM_NAMES = frozenset({"seams"})


def _param_names(func: ast.AST) -> List[str]:
    args = getattr(func, "args", None)
    if args is None:
        return []
    return [a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)]


def _has_kwargs(func: ast.AST) -> bool:
    args = getattr(func, "args", None)
    return args is not None and args.kwarg is not None


class SeamSignature:
    """Which seams one class's ``__init__`` accepts, and where."""

    def __init__(self, init: ast.AST) -> None:
        #: seam name -> positional index (0 = first arg after ``self``).
        self.positions: Dict[str, Optional[int]] = {}
        args = getattr(init, "args", None)
        if args is None:
            return
        positional = [a.arg for a in (args.posonlyargs + args.args)]
        if positional and positional[0] in ("self", "cls"):
            positional = positional[1:]
        for index, name in enumerate(positional):
            if name in SEAM_NAMES:
                self.positions[name] = index
        for arg in args.kwonlyargs:
            if arg.arg in SEAM_NAMES:
                self.positions[arg.arg] = None
        self.accepts: FrozenSet[str] = frozenset(self.positions)

    def passed_by(self, call: ast.Call, seam: str) -> bool:
        """Is ``seam`` supplied by this constructor call (keyword,
        covering positional, or a ``**kwargs`` splat)?"""
        for keyword in call.keywords:
            if keyword.arg is None or keyword.arg == seam:
                return True
        position = self.positions.get(seam)
        if position is not None and len(call.args) > position:
            return True
        return any(isinstance(a, ast.Starred) for a in call.args)


class ProjectIndex:
    """Cross-file facts shared by every rule in one lint run."""

    def __init__(self) -> None:
        #: class name -> seam signature of its ``__init__``.
        self.seam_classes: Dict[str, SeamSignature] = {}

    @classmethod
    def build(
        cls, modules: Iterable[Tuple[str, ast.Module]]
    ) -> "ProjectIndex":
        index = cls()
        for _path, tree in modules:
            index.add_module(tree)
        return index

    def add_module(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (
                    isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name == "__init__"
                ):
                    signature = SeamSignature(item)
                    if signature.accepts:
                        self.seam_classes[node.name] = signature
                    break


# ----------------------------------------------------------------------
# one module's call graph
# ----------------------------------------------------------------------
def _lambda_aware_calls(func: ast.AST) -> Iterable[ast.Call]:
    """Same-scope calls plus calls inside lambdas defined in the scope
    (a lambda has no name to hang call edges on, so its calls belong
    to the defining scope for closure purposes)."""
    seen: Set[int] = set()
    for call in function_calls(func):
        seen.add(id(call))
        yield call
    for node in ast.walk(func):
        if isinstance(node, ast.Lambda):
            for inner in ast.walk(node.body):
                if isinstance(inner, ast.Call) and id(inner) not in seen:
                    yield inner


class ModuleGraph:
    """Functions, methods and local call edges of one module."""

    def __init__(self, tree: ast.Module) -> None:
        #: bare name -> definition (first definition wins).
        self.functions: Dict[str, ast.AST] = {}
        for func in walk_functions(tree):
            name = getattr(func, "name", None)
            if name is not None and name not in self.functions:
                self.functions[name] = func
        #: caller bare name -> terminal names of local calls.
        self.calls: Dict[str, Set[str]] = {}
        for name, func in self.functions.items():
            called: Set[str] = set()
            for call in _lambda_aware_calls(func):
                target = terminal_name(call.func)
                if target is not None:
                    called.add(target)
            self.calls[name] = called

    # -- emit closure --------------------------------------------------
    def _emits_directly(self, func: ast.AST) -> bool:
        for call in _lambda_aware_calls(func):
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "emit"
            ):
                receiver = terminal_name(call.func.value)
                if receiver is not None and "tracer" in receiver.lower():
                    return True
        return False

    def emitting_functions(self) -> Set[str]:
        """Functions that can emit a trace event, directly or through a
        local callee (fixpoint over the module call graph)."""
        emitting = {
            name
            for name, func in self.functions.items()
            if self._emits_directly(func)
        }
        changed = True
        while changed:
            changed = False
            for name, called in self.calls.items():
                if name not in emitting and called & emitting:
                    emitting.add(name)
                    changed = True
        return emitting

    def emits_transitively(self, call: ast.Call, emitting: Set[str]) -> bool:
        """Does this call site reach an emit (direct or via a local
        emitting function)?"""
        if isinstance(call.func, ast.Attribute) and call.func.attr == "emit":
            receiver = terminal_name(call.func.value)
            if receiver is not None and "tracer" in receiver.lower():
                return True
        target = terminal_name(call.func)
        return target is not None and target in emitting
