"""Intraprocedural dataflow on the :mod:`repro.lint.cfg` graphs.

One generic forward worklist solver plus the two concrete analyses the
flow-aware rules share:

* **reaching definitions** — which assignment sites can define each
  local name at a program point (R012 uses it to decide whether a loop
  iterable is a ``set``/``dict`` built earlier in the function);
* **lockset** — the set of lock receivers held at a program point,
  as a *may* analysis (union join: "possibly still held", what R009
  needs at the exits).

States are immutable (frozensets / tuples of pairs) so the solver can
compare them for the fixpoint test; the worklist is processed in block
id order, which makes every run — and therefore every finding order —
deterministic.
"""

from __future__ import annotations

import ast
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
)

from repro.lint.cfg import CFG, Payload, WithEnter, WithExit, block_calls
from repro.lint.engine import dotted, terminal_name

State = TypeVar("State")


def solve_forward(
    cfg: CFG,
    entry_state: State,
    bottom: State,
    join: Callable[[State, State], State],
    transfer: Callable[[int, State], State],
) -> Dict[int, Tuple[State, State]]:
    """Run a forward analysis to fixpoint.

    ``transfer(block_id, in_state)`` returns the block's out-state.
    Normal edges propagate the predecessor's *out*-state; exception
    edges propagate its *in*-state (the raising statement's effects
    never happened).  Not-yet-reached predecessors contribute the join
    *identity* (they are simply skipped), which makes the iteration
    optimistic — a must analysis (intersection join) converges to the
    greatest fixpoint instead of being poisoned by loop back-edges.
    Blocks the entry never reaches report ``bottom``.  Returns
    ``{block_id: (in_state, out_state)}``.
    """
    preds = cfg.preds()
    in_states: Dict[int, Optional[State]] = {b.id: None for b in cfg.blocks}
    out_states: Dict[int, Optional[State]] = {b.id: None for b in cfg.blocks}
    in_states[cfg.entry] = entry_state
    out_states[cfg.entry] = transfer(cfg.entry, entry_state)
    changed = True
    while changed:
        changed = False
        for block in cfg.blocks:
            if block.id == cfg.entry:
                continue
            state: Optional[State] = None
            for pred, via_exception in sorted(preds[block.id]):
                carried = (
                    in_states[pred] if via_exception else out_states[pred]
                )
                if carried is None:
                    continue  # not reached yet: join identity
                state = carried if state is None else join(state, carried)
            if state is None:
                continue  # unreachable (so far)
            new_out = transfer(block.id, state)
            if state != in_states[block.id] or new_out != out_states[block.id]:
                in_states[block.id] = state
                out_states[block.id] = new_out
                changed = True
    return {
        b.id: (
            in_states[b.id] if in_states[b.id] is not None else bottom,
            out_states[b.id] if out_states[b.id] is not None else bottom,
        )
        for b in cfg.blocks
    }


# ----------------------------------------------------------------------
# reaching definitions
# ----------------------------------------------------------------------
def _assigned_names(target: ast.AST) -> Iterator[str]:
    """Plain names bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _assigned_names(element)
    elif isinstance(target, ast.Starred):
        yield from _assigned_names(target.value)


def payload_definitions(
    payload: Payload,
) -> Iterator[Tuple[str, Optional[ast.AST]]]:
    """``(name, value_expr)`` pairs one payload statement defines.

    ``value_expr`` is the whole RHS for plain assignments and ``None``
    when the bound value is opaque (loop elements, ``with ... as``,
    unpacked tuples, aug-assign results).
    """
    if isinstance(payload, WithEnter):
        for item in payload.node.items:  # type: ignore[attr-defined]
            if item.optional_vars is not None:
                for name in _assigned_names(item.optional_vars):
                    yield name, None
        return
    if isinstance(payload, WithExit):
        return
    stmt = payload
    if isinstance(stmt, ast.Assign):
        simple = len(stmt.targets) == 1 and isinstance(stmt.targets[0],
                                                       ast.Name)
        for target in stmt.targets:
            for name in _assigned_names(target):
                yield name, stmt.value if simple else None
    elif isinstance(stmt, ast.AnnAssign):
        if isinstance(stmt.target, ast.Name) and stmt.value is not None:
            yield stmt.target.id, stmt.value
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Name):
            yield stmt.target.id, None
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for name in _assigned_names(stmt.target):
            yield name, None
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        yield stmt.name, None
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            yield (alias.asname or alias.name).split(".")[0], None


class ReachingDefinitions:
    """Reaching definitions over a CFG.

    A definition site is identified by ``(block_id, name)`` and carries
    the defining value expression (or ``None`` when opaque).  Function
    parameters reach with a ``None`` value from the entry.
    """

    def __init__(self, cfg: CFG, func: ast.AST) -> None:
        self.cfg = cfg
        #: (block_id | "<param>", name) -> value expression of that def.
        self.def_values: Dict[Tuple[object, str], Optional[ast.AST]] = {}
        gen: Dict[int, Dict[str, Tuple[object, str]]] = {}
        for block in cfg.blocks:
            local: Dict[str, Tuple[object, str]] = {}
            for payload in block.stmts:
                for name, value in payload_definitions(payload):
                    key = (block.id, name)
                    local[name] = key
                    self.def_values[key] = value
            gen[block.id] = local

        params: List[str] = []
        args = getattr(func, "args", None)
        if args is not None:
            for arg in (args.posonlyargs + args.args + args.kwonlyargs):
                params.append(arg.arg)
            if args.vararg:
                params.append(args.vararg.arg)
            if args.kwarg:
                params.append(args.kwarg.arg)
        entry_state = frozenset(("<param>", name) for name in params)
        for name in params:
            self.def_values[("<param>", name)] = None

        def join(
            a: FrozenSet[Tuple[object, str]],
            b: FrozenSet[Tuple[object, str]],
        ) -> FrozenSet[Tuple[object, str]]:
            return a | b

        def transfer(
            block_id: int, state: FrozenSet[Tuple[object, str]]
        ) -> FrozenSet[Tuple[object, str]]:
            local = gen[block_id]
            if not local:
                return state
            killed = set(local)
            kept = {d for d in state if d[1] not in killed}
            kept.update(local.values())
            return frozenset(kept)

        self.states = solve_forward(
            cfg, entry_state, frozenset(), join, transfer
        )

    def values_at(self, block_id: int, name: str) -> List[Optional[ast.AST]]:
        """Value expressions of every definition of ``name`` that can
        reach the *entry* of ``block_id`` (deterministic order)."""
        in_state, _ = self.states[block_id]
        keys = sorted(
            (d for d in in_state if d[1] == name),
            key=lambda d: (str(d[0]), d[1]),
        )
        return [self.def_values.get(k) for k in keys]


# ----------------------------------------------------------------------
# lockset
# ----------------------------------------------------------------------
_ACQUIRE_METHODS = frozenset({"acquire"})
_RELEASE_METHODS = frozenset({"release"})
_RELEASE_ALL_METHODS = frozenset({"release_all"})


def _call_receiver_dotted(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return dotted(call.func.value)
    return None


class LocksetAnalysis:
    """Which lock receivers are held at each program point.

    ``is_lockish(terminal_receiver_name)`` decides whether an
    ``acquire``/``release`` receiver (or a ``with`` context expression)
    participates.  Lock keys are the dotted receiver (``self._lock``) —
    ``with`` acquisitions get a ``with:``-prefixed key so they never
    collide with explicit acquire/release bookkeeping.

    A *may* analysis: paths join by union ("possibly held" — sound for
    *can this lock leak out*).
    """

    def __init__(
        self,
        cfg: CFG,
        is_lockish: Callable[[Optional[str]], bool],
    ) -> None:
        self.cfg = cfg
        self.is_lockish = is_lockish
        self.states = solve_forward(
            cfg,
            frozenset(),
            frozenset(),
            self._join,
            self._transfer,
        )

    def _join(
        self, a: FrozenSet[str], b: FrozenSet[str]
    ) -> FrozenSet[str]:
        return a | b

    def _transfer(
        self, block_id: int, state: FrozenSet[str]
    ) -> FrozenSet[str]:
        held = set(state)
        for payload in self.cfg.block(block_id).stmts:
            if isinstance(payload, WithEnter):
                for item in payload.node.items:  # type: ignore[attr-defined]
                    if self.is_lockish(terminal_name(item.context_expr)):
                        held.add("with:" + dotted(item.context_expr))
                continue
            if isinstance(payload, WithExit):
                for item in payload.node.items:  # type: ignore[attr-defined]
                    held.discard("with:" + dotted(item.context_expr))
                continue
            for call in block_calls(payload):
                name = terminal_name(call.func)
                receiver = _call_receiver_dotted(call)
                if receiver is None:
                    continue
                receiver_terminal = terminal_name(
                    call.func.value  # type: ignore[union-attr]
                )
                if not self.is_lockish(receiver_terminal):
                    continue
                if name in _ACQUIRE_METHODS:
                    held.add(receiver)
                elif name in _RELEASE_METHODS:
                    held.discard(receiver)
                elif name in _RELEASE_ALL_METHODS:
                    held = {k for k in held if k.startswith("with:")}
        return frozenset(held)

    def held_at_exit(self) -> Dict[str, List[int]]:
        """Lock keys possibly held at either exit -> the exit block ids
        where they are held (``exit_id`` = normal, ``raise_id`` =
        escaping exception)."""
        out: Dict[str, List[int]] = {}
        for exit_id in self.cfg.exit_blocks():
            in_state, _ = self.states[exit_id]
            for key in sorted(in_state):
                out.setdefault(key, []).append(exit_id)
        return out
