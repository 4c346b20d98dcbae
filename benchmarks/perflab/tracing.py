"""Benchmark-side span tracer: wraps live layer objects, no code in src/.

The engine's layers hold their public methods as plain class
attributes and nothing pre-binds them, so assigning a wrapper to the
*instance* attribute (``glm.acquire = wrapper``) intercepts every call
— including the engine's own internal ``self.glm.acquire(...)`` — and
``del`` restores the class method.  ``Page`` is slotted, so its three
record methods are wrapped at class level instead.

Each wrapper records one span ``{name, start, end, parent, txn}``.
Self time is the span minus the part its children cover; a layer is
the prefix of the span name before ``:``.  The driver closes a *step*
around every group of engine calls it times (a whole per-call txn, or
one call of a stepped txn); step wall minus the top-level spans inside
it is the driver's own time.  So, by construction,

    sum(layer self) + driver self == sum(step wall)

and the self-tests assert it.  Spans stay in memory; :meth:`write`
dumps them as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import math
from array import array
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import repro.wal.merge as merge_module
from repro.common.clock import wall_seconds
from repro.storage.page import Page

_DELETE = object()

#: Name of the retroactive span the driver closes around each timed
#: step; its children are the top-level spans sharing its ``txn``.
STEP_SPAN = "perflab:step"


# Per-name record layout (a list, indexed by these; faster than
# attribute access from inside the wrappers).
CALLS, TOTAL, SELF, UNITS, KIDS, BELOW = range(6)
#: Name id of the step span; it is also the root of the open-span stack.
ROOT = 0


class _Probe:
    """Calibration target: the cheapest possible wrapped call."""

    def noop(self) -> None:
        return None


class SpanTracer:
    """In-memory span recorder with online self-time aggregation.

    Wrapping costs time, and the cost lands partly inside the span
    (between the clock reads and the call) and partly outside it (in
    the caller).  :meth:`calibrate` measures both parts on a no-op
    method and :meth:`scale_costs` fits them to the run itself, so that
    the corrected times add up to what the same work took untraced.
    Read-outs then reduce every duration by the inside cost of the span
    plus the whole cost of the spans below it, and every self time by
    its own inside cost and its children's outside cost.  The
    correction is a mean, so a corrected value is an estimate;
    ``perflab.trace_overhead_ratio`` states how much there was to
    correct.
    """

    def __init__(self, keep_spans: bool = False) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.recs: List[List[float]] = []
        self.samples: List[array] = []
        #: Per tracked child name: parent name id -> calls.
        self.parents: List[Dict[int, int]] = []
        # Parallel stacks, one entry per open span: time covered by
        # children, spans opened below, name id.  Index 0 is the root
        # the driver's steps drain.
        self._child: List[float] = [0.0]
        self._below: List[int] = [0]
        self._open: List[int] = [ROOT]
        self.step_wall = 0.0
        #: Wall of the driver loops the steps sit in; the part of it no
        #: step covers is the drivers' between-step glue.
        self.loop_wall = 0.0
        #: Spans opened inside the steps of driver loops (txn steps).
        self.loop_spans = 0
        self.driver_self = 0.0
        self.current_txn = 0
        self.cost_inside = 0.0
        self.cost_outside = 0.0
        self.keep_spans = keep_spans
        # Retained spans, column-wise (28 bytes per span).
        self._s_name = array("i")
        self._s_start = array("d")
        self._s_end = array("d")
        self._s_parent = array("i")
        self._s_txn = array("i")
        self._open_idx: List[int] = [-1]
        self._undo: List[Tuple[Any, str, Any]] = []
        self._register(STEP_SPAN)

    # ------------------------------------------------------------------
    # registration / wrapping
    # ------------------------------------------------------------------
    def _register(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = len(self.names)
            self._ids[name] = nid
            self.names.append(name)
            self.recs.append([0, 0.0, 0.0, 0, 0, 0])
            self.samples.append(array("d"))
            self.parents.append({})
        return nid

    def _begin_span(self, nid: int) -> None:
        self._open_idx.append(len(self._s_name))
        self._s_name.append(nid)
        self._s_start.append(0.0)
        self._s_end.append(0.0)
        self._s_parent.append(self._open_idx[-2])
        self._s_txn.append(self.current_txn)

    def _end_span(self, started: float, ended: float) -> None:
        idx = self._open_idx.pop()
        self._s_start[idx] = started
        self._s_end[idx] = ended

    def _wrapper(self, original: Callable[..., Any], nid: int,
                 units_of: Optional[Callable[[tuple, Any], int]],
                 track_parents: bool) -> Callable[..., Any]:
        rec = self.recs[nid]
        recs = self.recs
        note = self.samples[nid].append
        child, below, opened = self._child, self._below, self._open
        parents = self.parents[nid] if track_parents else None
        keep = self.keep_spans
        now = wall_seconds
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if parents is not None:
                parent = opened[-1]
                parents[parent] = parents.get(parent, 0) + 1
            child.append(0.0)
            below.append(0)
            opened.append(nid)
            if keep:
                tracer._begin_span(nid)
            result = None
            started = now()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                ended = now()
                raw = ended - started
                covered = child.pop()
                spans_below = below.pop()
                opened.pop()
                child[-1] += raw
                below[-1] += spans_below + 1
                recs[opened[-1]][KIDS] += 1
                rec[CALLS] += 1
                rec[TOTAL] += raw
                rec[SELF] += raw - covered
                rec[BELOW] += spans_below
                note(raw)
                if units_of is not None:
                    rec[UNITS] += units_of(args, result)
                if keep:
                    tracer._end_span(started, ended)

        return wrapper

    def wrap(self, target: Any, attr: str, name: str,
             units_of: Optional[Callable[[tuple, Any], int]] = None,
             class_level: bool = False,
             track_parents: bool = False) -> None:
        """Replace ``target.attr`` with a span-recording wrapper.

        ``units_of(args, result)`` optionally counts the work units of
        one call (records in a batch, pages in a write_many);
        ``track_parents`` counts calls per direct parent span name.
        """
        if class_level:
            original = target.__dict__[attr]
            restore = original
        else:
            original = getattr(target, attr)
            restore = target.__dict__.get(attr, _DELETE)
        nid = self._register(name)
        setattr(target, attr,
                self._wrapper(original, nid, units_of, track_parents))
        self._undo.append((target, attr, restore))

    def wrap_methods(self, target: Any, layer: str, attrs: Sequence[str],
                     track_parents: Sequence[str] = ()) -> None:
        """Wrap several methods of one object as ``layer:<method>``."""
        for attr in attrs:
            self.wrap(target, attr, f"{layer}:{attr}",
                      track_parents=attr in track_parents)

    def wrap_generator(self, target: Any, attr: str, name: str) -> None:
        """Wrap a generator function: one span per ``next()`` (the
        consumer's work between items is not the generator's time)."""
        original = getattr(target, attr)
        nid = self._register(name)

        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            step = self._wrapper(original(*args, **kwargs).__next__, nid,
                                 _yielded, False)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        setattr(target, attr, wrapper)
        self._undo.append((target, attr, original))

    def call(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` under an explicit span (for module-level
        functions the driver itself calls, e.g. ``take_checkpoint``)."""
        return self._wrapper(fn, self._register(name), None, False)(*args)

    def unwrap_all(self) -> None:
        """Remove every wrapper, restoring the original attributes."""
        while self._undo:
            target, attr, restore = self._undo.pop()
            if restore is _DELETE:
                delattr(target, attr)
            else:
                setattr(target, attr, restore)

    @property
    def cost_span(self) -> float:
        """What one whole span adds to everything enclosing it."""
        return self.cost_inside + self.cost_outside

    def calibrate(self, rounds: int = 20_000) -> None:
        """Measure the wrapper's own cost on a no-op method."""
        probe = _Probe()
        now = wall_seconds
        started = now()
        for _ in range(rounds):
            probe.noop()
        bare = (now() - started) / rounds
        nid = self._register("perflab:calibration")
        keep, self.keep_spans = self.keep_spans, False
        probe.noop = self._wrapper(  # type: ignore[method-assign]
            probe.noop, nid, None, False)
        started = now()
        for _ in range(rounds):
            probe.noop()
        wrapped = (now() - started) / rounds
        self.keep_spans = keep
        rec = self.recs[nid]
        inside = max(0.0, rec[TOTAL] / rounds - bare)
        self.cost_inside = inside
        self.cost_outside = max(0.0, wrapped - bare - inside)
        # Forget the probe's spans: they are not part of any run.
        rec[:] = [0, 0.0, 0.0, 0, 0, 0]
        del self.samples[nid][:]
        self.recs[ROOT][KIDS] = 0
        self._child[0] = 0.0
        self._below[0] = 0

    def scale_costs(self, per_txn_overhead: float,
                    spans_per_txn: float) -> None:
        """Fit the calibrated costs to this run: a wrapper costs more
        between real calls than around a no-op (colder caches), so the
        measured per-txn slowdown spread over the spans of a txn
        replaces the no-op figure when it is larger.  The inside /
        outside split keeps its calibrated proportion."""
        calibrated = self.cost_span
        if calibrated <= 0.0 or spans_per_txn <= 0.0:
            return
        factor = max(1.0, per_txn_overhead / spans_per_txn / calibrated)
        self.cost_inside *= factor
        self.cost_outside *= factor

    # ------------------------------------------------------------------
    # driver hooks
    # ------------------------------------------------------------------
    def end_step(self, started: float, ended: float,
                 in_loop: bool = True, advance: bool = True) -> None:
        """Close a timed driver step covering ``[started, ended]``.

        A step taken outside any driver loop (``in_loop=False``: a
        restart, a checkpoint) is its own loop of one.  The spans of a
        step carry ``current_txn``; by default the next step gets the
        next number (the stepped drivers set it themselves, because
        their transactions interleave).
        """
        wall = ended - started
        self.step_wall += wall
        if in_loop:
            self.loop_spans += self._below[0]
        else:
            self.loop_wall += wall
        self.driver_self += wall - self._child[0]
        self._child[0] = 0.0
        self._below[0] = 0
        if self.keep_spans:
            self._s_name.append(ROOT)
            self._s_start.append(started)
            self._s_end.append(ended)
            self._s_parent.append(-1)
            self._s_txn.append(self.current_txn)
        if advance:
            self.current_txn += 1

    # ------------------------------------------------------------------
    # read-out (self times are overhead-corrected, see class docstring)
    # ------------------------------------------------------------------
    def _self(self, nid: int) -> float:
        rec = self.recs[nid]
        return max(0.0, rec[SELF] - rec[CALLS] * self.cost_inside
                   - rec[KIDS] * self.cost_outside)

    def names_of_layer(self, layer: str) -> List[str]:
        prefix = layer + ":"
        return [name for name in self.names[1:] if name.startswith(prefix)]

    def layer_self(self, layer: str) -> float:
        return self.self_time(*self.names_of_layer(layer))

    @property
    def driver_self_corrected(self) -> float:
        return max(0.0, self.driver_self
                   - self.recs[ROOT][KIDS] * self.cost_outside)

    @property
    def attributed(self) -> float:
        """Corrected step wall: every layer's self time plus the
        driver's — the base of every ``share``."""
        return self.driver_self_corrected + sum(
            self._self(nid) for nid in range(1, len(self.names)))

    def raw_balance(self) -> Tuple[float, float]:
        """``(sum of raw self times + raw driver self, step wall)`` —
        equal by construction; the self-tests assert it."""
        raw = self.driver_self + sum(rec[SELF] for rec in self.recs[1:])
        return raw, self.step_wall

    def calls(self, *names: str) -> int:
        return sum(self.recs[self._ids[name]][CALLS]
                   for name in names if name in self._ids)

    def units(self, name: str) -> int:
        """Work units counted by the span's ``units_of``."""
        nid = self._ids.get(name)
        return 0 if nid is None else self.recs[nid][UNITS]

    def total(self, name: str) -> float:
        """Summed duration of a span name, overhead-corrected."""
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        rec = self.recs[nid]
        return max(0.0, rec[TOTAL] - self._excess(nid) * rec[CALLS])

    def self_time(self, *names: str) -> float:
        """Summed self time of span names, overhead-corrected."""
        return sum(self._self(self._ids[name])
                   for name in names if name in self._ids)

    def raw_samples(self, name: str) -> array:
        nid = self._ids.get(name)
        return array("d") if nid is None else self.samples[nid]

    def _excess(self, nid: int) -> float:
        """Mean tracing cost inside one span of this name: its own
        inside cost plus everything its descendants added."""
        rec = self.recs[nid]
        if not rec[CALLS]:
            return 0.0
        return self.cost_inside + rec[BELOW] / rec[CALLS] * self.cost_span

    def quantile_of(self, name: str, q: float) -> float:
        """Overhead-corrected nearest-rank quantile of a span name's
        durations, in seconds (0 when it was never called)."""
        nid = self._ids.get(name)
        if nid is None or not self.samples[nid]:
            return 0.0
        ordered = sorted(self.samples[nid])
        rank = max(1, math.ceil(q * len(ordered)))
        return max(0.0, ordered[rank - 1] - self._excess(nid))

    def span_count(self) -> int:
        return sum(rec[CALLS] for rec in self.recs)

    def edge_calls(self, parents: Tuple[str, ...], child: str) -> int:
        """Calls of ``child`` (wrapped with ``track_parents``) made
        directly under any of ``parents``."""
        cid = self._ids.get(child)
        if cid is None:
            return 0
        counts = self.parents[cid]
        return sum(counts.get(self._ids.get(parent, -1), 0)
                   for parent in parents)

    def write(self, path: str) -> int:
        """Dump retained spans as JSON lines; returns the span count."""
        with open(path, "w", encoding="utf-8") as handle:
            for idx in range(len(self._s_name)):
                handle.write(json.dumps({
                    "name": self.names[self._s_name[idx]],
                    "start": self._s_start[idx],
                    "end": self._s_end[idx],
                    "parent": self._s_parent[idx],
                    "txn": self._s_txn[idx],
                }))
                handle.write("\n")
        return len(self._s_name)


# ----------------------------------------------------------------------
# wiring: which bound methods of which live objects become spans
# ----------------------------------------------------------------------
_GLM = ("acquire", "try_acquire", "release", "release_all")
_POOL = ("fix", "unfix", "write_page", "flush_pages", "flush_all",
         "install_page", "put_page")
_DISK = ("read_page", "read_page_view", "write_page")
_LOG = ("append", "force", "force_through", "recover_local_max")
_SD_FACADE = ("begin", "read", "update", "commit", "sync_commits",
              "rollback")
_CS_FACADE = ("begin", "read", "update", "commit", "rollback",
              "send_page_back")
_CS_SERVER = ("lock", "unlock", "fetch_page", "receive_log_records",
              "receive_dirty_page", "commit_point")
_PAGE = ("read_record", "update_record", "insert_record")


def _yielded(_args: tuple, result: Any) -> int:
    """One unit per item a generator yields (none when it ends)."""
    return 0 if result is None else 1


def _first_len(args: tuple, _result: Any) -> int:
    """Work units of a batch call: the length of its first list
    argument (after the txn, when there is one)."""
    for arg in args:
        if isinstance(arg, (list, tuple)):
            return len(arg)
    return 0


def _result_int(_args: tuple, result: Any) -> int:
    return result if isinstance(result, int) else 0


def _wrap_pool_and_log(trace: SpanTracer, pool: Any, log: Any) -> None:
    trace.wrap_methods(pool, "buffer", _POOL, track_parents=("write_page",))
    trace.wrap_methods(log, "wal.log_manager", _LOG)
    trace.wrap(log, "append_many", "wal.log_manager:append_many",
               units_of=_first_len)


def _wrap_shared(trace: SpanTracer, glm: Any, disk: Any,
                 network: Any) -> None:
    trace.wrap_methods(glm, "locking", _GLM)
    trace.wrap_methods(disk, "storage.disk", _DISK,
                       track_parents=("read_page",))
    trace.wrap(disk, "write_many", "storage.disk:write_many",
               units_of=_first_len)
    trace.wrap(network, "message", "net:message")


def install(trace: SpanTracer, world: Any) -> None:
    """Wrap the public methods of ``world``'s live layer objects.

    ``world`` is a :class:`workloads.World`.  Everything installed here
    is removed again by :meth:`SpanTracer.unwrap_all`.
    """
    for attr in _PAGE:
        trace.wrap(Page, attr, f"storage.page:{attr}", class_level=True)
    trace.wrap_generator(merge_module, "merge_local_logs",
                         "wal.merge:next")
    if world.cs is not None:
        server = world.cs.server
        _wrap_shared(trace, server.glm, server.disk, server.network)
        _wrap_pool_and_log(trace, server.pool, server.log)
        trace.wrap_methods(server, "cs.server", _CS_SERVER)
        for client in world.engines:
            trace.wrap_methods(client, "cs.client", _CS_FACADE)
        return
    sd = world.sd
    _wrap_shared(trace, sd.glm, sd.disk, sd.network)
    trace.wrap(sd.coherency, "access", "sd.coherency:access")
    trace.wrap_methods(sd, "recovery",
                       ("restart_instance", "ensure_instant_recovered"))
    trace.wrap(sd, "instant_drain", "recovery:instant_drain",
               units_of=_result_int)
    for engine in world.engines:
        _wrap_pool_and_log(trace, engine.pool, engine.log)
        trace.wrap_methods(engine, "sd.instance", _SD_FACADE)
        for attr in ("read_many", "update_many"):
            trace.wrap(engine, attr, f"sd.instance:{attr}",
                       units_of=_first_len)
    if sd.replication.enabled:
        for attr in ("on_commit", "drain"):
            trace.wrap(sd.replication, attr, f"replication:shipper.{attr}")
        for standby in world.standbys:
            trace.wrap(standby, "receive", "replication:standby.receive",
                       units_of=_result_int)
