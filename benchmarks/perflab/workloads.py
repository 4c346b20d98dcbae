"""Perf-lab worlds, closed-loop drivers and the dict-model oracle.

Load model: closed loop, one generator process, one thread — callers of
this in-process library wait for each reply.  The drivers call only
``begin/read/update/commit/read_many/update_many/sync_commits/
rollback`` and the crash/restart entry points.

Every driver keeps a dict model of the last committed payload per
``(page, slot)``; reads are checked against it as they return and
:func:`verify_world` compares every record read back from disk.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.clock import wall_seconds
from repro.common.errors import DeadlockError, LockWouldBlock
from repro.common.stats import (
    DISK_PAGE_READS,
    DISK_PAGE_WRITES,
    INSTANT_DEMAND_RECOVERIES,
    INSTANT_SWEEP_RECOVERIES,
    LOCK_REQUESTS,
    LOCK_WAITS,
    LOG_BYTES_WRITTEN,
    LOG_FORCES,
    LOG_FORCES_COALESCED,
    LOG_RECORDS_WRITTEN,
    MERGE_COMPARISONS,
    MESSAGE_BYTES,
    MESSAGES_SENT,
    REPL_APPLY_SKIPPED,
    REPL_BATCHES_SHIPPED,
    REPL_RECORDS_APPLIED,
    REPL_RECORDS_SHIPPED,
    StatsRegistry,
    message_kind_counter,
)
from repro.cs.system import CsSystem
from repro.recovery.aries import RestartSummary, analysis_pass
from repro.recovery.checkpoint import take_checkpoint
from repro.replication import ReplicationConfig
from repro.sd.complex import SDComplex

from catalog import PAYLOAD_BYTES, RECORDS_PER_PAGE, WorkloadSpec
from plans import BulkTxn, Planner, Txn
from tracing import SpanTracer

#: Live transactions the stepped drivers interleave (2 per system).
LIVE_TXNS = 4
#: A deadlock victim is rolled back and rerun this many times at most.
MAX_ATTEMPTS = 10
#: Lazy commits covered by one ``sync_commits`` in the bulk lane.
GROUP_COMMIT_EVERY = 8
#: The load phase of a restart cycle checkpoints at this fraction.
CHECKPOINT_AT = 0.75

MSG_PAGE_TRANSFER = message_kind_counter("page_transfer")
MSG_PAGE_COPY = message_kind_counter("page_copy")
MSG_INVALIDATE = message_kind_counter("invalidate")

#: Counters snapshotted around every timed part (read through the
#: named constants in repro.common.stats, rule R006).
COUNTERS: Tuple[str, ...] = (
    LOG_FORCES, LOG_FORCES_COALESCED, LOG_BYTES_WRITTEN,
    LOG_RECORDS_WRITTEN, MESSAGES_SENT, MESSAGE_BYTES, DISK_PAGE_READS,
    DISK_PAGE_WRITES, LOCK_REQUESTS, LOCK_WAITS, MERGE_COMPARISONS,
    REPL_BATCHES_SHIPPED, REPL_RECORDS_SHIPPED, REPL_RECORDS_APPLIED,
    REPL_APPLY_SKIPPED, MSG_PAGE_TRANSFER, MSG_PAGE_COPY, MSG_INVALIDATE,
    INSTANT_DEMAND_RECOVERIES, INSTANT_SWEEP_RECOVERIES,
)

Key = Tuple[int, int]


class World:
    """A built and populated system under test."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self.stats = StatsRegistry()
        self.sd: Optional[SDComplex] = None
        self.cs: Optional[CsSystem] = None
        self.engines: List[Any] = []
        self.standbys: List[Any] = []
        self.slots_of: Dict[int, List[int]] = {}
        self.model: Dict[Key, bytes] = {}
        self.alloc_times: List[float] = []
        kind = spec.kind
        if kind == "stepped-cs":
            self.cs = CsSystem(n_data_pages=spec.n_pages, stats=self.stats)
            self.engines = [self.cs.add_client(1), self.cs.add_client(2)]
            self.disk = self.cs.server.disk
        else:
            self.sd = SDComplex(
                n_data_pages=spec.n_pages, stats=self.stats,
                replicate=ReplicationConfig() if kind == "repl" else None,
                restart_mode=spec.restart_mode)
            n_instances = 2 if kind == "stepped-sd" else 1
            self.engines = [
                self.sd.add_instance(i + 1, buffer_capacity=spec.pool)
                for i in range(n_instances)
            ]
            if kind == "repl":
                self.standbys = [self.sd.replication.add_standby(9),
                                 self.sd.replication.add_standby(10)]
            self.disk = self.sd.disk
        self._populate(self.engines[0])

    def _populate(self, engine: Any) -> None:
        """One transaction allocates and fills every page.  Pages come
        from ``allocate_page(txn)`` with no id hint, so the engine's own
        free-page search is part of ``setup_s``."""
        model = self.model
        txn = engine.begin()
        for _ in range(self.spec.n_pages):
            started = wall_seconds()
            page_id = engine.allocate_page(txn)
            self.alloc_times.append(wall_seconds() - started)
            slots = []
            for r in range(RECORDS_PER_PAGE):
                payload = bytes([r + 1]) * PAYLOAD_BYTES
                slot = engine.insert(txn, page_id, payload)
                slots.append(slot)
                model[page_id, slot] = payload
            self.slots_of[page_id] = slots
        engine.commit(txn)

    def snapshot(self) -> Tuple[int, ...]:
        get = self.stats.get
        return tuple(get(name) for name in COUNTERS)

    def flush(self) -> None:
        """Make every committed update reach the primary disk."""
        if self.cs is not None:
            self.cs.quiesce()
        else:
            for engine in self.engines:
                engine.pool.flush_all()

    def disk_sha256(self) -> str:
        digest = hashlib.sha256()
        for page_id in self.disk.written_page_ids():
            digest.update(self.disk.raw_image(page_id))
        return digest.hexdigest()


def verify_world(world: World) -> Tuple[int, int]:
    """The oracle: flush, then compare every record on disk (and on
    every standby's replica image) with the model.  Returns
    ``(records checked, mismatches)``."""
    world.flush()
    disks = [world.disk] + [standby.disk for standby in world.standbys]
    checked = mismatches = 0
    for disk in disks:
        for page_id, slots in world.slots_of.items():
            page = disk.read_page(page_id)
            for slot in slots:
                checked += 1
                if page.read_record(slot) != world.model[page_id, slot]:
                    mismatches += 1
    return checked, mismatches


class Tally:
    """What one timed part did; drivers fill it, the runner sums it."""

    def __init__(self) -> None:
        self.wall = 0.0
        #: Wall and committed txns of the driver loops alone (equal to
        #: wall/txns except for a restart cycle, whose wall also holds
        #: the restart itself).
        self.loop_wall = 0.0
        self.loop_txns = 0
        self.txns = 0
        self.ops = 0
        self.updates = 0
        self.attempted = 0
        self.failed = 0
        self.retries = 0
        self.call_steps = 0
        self.lat = array("d")
        self.counters = [0] * len(COUNTERS)

    def close(self, before: Tuple[int, ...],
              after: Tuple[int, ...]) -> None:
        """Add the counter deltas of one timed part."""
        for index, (prior, now) in enumerate(zip(before, after)):
            self.counters[index] += now - prior

    def merge(self, other: "Tally") -> None:
        """Fold another part's sums in (latencies stay with the part)."""
        self.wall += other.wall
        self.loop_wall += other.loop_wall
        self.loop_txns += other.loop_txns
        self.txns += other.txns
        self.ops += other.ops
        self.updates += other.updates
        self.attempted += other.attempted
        self.failed += other.failed
        self.retries += other.retries
        self.call_steps += other.call_steps
        for index, delta in enumerate(other.counters):
            self.counters[index] += delta

    def counter(self, name: str) -> int:
        return self.counters[COUNTERS.index(name)]

    @property
    def user_bytes(self) -> int:
        return self.updates * PAYLOAD_BYTES


def _count_updates(txns: Sequence[Txn]) -> int:
    return sum(1 for ops in txns for op in ops if op[2] is not None)


# ----------------------------------------------------------------------
# per-call lane (also the replication and restart building block)
# ----------------------------------------------------------------------
def run_percall(world: World, txns: Sequence[Txn], tally: Tally,
                trace: Optional[SpanTracer]) -> None:
    """Every op is its own engine call, every commit forces the log."""
    engine = world.engines[0]
    model = world.model
    now = wall_seconds
    begin, read, update, commit = (engine.begin, engine.read,
                                   engine.update, engine.commit)
    note = tally.lat.append
    end_step = trace.end_step if trace is not None else None
    bad = 0
    before = world.snapshot()
    started = now()
    for ops in txns:
        t0 = now()
        txn = begin()
        for page_id, slot, payload in ops:
            if payload is None:
                if read(txn, page_id, slot) != model[page_id, slot]:
                    bad += 1
            else:
                update(txn, page_id, slot, payload)
                model[page_id, slot] = payload
        commit(txn)
        t1 = now()
        note(t1 - t0)
        if end_step is not None:
            end_step(t0, t1)
    elapsed = now() - started
    tally.wall += elapsed
    tally.loop_wall += elapsed
    tally.loop_txns += len(txns)
    if trace is not None:
        trace.loop_wall += elapsed
    tally.close(before, world.snapshot())
    tally.txns += len(txns)
    tally.attempted += len(txns)
    tally.failed += bad
    n_ops = sum(len(ops) for ops in txns)
    tally.ops += n_ops
    tally.updates += _count_updates(txns)
    tally.call_steps += n_ops


# ----------------------------------------------------------------------
# bulk lane
# ----------------------------------------------------------------------
def run_bulk(world: World, txns: Sequence[BulkTxn], tally: Tally,
             trace: Optional[SpanTracer]) -> None:
    """One read_many + one update_many per txn, lazy commits synced
    every GROUP_COMMIT_EVERY txns — early when a batch touches a page a
    pending commit still holds locked.  Latency runs to the covering
    sync, which is when a lazy commit is acknowledged."""
    engine = world.engines[0]
    model = world.model
    now = wall_seconds
    begin, read_many, update_many, commit, sync_commits = (
        engine.begin, engine.read_many, engine.update_many, engine.commit,
        engine.sync_commits)
    note = tally.lat.append
    end_step = trace.end_step if trace is not None else None
    pending: List[float] = []
    held: set = set()
    bad = 0

    def sync() -> None:
        s0 = now()
        sync_commits()
        s1 = now()
        for t_begin in pending:
            note(s1 - t_begin)
        pending.clear()
        held.clear()
        if end_step is not None:
            end_step(s0, s1)

    before = world.snapshot()
    started = now()
    for reads, updates, pages in txns:
        if pending and not held.isdisjoint(pages):
            sync()
        expected = [model[key] for key in reads]
        t0 = now()
        txn = begin()
        values = read_many(txn, reads)
        update_many(txn, updates)
        commit(txn, lazy=True)
        t1 = now()
        if end_step is not None:
            end_step(t0, t1)
        if values != expected:
            bad += sum(1 for got, want in zip(values, expected)
                       if got != want)
        for page_id, slot, payload in updates:
            model[page_id, slot] = payload
            held.add(page_id)
        pending.append(t0)
        if len(pending) >= GROUP_COMMIT_EVERY:
            sync()
    if pending:
        sync()
    elapsed = now() - started
    tally.wall += elapsed
    tally.loop_wall += elapsed
    tally.loop_txns += len(txns)
    if trace is not None:
        trace.loop_wall += elapsed
    tally.close(before, world.snapshot())
    tally.txns += len(txns)
    tally.attempted += len(txns)
    tally.failed += bad
    n_updates = sum(len(updates) for _, updates, _ in txns)
    tally.ops += n_updates + sum(len(reads) for reads, _, _ in txns)
    tally.updates += n_updates
    tally.call_steps += 3 * len(txns)


# ----------------------------------------------------------------------
# stepped lane (shared-disks 2 systems, client-server 2 clients)
# ----------------------------------------------------------------------
class _Live:
    __slots__ = ("ops", "engine", "n_updates", "tid", "txn", "idx",
                 "attempts", "service", "writes")

    def __init__(self, ops: Txn, engine: Any, n_updates: int,
                 tid: int) -> None:
        self.ops = ops
        self.engine = engine
        self.n_updates = n_updates
        self.tid = tid
        self.txn: Any = None
        self.idx = 0
        self.attempts = 0
        self.service = 0.0
        self.writes: Dict[Key, bytes] = {}


def run_stepped(world: World, txns: Sequence[Txn], tally: Tally,
                trace: Optional[SpanTracer]) -> None:
    """LIVE_TXNS transactions stepped round-robin, one engine call per
    step; txn ``i`` runs on engine ``i mod n``.  ``LockWouldBlock``
    retries the step on the next round, ``DeadlockError`` rolls the
    victim back and reruns it (MAX_ATTEMPTS, then counted failed).  A
    transaction's latency is its service time: the summed wall of its
    own steps, retries and rollbacks included."""
    engines = world.engines
    n_engines = len(engines)
    model = world.model
    now = wall_seconds
    note = tally.lat.append
    end_step = trace.end_step if trace is not None else None
    first_tid = trace.current_txn if trace is not None else 0
    queue = deque(
        _Live(ops, engines[index % n_engines],
              sum(1 for op in ops if op[2] is not None), first_tid + index)
        for index, ops in enumerate(txns))
    live: List[_Live] = []
    bad = failed = retries = steps = committed = ops_done = updates = 0
    idle_rounds = 0
    before = world.snapshot()
    started = now()
    while queue or live:
        while queue and len(live) < LIVE_TXNS:
            live.append(queue.popleft())
        progressed = False
        for entry in tuple(live):
            engine = entry.engine
            ops = entry.ops
            done = False
            check: Optional[Tuple[Key, Any]] = None
            if trace is not None:
                trace.current_txn = entry.tid
            t0 = now()
            try:
                if entry.txn is None:
                    entry.txn = engine.begin()
                if entry.idx == len(ops):
                    engine.commit(entry.txn)
                    done = True
                else:
                    page_id, slot, payload = ops[entry.idx]
                    if payload is None:
                        check = ((page_id, slot),
                                 engine.read(entry.txn, page_id, slot))
                    else:
                        engine.update(entry.txn, page_id, slot, payload)
                        entry.writes[page_id, slot] = payload
                    entry.idx += 1
            except LockWouldBlock:
                t1 = now()
                entry.service += t1 - t0
                retries += 1
                steps += 1
                if end_step is not None:
                    end_step(t0, t1, True, False)
                continue
            except DeadlockError:
                engine.rollback(entry.txn)
                t1 = now()
                entry.service += t1 - t0
                steps += 1
                if end_step is not None:
                    end_step(t0, t1, True, False)
                entry.txn = None
                entry.idx = 0
                entry.writes.clear()
                entry.attempts += 1
                if entry.attempts >= MAX_ATTEMPTS:
                    live.remove(entry)
                    failed += 1
                progressed = True
                continue
            t1 = now()
            entry.service += t1 - t0
            steps += 1
            progressed = True
            if end_step is not None:
                end_step(t0, t1, True, False)
            if check is not None:
                key, value = check
                want = entry.writes.get(key)
                if value != (want if want is not None else model[key]):
                    bad += 1
            if done:
                model.update(entry.writes)
                note(entry.service)
                committed += 1
                ops_done += len(ops)
                updates += entry.n_updates
                live.remove(entry)
        if progressed:
            idle_rounds = 0
        else:
            idle_rounds += 1
            if idle_rounds > 10_000:
                raise RuntimeError("stepped workload stalled: lock waits "
                                   "never resolved")
    elapsed = now() - started
    tally.wall += elapsed
    tally.loop_wall += elapsed
    tally.loop_txns += committed
    if trace is not None:
        trace.loop_wall += elapsed
        trace.current_txn = first_tid + len(txns)
    tally.close(before, world.snapshot())
    tally.txns += committed
    tally.attempted += len(txns)
    tally.failed += failed + bad
    tally.ops += ops_done
    tally.updates += updates
    tally.retries += retries
    tally.call_steps += steps


# ----------------------------------------------------------------------
# restart cycles
# ----------------------------------------------------------------------
def run_restart_cycle(world: World, planner: Planner, tally: Tally,
                      trace: Optional[SpanTracer],
                      want_digest: bool) -> Dict[str, Any]:
    """One crash cycle: load with a checkpoint at 75%, one in-flight
    loser forced to the log, crash, restart, first commit, post-restart
    window, (instant: drain), flush.  The timed part — what lands in
    ``tally`` — runs from ``crash_instance`` returning to the last
    post-restart commit; the load phase is preparation."""
    spec = world.spec
    sd = world.sd
    engine = world.engines[0]
    stats = world.stats
    now = wall_seconds

    def ticks() -> int:
        return stats.get(DISK_PAGE_READS) + stats.get(DISK_PAGE_WRITES)

    load = planner.percall_slice(spec.slice_txns)
    loser_op = planner.update_op()
    first_op = planner.update_op()
    post = planner.percall_slice(spec.post_txns)
    cut = int(len(load) * CHECKPOINT_AT)
    scratch = Tally()
    run_percall(world, load[:cut], scratch, trace)
    # The checkpoint and the loser are each closed as a step, so their
    # spans stay inside the step wall like everything else traced.
    t0 = now()
    if trace is not None:
        trace.call("recovery:take_checkpoint", take_checkpoint, engine)
        trace.end_step(t0, now(), in_loop=False)
    else:
        take_checkpoint(engine)
    run_percall(world, load[cut:], scratch, trace)
    t0 = now()
    loser = engine.begin()
    engine.update(loser, *loser_op)
    engine.log.force()
    if trace is not None:
        trace.end_step(t0, now(), in_loop=False)
    facts: Dict[str, Any] = {"load": scratch}
    sd.crash_instance(1)
    if trace is not None:
        # Stand-alone analysis on the crashed log (read-only), before
        # the clock starts so it is not part of any restart timing.
        probe = RestartSummary()
        t0 = now()
        analysis_pass(engine.log, probe)
        facts["analysis_s"] = now() - t0
        facts["analysis_records"] = probe.records_analyzed
    before = world.snapshot()
    ticks_before = ticks()
    t_crash = now()
    summary = sd.restart_instance(1)
    t_open = now()
    facts["pending_pages"] = sum(
        len(manager.pending_pages()) for manager in sd.instant.values())
    txn = engine.begin()
    engine.update(txn, *first_op)
    engine.commit(txn)
    t_first = now()
    world.model[first_op[0], first_op[1]] = first_op[2]
    if trace is not None:
        trace.end_step(t_crash, t_first, in_loop=False)
    facts["ttft_s"] = t_first - t_crash
    facts["restart_call_s"] = t_open - t_crash
    facts["ttft_ticks"] = ticks() - ticks_before
    window = Tally()
    run_percall(world, post, window, trace)
    t_post = now()
    after = world.snapshot()
    sd.instant_drain()
    engine.pool.flush_all()
    t_drained = now()
    if trace is not None:
        trace.end_step(t_post, t_drained, in_loop=False)
    facts["drained_s"] = (t_drained - t_crash) - (t_post - t_first)
    facts["redone"] = summary.records_redone
    facts["screened"] = summary.redo_skipped_by_lsn
    facts["clrs"] = summary.clrs_written
    # The timed part: crash -> last post-restart commit.
    tally.wall += t_post - t_crash
    tally.loop_wall += window.loop_wall
    tally.loop_txns += window.loop_txns
    tally.close(before, after)
    tally.txns += 1 + window.txns
    tally.attempted += 1 + window.attempted
    tally.failed += window.failed + scratch.failed
    scratch.failed = 0  # counted once, here
    tally.ops += 1 + window.ops
    tally.updates += 1 + window.updates
    tally.call_steps += 1 + window.call_steps
    tally.lat.append(t_first - t_open)
    tally.lat.extend(window.lat)
    # Durability the hard way: the crash discarded the unforced log
    # tail and the pool, so every acknowledged commit must be back on
    # disk now and the forced loser's update must be gone (the model
    # never saw it).
    if trace is not None:
        # Oracle reads must not land in the layer aggregates.
        trace.unwrap_all()
    checked, mismatches = verify_world(world)
    tally.attempted += checked
    tally.failed += mismatches
    if want_digest:
        facts["disk_sha256"] = world.disk_sha256()
    return facts
