"""Multi-system transaction workloads.

The experiments need deterministic, seedable workloads with the knobs
the paper's arguments turn on:

* **hot-page skew** — the more systems touch the same pages, the more
  cross-system page transfers and per-page LSN interleavings occur;
* **log-production-rate skew** — systems that log little keep a low
  ``Local_Max_LSN``; without the Section 3.5 exchange this drags the
  global Commit_LSN into the past (experiment E2);
* **interleaving** — transactions on different systems run concurrently
  (round-robin step scheduler), with lock waits and deadlocks handled
  the way a transaction monitor would (retry / rollback-and-rerun).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.common.errors import DeadlockError, LockWouldBlock


class OpKind(enum.Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"
    FILLER = "filler"


@dataclass
class Op:
    kind: OpKind
    page_id: int = 0
    slot: int = 0
    payload: bytes = b""
    filler_records: int = 0
    use_commit_lsn: bool = False


@dataclass
class TxnScript:
    """One transaction's planned operations, bound to a system index."""

    system_index: int
    ops: List[Op] = field(default_factory=list)


@dataclass
class WorkloadConfig:
    """Knobs for :func:`build_scripts`."""

    n_transactions: int = 20
    ops_per_txn: int = 5
    read_fraction: float = 0.5
    # Of the non-read ops, this fraction are inserts of new records
    # (growing pages) instead of updates in place.
    insert_fraction: float = 0.0
    use_commit_lsn: bool = False
    payload_bytes: int = 32
    # Probability mass of touching a "hot" page vs a uniformly random one.
    hot_fraction: float = 0.5
    n_hot_pages: int = 2
    # filler_rates[i] = DUMMY records system i writes after each txn it
    # runs (the log-production-rate skew knob).
    filler_rates: Sequence[int] = ()
    seed: int = 42


def populate_pages(engine, n_pages: int, records_per_page: int,
                   payload_bytes: int = 32) -> List[Tuple[int, int]]:
    """Allocate pages and fill them with records; returns (page, slot)
    handles.  ``engine`` is a DbmsInstance or CsClient."""
    handles: List[Tuple[int, int]] = []
    txn = engine.begin()
    for _ in range(n_pages):
        page_id = engine.allocate_page(txn)
        for r in range(records_per_page):
            payload = bytes([r % 251] * payload_bytes)
            slot = engine.insert(txn, page_id, payload)
            handles.append((page_id, slot))
    engine.commit(txn)
    return handles


def build_scripts(
    config: WorkloadConfig,
    n_systems: int,
    handles: Sequence[Tuple[int, int]],
) -> List[TxnScript]:
    """Deterministically generate transaction scripts over ``handles``."""
    rng = random.Random(config.seed)
    hot = list(handles[: config.n_hot_pages])
    scripts: List[TxnScript] = []
    for t in range(config.n_transactions):
        system_index = t % n_systems
        script = TxnScript(system_index=system_index)
        for _ in range(config.ops_per_txn):
            if hot and rng.random() < config.hot_fraction:
                page_id, slot = rng.choice(hot)
            else:
                page_id, slot = rng.choice(list(handles))
            if rng.random() < config.read_fraction:
                script.ops.append(Op(
                    kind=OpKind.READ, page_id=page_id, slot=slot,
                    use_commit_lsn=config.use_commit_lsn,
                ))
            else:
                payload = bytes(
                    rng.randrange(1, 256) for _ in range(config.payload_bytes)
                )
                kind = OpKind.INSERT \
                    if rng.random() < config.insert_fraction \
                    else OpKind.UPDATE
                script.ops.append(Op(
                    kind=kind, page_id=page_id, slot=slot, payload=payload,
                ))
        rates = config.filler_rates
        if rates and system_index < len(rates) and rates[system_index]:
            script.ops.append(Op(
                kind=OpKind.FILLER, filler_records=rates[system_index],
            ))
        scripts.append(script)
    return scripts


@dataclass
class RunResult:
    committed: int = 0
    aborted_deadlock: int = 0
    lock_retries: int = 0
    reads: int = 0
    updates: int = 0


class _LiveTxn:
    __slots__ = ("script", "engine", "txn", "idx", "attempts")

    def __init__(self, script: TxnScript, engine) -> None:
        self.script = script
        self.engine = engine
        self.txn = None
        self.idx = 0
        self.attempts = 0


def _run_interleaved(
    engines: Sequence,
    scripts: Sequence[TxnScript],
    result: RunResult,
    execute_op: Callable,
    max_concurrent: int = 4,
    between_txns: Optional[Callable] = None,
) -> RunResult:
    """Round-robin step scheduler shared by the SD and CS drivers."""
    pending = list(scripts)
    live: List[_LiveTxn] = []
    stall_guard = 0
    while pending or live:
        while pending and len(live) < max_concurrent:
            script = pending.pop(0)
            live.append(_LiveTxn(script, engines[script.system_index]))
        progressed = False
        for entry in list(live):
            if entry.txn is None:
                entry.txn = entry.engine.begin()
            if entry.idx >= len(entry.script.ops):
                entry.engine.commit(entry.txn)
                result.committed += 1
                live.remove(entry)
                if between_txns is not None:
                    between_txns()
                progressed = True
                continue
            op = entry.script.ops[entry.idx]
            try:
                execute_op(entry.engine, entry.txn, op, result)
            except LockWouldBlock:
                result.lock_retries += 1
                continue
            except DeadlockError:
                entry.engine.rollback(entry.txn)
                result.aborted_deadlock += 1
                entry.txn = None
                entry.idx = 0
                entry.attempts += 1
                if entry.attempts > 10:
                    live.remove(entry)  # give up; counted as aborted
                progressed = True
                continue
            entry.idx += 1
            progressed = True
        if progressed:
            stall_guard = 0
        else:
            stall_guard += 1
            if stall_guard > 1000:
                raise RuntimeError(
                    "workload stalled: lock waits never resolved"
                )
    return result


def _execute_sd_op(instance, txn, op: Op, result: RunResult) -> None:
    if op.kind is OpKind.READ:
        instance.read(txn, op.page_id, op.slot,
                      use_commit_lsn=op.use_commit_lsn)
        result.reads += 1
    elif op.kind is OpKind.UPDATE:
        instance.update(txn, op.page_id, op.slot, op.payload)
        result.updates += 1
    elif op.kind is OpKind.INSERT:
        instance.insert(txn, op.page_id, op.payload)
        result.updates += 1
    elif op.kind is OpKind.FILLER:
        instance.write_filler(op.filler_records)


def run_interleaved_sd(
    instances: Sequence,
    scripts: Sequence[TxnScript],
    max_concurrent: int = 4,
    between_txns: Optional[Callable] = None,
) -> RunResult:
    """Drive transaction scripts against SD instances, interleaved."""
    return _run_interleaved(instances, scripts, RunResult(),
                            _execute_sd_op, max_concurrent, between_txns)


def _execute_cs_op(client, txn, op: Op, result: RunResult) -> None:
    if op.kind is OpKind.READ:
        client.read(txn, op.page_id, op.slot,
                    use_commit_lsn=op.use_commit_lsn)
        result.reads += 1
    elif op.kind is OpKind.UPDATE:
        client.update(txn, op.page_id, op.slot, op.payload)
        result.updates += 1
    elif op.kind is OpKind.INSERT:
        client.insert(txn, op.page_id, op.payload)
        result.updates += 1
    elif op.kind is OpKind.FILLER:
        for _ in range(op.filler_records):
            # Clients have no filler path in the log; model unrelated
            # work as extra LSN consumption via a scratch record.
            client.log.local_max_lsn += 1


def run_interleaved_cs(
    clients: Sequence,
    scripts: Sequence[TxnScript],
    max_concurrent: int = 4,
    between_txns: Optional[Callable] = None,
) -> RunResult:
    """Drive transaction scripts against CS clients, interleaved."""
    return _run_interleaved(clients, scripts, RunResult(), _execute_cs_op,
                            max_concurrent, between_txns)
