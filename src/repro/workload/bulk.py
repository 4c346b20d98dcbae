"""Vectorized bulk-op workload driver (the TPS-headline lane).

The interleaved generator in :mod:`repro.workload.generator` issues one
engine call per op — the right shape for coherency/locking experiments,
and the wrong one for throughput: every record read or update pays a
full fix/lock/log round trip.  This module drives the same logical
workload through the batched engine lanes instead:

* :meth:`DbmsInstance.read_many <repro.sd.instance.DbmsInstance.read_many>`
  — one fix + one page S lock per distinct page for a whole batch;
* :meth:`DbmsInstance.update_many
  <repro.sd.instance.DbmsInstance.update_many>` — one page X lock and
  one fix per distinct page, one log record per run of consecutive ops
  on one page, one ``append_many`` for the batch's records;
* group commit (``commit(lazy=True)`` + ``sync_commits``) — one log
  force covers ``group_commit_every`` transactions.

Both drivers (:func:`run_per_call`, :func:`run_bulk`) consume the same
deterministic :class:`TxnBatch` plan and leave the database in the same
logical state, so a benchmark can race them and then diff final record
payloads to prove the fast lane cut costs, not corners.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence, Set, Tuple

__all__ = [
    "BulkConfig",
    "TxnBatch",
    "BulkRunResult",
    "build_batches",
    "run_per_call",
    "run_bulk",
]


@dataclass
class BulkConfig:
    """Knobs for :func:`build_batches`."""

    n_transactions: int = 32
    #: Ops per transaction == the vectorized batch size.
    ops_per_txn: int = 64
    read_fraction: float = 0.5
    payload_bytes: int = 32
    #: Probability mass of touching a "hot" handle vs a uniform one.
    hot_fraction: float = 0.5
    n_hot_pages: int = 2
    seed: int = 42


@dataclass
class TxnBatch:
    """One transaction's ops in columnar form: all reads, then all
    updates — the order both drivers execute them in."""

    reads: List[Tuple[int, int]] = field(default_factory=list)
    updates: List[Tuple[int, int, bytes]] = field(default_factory=list)

    def page_ids(self) -> Set[int]:
        """Every page this transaction touches (reads and updates)."""
        pages = {page_id for page_id, _ in self.reads}
        pages.update(page_id for page_id, _, _ in self.updates)
        return pages


@dataclass
class BulkRunResult:
    committed: int = 0
    reads: int = 0
    updates: int = 0
    #: Group-commit syncs issued (``run_bulk`` only; per-call commits
    #: force eagerly and never sync).
    syncs: int = 0


def build_batches(config: BulkConfig,
                  handles: Sequence[Tuple[int, int]]) -> List[TxnBatch]:
    """Deterministically plan ``n_transactions`` batches over the
    populated ``(page_id, slot)`` handles (same skew knobs as
    :func:`repro.workload.generator.build_scripts`)."""
    rng = random.Random(config.seed)
    hot = list(handles[: config.n_hot_pages])
    all_handles = list(handles)
    batches: List[TxnBatch] = []
    for _ in range(config.n_transactions):
        batch = TxnBatch()
        for _ in range(config.ops_per_txn):
            if hot and rng.random() < config.hot_fraction:
                page_id, slot = rng.choice(hot)
            else:
                page_id, slot = rng.choice(all_handles)
            if rng.random() < config.read_fraction:
                batch.reads.append((page_id, slot))
            else:
                payload = bytes(
                    rng.randrange(1, 256)
                    for _ in range(config.payload_bytes)
                )
                batch.updates.append((page_id, slot, payload))
        batches.append(batch)
    return batches


def run_per_call(engine, batches: Sequence[TxnBatch]) -> BulkRunResult:
    """The baseline: every op is its own engine call, every commit
    forces the log.  ``engine`` is a :class:`DbmsInstance
    <repro.sd.instance.DbmsInstance>`."""
    result = BulkRunResult()
    for batch in batches:
        txn = engine.begin()
        for page_id, slot in batch.reads:
            engine.read(txn, page_id, slot)
            result.reads += 1
        for page_id, slot, payload in batch.updates:
            engine.update(txn, page_id, slot, payload)
            result.updates += 1
        engine.commit(txn)
        result.committed += 1
    return result


def run_bulk(engine, batches: Sequence[TxnBatch],
             group_commit_every: int = 8) -> BulkRunResult:
    """The fast lane: one ``read_many`` + one ``update_many`` per
    transaction, lazy commits synced every ``group_commit_every``
    transactions (one log force per group).

    A lazy commit keeps its locks until the sync, so a batch whose page
    set intersects the pages held by the pending group must sync first
    — otherwise its page locks would block against transactions that
    are already (logically) committed.
    """
    if group_commit_every < 1:
        raise ValueError("group_commit_every must be >= 1")
    result = BulkRunResult()
    pending = 0
    held_pages: Set[int] = set()
    # Cursor-stability readers drop their page S locks at read_many
    # return, so only updated pages stay locked until the sync; under
    # repeatable read the read locks are held to commit too.
    holds_read_locks = getattr(engine, "isolation", "") == "repeatable_read"

    def sync() -> None:
        nonlocal pending
        if pending:
            engine.sync_commits()
            result.syncs += 1
            result.committed += pending
            pending = 0
            held_pages.clear()

    for batch in batches:
        touched = batch.page_ids()
        if held_pages & touched:
            sync()
        txn = engine.begin()
        values = engine.read_many(txn, batch.reads)
        result.reads += len(values)
        engine.update_many(txn, batch.updates)
        result.updates += len(batch.updates)
        engine.commit(txn, lazy=True)
        pending += 1
        if holds_read_locks:
            held_pages.update(touched)
        else:
            held_pages.update(page_id for page_id, _, _ in batch.updates)
        if pending >= group_commit_every:
            sync()
    sync()
    return result
