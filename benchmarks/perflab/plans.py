"""Seeded planners: the engine sees only the generated ops.

Everything random in the perf lab comes from one ``random.Random(seed)``
owned by the :class:`Planner`; plans are generated slice by slice
*outside* the timed region.  The planner lives here, not in
``repro.workload``, so a change under ``src/`` cannot change the load.

A per-call transaction is a tuple of ``(page_id, slot, payload)`` ops
where ``payload is None`` means *read*.  A bulk transaction is a
``(reads, updates, pages)`` triple in the columnar shape
``read_many``/``update_many`` take.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from catalog import PAYLOAD_BYTES, WorkloadSpec

Op = Tuple[int, int, Optional[bytes]]
Txn = Tuple[Op, ...]
BulkTxn = Tuple[List[Tuple[int, int]], List[Tuple[int, int, bytes]],
                FrozenSet[int]]

#: Slices that feed the plan hash — always executed (one warm-up plus
#: at least one measured), so the hash does not depend on run length.
HASHED_SLICES = 2


class Planner:
    """Deterministic op generator over the populated handles."""

    def __init__(self, spec: WorkloadSpec, seed: int,
                 slots_of: Dict[int, Sequence[int]]) -> None:
        self.spec = spec
        self.rng = random.Random(seed)
        self.pages: List[int] = sorted(slots_of)
        self.slots_of = slots_of
        self.hot: List[int] = self.pages[: spec.hot_pages]
        self._hash = hashlib.sha256()
        self._slices_hashed = 0

    @property
    def plan_hash(self) -> str:
        return self._hash.hexdigest()

    def _note(self, blob: bytes) -> None:
        if self._slices_hashed < HASHED_SLICES:
            self._hash.update(blob)

    def _end_slice(self) -> None:
        self._slices_hashed += 1

    def _pick_page(self) -> int:
        rng = self.rng
        if self.hot and rng.random() < self.spec.hot_fraction:
            return self.hot[rng.randrange(len(self.hot))]
        return self.pages[rng.randrange(len(self.pages))]

    def _handle(self) -> Tuple[int, int]:
        page_id = self._pick_page()
        slots = self.slots_of[page_id]
        return page_id, slots[self.rng.randrange(len(slots))]

    def _op(self, read_fraction: float) -> Op:
        page_id, slot = self._handle()
        if self.rng.random() < read_fraction:
            self._note(b"r%d.%d;" % (page_id, slot))
            return (page_id, slot, None)
        return self._update(page_id, slot)

    def _update(self, page_id: int, slot: int) -> Tuple[int, int, bytes]:
        payload = self.rng.randbytes(PAYLOAD_BYTES)
        self._note(b"u%d.%d=" % (page_id, slot) + payload)
        return (page_id, slot, payload)

    def percall_txn(self) -> Txn:
        spec = self.spec
        return tuple(self._op(spec.read_fraction)
                     for _ in range(spec.ops_per_txn))

    def percall_slice(self, n_txns: int) -> List[Txn]:
        """``n_txns`` per-call transactions (also the stepped shape)."""
        txns = [self.percall_txn() for _ in range(n_txns)]
        self._end_slice()
        return txns

    def update_op(self) -> Tuple[int, int, bytes]:
        """One forced update (the restart cycles' loser / first txn)."""
        return self._update(*self._handle())

    def bulk_slice(self, n_txns: int) -> List[BulkTxn]:
        """Page-clustered batches: each txn draws ``ops_per_txn /
        records-per-page`` distinct pages uniformly and touches every
        record on each — what a bulk caller has; with uniform
        single-record picks the lane degenerates to one lock per op."""
        rng = self.rng
        spec = self.spec
        txns: List[BulkTxn] = []
        for _ in range(n_txns):
            reads: List[Tuple[int, int]] = []
            updates: List[Tuple[int, int, bytes]] = []
            per_page = len(self.slots_of[self.pages[0]])
            n_distinct = max(1, spec.ops_per_txn // per_page)
            chosen = rng.sample(self.pages, min(n_distinct, len(self.pages)))
            for page_id in chosen:
                for slot in self.slots_of[page_id]:
                    if rng.random() < spec.read_fraction:
                        self._note(b"r%d.%d;" % (page_id, slot))
                        reads.append((page_id, slot))
                    else:
                        updates.append(self._update(page_id, slot))
            txns.append((reads, updates, frozenset(chosen)))
        self._end_slice()
        return txns
