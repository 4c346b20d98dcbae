"""Property-based whole-system invariant tests.

Hypothesis generates random multi-system histories — updates, commits,
rollbacks, crashes, restarts, Local_Max_LSN broadcasts — and we check
the paper's invariants against an oracle model:

* I1  per-page LSNs are unique complex-wide, and the flushed disk
      version carries the maximum;
* I2  each local log's LSN sequence is strictly increasing;
* I4  every committed update survives total failure + restart;
* I5  no uncommitted update survives;
* I6  a Commit_LSN hit never exposes uncommitted data.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import SDComplex
from repro.common.errors import (
    DeadlockError,
    LockWouldBlock,
    ProtocolError,
    ReproError,
)
from repro.workload.generator import populate_pages

N_SYSTEMS = 2
N_PAGES = 3
RECORDS_PER_PAGE = 3


def op_strategy():
    handle = st.integers(0, N_PAGES * RECORDS_PER_PAGE - 1)
    system = st.integers(0, N_SYSTEMS - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("update"), system, handle,
                      st.integers(0, 255)),
            st.tuples(st.just("read_cl"), system, handle, st.just(0)),
            st.tuples(st.just("commit"), system, st.just(0), st.just(0)),
            st.tuples(st.just("rollback"), system, st.just(0), st.just(0)),
            st.tuples(st.just("crash"), system, st.just(0), st.just(0)),
            st.tuples(st.just("restart"), system, st.just(0), st.just(0)),
            st.tuples(st.just("broadcast"), st.just(0), st.just(0),
                      st.just(0)),
        ),
        min_size=1, max_size=40,
    )


class _Model:
    """Oracle: committed values plus per-transaction pending writes."""

    def __init__(self, handles):
        self.committed = {h: b"init" for h in handles}
        self.pending = [dict() for _ in range(N_SYSTEMS)]

    def commit(self, idx):
        self.committed.update(self.pending[idx])
        self.pending[idx] = {}

    def discard(self, idx):
        self.pending[idx] = {}

    def page_fully_committed(self, handles, page_id):
        for idx in range(N_SYSTEMS):
            for (p, _s) in self.pending[idx]:
                if p == page_id:
                    return False
        return True


def _run_history(ops, scheme="medium"):
    complex_ = SDComplex(n_data_pages=128, transfer_scheme=scheme)
    instances = [complex_.add_instance(i + 1) for i in range(N_SYSTEMS)]
    handles = populate_pages(instances[0], N_PAGES, RECORDS_PER_PAGE,
                             payload_bytes=4)
    # Normalise: overwrite initial payloads with a known value.
    txn = instances[0].begin()
    for page_id, slot in handles:
        instances[0].update(txn, page_id, slot, b"init")
    instances[0].commit(txn)

    model = _Model(handles)
    txns = [None] * N_SYSTEMS

    def ensure_txn(idx):
        if txns[idx] is None:
            txns[idx] = instances[idx].begin()
        return txns[idx]

    def clear_aborting(idx):
        """Retry a rollback that previously failed on a fenced page.
        Returns True when the slot is free for a new transaction."""
        from repro.txn.transaction import TxnState

        txn = txns[idx]
        if txn is None or txn.state != TxnState.ABORTING:
            return True
        try:
            instances[idx].rollback(txn)
        except ProtocolError:
            return False
        txns[idx] = None
        return True

    for op in ops:
        kind, a, b, c = op
        if kind == "update":
            idx, handle_idx, value = a, b, c
            if instances[idx].crashed or not clear_aborting(idx):
                continue
            page_id, slot = handles[handle_idx]
            payload = bytes([value]) * 4
            try:
                instances[idx].update(ensure_txn(idx), page_id, slot, payload)
                model.pending[idx][(page_id, slot)] = payload
            except LockWouldBlock:
                pass
            except DeadlockError:
                instances[idx].rollback(txns[idx])
                txns[idx] = None
                model.discard(idx)
            except ProtocolError:
                pass
        elif kind == "read_cl":
            idx, handle_idx = a, b
            if instances[idx].crashed:
                continue
            page_id, slot = handles[handle_idx]
            commit_lsn = complex_.commit_lsn.global_commit_lsn()
            try:
                page = complex_.coherency.access(instances[idx], page_id,
                                                 for_update=False)
            except ProtocolError:
                continue
            try:
                if page.page_lsn < commit_lsn:
                    # I6: the page must contain no uncommitted data.
                    assert model.page_fully_committed(handles, page_id), \
                        "Commit_LSN hit on a page with uncommitted data"
            finally:
                instances[idx].pool.unfix(page_id)
        elif kind == "commit":
            idx = a
            if instances[idx].crashed or txns[idx] is None \
                    or not clear_aborting(idx) or txns[idx] is None:
                continue
            instances[idx].commit(txns[idx])
            txns[idx] = None
            model.commit(idx)
        elif kind == "rollback":
            idx = a
            if instances[idx].crashed or txns[idx] is None:
                continue
            # An aborting transaction can never commit: drop its
            # pending writes from the oracle now, whether or not the
            # rollback completes on this attempt.
            model.discard(idx)
            try:
                instances[idx].rollback(txns[idx])
            except ProtocolError:
                # Undo needs a page a crashed system owns: postpone by
                # leaving the txn aborting (a real system would wait);
                # clear_aborting retries it later.
                continue
            txns[idx] = None
        elif kind == "crash":
            idx = a
            if instances[idx].crashed:
                continue
            complex_.crash_instance(idx + 1)
            txns[idx] = None
            model.discard(idx)
        elif kind == "restart":
            idx = a
            if not instances[idx].crashed:
                continue
            complex_.restart_instance(idx + 1)
        elif kind == "broadcast":
            complex_.broadcast_max_lsns()

    return complex_, instances, handles, model, txns


@pytest.mark.parametrize("scheme", ["medium", "fast"])
@settings(deadline=None)  # example count: the profile (tests/conftest.py)
@given(ops=op_strategy())
def test_property_durability_and_atomicity(scheme, ops):
    """I4 + I5 under arbitrary histories with crashes — under both the
    medium (single-log restart) and fast (merged-log restart) transfer
    schemes."""
    complex_, instances, handles, model, txns = _run_history(ops, scheme)
    # Open transactions never committed: drop them from the model.
    for idx in range(N_SYSTEMS):
        model.discard(idx)
    complex_.crash_complex()
    complex_.restart_complex()
    for page_id, slot in handles:
        value = complex_.disk.read_page(page_id).read_record(slot)
        assert value == model.committed[(page_id, slot)], (
            f"page {page_id} slot {slot}: disk={value!r} "
            f"expected={model.committed[(page_id, slot)]!r}"
        )


@settings(deadline=None)  # example count: the profile (tests/conftest.py)
@given(ops=op_strategy())
def test_property_lsn_invariants(ops):
    """I1 + I2 under arbitrary histories."""
    complex_, instances, handles, model, txns = _run_history(ops)
    complex_.crash_complex()
    complex_.restart_complex()
    per_page = {}
    for instance in instances:
        previous = 0
        for _, record in instance.log.scan():
            # I2: strictly increasing within a local log.
            assert record.lsn > previous
            previous = record.lsn
            if record.is_page_oriented():
                per_page.setdefault(record.page_id, []).append(record.lsn)
    # I1: no page ever sees the same LSN twice, complex-wide.
    for page_id, lsns in per_page.items():
        assert len(lsns) == len(set(lsns)), f"duplicate LSN on page {page_id}"
        # Flushed disk version carries the page's maximum LSN.
        disk_lsn = complex_.disk.page_lsn_on_disk(page_id)
        assert disk_lsn == max(lsns)
