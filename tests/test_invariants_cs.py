"""Property-based invariant tests for the client-server architecture.

Random client histories with client crashes (recovered by the server),
server crashes (whole-deployment failure) and page recalls; checked
against an oracle model for durability and atomicity, plus per-page LSN
uniqueness across the single interleaved server log.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import CsSystem
from repro.common.errors import (
    DeadlockError,
    LockWouldBlock,
    ProtocolError,
)
from repro.workload.generator import populate_pages

N_CLIENTS = 2
N_PAGES = 3
RECORDS_PER_PAGE = 3


def op_strategy():
    handle = st.integers(0, N_PAGES * RECORDS_PER_PAGE - 1)
    client = st.integers(0, N_CLIENTS - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("update"), client, handle,
                      st.integers(0, 255)),
            st.tuples(st.just("commit"), client, st.just(0), st.just(0)),
            st.tuples(st.just("rollback"), client, st.just(0), st.just(0)),
            st.tuples(st.just("send_back"), client, handle, st.just(0)),
            st.tuples(st.just("checkpoint"), client, st.just(0), st.just(0)),
            st.tuples(st.just("crash_client"), client, st.just(0),
                      st.just(0)),
            st.tuples(st.just("crash_server"), st.just(0), st.just(0),
                      st.just(0)),
        ),
        min_size=1, max_size=35,
    )


#: ROADMAP item 0's minimal history.  Client 1, recovered from a crash,
#: restarts its LSNs low, so its uncommitted update of page 64 and client
#: 2's of page 65 carry the *same* LSN in the server log — legal under
#: the USN rule, and fatal to a restart undo that resolves records by
#: LSN alone.  (Pinned as a plain test in tests/test_cs_server.py.)
EQUAL_LSN_LOSERS = [
    ("crash_client", 0, 0, 0),
    ("update", 0, 0, 0xAA),
    ("update", 1, RECORDS_PER_PAGE, 0xBB),
    ("checkpoint", 0, 0, 0),
    ("checkpoint", 1, 0, 0),
    ("crash_server", 0, 0, 0),
]


@pytest.mark.parametrize("cache_capacity", [0, 3])
@settings(deadline=None)  # example count: the profile (tests/conftest.py)
@example(ops=EQUAL_LSN_LOSERS)
@given(ops=op_strategy())
def test_property_cs_durability_and_atomicity(cache_capacity, ops):
    """With unbounded caches and with tiny LRU caches (capacity 3),
    which forces dirty write-backs mid-transaction."""
    system = CsSystem(n_data_pages=128)
    clients = [
        system.add_client(i + 1, cache_capacity=cache_capacity)
        for i in range(N_CLIENTS)
    ]
    handles = populate_pages(clients[0], N_PAGES, RECORDS_PER_PAGE,
                             payload_bytes=4)
    txn0 = clients[0].begin()
    for page_id, slot in handles:
        clients[0].update(txn0, page_id, slot, b"init")
    clients[0].commit(txn0)

    committed = {h: b"init" for h in handles}
    pending = [dict() for _ in range(N_CLIENTS)]
    txns = [None] * N_CLIENTS

    def ensure_txn(idx):
        if txns[idx] is None:
            txns[idx] = clients[idx].begin()
        return txns[idx]

    for kind, a, b, c in ops:
        if kind == "update":
            idx, handle_idx, value = a, b, c
            if clients[idx].crashed or system.server.crashed:
                continue
            page_id, slot = handles[handle_idx]
            payload = bytes([value]) * 4
            try:
                clients[idx].update(ensure_txn(idx), page_id, slot, payload)
                pending[idx][(page_id, slot)] = payload
            except (LockWouldBlock, ProtocolError):
                pass
            except DeadlockError:
                clients[idx].rollback(txns[idx])
                txns[idx] = None
                pending[idx] = {}
        elif kind == "commit":
            idx = a
            if clients[idx].crashed or system.server.crashed \
                    or txns[idx] is None:
                continue
            clients[idx].commit(txns[idx])
            txns[idx] = None
            committed.update(pending[idx])
            pending[idx] = {}
        elif kind == "rollback":
            idx = a
            if clients[idx].crashed or system.server.crashed \
                    or txns[idx] is None:
                continue
            try:
                clients[idx].rollback(txns[idx])
            except ProtocolError:
                continue
            txns[idx] = None
            pending[idx] = {}
        elif kind == "send_back":
            idx, handle_idx = a, b
            if clients[idx].crashed or system.server.crashed:
                continue
            page_id, _ = handles[handle_idx]
            clients[idx].send_page_back(page_id)
        elif kind == "checkpoint":
            idx = a
            if clients[idx].crashed or system.server.crashed:
                continue
            clients[idx].checkpoint()
        elif kind == "crash_client":
            idx = a
            if clients[idx].crashed or system.server.crashed:
                continue
            system.crash_client(idx + 1)
            txns[idx] = None
            pending[idx] = {}
            system.recover_client(idx + 1)
        elif kind == "crash_server":
            if system.server.crashed:
                continue
            system.crash_server()
            for idx in range(N_CLIENTS):
                txns[idx] = None
                pending[idx] = {}
            system.restart_server()

    # Final verdict: crash everything, restart, compare disk to model.
    if not system.server.crashed:
        system.crash_server()
    system.restart_server()
    for page_id, slot in handles:
        value = system.server.disk.read_page(page_id).read_record(slot)
        assert value == committed[(page_id, slot)], (
            f"page {page_id} slot {slot}: disk={value!r} "
            f"expected={committed[(page_id, slot)]!r}"
        )


@settings(deadline=None)  # example count: the profile (tests/conftest.py)
@given(ops=op_strategy())
def test_property_cs_per_page_lsn_uniqueness(ops):
    """I1 in CS: per-page LSNs never repeat across the interleaved
    single log, and per-client streams are increasing."""
    system = CsSystem(n_data_pages=128)
    clients = [system.add_client(i + 1) for i in range(N_CLIENTS)]
    handles = populate_pages(clients[0], N_PAGES, RECORDS_PER_PAGE,
                             payload_bytes=4)

    txns = [None] * N_CLIENTS
    for kind, a, b, c in ops:
        if kind != "update":
            continue
        idx, handle_idx, value = a, b, c
        page_id, slot = handles[handle_idx]
        try:
            if txns[idx] is None:
                txns[idx] = clients[idx].begin()
            clients[idx].update(txns[idx], page_id, slot,
                                bytes([value]) * 4)
        except (LockWouldBlock, ProtocolError):
            pass
        except DeadlockError:
            clients[idx].rollback(txns[idx])
            txns[idx] = None
    for idx in range(N_CLIENTS):
        if txns[idx] is not None:
            clients[idx].commit(txns[idx])

    per_page = {}
    per_client = {}
    for _, record in system.server.log.scan():
        if record.is_page_oriented():
            per_page.setdefault(record.page_id, []).append(record.lsn)
        if record.system_id and record.lsn:
            per_client.setdefault(record.system_id, []).append(record.lsn)
    for page_id, lsns in per_page.items():
        assert len(lsns) == len(set(lsns))
        assert lsns == sorted(lsns)   # ship order preserves page order
    for client_id, lsns in per_client.items():
        assert lsns == sorted(lsns)
