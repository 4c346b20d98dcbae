"""E8 — client-server failure recovery (Sections 1.6, 3.1, 3.2.2).

Paper claims: a failed client is recovered *by the server* from the
single log, filtering by the client identity in each record; "Redo
would be needed only for those pages for which the failed client had
write locks.  Even for some of those pages, redo would not be needed if
the server's buffer pool already had the latest versions"; server
failure is handled like an SD-complex failure.

The bench interleaves transactions across 2..6 clients, crashes each
client in turn (server recovers it), then crashes the server, and
verifies every committed value; it reports the per-recovery work.
"""

from repro import CsSystem
from repro.common.errors import ReproError
from repro.harness import Table, print_banner
from repro.workload.generator import (
    WorkloadConfig,
    build_scripts,
    populate_pages,
    run_interleaved_cs,
)

from _common import assert_pinned


def run(n_clients):
    cs = CsSystem(n_data_pages=512)
    clients = [cs.add_client(i + 1) for i in range(n_clients)]
    handles = populate_pages(clients[0], 6, 4)
    cfg = WorkloadConfig(n_transactions=6 * n_clients, ops_per_txn=3,
                         read_fraction=0.3, seed=23)
    scripts = build_scripts(cfg, n_clients, handles)
    run_interleaved_cs(clients, scripts, commit_lsn_service=cs.commit_lsn)
    for client in clients:
        client.checkpoint()

    summaries = []
    for client in clients:
        # Give the victim an in-flight transaction whose dirty page is
        # already at the server (so undo has real work).
        txn = client.begin()
        page_id, slot = handles[0]
        try:
            client.update(txn, page_id, slot, b"inflight")
            client.send_page_back(page_id)
        except ReproError:
            pass  # best-effort in-flight work; crash comes next
        cs.crash_client(client.client_id)
        summaries.append(cs.recover_client(client.client_id))

    cs.server.take_checkpoint()
    cs.crash_server()
    server_summary = cs.restart_server()
    # All committed values must be on disk now.
    for page_id, slot in handles:
        assert cs.server.disk.read_page(page_id).read_record(slot) is not None
    return summaries, server_summary


def run_experiment():
    return {n: run(n) for n in (2, 4, 6)}


def tables(results):
    table = Table(["clients", "avg scanned/recovery", "avg redone",
                   "avg skipped (buffer hit)", "losers undone",
                   "CLRs", "server losers"])
    for n, (summaries, server_summary) in sorted(results.items()):
        k = len(summaries)
        table.add_row(
            n,
            sum(s.records_scanned for s in summaries) / k,
            sum(s.records_redone for s in summaries) / k,
            sum(s.redo_skipped_buffer_hit for s in summaries) / k,
            sum(s.loser_transactions for s in summaries),
            sum(s.clrs_written for s in summaries),
            server_summary.loser_transactions,
        )
    return (table,)


def test_e8_cs_recovery(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_banner("E8", "CS client & server failure recovery")
    (table,) = tables(results)
    table.show()
    assert_pinned("E8", table)
    for n, (summaries, _) in results.items():
        assert sum(s.loser_transactions for s in summaries) >= 1, \
            "in-flight transactions must be undone by the server"
