"""A5 (ablation) — data availability during restart recovery [Moha91].

The paper cites [Moha91]: the Commit_LSN machinery can "allow access to
data to new transactions even while recovery from a system failure is
in progress."  Our staged restart opens the system between the redo and
undo passes; this ablation measures how much of the database other
systems can reach during the undo window, versus the all-or-nothing
fence of a one-shot restart.
"""

from repro import SDComplex
from repro.common.errors import LockWouldBlock, ProtocolError
from repro.harness import Table, print_banner

from _common import assert_pinned

N_PAGES = 12
LOSER_PAGES = 3


def build():
    sd = SDComplex(n_data_pages=256)
    s1 = sd.add_instance(1)
    s2 = sd.add_instance(2)
    handles = []
    txn = s1.begin()
    for _ in range(N_PAGES):
        page_id = s1.allocate_page(txn)
        slot = s1.insert(txn, page_id, b"data")
        handles.append((page_id, slot))
    s1.commit(txn)
    # A loser transaction touches a few pages and is stolen to disk.
    loser = s1.begin()
    for page_id, slot in handles[:LOSER_PAGES]:
        s1.update(loser, page_id, slot, b"uncommitted")
        s1.pool.write_page(page_id)
    s1.log.force()
    sd.crash_instance(1)
    return sd, s2, handles


def accessible(s2, handles):
    """How many records a new transaction on S2 can read right now."""
    count = 0
    for page_id, slot in handles:
        txn = s2.begin()
        try:
            s2.read(txn, page_id, slot)
            count += 1
            s2.commit(txn)
        except (ProtocolError, LockWouldBlock):
            s2.rollback(txn)
    return count


def run_experiment():
    # One-shot restart: everything fenced until recovery completes.
    sd, s2, handles = build()
    before_one_shot = accessible(s2, handles)
    sd.restart_instance(1)
    after_one_shot = accessible(s2, handles)

    # Staged restart: open after redo, losers' records still locked.
    sd, s2, handles = build()
    staged = sd.begin_staged_restart(1)
    staged.run_redo()
    during_window = accessible(s2, handles)
    staged.run_undo()
    after_staged = accessible(s2, handles)
    return (before_one_shot, after_one_shot, during_window, after_staged)


def tables(results):
    before, after_one_shot, during, after_staged = results
    table = Table(["restart mode", "phase", "records readable",
                   "of total"])
    table.add_row("one-shot", "during recovery", before,
                  f"{before}/{N_PAGES}")
    table.add_row("one-shot", "after recovery", after_one_shot,
                  f"{after_one_shot}/{N_PAGES}")
    table.add_row("staged", "undo window (open)", during,
                  f"{during}/{N_PAGES}")
    table.add_row("staged", "after recovery", after_staged,
                  f"{after_staged}/{N_PAGES}")
    return (table,)


def test_a5_staged_availability(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    before, after_one_shot, during, after_staged = results
    print_banner("A5", "availability during restart "
                       f"({N_PAGES} pages, {LOSER_PAGES} held by losers)")
    (table,) = tables(results)
    table.show()
    assert_pinned("A5", table)
    assert before == 0, "the fence blocks everything pre-recovery"
    assert during == N_PAGES - LOSER_PAGES, \
        "staged restart exposes all non-loser data during undo"
    assert after_one_shot == after_staged == N_PAGES
