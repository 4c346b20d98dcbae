"""E1 — the Section 1.5 lost-update anomaly (naive vs USN).

Paper claim: if LSN = local log address, a page updated in two systems
whose logs grow at different rates can lose a *committed* update at
restart; the USN assignment rule eliminates the anomaly.

The bench replays the exact T1/T2/S1/S2 example at several log-rate
skews plus randomized multi-round variants, and reports, per scheme,
how many runs violated durability.
"""

import random

from repro.baselines.naive import NaiveDbmsInstance
from repro.harness import Table, print_banner
from repro.harness.experiment import ExperimentResult
from repro.sd.instance import DbmsInstance

from _common import (
    assert_pinned,
    bench_main,
    build_sd,
    committed_row,
    section_1_5_scenario,
)


def randomized_variant(instance_cls, seed):
    """Random cross-system update rounds with skewed filler, then a
    crash of the system holding the page dirty.  Returns True iff all
    committed values survived."""
    rng = random.Random(seed)
    complex_, instances = build_sd(2, instance_cls=instance_cls,
                                   n_data_pages=128)
    page_id, slot = committed_row(instances[0])
    expected = b"v0"
    for round_ in range(rng.randrange(2, 8)):
        instance = instances[rng.randrange(2)]
        instance.write_filler(rng.randrange(0, 40))
        txn = instance.begin()
        value = b"r%03d" % round_
        instance.update(txn, page_id, slot, value)
        instance.commit(txn)
        expected = value
    victim = complex_.coherency.writer_of(page_id)
    complex_.crash_instance(victim)
    complex_.restart_instance(victim)
    return complex_.disk.read_page(page_id).read_record(slot) == expected


def run_experiment():
    rows = []
    for label, cls in (("naive (LSN=log address)", NaiveDbmsInstance),
                       ("USN (this paper)", DbmsInstance)):
        survivor, t1_lsn, t2_lsn = section_1_5_scenario(cls)
        exact_ok = survivor == b"t1-committed"
        random_ok = sum(randomized_variant(cls, seed)
                        for seed in range(20))
        rows.append((label, t2_lsn, t1_lsn,
                     "survives" if exact_ok else "LOST",
                     f"{random_ok}/20"))
    return rows


def tables(rows):
    table = Table(["scheme", "T2 LSN", "T1 LSN (later!)",
                   "exact scenario", "random variants OK"])
    for row in rows:
        table.add_row(*row)
    return (table,)


def build_result():
    """Run E1 and package it as a serializable ExperimentResult."""
    rows = run_experiment()
    result = ExperimentResult(
        "E1",
        "USN LSN assignment eliminates the Section 1.5 "
        "lost-update anomaly; LSN = log address does not",
    )
    result.add_table("naive vs USN on the Section 1.5 scenario",
                     *tables(rows))
    naive, usn = rows
    result.record("naive_exact", naive[3])
    result.record("usn_exact", usn[3])
    result.record("usn_random_ok", usn[4])
    return result.conclude(
        naive[3] == "LOST" and usn[3] == "survives" and usn[4] == "20/20"
    )


def main(argv=None):
    return bench_main(build_result, argv)


if __name__ == "__main__":
    raise SystemExit(main())


def test_e1_anomaly(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_banner("E1", "Section 1.5 lost-update anomaly")
    (table,) = tables(rows)
    table.show()
    assert_pinned("E1", table)
    naive, usn = rows
    assert naive[3] == "LOST", "naive scheme must exhibit the anomaly"
    assert usn[3] == "survives"
    assert usn[4] == "20/20", "USN must survive every randomized variant"
    # The naive T1 LSN is smaller than T2's although T1 ran later —
    # the root cause the paper identifies.
    assert naive[2] < naive[1]
    assert usn[2] > usn[1]
