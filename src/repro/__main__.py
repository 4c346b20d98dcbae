"""``python -m repro`` — a one-minute guided demonstration.

Runs a compact end-to-end tour of the reproduction: the shared-disks
complex with clockless LSNs, a crash/restart, the Section 1.5 anomaly
under the naive scheme, the client-server deployment, and an invariant
verification pass.  For the full experiment suite run
``pytest benchmarks/bench_*.py --benchmark-disable -s``.
"""

from __future__ import annotations

import sys

from repro import CsSystem, SDComplex, __version__
from repro.baselines.naive import NaiveDbmsInstance
from repro.harness import verify_cs_system, verify_sd_complex


def demo_sd() -> None:
    print("-- shared disks: two systems, private logs, one disk")
    sd = SDComplex()
    s1, s2 = sd.add_instance(1), sd.add_instance(2)
    txn = s1.begin()
    page_id = s1.allocate_page(txn)
    slot = s1.insert(txn, page_id, b"hello")
    s1.commit(txn)
    txn = s2.begin()
    s2.update(txn, page_id, slot, b"world")
    s2.commit(txn)
    sd.crash_instance(2)
    summary = sd.restart_instance(2)
    value = sd.disk.read_page(page_id).read_record(slot)
    print(f"   S1 wrote, S2 overwrote, S2 crashed; after ARIES restart "
          f"the page holds {value!r} (redo: {summary.records_redone})")
    report = verify_sd_complex(sd)
    print(f"   invariants: {report.summary()}")
    assert value == b"world" and report.ok


def demo_anomaly() -> None:
    print("-- the Section 1.5 anomaly, naive scheme vs USN")
    for label, cls in (("naive", NaiveDbmsInstance), ("USN", None)):
        sd = SDComplex(n_data_pages=128)
        kwargs = {"lock_granularity": "page"}
        if cls is not None:
            kwargs["instance_cls"] = cls
        s1 = sd.add_instance(1, **kwargs)
        s2 = sd.add_instance(2, **kwargs)
        txn = s2.begin()
        page_id = s2.allocate_page(txn)
        slot = s2.insert(txn, page_id, b"orig")
        s2.commit(txn)
        s2.pool.write_page(page_id)
        s2.write_filler(50)
        t2 = s2.begin()
        s2.update(t2, page_id, slot, b"t2")
        s2.commit(t2)
        t1 = s1.begin()
        s1.update(t1, page_id, slot, b"t1-committed")
        s1.commit(t1)
        sd.crash_instance(1)
        sd.restart_instance(1)
        survivor = sd.disk.read_page(page_id).read_record(slot)
        verdict = "LOST a committed update" if survivor != b"t1-committed" \
            else "preserved the committed update"
        print(f"   {label:5s}: restart {verdict} ({survivor!r})")


def demo_cs() -> None:
    print("-- client-server: local LSNs, single log, server recovery")
    cs = CsSystem()
    alice, bob = cs.add_client(1), cs.add_client(2)
    txn = alice.begin()
    page_id = alice.allocate_page(txn)
    slot = alice.insert(txn, page_id, b"v1")
    alice.commit(txn)
    txn = bob.begin()
    bob.update(txn, page_id, slot, b"v2")
    bob.commit(txn)
    cs.crash_client(2)
    summary = cs.recover_client(2)
    cs.quiesce()
    value = cs.server.disk.read_page(page_id).read_record(slot)
    print(f"   bob crashed after committing; the server recovered him "
          f"from its log (redo: {summary.records_redone}); disk holds "
          f"{value!r}")
    report = verify_cs_system(cs, quiesced=True)
    print(f"   invariants: {report.summary()}")
    assert value == b"v2" and report.ok


def main() -> int:
    print(f"repro {__version__} — Mohan & Narang (ICDCS 1992), reproduced")
    print("clockless monotonic LSNs for shared-disks and client-server "
          "DBMS recovery\n")
    demo_sd()
    demo_anomaly()
    demo_cs()
    print("\nAll demos passed.  Next steps: pytest tests/ ; "
          "pytest benchmarks/bench_*.py --benchmark-disable -s ; "
          "see examples/.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
