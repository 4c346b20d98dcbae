"""Canned traced scenarios for the trace CLI and the regression tests.

The flagship capture is the paper's Section 1.5 lost-update anomaly
(experiment E1): two SD instances update one page, the short-log
instance crashes, and restart redo either replays the committed update
(USN LSNs) or silently skips it (naive LSNs).  Running it under a
recording tracer turns the anomaly into an inspectable artifact — the
page_LSN regression shows up as an I1/I2 invariant violation in the
naive trace and is absent from the USN trace.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.baselines.naive import NaiveDbmsInstance
from repro.common.clock import SkewedClock
from repro.obs.tracer import Tracer
from repro.sd.complex import SDComplex
from repro.sd.instance import DbmsInstance

SCENARIOS = ("e1-usn", "e1-naive", "e7-restart")

#: Default per-system clock skew, exaggerated so timelines visibly
#: drift (offset seconds, rate multiplier) — the paper's Section 1
#: premise that clocks across a complex are *not* synchronized.
DEFAULT_SKEWS: Dict[int, Tuple[float, float]] = {
    1: (37.0, 1.13),
    2: (74.0, 1.26),
}


def capture_e1(
    scheme: str = "usn",
    filler_records: int = 50,
    skews: Optional[Dict[int, Tuple[float, float]]] = None,
    injector=None,
) -> Tuple[Tracer, Dict[str, object]]:
    """Run the Section 1.5 anomaly scenario under a recording tracer.

    ``scheme`` selects the LSN rule ("usn" or "naive"); ``skews`` maps
    system id to (offset, rate) for that instance's clock.  Returns the
    tracer plus a summary dict (survivor payload, the two contending
    LSNs, and whether the committed update survived the restart).
    ``injector`` threads a :mod:`repro.faults` injector through the
    complex (default: the zero-cost null injector; an enabled injector
    with an empty plan must leave the trace byte-identical).
    """
    if scheme not in ("usn", "naive"):
        raise ValueError("scheme must be 'usn' or 'naive'")
    instance_cls = DbmsInstance if scheme == "usn" else NaiveDbmsInstance
    clock_skews = skews if skews is not None else DEFAULT_SKEWS
    tracer = Tracer()
    complex_ = SDComplex(n_data_pages=128, tracer=tracer, injector=injector)
    instances = {}
    for system_id in (1, 2):
        offset, rate = clock_skews.get(system_id, (0.0, 1.0))
        instances[system_id] = complex_.add_instance(
            system_id, instance_cls=instance_cls, lock_granularity="page",
            clock=SkewedClock(offset=offset, rate=rate),
        )
    s1, s2 = instances[1], instances[2]
    # S2 creates the record, commits, and writes the page to disk; then
    # pads its log so naive LSNs there run far ahead of S1's.
    txn = s2.begin()
    page_id = s2.allocate_page(txn)
    slot = s2.insert(txn, page_id, b"original")
    s2.commit(txn)
    s2.pool.write_page(page_id)
    s2.write_filler(filler_records)
    t2 = s2.begin()
    s2.update(t2, page_id, slot, b"t2-update")
    s2.commit(t2)
    t2_lsn = max(r.lsn for _, r in s2.log.scan() if r.page_id == page_id)
    # S1's committed update: under naive LSNs it stamps a *smaller*
    # LSN onto a page already carrying S2's large one.
    t1 = s1.begin()
    s1.update(t1, page_id, slot, b"t1-committed")
    s1.commit(t1)
    t1_lsn = max(r.lsn for _, r in s1.log.scan() if r.page_id == page_id)
    complex_.crash_instance(1)
    complex_.restart_instance(1)
    survivor = complex_.disk.read_page(page_id).read_record(slot)
    summary: Dict[str, object] = {
        "scheme": scheme,
        "page": page_id,
        "slot": slot,
        "t1_lsn": int(t1_lsn),
        "t2_lsn": int(t2_lsn),
        "survivor": survivor.decode() if survivor is not None else None,
        "committed_update_survived": survivor == b"t1-committed",
    }
    return tracer, summary


def capture_e7(
    n_txns: int = 6,
    skews: Optional[Dict[int, Tuple[float, float]]] = None,
    injector=None,
) -> Tuple[Tracer, Dict[str, object]]:
    """Run a restart-heavy scenario (experiment E7) under a tracer.

    One SD instance commits ``n_txns`` transactions, leaves one more
    in flight and an unforced committed tail in the buffer pool, then
    crashes and restarts — so the trace carries a full recovery span
    tree (analysis/redo/undo with real redo and CLR work), the input
    the critical-path profiler and the E7 time-to-recover experiment
    reason about.  Returns the tracer and a summary dict.
    """
    clock_skews = skews if skews is not None else DEFAULT_SKEWS
    tracer = Tracer()
    complex_ = SDComplex(n_data_pages=128, tracer=tracer,
                         injector=injector)
    offset, rate = clock_skews.get(1, (0.0, 1.0))
    s1 = complex_.add_instance(
        1, lock_granularity="record",
        clock=SkewedClock(offset=offset, rate=rate),
    )
    setup = s1.begin()
    page_id = s1.allocate_page(setup)
    slots = [
        s1.insert(setup, page_id, f"row-{i}".encode())
        for i in range(n_txns)
    ]
    s1.commit(setup)
    # Committed work whose page images never reach disk before the
    # crash: restart redo must replay it from the stable log.
    for i, slot in enumerate(slots):
        txn = s1.begin()
        s1.update(txn, page_id, slot, f"committed-{i}".encode())
        s1.commit(txn)
    # One loser: in flight at the crash, so undo writes CLRs.
    loser = s1.begin()
    s1.update(loser, page_id, slots[0], b"uncommitted")
    complex_.crash_instance(1)
    summary_obj = complex_.restart_instance(1)
    survivor = complex_.disk.read_page(page_id).read_record(slots[0])
    summary: Dict[str, object] = {
        "scheme": "usn",
        "page": page_id,
        "txns": n_txns,
        "records_redone": summary_obj.records_redone,
        "clrs_written": summary_obj.clrs_written,
        "loser_rolled_back": survivor == b"committed-0",
    }
    return tracer, summary


def capture(scenario: str) -> Tuple[Tracer, Dict[str, object]]:
    """Dispatch by CLI scenario name (see :data:`SCENARIOS`)."""
    if scenario == "e1-usn":
        return capture_e1("usn")
    if scenario == "e1-naive":
        return capture_e1("naive")
    if scenario == "e7-restart":
        return capture_e7()
    raise ValueError(
        f"unknown scenario {scenario!r}; choose from {', '.join(SCENARIOS)}"
    )
