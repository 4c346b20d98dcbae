"""``python -m repro.chaos`` — run crash-point torture campaigns.

Usage:

* ``python -m repro.chaos`` — full campaign over both architectures
  (every fault point x {first, mid, last} hit, complex-wide kills,
  one torn write);
* ``python -m repro.chaos --smoke`` — the fast CI gate: <= 10 crash
  points across SD and CS, one mid-workload kill each;
* ``python -m repro.chaos --arch sd --seed 7`` — one architecture
  under a different workload seed;
* ``python -m repro.chaos --list`` — survey only: print per-point hit
  counts without crashing anything;
* ``python -m repro.chaos --drill failover`` — failover rehearsals:
  replicated primary killed at every fault point per write-ack level,
  best standby promoted, loss audited against the ack guarantees
  (``--smoke`` narrows to the replication seams + commit point);
* ``python -m repro.chaos --drill restart`` — restart rehearsals: the
  identical crash recovered eagerly and with ``restart_mode="instant"``,
  final disk images compared by SHA-256 (``--smoke`` narrows to three
  SD crash points);  an unknown drill name prints the available drills
  and exits 2;
* ``python -m repro.chaos --sabotage redo-screening`` — deliberately
  break restart redo's page_LSN test first; the campaign (or the
  ``--drill``) must go red (used to prove the alarm itself works).

The campaign and the drills are rows of one survey -> enumerate ->
run -> audit protocol (:mod:`repro.faults.campaign`) and share one
run/print/exit path.  Exit status 0 iff every spec passed its
drill's audit (recovery, harness verifier, trace invariant checker).
"""

from __future__ import annotations

import argparse
from contextlib import nullcontext
from typing import List, Optional

from repro.faults.campaign import (
    ARCHES,
    CAMPAIGN,
    FAILOVER,
    RESTART,
    run_drill,
    run_survey,
    sabotage_redo_screening,
)
from repro.faults.points import ALL_POINTS

SABOTAGES = ("redo-screening",)
#: Drill name -> drill; no ``--drill`` (``None``) runs the campaign.
DRILLS = {None: CAMPAIGN, "failover": FAILOVER, "restart": RESTART}
NAMED_DRILLS = ", ".join(sorted(name for name in DRILLS if name))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Crash-point torture campaigns over the recovery stack.",
    )
    parser.add_argument("--arch", choices=ARCHES + ("both",), default="both",
                        help="architecture(s) to torture (default: both)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default: 0)")
    parser.add_argument("--smoke", action="store_true",
                        help="fast gate: <= 10 crash points total")
    parser.add_argument("--list", action="store_true", dest="list_points",
                        help="survey only: print fault-point hit counts")
    parser.add_argument("--sabotage", choices=SABOTAGES, default=None,
                        help="break recovery on purpose to test the alarm")
    parser.add_argument("--drill", default=None, metavar="NAME",
                        help="run a named drill instead of the campaign "
                             f"(one of: {NAMED_DRILLS})")
    return parser


def _list_points(arches: List[str], seed: int) -> int:
    for arch in arches:
        survey = run_survey(arch, seed)
        print(f"-- fault points: arch={arch} seed={seed} --")
        for point in ALL_POINTS:
            first, last = survey.workload_hits(point)
            total = survey.total_hits.get(point, 0)
            build = survey.build_hits.get(point, 0)
            window = f"{first}..{last}" if last else "-"
            print(f"  {point:<17} hits={total:>4} (build={build}, "
                  f"workload={window})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    arches = list(ARCHES) if args.arch == "both" else [args.arch]
    if args.drill not in DRILLS:
        print(f"unknown drill {args.drill!r}; available drills: "
              f"{NAMED_DRILLS}")
        return 2
    if args.list_points:
        return _list_points(arches, args.seed)
    drill = DRILLS[args.drill]
    guard = (sabotage_redo_screening() if args.sabotage == "redo-screening"
             else nullcontext())
    with guard:
        reports = run_drill(drill, args.seed, args.smoke, arches)
    for report in reports:
        print(report.table())
        if drill.per_arch:
            print()
    total = sum(len(r.results) for r in reports)
    failed = sum(len(r.failed) for r in reports)
    if failed or not total:
        print(f"{drill.verdict}: FAIL — {failed}/{total} {drill.fail_text}")
        return 1
    print(f"{drill.verdict}: OK — {total} {drill.ok_text}")
    return 0


def run(argv: Optional[List[str]] = None) -> int:
    return main(argv)
