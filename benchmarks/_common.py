"""Shared helpers for the experiment benchmarks."""

from __future__ import annotations

import argparse
import difflib
import json
import re
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Tuple

from repro import SDComplex
from repro.harness.experiment import ExperimentResult, Table
from repro.sd.instance import DbmsInstance

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


def count_calls(fn: Callable[..., object], *args: object,
                histogram: Optional[Counter] = None) -> Tuple[int, int]:
    """``(interpreted, builtin)`` calls made while ``fn(*args)`` runs
    (``fn``'s own frame and the profiler's removal excluded) — the
    deterministic cost measure the hot-lane gates use where a
    wall-clock ratio would also move with the lane it is compared
    against.  ``histogram``, if given, tallies the interpreted calls
    per ``file.py:function``, so a failing budget can name the frame
    that grew (:func:`top_calls`)."""
    interpreted = builtin = 0

    def profiler(frame, event, arg):
        nonlocal interpreted, builtin
        if event == "call":
            interpreted += 1
            if histogram is not None and interpreted > 1:
                code = frame.f_code
                name = code.co_filename.rsplit("/", 1)[-1]
                histogram[f"{name}:{code.co_name}"] += 1
        elif event == "c_call":
            builtin += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return interpreted - 1, builtin - 1


def top_calls(histogram: Counter, n: int = 15) -> str:
    """The ``n`` most-called functions of a :func:`count_calls`
    histogram, one ``count  file.py:function`` line each (ties by
    name)."""
    ranked = sorted(histogram.items(), key=lambda item: (-item[1], item[0]))
    return "\n".join(f"{count:6d}  {name}" for name, count in ranked[:n])


def assert_pinned(experiment_id: str, *tables: Table,
                  drop: Iterable[str] = ()) -> None:
    """Fail with a line diff unless ``tables``, without the wall-clock
    ``drop`` columns, render exactly as the first fenced block under
    the EXPERIMENTS.md heading that names ``experiment_id``
    (``## E7 — ...``, ``### S4 — ...``).  Tables are separated by one
    blank line and every line is right-stripped, so the doc's
    "Measured" tables are the claims the benches check."""
    dropped = set(drop)
    actual: List[str] = []
    for table in tables:
        keep = [i for i, name in enumerate(table.columns)
                if name not in dropped]
        view = Table([table.columns[i] for i in keep])
        for row in table.rows:
            view.add_row(*(row[i] for i in keep))
        if actual:
            actual.append("")
        actual.extend(line.rstrip() for line in view.render().splitlines())
    heading = re.compile(rf"#+ {re.escape(experiment_id)}\b")
    lines = EXPERIMENTS_MD.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if heading.match(line))
    fence = next(i for i in range(start + 1, len(lines))
                 if lines[i].startswith("```"))
    expected = lines[fence + 1:lines.index("```", fence + 1)]
    if actual != expected:
        diff = difflib.unified_diff(expected, actual, "EXPERIMENTS.md",
                                    "measured", lineterm="")
        raise AssertionError(f"{experiment_id} drifted from its pinned "
                             "block:\n" + "\n".join(diff))


def committed_row(engine, payload=b"v0"):
    """Create one committed record; returns (page_id, slot)."""
    txn = engine.begin()
    page_id = engine.allocate_page(txn)
    slot = engine.insert(txn, page_id, payload)
    engine.commit(txn)
    return page_id, slot


def build_sd(n_instances=2, instance_cls=DbmsInstance, **kwargs):
    complex_ = SDComplex(**kwargs)
    instances = [
        complex_.add_instance(i + 1, instance_cls=instance_cls)
        for i in range(n_instances)
    ]
    return complex_, instances


def write_bench_json(result: ExperimentResult,
                     path: Optional[str] = None) -> str:
    """Serialize an :class:`ExperimentResult` to ``BENCH_<id>.json``.

    The file round-trips through ``ExperimentResult.from_dict`` —
    ``python -m repro.trace --bench BENCH_E1.json`` regenerates the
    tables the run printed, without re-running it.
    """
    out = path if path is not None else f"BENCH_{result.experiment_id}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return out


def bench_main(build_result: Callable[[], ExperimentResult],
               argv: Optional[List[str]] = None) -> int:
    """Standalone entry point for a bench module.

    Runs the experiment (``build_result`` returns an
    :class:`ExperimentResult`), prints its rendering, and with
    ``--json [PATH]`` also writes ``BENCH_<id>.json``.  Returns a
    process exit status (1 when the claim does not hold).
    """
    parser = argparse.ArgumentParser(
        description="Run this experiment outside pytest-benchmark."
    )
    parser.add_argument(
        "--json", nargs="?", const="", default=None, metavar="PATH",
        help="also write the result as JSON (default: BENCH_<id>.json)",
    )
    args = parser.parse_args(argv)
    result = build_result()
    print(result.render())
    if args.json is not None:
        out = write_bench_json(result, args.json or None)
        print(f"wrote {out}")
    return 0 if result.holds in (True, None) else 1


def section_1_5_scenario(instance_cls, filler_records=50):
    """The paper's Section 1.5 anomaly scenario; returns the value the
    disk holds after S1's restart (and both transactions' LSNs)."""
    complex_ = SDComplex(n_data_pages=128)
    s1 = complex_.add_instance(1, instance_cls=instance_cls,
                               lock_granularity="page")
    s2 = complex_.add_instance(2, instance_cls=instance_cls,
                               lock_granularity="page")
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
    t1 = s1.begin()
    s1.update(t1, page_id, slot, b"t1-committed")
    s1.commit(t1)
    t1_lsn = max(r.lsn for _, r in s1.log.scan() if r.page_id == page_id)
    complex_.crash_instance(1)
    complex_.restart_instance(1)
    survivor = complex_.disk.read_page(page_id).read_record(slot)
    return survivor, t1_lsn, t2_lsn
