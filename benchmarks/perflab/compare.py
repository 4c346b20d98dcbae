"""``run.py --compare A.json B.json``: one row per workload x metric.

Each row shows both sides' median and quartiles, the relative change of
the median (base: A's median), the metric's bound, and a verdict:

* ``unresolved`` — a side's own spread (interquartile distance / its
  median) is wider than the bound, so the bound cannot be judged;
* ``worse`` / ``better`` — B's median moved against / with the metric's
  direction by more than the bound;
* ``same`` — within the bound.

Exact counts (logical counters of the timed window) get one extra row
per workload and must be byte-equal when both files were produced with
the same ``--epochs`` count and seed.
"""

from __future__ import annotations

import json
from statistics import median, quantiles
from typing import Any, Dict, List, Sequence, Tuple

import catalog


def spread_of(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(first quartile, median, third quartile)``; a single value is
    its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = quantiles(values, n=4)
    return first, median(values), third


def verdict(metric: catalog.Metric, a: Sequence[float],
            b: Sequence[float]) -> Tuple[str, float]:
    """``(verdict, relative change of the median, base A)``."""
    a_q1, a_med, a_q3 = spread_of(a)
    b_q1, b_med, b_q3 = spread_of(b)
    change = (b_med - a_med) / a_med if a_med else 0.0
    for q1, med, q3 in ((a_q1, a_med, a_q3), (b_q1, b_med, b_q3)):
        if med and (q3 - q1) / abs(med) > metric.bound:
            return "unresolved", change
    worse = change if metric.better == "lower" else -change
    if worse > metric.bound:
        return "worse", change
    if worse < -metric.bound:
        return "better", change
    return "same", change


def _values(runs: List[Dict[str, Any]], name: str) -> List[float]:
    return [run["metrics"][name] for run in runs]


def compare_files(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[
        List[str], bool]:
    """Render the comparison; returns ``(lines, acceptable)`` where
    acceptable means no row is ``worse`` or ``unresolved`` and the
    exact counts agree wherever they must."""
    def describe(side: Dict[str, Any]) -> str:
        length = (f"{side['epochs']} epochs" if side.get("epochs")
                  else f"{side['seconds']} s")
        return (f"seed {side['seed']}, {length}, "
                f"{len(next(iter(side['runs'].values())))} runs per "
                f"workload, python {side['python']}, nproc {side['nproc']}")

    lines = [
        f"A: {describe(a)}",
        f"B: {describe(b)}",
        f"{'workload':<18}{'metric':<26}{'A q1/med/q3':>34}"
        f"{'B q1/med/q3':>34}{'delta (base A)':>16}{'bound':>7}  verdict",
    ]
    acceptable = True
    exact_required = (a.get("epochs") is not None
                      and a.get("epochs") == b.get("epochs")
                      and a["seed"] == b["seed"]
                      and a.get("scale") == b.get("scale"))
    for workload in (w.name for w in catalog.WORKLOADS):
        runs_a = a["runs"].get(workload, [])
        runs_b = b["runs"].get(workload, [])
        if not runs_a or not runs_b:
            continue
        for metric in catalog.END_TO_END:
            va, vb = _values(runs_a, metric.name), _values(runs_b, metric.name)
            word, change = verdict(metric, va, vb)
            acceptable = acceptable and word in ("same", "better")
            qa = "/".join(f"{v:.4g}" for v in spread_of(va))
            qb = "/".join(f"{v:.4g}" for v in spread_of(vb))
            lines.append(
                f"{workload:<18}{metric.name:<26}{qa:>34}{qb:>34}"
                f"{change:>+15.1%} {metric.bound:>7.2f}  {word}")
        exact_a = [run["info"].get("exact") for run in runs_a]
        exact_b = [run["info"].get("exact") for run in runs_b]
        equal = all(e == exact_a[0] for e in exact_a + exact_b)
        if exact_required:
            acceptable = acceptable and equal
            word = "equal" if equal else "DIFFERENT"
        else:
            word = "equal" if equal else "differ (time-bounded runs)"
        lines.append(f"{workload:<18}{'exact counts':<26}{'':>34}{'':>34}"
                     f"{'':>16}{'':>7}  {word}")
    return lines, acceptable


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    lines, acceptable = compare_files(a, b)
    print("\n".join(lines))
    print("verdict: " + ("no regression, nothing unresolved"
                         if acceptable else "NOT acceptable"))
    return 0 if acceptable else 1
