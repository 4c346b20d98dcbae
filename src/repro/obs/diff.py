"""Span-level trace diffing: where did the ticks go?

Compares two traces of the *same scenario* (eager vs instant restart,
a faulted vs a clean run, before vs after an optimization) span-by-span.
Spans are aggregated by **path** — the ``/``-joined chain of span
names from the root (``restart/recovery/redo``) — since span ids are
run-local but the causal shape is what should match across runs.

Determinism makes this sharp: two runs of one scenario produce
byte-identical traces, so *any* non-empty diff is a real behavioural
difference, not noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.obs.spans import SpanNode, build_span_forest
from repro.obs.tracer import TraceEvent


@dataclass(frozen=True)
class PathDelta:
    """Aggregate difference for one span path between two traces."""

    path: str
    count_a: int
    count_b: int
    ticks_a: int
    ticks_b: int

    @property
    def delta(self) -> int:
        """Inclusive-tick change (B minus A)."""
        return self.ticks_b - self.ticks_a


def aggregate_paths(
    forest: Iterable[SpanNode],
) -> Dict[str, Tuple[int, int]]:
    """``path -> (span count, total inclusive ticks)`` for a forest."""
    result: Dict[str, Tuple[int, int]] = {}

    def visit(node: SpanNode, prefix: str) -> None:
        path = f"{prefix}/{node.name}" if prefix else node.name
        count, ticks = result.get(path, (0, 0))
        result[path] = (count + 1, ticks + node.inclusive)
        for child in node.children:
            visit(child, path)

    for root in forest:
        visit(root, "")
    return result


def diff_traces(
    events_a: Iterable[TraceEvent],
    events_b: Iterable[TraceEvent],
) -> List[PathDelta]:
    """Span-path deltas between two traces, biggest |delta| first.

    Paths present in only one trace appear with zero count/ticks on
    the other side.  Ties sort by path for deterministic output.
    """
    paths_a = aggregate_paths(build_span_forest(events_a))
    paths_b = aggregate_paths(build_span_forest(events_b))
    deltas = [
        PathDelta(
            path=path,
            count_a=paths_a.get(path, (0, 0))[0],
            count_b=paths_b.get(path, (0, 0))[0],
            ticks_a=paths_a.get(path, (0, 0))[1],
            ticks_b=paths_b.get(path, (0, 0))[1],
        )
        for path in sorted(set(paths_a) | set(paths_b))
    ]
    deltas.sort(key=lambda d: (-abs(d.delta), d.path))
    return deltas


def render_diff(
    deltas: List[PathDelta], top: int = 15, all_paths: bool = False
) -> str:
    """ASCII diff table.

    By default only changed paths are shown (``all_paths=True`` keeps
    the identical ones too) and the list is cut at ``top`` rows
    (0 = unlimited).
    """
    rows = deltas if all_paths else [d for d in deltas if d.delta
                                     or d.count_a != d.count_b]
    if not rows:
        return "(no span differences)"
    shown = rows[:top] if top else rows
    width = max(len(d.path) for d in shown)
    width = max(width, len("span path"))
    lines = [
        f"{'span path':<{width}}  {'count A':>7}  {'count B':>7}"
        f"  {'ticks A':>8}  {'ticks B':>8}  {'delta':>8}"
    ]
    for d in shown:
        lines.append(
            f"{d.path:<{width}}  {d.count_a:>7}  {d.count_b:>7}"
            f"  {d.ticks_a:>8}  {d.ticks_b:>8}  {d.delta:>+8}"
        )
    if top and len(rows) > top:
        lines.append(f"... ({len(rows) - top} more paths)")
    return "\n".join(lines)
