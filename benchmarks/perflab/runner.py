"""Run one workload: epochs of set-up, warm-up, timed slices, oracle.

A run is a whole number of identical *epochs*.  One epoch builds and
populates a fresh world (timed: a ``setup_s`` sample), runs one untimed
warm-up slice, then ``epoch_slices`` timed slices of fixed logical
work, then checks the world against the oracle and drops it.  Epochs
repeat until ``seconds`` of timed slices have run (or exactly
``epochs`` of them, the mode in which every logical count repeats
exactly for a seed).

Why epochs: the engine's log never truncates and several paths cost
O(log length), so a world slows down as it ages.  With one long-lived
world the numbers would depend on how far the run got, i.e. on machine
speed and ``--seconds``; with fixed-length epochs every run measures
the same ages, only more or fewer times.

Every timed metric is computed per slice.  For each slice *position*
(each age of a world) the epochs' values are reduced to their *quiet
quartile* — the first quartile from the fast side — and the mean of
those over positions is reported (``setup_s``: the quiet quartile of
the epochs' set-up times).  Machine noise on a shared host is
one-sided (a neighbour only ever slows a slice down), so the quiet
quartile repeats better than the median there: under injected bursts
of contention the run-to-run spread of p99 roughly halved, and on a
quiet machine the two agree.  A change that slows the engine slows the
quiet slices too.

GC policy (the same on both sides of any comparison): the cyclic
collector is disabled inside a slice and run once between slices,
outside the timed region.
"""

from __future__ import annotations

import gc
import math
import resource
from statistics import mean
from typing import Any, Dict, List, Optional, Sequence

from repro.common.clock import wall_seconds
from repro.common.stats import LOG_BYTES_WRITTEN, LOG_FORCES

import layers
from catalog import END_TO_END, WorkloadSpec
from plans import Planner
from tracing import SpanTracer, install
from workloads import (
    COUNTERS,
    Tally,
    World,
    run_bulk,
    run_percall,
    run_restart_cycle,
    run_stepped,
    verify_world,
)

#: A time-bounded untraced run has at least this many epochs, hence
#: set-ups (a traced run reports no ``setup_s`` and may stop after one).
MIN_EPOCHS = 3

_SLICE_RUNNERS = {
    "percall": run_percall,
    "repl": run_percall,
    "bulk": run_bulk,
    "stepped-sd": run_stepped,
    "stepped-cs": run_stepped,
}


class SliceStat:
    """The timed numbers of one slice (one crash cycle for restart)."""

    __slots__ = ("position", "ops_per_s", "p50", "p99", "samples",
                 "txn_wall")

    def __init__(self, tally: Tally, position: int) -> None:
        ordered = sorted(tally.lat)
        self.position = position
        self.ops_per_s = tally.ops / tally.wall
        self.p50 = layers.quantile(ordered, 0.50)
        self.p99 = layers.quantile(ordered, 0.99)
        self.samples = len(ordered)
        #: Driver-loop wall per committed txn (the overhead baseline).
        self.txn_wall = tally.loop_wall / tally.loop_txns


def quiet_quartile(values: Sequence[float],
                   fast_is_high: bool = False) -> float:
    """The first quartile counted from the fast side (nearest rank)."""
    ordered = sorted(values, reverse=fast_is_high)
    return ordered[max(1, math.ceil(0.25 * len(ordered))) - 1]


def across(stats: Sequence[SliceStat], field: str,
           fast_is_high: bool = False) -> float:
    """One number from a run's slices: per slice position the quiet
    quartile over epochs, then the mean over positions."""
    positions = sorted({stat.position for stat in stats})
    return mean(
        quiet_quartile([getattr(stat, field) for stat in stats
                        if stat.position == position], fast_is_high)
        for position in positions)


class Report:
    """Everything one run produced; ``run.py`` prints it."""

    def __init__(self, spec: WorkloadSpec, seed: int, traced: bool) -> None:
        self.workload = spec.name
        self.seed = seed
        self.traced = traced
        self.correct = True
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, float] = {}
        self.info: Dict[str, Any] = {}


def plan_slice(spec: WorkloadSpec, planner: Planner,
               n_txns: Optional[int] = None) -> Any:
    if n_txns is None:
        n_txns = spec.slice_txns
    if spec.kind == "bulk":
        return planner.bulk_slice(n_txns)
    if spec.kind == "restart":
        return None  # a crash cycle plans its own phases
    return planner.percall_slice(n_txns)


class _Run:
    """State of one workload run, across its epochs."""

    def __init__(self, spec: WorkloadSpec, seed: int,
                 trace: Optional[SpanTracer]) -> None:
        self.spec = spec
        self.seed = seed
        self.trace = trace
        self.is_restart = spec.kind == "restart"
        self.planner: Optional[Planner] = None
        self.world: Optional[World] = None
        self.setup_times: List[float] = []
        self.window = Tally()      # timed parts of the measured slices
        self.unmeasured = Tally()  # warm-up and baseline slices
        self.loads = Tally()       # restart load phases run under trace
        self.stats: List[SliceStat] = []
        self.baseline: List[SliceStat] = []
        #: Facts of the measured crash cycles, and of the untraced ones
        #: a traced restart run interleaves with them.
        self.cycles: List[Dict[str, Any]] = []
        self.plain_cycles: List[Dict[str, Any]] = []
        self.lag_max = 0
        self.digest: Optional[str] = None
        self.world_slices = 0      # slices the current world has run
        self.measured_s = 0.0
        self.oracle_records = 0
        self.oracle_mismatches = 0

    def _slice(self, plan: Any, traced: bool, measured: bool,
               position: int) -> SliceStat:
        """Run one slice (one crash cycle); GC runs after it, untimed."""
        spec = self.spec
        world = self.world
        trace = self.trace if traced else None
        tally = Tally()
        started = wall_seconds()
        if trace is not None:
            install(trace, world)
        try:
            if self.is_restart:
                facts = run_restart_cycle(
                    world, self.planner, tally, trace,
                    want_digest=self.digest is None)
                facts["age"] = self.world_slices
                self.digest = facts.get("disk_sha256", self.digest)
                (self.cycles if measured else self.plain_cycles).append(
                    facts)
                if trace is not None:
                    self.loads.merge(facts["load"])
            else:
                if plan is None:
                    plan = plan_slice(spec, self.planner)
                _SLICE_RUNNERS[spec.kind](world, plan, tally, trace)
        finally:
            if trace is not None:
                trace.unwrap_all()
        if world.standbys:
            self.lag_max = max(self.lag_max,
                               world.sd.replication.pending_records())
        self.world_slices += 1
        (self.window if measured else self.unmeasured).merge(tally)
        if position >= 0:
            # Baseline slices of a traced run count toward --seconds
            # like the traced ones; warm-up does not.
            self.measured_s += wall_seconds() - started
        gc.collect()
        return SliceStat(tally, position)

    def epoch(self) -> None:
        """Set-up, warm-up, ``epoch_slices`` measured slices, oracle.
        A traced run pairs every traced slice with an untraced one: the
        overhead baseline ages with the world, and restart timings stay
        wall-clock honest."""
        spec = self.spec
        self.world = None  # the previous world goes before the next comes
        gc.collect()
        started = wall_seconds()
        self.world = world = World(spec)
        self.world_slices = 0
        if self.planner is None:
            self.planner = Planner(spec, self.seed, world.slots_of)
        elif world.slots_of != self.planner.slots_of:
            raise RuntimeError("populate is not deterministic")
        plan = plan_slice(spec, self.planner, spec.warmup_txns)
        self.setup_times.append(wall_seconds() - started)
        if self.trace is not None:
            # Wrapping materialises the layer objects' instance dicts
            # and that outlives unwrapping (attribute access stays a
            # little slower); do it before the first slice so every
            # untraced baseline slice runs in the same regime.
            install(self.trace, world)
            self.trace.unwrap_all()
        if not self.is_restart:
            # Warm-up: one short untimed slice.  A crash cycle has no
            # cheap warm-up; an epoch's first cycle is measured like
            # the rest.
            self._slice(plan, traced=False, measured=False, position=-1)
        for position in range(spec.epoch_slices):
            if self.trace is None:
                self.stats.append(self._slice(
                    None, traced=False, measured=True, position=position))
                continue
            # Baseline first at even positions, traced first at odd
            # ones, so neither side is always the older world.
            for traced in ((False, True) if position % 2 == 0
                           else (True, False)):
                stat = self._slice(None, traced=traced, measured=traced,
                                   position=position)
                (self.stats if traced else self.baseline).append(stat)
        if world.standbys:
            world.sd.replication.drain()
        checked, mismatches = verify_world(world)
        self.oracle_records += checked
        self.oracle_mismatches += mismatches


def run_workload(spec: WorkloadSpec, seed: int, seconds: float,
                 traced: bool = False, epochs: Optional[int] = None,
                 trace_out: Optional[str] = None) -> Report:
    """Run ``spec`` once and return its :class:`Report`.

    Untraced runs report the end-to-end metrics; traced runs report the
    per-layer metrics (end-to-end numbers are never taken from a traced
    run).
    """
    trace = SpanTracer(keep_spans=trace_out is not None) if traced else None
    if trace is not None:
        trace.calibrate()
    run = _Run(spec, seed, trace)
    gc.collect()
    gc.disable()
    try:
        while True:
            run.epoch()
            done = len(run.setup_times)
            if epochs is not None:
                if done >= epochs:
                    break
            elif ((trace is not None or done >= MIN_EPOCHS)
                  and run.measured_s >= seconds):
                break
    finally:
        gc.enable()
    window = run.window
    report = Report(spec, seed, traced)
    # Warm-up and baseline slices are not measured, but a wrong read
    # in one of them is still a wrong read.
    report.attempted = (window.attempted + run.unmeasured.attempted
                        + run.oracle_records)
    report.failed = (window.failed + run.unmeasured.failed
                     + run.oracle_mismatches)
    report.correct = report.failed == 0
    report.info = {
        "plan_hash": run.planner.plan_hash,
        "epochs": len(run.setup_times),
        "slices": len(run.stats),
        "samples_per_slice": min(stat.samples for stat in run.stats),
        "samples": sum(stat.samples for stat in run.stats),
        "timed_wall_s": window.wall,
        "txns": window.txns,
        "oracle_records": run.oracle_records,
        "oracle_mismatches": run.oracle_mismatches,
    }
    if run.digest is not None:
        report.info["cycle1_disk_sha256"] = run.digest
    if trace is None:
        report.metrics = _end_to_end(run)
        report.info["exact"] = _exact_counts(window)
        # Reported, not bounded: see perflab.txn_us_p99 in the catalog.
        report.info["txn_us_p99"] = across(run.stats, "p99") * 1e6
    else:
        everything = Tally()
        everything.merge(window)
        everything.merge(run.loads)
        report.metrics = layers.compute(
            spec, run.world, trace, everything,
            across(run.stats, "txn_wall"), across(run.baseline, "txn_wall"),
            across(run.baseline, "p99"), run.cycles, run.plain_cycles,
            run.lag_max)
        report.info["trace_spans"] = trace.span_count()
        if trace_out is not None:
            report.info["trace_file"] = trace_out
            report.info["trace_spans_written"] = trace.write(trace_out)
    return report


def _end_to_end(run: _Run) -> Dict[str, float]:
    window, stats = run.window, run.stats
    values = {
        "setup_s": quiet_quartile(run.setup_times),
        "ops_per_s": across(stats, "ops_per_s", fast_is_high=True),
        "txn_us_p50": across(stats, "p50") * 1e6,
        "forces_per_txn": window.counter(LOG_FORCES) / window.txns,
        "log_bytes_per_user_byte":
            window.counter(LOG_BYTES_WRITTEN) / window.user_bytes,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {metric.name: values[metric.name] for metric in END_TO_END}


def _exact_counts(window: Tally) -> Dict[str, int]:
    """The logical counts of the timed window — byte-equal across runs
    of the same seed in ``--epochs`` mode."""
    counts = dict(zip(COUNTERS, window.counters))
    counts.update(txns=window.txns, ops=window.ops,
                  updates=window.updates, failed=window.failed,
                  retries=window.retries)
    return counts
