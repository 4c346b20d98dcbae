"""Per-layer metrics of a traced run.

Inputs are the span aggregates of :class:`tracing.SpanTracer`, the
counter deltas taken at the same boundaries, and the per-cycle facts of
the restart driver.  Every metric in ``catalog.PER_LAYER`` is reported
by every workload; a layer that was never called reports 0, it is not
omitted.  ``share`` = layer self time / summed step wall of the traced
run.
"""

from __future__ import annotations

import math
from statistics import mean, median
from typing import Any, Dict, List, Sequence

from repro.common.clock import wall_seconds
from repro.common.config import PAGE_SIZE
from repro.common.stats import (
    DISK_PAGE_READS,
    DISK_PAGE_WRITES,
    INSTANT_DEMAND_RECOVERIES,
    LOCK_REQUESTS,
    LOCK_WAITS,
    LOG_BYTES_WRITTEN,
    LOG_FORCES,
    LOG_FORCES_COALESCED,
    LOG_RECORDS_WRITTEN,
    MERGE_COMPARISONS,
    MESSAGE_BYTES,
    MESSAGES_SENT,
    REPL_APPLY_SKIPPED,
    REPL_BATCHES_SHIPPED,
    REPL_RECORDS_APPLIED,
    REPL_RECORDS_SHIPPED,
)
from repro.wal.records import LogRecord, PageOp, encode_op, make_update

from catalog import PER_LAYER, WorkloadSpec
from plans import Planner
from tracing import SpanTracer
from workloads import (
    MSG_INVALIDATE,
    MSG_PAGE_COPY,
    MSG_PAGE_TRANSFER,
    Tally,
    World,
)

#: Records per round / rounds of the stand-alone wal.records loops.
CODEC_RECORDS = 2000
CODEC_ROUNDS = 5

def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending sequence."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def codec_costs(world: World, spec: WorkloadSpec) -> Dict[str, float]:
    """Stand-alone encode/parse loops over the workload's own record
    mix: ``make_update`` + ``to_bytes``, then ``parse_stream``."""
    planner = Planner(spec, 0, world.slots_of)
    ops = [planner.update_op() for _ in range(CODEC_RECORDS)]
    old = bytes(len(ops[0][2]))
    encode_s: List[float] = []
    parse_s: List[float] = []
    n_bytes = 0
    for _ in range(CODEC_ROUNDS):
        started = wall_seconds()
        parts = []
        for lsn, (page_id, slot, payload) in enumerate(ops, 1):
            record = make_update(
                txn_id=1, system_id=1, page_id=page_id, slot=slot,
                redo=encode_op(PageOp.SET, payload),
                undo=encode_op(PageOp.SET, old), prev_lsn=lsn - 1)
            record.lsn = lsn
            parts.append(record.to_bytes())
        encode_s.append(wall_seconds() - started)
        blob = b"".join(parts)
        n_bytes = len(blob)
        started = wall_seconds()
        parsed = sum(1 for _ in LogRecord.parse_stream(blob))
        parse_s.append(wall_seconds() - started)
        if parsed != len(ops):
            raise RuntimeError("parse_stream lost records")
    return {
        "wal.records.encode_ns_per_record":
            median(encode_s) / len(ops) * 1e9,
        "wal.records.parse_ns_per_record":
            median(parse_s) / len(ops) * 1e9,
        "wal.records.bytes_per_update": n_bytes / len(ops),
    }


#: Layers reporting ``<layer>.self_us_per_txn``.
_SELF_PER_TXN = ("sd.instance", "cs.client", "locking", "sd.coherency",
                 "buffer", "storage.page", "storage.disk", "wal.merge",
                 "net", "cs.server")
#: metric -> layer whose self time over the attributed wall it is.
_SHARES = {
    "locking.share": "locking",
    "buffer.share": "buffer",
    "storage.disk.share": "storage.disk",
    "wal.log_manager.share": "wal.log_manager",
    "net.share": "net",
    "replication.shipper.share": "replication",
}
#: metric -> (span name, quantile) of its overhead-corrected duration, us.
_SPAN_QUANTILES_US = {
    "sd.instance.read_us_p50": ("sd.instance:read", 0.50),
    "sd.instance.update_us_p50": ("sd.instance:update", 0.50),
    "sd.instance.commit_us_p50": ("sd.instance:commit", 0.50),
    "sd.instance.commit_us_p99": ("sd.instance:commit", 0.99),
    "cs.client.read_us_p50": ("cs.client:read", 0.50),
    "cs.client.update_us_p50": ("cs.client:update", 0.50),
    "cs.client.commit_us_p50": ("cs.client:commit", 0.50),
    "storage.disk.read_us_p50": ("storage.disk:read_page", 0.50),
    "storage.disk.write_us_p50": ("storage.disk:write_page", 0.50),
    "cs.server.commit_point_us_p50": ("cs.server:commit_point", 0.50),
    "replication.shipper.on_commit_us_p50":
        ("replication:shipper.on_commit", 0.50),
    "replication.shipper.on_commit_us_p99":
        ("replication:shipper.on_commit", 0.99),
}


def compute(spec: WorkloadSpec, world: World, trace: SpanTracer,
            totals: Tally, traced_txn: float, base_txn: float,
            base_p99: float, cycles: Sequence[Dict[str, Any]],
            plain_cycles: Sequence[Dict[str, Any]],
            lag_max: int) -> Dict[str, float]:
    """All ``PER_LAYER`` metrics of one traced run, by name.

    ``traced_txn`` / ``base_txn`` are the driver-loop wall per txn of
    the traced slices and of the untraced ones interleaved with them,
    ``base_p99`` the txn latency p99 of the untraced ones.
    ``cycles`` are the facts of the traced crash cycles, ``plain_cycles``
    of the untraced ones: wall-clock restart timings come from the
    untraced cycles only.
    """
    txns = totals.txns
    ops = totals.ops
    count = totals.counter
    # Fit the tracer's cost model to this run before reading anything.
    trace.scale_costs(traced_txn - base_txn,
                      ratio(trace.loop_spans, totals.loop_txns))
    wall = trace.attributed

    def per_txn_us(seconds: float) -> float:
        return ratio(seconds, txns) * 1e6

    out: Dict[str, float] = {}
    for layer in _SELF_PER_TXN:
        out[f"{layer}.self_us_per_txn"] = per_txn_us(trace.layer_self(layer))
    for name, layer in _SHARES.items():
        out[name] = ratio(trace.layer_self(layer), wall)
    for name, (span, q) in _SPAN_QUANTILES_US.items():
        out[name] = trace.quantile_of(span, q) * 1e6
    # ---- perflab ------------------------------------------------------
    out["perflab.trace_overhead_ratio"] = traced_txn / base_txn - 1.0
    out["perflab.driver_self_us_per_txn"] = per_txn_us(
        trace.driver_self_corrected)
    out["perflab.unattributed_share"] = ratio(
        trace.loop_wall - trace.step_wall, trace.loop_wall)
    out["perflab.txn_us_p99"] = base_p99 * 1e6
    # ---- facades ------------------------------------------------------
    for call in ("read_many", "update_many"):
        span = f"sd.instance:{call}"
        out[f"sd.instance.{call}_us_per_op"] = ratio(
            trace.total(span), trace.units(span)) * 1e6
    alloc = world.alloc_times
    tenth = max(1, len(alloc) // 10)
    out["sd.instance.allocate_page_us_mean"] = mean(alloc) * 1e6
    out["sd.instance.allocate_page_growth"] = ratio(
        mean(alloc[-tenth:]), mean(alloc[:tenth]))
    out["cs.client.send_page_back_per_txn"] = ratio(
        trace.calls("cs.client:send_page_back"), txns)
    # ---- locking ------------------------------------------------------
    requests = count(LOCK_REQUESTS)
    out["locking.requests_per_op"] = ratio(requests, ops)
    out["locking.wait_ratio"] = ratio(count(LOCK_WAITS), requests)
    out["locking.retry_ratio"] = ratio(totals.retries, totals.call_steps)
    # ---- sd.coherency -------------------------------------------------
    accesses = trace.calls("sd.coherency:access")
    out["sd.coherency.access_per_op"] = ratio(accesses, ops)
    out["sd.coherency.msgs_per_access"] = ratio(
        count(MSG_PAGE_TRANSFER) + count(MSG_PAGE_COPY)
        + count(MSG_INVALIDATE), accesses)
    out["sd.coherency.disk_writes_per_access"] = ratio(
        trace.edge_calls(("sd.coherency:access",), "buffer:write_page"),
        accesses)
    # ---- buffer -------------------------------------------------------
    fixes = trace.calls("buffer:fix")
    misses = trace.edge_calls(("buffer:fix",), "storage.disk:read_page")
    out["buffer.fix_per_op"] = ratio(fixes, ops)
    out["buffer.hit_ratio"] = ratio(fixes - misses, fixes)
    out["buffer.steal_writes_per_txn"] = ratio(
        trace.edge_calls(("buffer:fix", "buffer:install_page",
                          "buffer:put_page"), "buffer:write_page"), txns)
    out["buffer.flush_pages_per_batch"] = ratio(
        trace.units("storage.disk:write_many"),
        trace.calls("buffer:flush_pages"))
    # ---- storage ------------------------------------------------------
    out["storage.page.calls_per_op"] = ratio(
        trace.calls(*trace.names_of_layer("storage.page")), ops)
    reads = count(DISK_PAGE_READS)
    writes = count(DISK_PAGE_WRITES)
    out["storage.disk.reads_per_txn"] = ratio(reads, txns)
    out["storage.disk.writes_per_txn"] = ratio(writes, txns)
    out["storage.disk.page_io_per_txn"] = ratio(reads + writes, txns)
    out["storage.disk.bytes_per_user_byte"] = ratio(
        writes * PAGE_SIZE, totals.user_bytes)
    # ---- wal ----------------------------------------------------------
    out.update(codec_costs(world, spec))
    forces = count(LOG_FORCES)
    coalesced = count(LOG_FORCES_COALESCED)
    out["wal.log_manager.appends_per_txn"] = ratio(
        count(LOG_RECORDS_WRITTEN), txns)
    out["wal.log_manager.append_self_us_per_txn"] = per_txn_us(
        trace.self_time("wal.log_manager:append",
                        "wal.log_manager:append_many"))
    out["wal.log_manager.force_self_us_per_txn"] = per_txn_us(
        trace.self_time("wal.log_manager:force",
                        "wal.log_manager:force_through"))
    out["wal.log_manager.forces_coalesced_ratio"] = ratio(
        coalesced, forces + coalesced)
    out["wal.log_manager.bytes_per_txn"] = ratio(
        count(LOG_BYTES_WRITTEN), txns)
    out["wal.log_manager.recover_local_max_ms"] = trace.quantile_of(
        "wal.log_manager:recover_local_max", 0.50) * 1e3
    out["wal.merge.comparisons_per_record"] = ratio(
        count(MERGE_COMPARISONS), trace.units("wal.merge:next"))
    # ---- net, cs.server -----------------------------------------------
    out["net.msgs_per_txn"] = ratio(count(MESSAGES_SENT), txns)
    out["net.bytes_per_txn"] = ratio(count(MESSAGE_BYTES), txns)
    out["cs.server.fetch_page_per_txn"] = ratio(
        trace.calls("cs.server:fetch_page"), txns)
    out["cs.server.receive_log_us_per_txn"] = per_txn_us(
        trace.total("cs.server:receive_log_records"))
    # ---- replication --------------------------------------------------
    batches = count(REPL_BATCHES_SHIPPED)
    out["replication.shipper.batches_per_txn"] = ratio(batches, txns)
    out["replication.shipper.records_per_batch"] = ratio(
        count(REPL_RECORDS_SHIPPED), batches)
    receive = "replication:standby.receive"
    out["replication.standby.receive_us_per_record"] = ratio(
        trace.total(receive), trace.units(receive)) * 1e6
    applied = count(REPL_RECORDS_APPLIED)
    skipped = count(REPL_APPLY_SKIPPED)
    out["replication.standby.apply_skipped_ratio"] = ratio(
        skipped, applied + skipped)
    out["replication.lag_records_max"] = float(lag_max)
    # ---- recovery -----------------------------------------------------
    out.update(_recovery(trace, totals, cycles, plain_cycles))
    return {metric.name: float(out[metric.name]) for metric in PER_LAYER}


def _recovery(trace: SpanTracer, totals: Tally,
              cycles: Sequence[Dict[str, Any]],
              plain: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    names = [m.name for m in PER_LAYER if m.layer == "recovery"]
    out = dict.fromkeys(names, 0.0)
    if not cycles:
        return out

    def med(facts_of: Sequence[Dict[str, Any]], key: str,
            scale: float = 1.0) -> float:
        return median(facts[key] for facts in facts_of) * scale

    def span_ms(name: str) -> float:
        return trace.quantile_of(name, 0.50) * 1e3

    # Wall-clock timings: untraced cycles only.
    out["recovery.ttft_ms"] = med(plain, "ttft_s", 1e3)
    out["recovery.drained_ms"] = med(plain, "drained_s", 1e3)
    out["recovery.ttft_ticks"] = med(plain, "ttft_ticks")
    out["recovery.restart_call_ms"] = med(plain, "restart_call_s", 1e3)
    first = min(facts["age"] for facts in plain)
    last = max(facts["age"] for facts in plain)
    if last > first:
        # Geometric growth per crash cycle of one world's age.
        out["recovery.restart_growth"] = ratio(
            median(facts["restart_call_s"] for facts in plain
                   if facts["age"] == last),
            median(facts["restart_call_s"] for facts in plain
                   if facts["age"] == first)) ** (1.0 / (last - first))
    out["recovery.instant.pending_pages_at_open"] = med(
        plain, "pending_pages")
    every = list(plain) + list(cycles)
    redone = sum(facts["redone"] for facts in every)
    screened = sum(facts["screened"] for facts in every)
    out["recovery.redo_applied_ratio"] = ratio(redone, redone + screened)
    out["recovery.clrs_written"] = med(every, "clrs")
    # The stand-alone analysis probe runs in the traced cycles (it is
    # not wrapped, so tracing does not slow it).
    out["recovery.analysis_ms"] = med(cycles, "analysis_s", 1e3)
    out["recovery.analysis_records_per_ms"] = median(
        ratio(facts["analysis_records"], facts["analysis_s"] * 1e3)
        for facts in cycles)
    # Span-derived.
    out["recovery.checkpoint_take_ms"] = span_ms("recovery:take_checkpoint")
    # ensure_instant_recovered runs on every page access while a
    # manager is active; the spans that actually recovered a page are
    # its instant.demand_recoveries longest.
    demand = totals.counter(INSTANT_DEMAND_RECOVERIES)
    if demand:
        guard = sorted(
            trace.raw_samples("recovery:ensure_instant_recovered"))
        stalls = guard[len(guard) - demand:]
        out["recovery.instant.demand_us_p50"] = quantile(stalls, 0.50) * 1e6
        out["recovery.instant.demand_us_p99"] = quantile(stalls, 0.99) * 1e6
    drain = "recovery:instant_drain"
    out["recovery.instant.drain_ms"] = span_ms(drain)
    out["recovery.instant.sweep_pages_per_ms"] = ratio(
        trace.units(drain), trace.total(drain) * 1e3)
    return out
