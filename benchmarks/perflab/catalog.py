"""Perf-lab catalog: the workloads and every metric name, in one place.

``BENCHMARK.json`` at the repo root is the printed form of this module
(``run.py --describe --json``); ``test_perflab.py`` asserts the two
agree, so a name, unit, direction or bound is typed exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

#: Seconds one run measures (the driver passes it back as ``--seconds``).
RUN_SECONDS = 8

#: Records are 32-byte payloads, 8 per 4 KiB page.
PAYLOAD_BYTES = 32
RECORDS_PER_PAGE = 8


@dataclass(frozen=True)
class WorkloadSpec:
    """One named workload: which driver runs it and at what size.

    ``slice_txns`` is the fixed transaction count of one *slice* — the
    unit the timed loop repeats (plans are generated and the collector
    runs between slices), at least 1000 of them so that a slice has
    ten samples beyond its p99.  An epoch is ``epoch_slices`` slices on
    one fresh world.  For the ``restart`` kind a slice is one
    crash cycle: ``slice_txns`` of load then ``post_txns`` after the
    restart.
    """

    name: str
    kind: str
    why: str
    n_pages: int
    pool: int
    slice_txns: int
    ops_per_txn: int = 4
    read_fraction: float = 0.5
    hot_pages: int = 0
    hot_fraction: float = 0.0
    post_txns: int = 0
    restart_mode: str = "eager"
    #: Measured slices per epoch (one epoch = one fresh world).
    epoch_slices: int = 5
    #: Transactions of an epoch's untimed warm-up slice.
    warmup_txns: int = 500

    def scaled(self, factor: float) -> "WorkloadSpec":
        """A shrunken copy for the self-tests (never for reported runs)."""
        if factor >= 1.0:
            return self
        n_pages = max(16, int(self.n_pages * factor))
        return replace(
            self,
            n_pages=n_pages,
            pool=max(8, int(self.pool * factor)),
            slice_txns=max(24, int(self.slice_txns * factor)),
            warmup_txns=max(8, int(self.warmup_txns * factor)),
            post_txns=max(24, int(self.post_txns * factor))
            if self.post_txns else 0,
            hot_pages=min(self.hot_pages, max(1, n_pages // 4))
            if self.hot_pages else 0,
        )


# Pool is the engine default (``DbmsInstance.buffer_capacity`` = 128
# frames); working sets are stated relative to it.
WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        "sd-percall-fit", "percall",
        "1 instance, 64 pages in a 128-frame pool (0.5x): no misses, no "
        "messages, so time is lock + WAL + page apply + facade glue",
        n_pages=64, pool=128, slice_txns=2000),
    WorkloadSpec(
        "sd-percall-miss", "percall",
        "same per-call mix over 1024 pages (8x pool): eviction steals, "
        "WAL-before-write forces and disk CRC; O(n^2) set-up shows in "
        "setup_s",
        n_pages=1024, pool=128, slice_txns=2000),
    WorkloadSpec(
        "sd-bulk-miss", "bulk",
        "same 1024-page database through read_many/update_many, 8 pages "
        "x 8 records per txn, group commit every 8: the bulk lane of the "
        "same layers",
        n_pages=1024, pool=128, slice_txns=1000, ops_per_txn=64,
        epoch_slices=3, warmup_txns=100),
    WorkloadSpec(
        "sd-shared-2sys", "stepped-sd",
        "2 instances, 256 pages, 30% of ops on an 8-page hot set, 4 live "
        "txns round-robin: page transfers, lock waits, Local_Max_LSN "
        "exchange",
        n_pages=256, pool=128, slice_txns=1500,
        hot_pages=8, hot_fraction=0.3),
    WorkloadSpec(
        "cs-commit-2cl", "stepped-cs",
        "CsSystem with 2 clients, same plan shape and stepping: "
        "client-assigned LSNs, log shipping at commit, page recall",
        n_pages=256, pool=256, slice_txns=1000,
        hot_pages=8, hot_fraction=0.3, epoch_slices=3),
    WorkloadSpec(
        "repl-quorum-2sb", "repl",
        "sd-percall-fit plus ReplicationConfig() defaults and 2 "
        "standbys: the row-to-row difference is the cost of a quorum "
        "ack",
        n_pages=64, pool=128, slice_txns=1000, epoch_slices=2),
    WorkloadSpec(
        "restart-eager", "restart",
        "crash cycles over 512 pages (4x pool): load, checkpoint, "
        "forced in-flight loser, crash, eager restart, post-restart "
        "window timed from the crash",
        n_pages=512, pool=128, slice_txns=2000, read_fraction=0.25,
        post_txns=1000, restart_mode="eager", epoch_slices=3),
    WorkloadSpec(
        "restart-instant", "restart",
        "identical history with restart_mode=instant: redo deferred to "
        "first touch, so demand-recovery stalls land in the post-restart "
        "window",
        n_pages=512, pool=128, slice_txns=2000, read_fraction=0.25,
        post_txns=1000, restart_mode="instant", epoch_slices=3),
)

WORKLOADS_BY_NAME: Dict[str, WorkloadSpec] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "higher" | "lower"
    definition: str
    bound: float = 0.0   # end-to-end only
    layer: str = ""      # per-layer only


END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "build complex + populate + plan the first slice, before the "
           "timed window; one sample per epoch, quiet (fast-side) "
           "quartile of them",
           bound=0.25),
    Metric("ops_per_s", "1/s", "higher",
           "committed record reads+updates per second of timed wall; "
           "per slice (restart-*: ops of the post-restart "
           "window / wall from crash_instance returning to its last "
           "commit, so time-to-first-commit is inside it); per slice "
           "position the quiet (fast-side) quartile over epochs, then the "
           "mean over positions",
           bound=0.25),
    Metric("txn_us_p50", "us", "lower",
           "median txn latency, begin -> commit acknowledged (lazy "
           "commits: -> covering sync_commits; stepped workloads: "
           "summed service time of the txn's own engine calls); per-slice "
           "medians combined like ops_per_s",
           bound=0.25),
    Metric("forces_per_txn", "count", "lower",
           "log.forces / committed txns over the timed window",
           bound=0.05),
    Metric("log_bytes_per_user_byte", "ratio", "lower",
           "log.bytes_written / update payload bytes over the timed "
           "window",
           bound=0.05),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of the run's process (the log never truncates; "
           "this is where it shows)",
           bound=0.25),
)


def _layer(layer: str, rows: List[Tuple[str, str, str, str]]) -> List[Metric]:
    return [Metric(f"{layer}.{suffix}", unit, better, text, layer=layer)
            for suffix, unit, better, text in rows]


PER_LAYER: Tuple[Metric, ...] = tuple(
    _layer("perflab", [
        ("trace_overhead_ratio", "ratio", "lower",
         "traced p50 txn latency / untraced p50 of the same process - 1"),
        ("driver_self_us_per_txn", "us", "lower",
         "time inside timed steps but outside every engine call"),
        ("unattributed_share", "ratio", "lower",
         "timed-window wall outside every timed step / window wall"),
        ("txn_us_p99", "us", "lower",
         "99th percentile txn latency of the run's *untraced* slices, "
         "taken per slice (>= 10 samples beyond it) and combined like "
         "txn_us_p50; too noisy on a shared host to carry a bound"),
    ])
    + _layer("sd.instance", [
        ("read_us_p50", "us", "lower", "DbmsInstance.read span p50"),
        ("update_us_p50", "us", "lower", "DbmsInstance.update span p50"),
        ("commit_us_p50", "us", "lower", "DbmsInstance.commit span p50"),
        ("commit_us_p99", "us", "lower", "DbmsInstance.commit span p99"),
        ("read_many_us_per_op", "us", "lower",
         "read_many span time / records read"),
        ("update_many_us_per_op", "us", "lower",
         "update_many span time / records updated"),
        ("self_us_per_txn", "us", "lower",
         "facade self time (span minus children) per committed txn"),
        ("allocate_page_us_mean", "us", "lower",
         "mean allocate_page call during populate"),
        ("allocate_page_growth", "ratio", "lower",
         "mean of last 10% of allocations / first 10%; 1.0 when O(1)"),
    ])
    + _layer("locking", [
        ("requests_per_op", "count", "lower", "lock.requests / record ops"),
        ("self_us_per_txn", "us", "lower",
         "GLM acquire/try_acquire/release/release_all self time"),
        ("share", "ratio", "lower", "layer self time / summed step wall"),
        ("wait_ratio", "ratio", "lower", "lock.waits / lock.requests"),
        ("retry_ratio", "ratio", "lower",
         "steps bounced by LockWouldBlock / engine-call steps"),
    ])
    + _layer("sd.coherency", [
        ("access_per_op", "count", "lower", "coherency.access calls / ops"),
        ("self_us_per_txn", "us", "lower", "coherency.access self time"),
        ("msgs_per_access", "count", "lower",
         "page_transfer + page_copy + invalidate messages / access"),
        ("disk_writes_per_access", "count", "lower",
         "pool.write_page calls made directly under access (medium-"
         "scheme surrender writes) / access"),
    ])
    + _layer("buffer", [
        ("fix_per_op", "count", "lower", "pool.fix calls / ops"),
        ("hit_ratio", "ratio", "higher",
         "1 - disk reads made under pool.fix / pool.fix calls"),
        ("self_us_per_txn", "us", "lower", "buffer pool self time"),
        ("share", "ratio", "lower", "layer self time / summed step wall"),
        ("steal_writes_per_txn", "count", "lower",
         "pool.write_page calls made under fix/install/put (evictions)"),
        ("flush_pages_per_batch", "count", "higher",
         "pages written by disk.write_many / flush_pages calls"),
    ])
    + _layer("storage.page", [
        ("calls_per_op", "count", "lower",
         "Page.read_record/update_record/insert_record calls / ops"),
        ("self_us_per_txn", "us", "lower", "slotted-page self time"),
    ])
    + _layer("storage.disk", [
        ("reads_per_txn", "count", "lower", "disk.page_reads / txns"),
        ("writes_per_txn", "count", "lower", "disk.page_writes / txns"),
        ("page_io_per_txn", "count", "lower", "reads + writes per txn"),
        ("bytes_per_user_byte", "ratio", "lower",
         "disk.page_writes x 4096 / update payload bytes"),
        ("read_us_p50", "us", "lower", "disk.read_page span p50"),
        ("write_us_p50", "us", "lower", "disk.write_page span p50"),
        ("self_us_per_txn", "us", "lower", "primary disk self time"),
        ("share", "ratio", "lower", "layer self time / summed step wall"),
    ])
    + _layer("wal.records", [
        ("encode_ns_per_record", "ns", "lower",
         "stand-alone make_update + to_bytes over the run's own ops"),
        ("parse_ns_per_record", "ns", "lower",
         "stand-alone parse_stream over the same records"),
        ("bytes_per_update", "B", "lower", "encoded bytes per update"),
    ])
    + _layer("wal.log_manager", [
        ("appends_per_txn", "count", "lower",
         "log.records_written / txns"),
        ("append_self_us_per_txn", "us", "lower",
         "append + append_many self time"),
        ("force_self_us_per_txn", "us", "lower",
         "force + force_through self time"),
        ("forces_coalesced_ratio", "ratio", "higher",
         "log.forces_coalesced / (log.forces + log.forces_coalesced)"),
        ("bytes_per_txn", "B", "lower", "log.bytes_written / txns"),
        ("share", "ratio", "lower", "layer self time / summed step wall"),
        ("recover_local_max_ms", "ms", "lower",
         "LogManager.recover_local_max span, median over restarts"),
    ])
    + _layer("wal.merge", [
        ("comparisons_per_record", "count", "lower",
         "merge.comparisons / records the merge yielded"),
        ("self_us_per_txn", "us", "lower",
         "time inside merge_local_logs' iterator"),
    ])
    + _layer("net", [
        ("msgs_per_txn", "count", "lower", "net.messages_sent / txns"),
        ("bytes_per_txn", "B", "lower", "net.message_bytes / txns"),
        ("self_us_per_txn", "us", "lower", "Network.message self time"),
        ("share", "ratio", "lower", "layer self time / summed step wall"),
    ])
    + _layer("cs.client", [
        ("read_us_p50", "us", "lower", "CsClient.read span p50"),
        ("update_us_p50", "us", "lower", "CsClient.update span p50"),
        ("commit_us_p50", "us", "lower", "CsClient.commit span p50"),
        ("self_us_per_txn", "us", "lower", "client facade self time"),
        ("send_page_back_per_txn", "count", "lower",
         "send_page_back calls (recalls + evictions) / txns"),
    ])
    + _layer("cs.server", [
        ("fetch_page_per_txn", "count", "lower", "fetch_page calls / txns"),
        ("commit_point_us_p50", "us", "lower", "commit_point span p50"),
        ("receive_log_us_per_txn", "us", "lower",
         "receive_log_records span time / txns"),
        ("self_us_per_txn", "us", "lower", "server entry-point self time"),
    ])
    + _layer("replication", [
        ("shipper.on_commit_us_p50", "us", "lower", "on_commit span p50"),
        ("shipper.on_commit_us_p99", "us", "lower", "on_commit span p99"),
        ("shipper.batches_per_txn", "count", "lower",
         "repl.batches_shipped / txns"),
        ("shipper.records_per_batch", "count", "higher",
         "repl.records_shipped / repl.batches_shipped"),
        ("shipper.share", "ratio", "lower",
         "shipper + standby self time / summed step wall"),
        ("standby.receive_us_per_record", "us", "lower",
         "StandbyComplex.receive span time / records applied"),
        ("standby.apply_skipped_ratio", "ratio", "lower",
         "repl.apply_skipped / (applied + skipped)"),
        ("lag_records_max", "count", "lower",
         "max pending_records() seen at slice ends"),
    ])
    + _layer("recovery", [
        ("ttft_ms", "ms", "lower",
         "crash_instance returned -> first post-restart commit "
         "acknowledged (traced run), median over cycles"),
        ("drained_ms", "ms", "lower",
         "same origin -> all redo applied and flush_all done, excluding "
         "the post-restart window's own time"),
        ("ttft_ticks", "count", "lower",
         "disk reads+writes over the TTFT interval (S4's currency)"),
        ("analysis_ms", "ms", "lower",
         "analysis_pass timed stand-alone on the crashed log"),
        ("analysis_records_per_ms", "1/ms", "higher",
         "records analysed / analysis_ms"),
        ("restart_call_ms", "ms", "lower",
         "SDComplex.restart_instance span, median over cycles"),
        ("restart_growth", "ratio", "lower",
         "growth of restart_call_ms per crash cycle a world has been "
         "through (geometric mean); 1.0 when restart cost depends only "
         "on work since the checkpoint"),
        ("redo_applied_ratio", "ratio", "higher",
         "records redone / (redone + screened out by page_LSN)"),
        ("clrs_written", "count", "lower", "CLRs per restart (median)"),
        ("checkpoint_take_ms", "ms", "lower", "take_checkpoint span"),
        ("instant.pending_pages_at_open", "count", "lower",
         "pages with a pending redo chain when restart returns"),
        ("instant.demand_us_p50", "us", "lower",
         "ensure_instant_recovered spans that recovered a page, p50"),
        ("instant.demand_us_p99", "us", "lower", "same sample, p99"),
        ("instant.drain_ms", "ms", "lower", "instant_drain span"),
        ("instant.sweep_pages_per_ms", "1/ms", "higher",
         "pages swept by instant_drain / drain_ms"),
    ])
)

#: layer -> (end-to-end metrics it should move, on, predicted flat on).
INTERACTIONS: Tuple[Tuple[str, str, str, str], ...] = (
    ("perflab", "- (validity: overhead stated, unattributed < 0.05)",
     "all", "-"),
    ("sd.instance", "ops_per_s, txn_us_p50; allocate_page_* -> setup_s",
     "sd-percall-fit (glue is the largest share), sd-bulk-miss for "
     "*_many; setup_s on sd-percall-miss", "cs-commit-2cl"),
    ("locking", "ops_per_s, txn_us_p50; wait/retry -> perflab.txn_us_p99",
     "sd-percall-fit (2 requests/op); waits on sd-shared-2sys, "
     "cs-commit-2cl", "sd-bulk-miss (0.25 requests/op)"),
    ("sd.coherency", "net.msgs_per_txn, storage.disk.page_io_per_txn, "
     "txn_us_p50", "sd-shared-2sys", "single-system workloads (0 messages)"),
    ("buffer", "ops_per_s, perflab.txn_us_p99, storage.disk.page_io_per_txn",
     "sd-percall-miss, sd-bulk-miss",
     "sd-percall-fit, repl-quorum-2sb (hit ratio 1.0)"),
    ("storage.page", "ops_per_s", "sd-percall-fit", "-"),
    ("storage.disk", "ops_per_s, perflab.txn_us_p99 (a miss is the slow "
     "case); restart-* ops_per_s via redo page reads",
     "sd-percall-miss, sd-bulk-miss, restart-eager", "sd-percall-fit"),
    ("wal.records", "encode -> ops_per_s, log_bytes_per_user_byte; "
     "parse -> restart-* ops_per_s", "sd-percall-fit; restart-*", "-"),
    ("wal.log_manager", "forces_per_txn, txn_us_p50, "
     "log_bytes_per_user_byte; recover_local_max_ms -> restart-* "
     "ops_per_s", "all; append_many on sd-bulk-miss; force_through on "
     "sd-percall-miss; recover_local_max on both restart-*", "-"),
    ("wal.merge", "txn_us_p50, ops_per_s", "repl-quorum-2sb",
     "every other workload (0 calls)"),
    ("net", "net.msgs_per_txn, txn_us_p50",
     "cs-commit-2cl, sd-shared-2sys, repl-quorum-2sb",
     "sd-percall-* (0 messages)"),
    ("cs.client", "txn_us_p50, net.msgs_per_txn", "cs-commit-2cl",
     "all SD workloads"),
    ("cs.server", "txn_us_p50, forces_per_txn", "cs-commit-2cl",
     "all SD workloads"),
    ("replication", "txn_us_p50, perflab.txn_us_p99, net.msgs_per_txn",
     "repl-quorum-2sb", "sd-percall-fit (the control row)"),
    ("recovery", "analysis -> ops_per_s on both restart rows; redo -> "
     "ops_per_s on restart-eager, perflab.txn_us_p99 on restart-instant; "
     "checkpoint -> load phase only", "restart-eager, restart-instant",
     "normal-operation workloads"),
)


def benchmark_json() -> Dict[str, object]:
    """The exact content of the repo-root ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perflab/run.py"],
        "paths": ["benchmarks/perflab"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
