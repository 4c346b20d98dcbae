"""S1 — scale-out: the partitioned global lock manager.

The scale-out thesis (ROADMAP north star): the partitioning that
shards restart redo by page also shards the global lock manager.  This
bench drives the low-sharing scale-out workload across N-instance
complexes with K GLM shards, then crashes and restarts the whole
complex.

Because the simulator measures *deterministic cost*, the scaling claim
is a critical-path model over exact counters, not wall-clock:

* **GLM scaling** = total lock requests / max per-shard requests — the
  throughput factor K independent shard servers would sustain, given
  the observed routing balance (1.0 by definition at K=1).

Restart wall-clock and redo volume are printed for reference only:
redo is a single-threaded loop over per-page chains (docs/scaleout.md
has the measurement behind that).
"""

from repro.cluster import ClusterConfig, build_cluster
from repro.common.clock import wall_seconds
from repro.common.stats import LOCK_REQUESTS, glm_shard_counter
from repro.harness import Table, print_banner
from repro.harness.experiment import ExperimentResult
from repro.workload.scaleout import LOW_SHARING, run_scaleout

from _common import bench_main


def run_config(n_instances, shards):
    """One sweep point; returns the row dict for the tables."""
    sd = build_cluster(
        ClusterConfig(n_instances=n_instances, lock_shards=shards,
                      n_data_pages=256))
    workload = run_scaleout(sd, LOW_SHARING)
    total_requests = sd.stats.get(LOCK_REQUESTS)
    if shards > 1:
        per_shard = [
            sd.stats.get(glm_shard_counter(index)) for index in range(shards)
        ]
    else:
        per_shard = [total_requests]
    glm_scaling = total_requests / max(max(per_shard), 1)

    sd.crash_complex()
    started = wall_seconds()
    summaries = sd.restart_complex()
    restart_wall = wall_seconds() - started
    redo_records = sum(s.records_redone + s.redo_skipped_by_lsn
                       for s in summaries.values())
    return {
        "stats": sd.stats,
        "committed": workload.committed,
        "lock_requests": total_requests,
        "per_shard": per_shard,
        "glm_scaling": glm_scaling,
        "redo_records": redo_records,
        "restart_wall": restart_wall,
    }


def run_experiment():
    sweep = {}
    for n_instances, shards in ((1, 1), (2, 2), (4, 1), (4, 4)):
        sweep[(n_instances, shards)] = run_config(n_instances, shards)
    return sweep


def build_result():
    sweep = run_experiment()
    result = ExperimentResult(
        "S1",
        "a 4-shard GLM scales > 1.5x over the monolithic baseline on "
        "the low-sharing scale-out workload",
    )
    table = Table(["instances", "GLM shards", "committed",
                   "lock requests", "GLM scaling", "redo records",
                   "restart wall s"])
    for key in sorted(sweep):
        n_instances, shards = key
        row = sweep[key]
        table.add_row(n_instances, shards, row["committed"],
                      row["lock_requests"], row["glm_scaling"],
                      row["redo_records"], row["restart_wall"])
    result.add_table("scale-out sweep (low-sharing profile)", table)

    shard_table = Table(["shard", "requests"])
    scaled = sweep[(4, 4)]
    for index, requests in enumerate(scaled["per_shard"]):
        shard_table.add_row(index, requests)
    result.add_table("per-shard GLM routing at K=4", shard_table)

    baseline = sweep[(4, 1)]
    result.record("glm_scaling_1_shard", round(baseline["glm_scaling"], 3))
    result.record("glm_scaling_4_shards", round(scaled["glm_scaling"], 3))
    result.record("restart_wall_4_instances_s",
                  round(scaled["restart_wall"], 4))
    result.attach_stats(scaled["stats"])
    return result.conclude(
        scaled["glm_scaling"] > 1.5
        and baseline["glm_scaling"] == 1.0
        and scaled["redo_records"] == baseline["redo_records"]
    )


def main(argv=None):
    return bench_main(build_result, argv)


if __name__ == "__main__":
    raise SystemExit(main())


def test_s1_scaleout(benchmark):
    result = benchmark.pedantic(build_result, rounds=1, iterations=1)
    print_banner("S1", "scale-out GLM shards")
    print(result.render())
    assert result.holds
