"""S2 — TPS headline: vectorized bulk-op driver over the slab spine.

The per-op driver pays a full lock/fix/log round trip for every record
it touches.  The bulk lane (:mod:`repro.workload.bulk`) batches a whole
transaction into one ``read_many`` + one ``update_many`` — one page
lock and one fix per distinct page, one ``append_many`` for the batch's
log records — and group-commits with one force per group.  This bench
races the two drivers over the *same* deterministic batch plan at
growing batch sizes and gates on:

* **bulk-lane cost** — the bulk driver spends at most
  ``BULK_CALLS_PER_OP[batch]`` interpreted calls per operation at batch
  sizes 64 and 256 (counted with ``sys.setprofile`` over the whole
  plan, not timed);
* **equivalence** — both drivers commit the same transaction count and
  leave byte-identical record payloads behind (the fast lane cut
  costs, not corners).

The wall-clock ratio between the drivers (best-of-``REPEATS``, each
repetition on a freshly built engine) is reported for every batch size
but gates nothing: a ``>= 2x`` timer gate on a 9-36 ms window failed
one or two runs in forty on a shared runner, and the ratio moves
whenever the *other* lane gets faster.  The call budget measures the
bulk lane's own cost, which neither noise nor the per-call lane can
move (docs/performance.md, "Per-call lane budget").
"""

from repro.common.clock import wall_seconds
from repro.common.stats import BULK_OPS_APPLIED, LOCK_REQUESTS, LOG_FORCES
from repro.harness import Table, print_banner
from repro.harness.experiment import ExperimentResult
from repro.sd.complex import SDComplex
from repro.workload.bulk import (
    BulkConfig,
    build_batches,
    run_bulk,
    run_per_call,
)
from repro.workload.generator import populate_pages

from _common import assert_pinned, bench_main, count_calls

#: Fixed logical workload per sweep point (split into TOTAL_OPS /
#: batch_size transactions).
TOTAL_OPS = 2048
BATCH_SIZES = (8, 64, 256)
N_PAGES = 8
RECORDS_PER_PAGE = 8
REPEATS = 3
SEED = 1992
#: Interpreted calls per operation the bulk driver may make, by batch
#: size, everything included (begin, locks, fixes, logging, apply,
#: group commit).  Measured 16.19 and 13.31 on CPython 3.11.
BULK_CALLS_PER_OP = {64: 18, 256: 15}


def _fresh_engine():
    sd = SDComplex(n_data_pages=64)
    engine = sd.add_instance(1)
    handles = populate_pages(engine, N_PAGES, RECORDS_PER_PAGE)
    return sd, engine, handles


def _plan(batch_size, handles):
    config = BulkConfig(
        n_transactions=TOTAL_OPS // batch_size,
        ops_per_txn=batch_size,
        seed=SEED,
    )
    return build_batches(config, handles)


def _time_driver(driver, batch_size):
    """Best-of-``REPEATS`` wall seconds; returns (seconds, sd, engine,
    handles, run_result) from the fastest repetition's run."""
    best = None
    for _ in range(REPEATS):
        sd, engine, handles = _fresh_engine()
        batches = _plan(batch_size, handles)
        started = wall_seconds()
        run = driver(engine, batches)
        elapsed = wall_seconds() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, sd, engine, handles, run)
    return best


def _bulk_calls_per_op(batch_size):
    """Interpreted calls the bulk driver makes per operation of the
    plan (deterministic: the plan is seeded, nothing is timed)."""
    _, engine, handles = _fresh_engine()
    calls, _ = count_calls(run_bulk, engine, _plan(batch_size, handles))
    return calls / TOTAL_OPS


def _final_payloads(sd, engine, handles):
    engine.pool.flush_all()
    out = []
    for page_id, slot in handles:
        out.append(sd.disk.read_page(page_id).read_record(slot))
    return out


def run_config(batch_size):
    """One sweep point; returns the row dict for the tables."""
    base_s, base_sd, base_engine, base_handles, base_run = _time_driver(
        run_per_call, batch_size)
    bulk_s, bulk_sd, bulk_engine, bulk_handles, bulk_run = _time_driver(
        run_bulk, batch_size)
    total_ops = base_run.reads + base_run.updates
    equivalent = (
        base_run.committed == bulk_run.committed
        and base_run.reads == bulk_run.reads
        and base_run.updates == bulk_run.updates
        and _final_payloads(base_sd, base_engine, base_handles)
        == _final_payloads(bulk_sd, bulk_engine, bulk_handles)
    )
    return {
        "stats": bulk_sd.stats,
        "committed": bulk_run.committed,
        "total_ops": total_ops,
        "per_call_ops_s": total_ops / max(base_s, 1e-9),
        "bulk_ops_s": total_ops / max(bulk_s, 1e-9),
        "per_call_tps": base_run.committed / max(base_s, 1e-9),
        "bulk_tps": bulk_run.committed / max(bulk_s, 1e-9),
        "speedup": base_s / max(bulk_s, 1e-9),
        "bulk_calls_per_op": _bulk_calls_per_op(batch_size),
        "lock_requests_per_call": base_sd.stats.get(LOCK_REQUESTS),
        "lock_requests_bulk": bulk_sd.stats.get(LOCK_REQUESTS),
        "forces_bulk": bulk_sd.stats.get(LOG_FORCES),
        "bulk_ops_applied": bulk_sd.stats.get(BULK_OPS_APPLIED),
        "equivalent": equivalent,
    }


def run_experiment():
    return {size: run_config(size) for size in BATCH_SIZES}


#: Columns the pin drops: wall-clock readings, and the interpreted-call
#: count, which moves with the CPython version (3.12 inlines
#: comprehensions); the call budget above gates it instead.
UNPINNED = ("per-call ops/s", "bulk ops/s", "per-call TPS", "bulk TPS",
            "speedup", "bulk calls/op")


def tables(sweep):
    table = Table(["batch", "txns", "ops", "per-call ops/s", "bulk ops/s",
                   "per-call TPS", "bulk TPS", "speedup", "bulk calls/op",
                   "locks per-call", "locks bulk", "equal"])
    for size in BATCH_SIZES:
        row = sweep[size]
        table.add_row(size, row["committed"], row["total_ops"],
                      round(row["per_call_ops_s"]), round(row["bulk_ops_s"]),
                      round(row["per_call_tps"]), round(row["bulk_tps"]),
                      round(row["speedup"], 2),
                      round(row["bulk_calls_per_op"], 2),
                      row["lock_requests_per_call"],
                      row["lock_requests_bulk"], row["equivalent"])
    return (table,)


def build_result():
    sweep = run_experiment()
    result = ExperimentResult(
        "S2",
        "the vectorized bulk-op driver spends <= "
        f"{BULK_CALLS_PER_OP[64]} interpreted calls per op at batch 64 "
        f"and <= {BULK_CALLS_PER_OP[256]} at batch 256 while committing "
        "the same transactions as the per-call driver and leaving "
        "byte-identical records",
    )
    result.add_table("per-call vs bulk driver (best of "
                     f"{REPEATS}, {TOTAL_OPS} ops/point)", *tables(sweep))

    headline = sweep[max(BATCH_SIZES)]
    result.record("bulk_ops_per_s", round(headline["bulk_ops_s"]))
    result.record("bulk_tps", round(headline["bulk_tps"]))
    result.record("speedup_at_64", round(sweep[64]["speedup"], 2))
    result.record("speedup_at_256", round(headline["speedup"], 2))
    for size in BULK_CALLS_PER_OP:
        result.record(f"bulk_calls_per_op_at_{size}",
                      round(sweep[size]["bulk_calls_per_op"], 2))
    result.record("lock_reduction_at_256", round(
        headline["lock_requests_per_call"]
        / max(headline["lock_requests_bulk"], 1), 1))
    result.attach_stats(headline["stats"])
    return result.conclude(
        all(sweep[size]["equivalent"] for size in BATCH_SIZES)
        and all(sweep[size]["bulk_calls_per_op"] <= budget
                for size, budget in BULK_CALLS_PER_OP.items())
    )


def main(argv=None):
    return bench_main(build_result, argv)


if __name__ == "__main__":
    raise SystemExit(main())


def test_s2_tps(benchmark):
    result = benchmark.pedantic(build_result, rounds=1, iterations=1)
    print_banner("S2", "bulk-op driver TPS vs the per-call baseline")
    print(result.render())
    assert_pinned("S2", *(table for _, table in result.iter_tables()),
                  drop=UNPINNED)
    assert result.holds
