#!/usr/bin/env bash
# Pre-PR gate, factored into named stages so the hosted CI workflow can
# run *exactly* the same commands (.github/workflows/ci.yml calls
# `tools/check.sh <stage>` per job step — local and hosted gates cannot
# drift).
#
#   tools/check.sh                 # all stages: lint type test bench chaos
#   tools/check.sh --fast          # pre-commit: lint + tier-1 tests only
#   tools/check.sh lint            # a single stage
#   tools/check.sh lint type test  # any subset, in order
#
# Stages:
#   lint    ruff (when installed) + reprolint (always required)
#   type    mypy (when installed; skipped otherwise)
#   test    tier-1 pytest suite
#   bench   E1 --json smoke + every benchmarks/bench_*.py (each
#           printed table pinned to EXPERIMENTS.md) + span-trace smoke
#           (capture, critical-path, invariant check, Perfetto export) +
#           perf-lab smoke, traced attribution guard and self-tests
#   chaos   crash-point torture smoke + failover and restart drill
#           smokes (python -m repro.chaos [--drill ...] --smoke)
#
# Every stage runs even after an earlier one fails; each step's result
# is captured, a PASS/FAIL/SKIP summary table prints at the end, and
# the exit status is non-zero iff any step failed.  mypy and ruff are
# optional (pip install -e .[lint]); when absent they are SKIPPED and
# do not fail the gate — reprolint and pytest are always required.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

step_names=()
step_results=()

note() {
    step_names+=("$1")
    step_results+=("$2")
}

run_step() {
    local name="$1"; shift
    echo "==> ${name}"
    if "$@"; then
        echo "    ${name}: PASS"
        note "${name}" PASS
    else
        echo "    ${name}: FAIL"
        note "${name}" FAIL
    fi
}

skip_step() {
    echo "==> $1"
    echo "    $1: SKIP ($2)"
    note "$1" SKIP
}

# ----------------------------------------------------------------------
# stages
# ----------------------------------------------------------------------
stage_lint() {
    if python -c "import ruff" >/dev/null 2>&1 \
            || command -v ruff >/dev/null 2>&1; then
        run_step "ruff" python -m ruff check src tests
    else
        skip_step "ruff" "not installed; pip install -e .[lint]"
    fi
    run_step "reprolint" \
        python -m repro.lint src/ tests/ benchmarks/ examples/ tools/
}

stage_type() {
    if python -c "import mypy" >/dev/null 2>&1; then
        run_step "mypy" python -m mypy
    else
        skip_step "mypy" "not installed; pip install -e .[lint]"
    fi
}

stage_test() {
    run_step "pytest (tier-1)" python -m pytest -x -q
}

# Bench smoke: run E1 standalone and make sure the trace CLI can
# re-render the JSON it wrote.
bench_e1_smoke() {
    local tmp
    tmp="$(mktemp -t bench_e1.XXXXXX.json)"
    python benchmarks/bench_e1_anomaly.py --json "${tmp}" >/dev/null \
        && python -m repro.trace --bench "${tmp}" >/dev/null
    local status=$?
    rm -f "${tmp}"
    return "${status}"
}

# Span smoke: capture the E1 anomaly under a recording tracer, profile
# the commit critical path, run the trace invariant checker, and export
# Perfetto JSON.  With SPAN_TRACE_DIR set (CI does this) the trace and
# the Perfetto export land there for artifact upload; otherwise a temp
# dir is used and removed.
span_trace_smoke() {
    local dir cleanup=0 status=0
    if [ -n "${SPAN_TRACE_DIR:-}" ]; then
        dir="${SPAN_TRACE_DIR}"
        mkdir -p "${dir}"
    else
        dir="$(mktemp -d -t span_trace.XXXXXX)"
        cleanup=1
    fi
    python -m repro.trace --capture e1-usn -o "${dir}/e1-usn.jsonl" \
            >/dev/null 2>&1 \
        && python -m repro.trace critical-path "${dir}/e1-usn.jsonl" \
            --root commit >/dev/null \
        && python -m repro.trace summary "${dir}/e1-usn.jsonl" --check \
            >/dev/null \
        && python -m repro.trace export "${dir}/e1-usn.jsonl" --perfetto \
            -o "${dir}/e1-usn.perfetto.json" >/dev/null \
        || status=$?
    if [ "${cleanup}" -eq 1 ]; then
        rm -rf "${dir}"
    fi
    return "${status}"
}

# Perf-lab smoke: one epoch of both restart schedules of the shared
# redo kernel (eager, instant), the replicated-commit and
# client-server workloads, and of the two per-call lanes
# (sd-percall-fit, sd-shared-2sys), with their full oracle (every read
# checked, every record read back from disk, standby images, durability
# after each crash cycle).  A non-zero exit or "correct": false on the
# result line fails the stage; timings are not gated here.
perflab_smoke() {
    local workload result
    for workload in restart-eager restart-instant repl-quorum-2sb \
            cs-commit-2cl sd-percall-fit sd-shared-2sys; do
        result="$(python benchmarks/perflab/run.py --workload "${workload}" \
            --seed 1992 --epochs 1 --trace 0 | tail -n 1)" || return 1
        case "${result}" in
            *'"correct": true'*) ;;
            *) echo "perflab ${workload}: ${result}" >&2; return 1 ;;
        esac
    done
}

# Perf-lab attribution guard: the traced mode wraps engine methods *by
# name* on the live objects (glm.acquire, pool.fix, ...).  An engine
# refactor that stops calling through those names keeps every test
# green and silently zeroes the per-layer metrics; one traced epoch of
# sd-percall-fit must still see lock requests and buffer fixes, and one
# of repl-quorum-2sb the three replication wraps (shipper.on_commit,
# shipper.drain, standby.receive returning the records it absorbed).
perflab_traced_nonzero() {
    local workload="$1"
    shift
    python benchmarks/perflab/run.py --workload "${workload}" \
            --seed 1992 --epochs 1 --trace 1 | tail -n 1 \
        | python -c '
import json, sys
workload, names = sys.argv[1], sys.argv[2:]
result = json.loads(sys.stdin.read())
correct = result["correct"]
seen = {name: result["metrics"][name]["value"] for name in names}
if not correct or min(seen.values()) <= 0:
    sys.exit(f"perflab traced {workload}: correct={correct} {seen}")
' "${workload}" "$@"
}

perflab_trace_guard() {
    perflab_traced_nonzero sd-percall-fit \
        locking.requests_per_op buffer.fix_per_op \
    && perflab_traced_nonzero repl-quorum-2sb \
        replication.shipper.batches_per_txn \
        replication.shipper.on_commit_us_p50 \
        replication.standby.receive_us_per_record
}

stage_bench() {
    run_step "bench-e1 smoke" bench_e1_smoke
    # Every bench, each asserting its claim's shape and its printed
    # tables equal to the pinned block in EXPERIMENTS.md (wall-clock
    # columns excepted), plus the proof that the recovery pins fail
    # with redo screening sabotaged.  S2 also gates the bulk lane's
    # interpreted-call budget, S4 instant restart's >= 3x TTFT and
    # identical disk images, bench_micro the hot lanes' call counts.
    run_step "benches (pinned tables)" \
        python -m pytest -q benchmarks/bench_*.py --benchmark-disable
    run_step "span-trace smoke" span_trace_smoke
    run_step "perflab smoke" perflab_smoke
    run_step "perflab trace guard" perflab_trace_guard
    run_step "perflab self-tests" python -m pytest benchmarks/perflab -q
}

# Chaos smoke: <= 10 crash-point kills across SD and CS, each followed
# by restart recovery, the harness verifier and the trace invariant
# checker (exit 1 if any spec leaves the DB broken).  The failover
# drill then kills a replicated primary at a trimmed set of crash
# points under every write-ack level, promotes a standby, and checks
# the loss bound and the promoted disk image against a reference
# recovery (exit 1 if any rehearsal loses acked commits).  The restart
# drill recovers the identical crash eagerly and with
# restart_mode="instant" at three SD crash points and requires the
# final disk images to be SHA-256 identical.
stage_chaos() {
    run_step "chaos smoke (crash-point torture)" \
        python -m repro.chaos --smoke
    run_step "failover drill (smoke)" \
        python -m repro.chaos --drill failover --smoke
    run_step "restart drill (smoke)" \
        python -m repro.chaos --drill restart --smoke
}

# ----------------------------------------------------------------------
# stage selection
# ----------------------------------------------------------------------
all_stages="lint type test bench chaos"
if [ "$#" -eq 0 ]; then
    stages="${all_stages}"
elif [ "$1" = "--fast" ]; then
    stages="lint test"
else
    stages="$*"
fi

for stage in ${stages}; do
    case "${stage}" in
        lint|type|test|bench|chaos) "stage_${stage}" ;;
        *)
            echo "check.sh: unknown stage '${stage}'" >&2
            echo "usage: tools/check.sh [--fast | ${all_stages// / | }]" >&2
            exit 2
            ;;
    esac
done

# ----------------------------------------------------------------------
# summary
# ----------------------------------------------------------------------
echo
echo "stage summary"
echo "-------------"
failures=0
for i in "${!step_names[@]}"; do
    printf '%-36s %s\n' "${step_names[$i]}" "${step_results[$i]}"
    if [ "${step_results[$i]}" = FAIL ]; then
        failures=$((failures + 1))
    fi
done
echo
if [ "${failures}" -gt 0 ]; then
    echo "check.sh: ${failures} step(s) failed"
    exit 1
fi
echo "check.sh: all steps passed"
