"""Perf lab: one wall-clock + logical-cost benchmark for the whole engine.

    python3 benchmarks/perflab/run.py --workload NAME --seed N \\
        --seconds S --trace 0|1        # one run, result JSON on the last line
                                       # (--trace-out [PATH] also dumps spans)
    python3 benchmarks/perflab/run.py [--seed N] [--traced] [--repeat N]
                                       # the whole set, one child per workload
    python3 benchmarks/perflab/run.py --compare A.json B.json
    python3 benchmarks/perflab/run.py --describe [--json]

See README.md next to this file for the load model and the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Children print this prefix before a JSON line of run facts (plan
#: hash, exact counts, disk digest) that are not metrics.
INFO_PREFIX = "#perflab-info "
DEFAULT_SEED = 1992
DEFAULT_OUT = "BENCH_PERFLAB.json"
DEFAULT_TRACE_OUT = "perflab.trace.jsonl"


# The benchmark builds nothing: it runs the checkout's own sources.
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import catalog  # noqa: E402
import compare  # noqa: E402


def _metric_table(traced: bool) -> Dict[str, catalog.Metric]:
    metrics = catalog.PER_LAYER if traced else catalog.END_TO_END
    return {metric.name: metric for metric in metrics}


def result_line(report: Any) -> str:
    """The driver contract's last line of standard output."""
    table = _metric_table(report.traced)
    return json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": table[name].unit}
            for name, value in report.metrics.items()
        },
    })


def print_report(report: Any) -> None:
    """Every metric by name with unit, direction and regression bound,
    then the info line, then the result line (last)."""
    table = _metric_table(report.traced)
    info = report.info
    print(f"workload {report.workload}  seed {report.seed}  "
          f"{'traced' if report.traced else 'untraced'}  "
          f"epochs {info['epochs']}  slices {info['slices']}  "
          f"samples {info['samples']} "
          f"(>= {info['samples_per_slice']} per slice)  "
          f"timed {info['timed_wall_s']:.2f} s")
    for name, value in report.metrics.items():
        metric = table[name]
        bound = (f"  bound {metric.bound:.2f}" if not report.traced else "")
        print(f"  {name:<46} {value:>14.4f} {metric.unit:<6} "
              f"better: {metric.better}{bound}")
    if "txn_us_p99" in info:
        print(f"  {'txn_us_p99 (reported, not bounded)':<46} "
              f"{info['txn_us_p99']:>14.4f} us")
    print(f"  failed {report.failed} of {report.attempted} attempted; "
          f"oracle checked {info['oracle_records']} records, "
          f"{info['oracle_mismatches']} mismatches")
    print(INFO_PREFIX + json.dumps(info, sort_keys=True))
    print(result_line(report))


def run_one(args: argparse.Namespace) -> int:
    """Driver mode: one workload in this process."""
    import runner

    spec = catalog.WORKLOADS_BY_NAME.get(args.workload)
    if spec is None:
        sys.stderr.write(
            f"perflab: unknown workload {args.workload!r}; choose from "
            f"{', '.join(catalog.WORKLOADS_BY_NAME)}\n")
        return 2
    report = runner.run_workload(
        spec.scaled(args.scale), args.seed, args.seconds,
        traced=bool(args.trace), epochs=args.epochs,
        trace_out=args.trace_out)
    print_report(report)
    return 0 if report.correct else 1


# ----------------------------------------------------------------------
# suite mode: every workload in its own child interpreter, in sequence
# ----------------------------------------------------------------------
def _child(workload: str, args: argparse.Namespace,
           traced: bool) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(traced)),
               "--scale", str(args.scale)]
    if args.epochs is not None:
        command += ["--epochs", str(args.epochs)]
    if traced and args.trace_out:
        # One file per workload: PATH.jsonl -> PATH.<workload>.jsonl.
        stem, dot, suffix = args.trace_out.rpartition(".")
        command += ["--trace-out",
                    f"{stem}.{workload}.{suffix}" if dot
                    else f"{args.trace_out}.{workload}"]
    done = subprocess.run(command, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"perflab: {workload} produced no result "
                         f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    info = next((json.loads(line[len(INFO_PREFIX):]) for line in lines
                 if line.startswith(INFO_PREFIX)), {})
    return {
        "correct": result["correct"] and done.returncode == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"]
                    for name, entry in result["metrics"].items()},
        "info": info,
    }


def _print_suite_row(workload: str, run: Dict[str, Any],
                     names: Sequence[str]) -> None:
    cells = "  ".join(f"{run['metrics'][name]:>12.3f}" for name in names)
    flag = "ok" if run["correct"] else "INCORRECT"
    print(f"{workload:<18}{cells}  {flag}")


def run_suite(args: argparse.Namespace) -> int:
    names = [metric.name for metric in catalog.END_TO_END]
    workloads = [w.name for w in catalog.WORKLOADS]
    runs: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    traced_runs: Dict[str, Dict[str, Any]] = {}
    ok = True
    for repeat in range(args.repeat):
        length = (f"{args.epochs} epochs" if args.epochs is not None
                  else f"{args.seconds} s")
        print(f"-- set {repeat + 1} of {args.repeat}: seed {args.seed}, "
              f"{length} per workload")
        print(f"{'workload':<18}" + "  ".join(f"{n[:12]:>12}" for n in names))
        for workload in workloads:
            run = _child(workload, args, traced=False)
            runs[workload].append(run)
            ok = ok and run["correct"]
            _print_suite_row(workload, run, names)
        ok = _check_restart_digests(runs) and ok
    if args.traced:
        print("-- traced set (per-layer metrics; end-to-end numbers above "
              "are from the untraced runs only)")
        for workload in workloads:
            run = _child(workload, args, traced=True)
            traced_runs[workload] = run
            ok = ok and run["correct"]
            print(f"[{workload}]")
            for name, value in run["metrics"].items():
                print(f"  {name:<46} {value:>14.4f}")
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({
            "schema": 1,
            "seed": args.seed,
            "seconds": args.seconds,
            "epochs": args.epochs,
            "scale": args.scale,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "claim": None,
            "runs": runs,
            "traced": traced_runs,
        }, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


def _check_restart_digests(runs: Dict[str, List[Dict[str, Any]]]) -> bool:
    """Same seed, same history: after the first crash cycle has been
    recovered, drained and flushed, restart-eager and restart-instant
    must hold SHA-256-identical disk images."""
    eager = runs["restart-eager"][-1]["info"].get("cycle1_disk_sha256")
    instant = runs["restart-instant"][-1]["info"].get("cycle1_disk_sha256")
    if eager == instant:
        return True
    print(f"restart digests differ: eager {eager} instant {instant}")
    return False


# ----------------------------------------------------------------------
# --describe
# ----------------------------------------------------------------------
def describe(as_json: bool) -> int:
    if as_json:
        print(json.dumps(catalog.benchmark_json(), indent=2))
        return 0
    committed = json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    definitions = {m.name: m.definition
                   for m in catalog.END_TO_END + catalog.PER_LAYER}
    print("### Workloads\n")
    print("| name | why it is here |\n|---|---|")
    for entry in committed["workloads"]:
        print(f"| `{entry['name']}` | {entry['why']} |")
    print("\n### End-to-end metrics\n")
    print("| name | unit | better | bound | definition |\n|---|---|---|---|---|")
    for entry in committed["end_to_end"]:
        print(f"| `{entry['name']}` | {entry['unit']} | {entry['better']} | "
              f"{entry['bound']} | {definitions[entry['name']]} |")
    print("\n### Per-layer metrics\n")
    print("| name | unit | better | definition |\n|---|---|---|---|")
    for entry in committed["per_layer"]:
        print(f"| `{entry['name']}` | {entry['unit']} | {entry['better']} | "
              f"{definitions[entry['name']]} |")
    print("\n### Which layer should move what\n")
    print("| layer | should move | on | predicted flat on |\n|---|---|---|---|")
    for layer, moves, where, flat in catalog.INTERACTIONS:
        print(f"| `{layer}` | {moves} | {where} | {flat} |")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Perf lab: wall-clock + logical-cost benchmark.")
    parser.add_argument("--workload", help="run this one workload "
                        "in-process (driver mode)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS),
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="suite mode: add a traced run per workload")
    parser.add_argument("--epochs", type=int, default=None,
                        help="run exactly this many epochs instead of "
                        "--seconds (every logical count then repeats)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink sizes (self-tests only)")
    parser.add_argument("--trace-out", nargs="?", default=None,
                        const=DEFAULT_TRACE_OUT, metavar="PATH",
                        help="traced run: also write the spans as JSON "
                        f"lines (default PATH: {DEFAULT_TRACE_OUT}; suite "
                        "mode inserts the workload name before the suffix)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite mode: run the set this many times")
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="suite mode: results file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--describe", action="store_true")
    parser.add_argument("--json", action="store_true",
                        help="with --describe: print BENCHMARK.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perflab: no engine sources under "
                         f"{ROOT / 'src'}; run from a full checkout\n")
        return 2
    if args.describe:
        return describe(args.json)
    if args.compare:
        return compare.main(args.compare[0], args.compare[1])
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
