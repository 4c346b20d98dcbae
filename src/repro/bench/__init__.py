"""``python -m repro.bench`` — the parallel benchmark-suite runner.

Discovers ``benchmarks/bench_*.py``, fans the benches out across a
``multiprocessing`` pool, and aggregates per-bench wall-clock plus
counters into ``BENCH_SUITE.json`` — the repo's perf trajectory file.
Every bench still runs in its *own* single subprocess interpreter, so
the deterministic, byte-identical-trace property of each bench (PR 2)
is untouched; only the suite-level scheduling is parallel.

Two execution modes per bench, picked automatically:

* **standalone** — the module defines ``build_result`` (the
  ``bench_main`` contract): run ``python bench_x.py --json TMP`` and
  harvest the :class:`~repro.harness.experiment.ExperimentResult`'s
  ``holds`` verdict and counter snapshot;
* **pytest** — run ``python -m pytest bench_x.py`` and harvest the
  outcome tallies (passed/failed/skipped) as the bench's counters.

``--compare BASELINE.json`` (after a run) or ``--compare-only A B``
(pure reader, no benches run) flags regressions: a bench that
disappeared, started failing, or got slower than the tolerance allows.
The compare reader is also the round-trip check ``tools/check.sh``
uses on the smoke suite.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.clock import wall_seconds

#: Schema version of BENCH_SUITE.json (bump on incompatible change).
SCHEMA_VERSION = 1

#: Trimmed suite for the pre-PR smoke gate: one standalone bench (E1,
#: exercising the JSON harvest path), one fast pytest bench, the micro
#: bench whose call-count gates guard the batch log and disk lanes, the
#: S2 TPS headline whose gates guard the bulk-op lane, the S3
#: replication bench whose lag/ack gates guard log shipping, and the
#: S4 instant-restart bench whose TTFT gate guards instant restart.
SMOKE_BENCHES = ("bench_e1_anomaly", "bench_a3_group_commit",
                 "bench_micro", "bench_s2_tps", "bench_s3_repl",
                 "bench_s4_instant")

_SUMMARY_RE = re.compile(r"(\d+) (passed|failed|skipped|error|errors)")


def default_bench_root() -> Path:
    """The repo's ``benchmarks/`` directory (next to ``src/``)."""
    return Path(__file__).resolve().parents[3] / "benchmarks"


def discover(root: Path, only: Optional[Sequence[str]] = None) -> List[Path]:
    """All ``bench_*.py`` under ``root``, sorted; optionally filtered
    to the stem names in ``only`` (order follows ``only``)."""
    found = {path.stem: path for path in sorted(root.glob("bench_*.py"))}
    if only is None:
        return list(found.values())
    missing = [name for name in only if name not in found]
    if missing:
        raise FileNotFoundError(
            f"bench module(s) not found under {root}: {', '.join(missing)}"
        )
    return [found[name] for name in only]


def _src_dir() -> str:
    """Directory to put on PYTHONPATH so subprocesses import repro."""
    return str(Path(__file__).resolve().parents[2])


def _sub_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = _src_dir()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _parse_pytest_summary(output: str) -> Dict[str, int]:
    """Outcome tallies from a ``pytest -q`` tail line."""
    tallies: Dict[str, int] = {}
    for count, outcome in _SUMMARY_RE.findall(output):
        key = "error" if outcome.startswith("error") else outcome
        tallies[key] = tallies.get(key, 0) + int(count)
    return tallies


def run_one(spec: Tuple[str, str]) -> Dict[str, Any]:
    """Pool worker: run one bench in a fresh subprocess and report.

    ``spec`` is ``(name, path)``; the worker itself only schedules and
    times — the bench's simulation work happens in the child
    interpreter, preserving single-process determinism per bench.
    """
    name, path = spec
    source = Path(path).read_text(encoding="utf-8")
    standalone = "def build_result" in source
    env = _sub_env()
    entry: Dict[str, Any] = {"name": name, "mode": "pytest", "counters": {}}
    started = wall_seconds()
    if standalone:
        entry["mode"] = "standalone"
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            out_json = os.path.join(tmp, f"{name}.json")
            proc = subprocess.run(
                [sys.executable, path, "--json", out_json],
                env=env, capture_output=True, text=True,
            )
            entry["returncode"] = proc.returncode
            entry["ok"] = proc.returncode == 0
            if os.path.exists(out_json):
                with open(out_json, "r", encoding="utf-8") as handle:
                    result = json.load(handle)
                entry["holds"] = result.get("holds")
                entry["counters"] = {
                    key: value
                    for key, value in result.get("counters", {}).items()
                    if isinstance(value, int)
                }
    else:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", path, "-q",
             "-p", "no:cacheprovider"],
            env=env, capture_output=True, text=True,
        )
        entry["returncode"] = proc.returncode
        entry["ok"] = proc.returncode == 0
        entry["counters"] = _parse_pytest_summary(proc.stdout)
    entry["seconds"] = round(wall_seconds() - started, 4)
    if not entry["ok"]:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-12:]
        entry["detail"] = "\n".join(tail)
    return entry


def run_suite(
    paths: Sequence[Path],
    jobs: Optional[int] = None,
) -> Dict[str, Any]:
    """Run every bench in ``paths`` across a multiprocessing pool.

    Returns the suite document (the ``BENCH_SUITE.json`` payload).
    """
    specs = [(path.stem, str(path)) for path in paths]
    if jobs is None:
        jobs = min(len(specs), os.cpu_count() or 2) or 1
    jobs = max(1, min(jobs, len(specs) or 1))
    if jobs == 1 or len(specs) == 1:
        entries = [run_one(spec) for spec in specs]
    else:
        with multiprocessing.Pool(processes=jobs) as pool:
            entries = pool.map(run_one, specs)
    benches = {
        entry.pop("name"): entry
        for entry in sorted(entries, key=lambda e: str(e["name"]))
    }
    return {
        "schema": SCHEMA_VERSION,
        "jobs": jobs,
        "total_seconds": round(
            sum(b["seconds"] for b in benches.values()), 4
        ),
        "benches": benches,
    }


def write_suite(suite: Dict[str, Any], path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(suite, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_suite(path: str) -> Dict[str, Any]:
    """Read and validate a BENCH_SUITE.json (the --compare reader)."""
    with open(path, "r", encoding="utf-8") as handle:
        suite = json.load(handle)
    if not isinstance(suite, dict) or "benches" not in suite:
        raise ValueError(f"{path}: not a BENCH_SUITE document")
    if suite.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema {suite.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}"
        )
    for name, entry in suite["benches"].items():
        if "seconds" not in entry or "ok" not in entry:
            raise ValueError(f"{path}: bench {name!r} missing seconds/ok")
    return suite


def compare(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance: float = 0.5,
    abs_slack: float = 0.25,
) -> List[str]:
    """Regressions of ``current`` against ``baseline`` (empty = clean).

    A bench regresses when it disappeared, stopped passing, or its
    wall-clock exceeded ``baseline * (1 + tolerance)`` by more than
    ``abs_slack`` seconds (the absolute slack keeps sub-second benches
    from flagging on scheduler noise).
    """
    problems: List[str] = []
    base_benches = baseline["benches"]
    cur_benches = current["benches"]
    for name, base in sorted(base_benches.items()):
        cur = cur_benches.get(name)
        if cur is None:
            problems.append(f"{name}: present in baseline, missing now")
            continue
        if base.get("ok") and not cur.get("ok"):
            problems.append(f"{name}: passed in baseline, fails now")
        if base.get("holds") and cur.get("holds") is False:
            problems.append(f"{name}: claim held in baseline, fails now")
        allowed = base["seconds"] * (1.0 + tolerance) + abs_slack
        if cur["seconds"] > allowed:
            problems.append(
                f"{name}: {cur['seconds']:.3f}s vs baseline "
                f"{base['seconds']:.3f}s (allowed {allowed:.3f}s)"
            )
    return problems


def render_suite(suite: Dict[str, Any]) -> str:
    """Human-readable table of a suite document."""
    rows = []
    width = max((len(name) for name in suite["benches"]), default=4)
    for name, entry in sorted(suite["benches"].items()):
        status = "ok" if entry.get("ok") else "FAIL"
        holds = entry.get("holds")
        if holds is True:
            status += " holds"
        elif holds is False:
            status = "FAIL claim"
        rows.append(
            f"  {name.ljust(width)}  {entry['seconds']:8.3f}s  "
            f"[{entry['mode']}] {status}"
        )
    header = (
        f"bench suite: {len(suite['benches'])} benches, "
        f"{suite['jobs']} parallel jobs, "
        f"{suite['total_seconds']:.2f}s total bench time"
    )
    return "\n".join([header] + rows)


def render_markdown(
    current: Dict[str, Any],
    baseline: Optional[Dict[str, Any]] = None,
    problems: Optional[List[str]] = None,
) -> str:
    """GitHub-flavoured markdown summary of a suite run.

    With a ``baseline``, each row carries the baseline wall-clock and
    the relative delta — the table CI appends to the job summary so a
    nightly regression is readable without opening the raw logs.
    """
    lines = [
        "### Bench suite",
        "",
        f"{len(current['benches'])} benches, {current['jobs']} parallel "
        f"jobs, {current['total_seconds']:.2f}s total bench time",
        "",
    ]
    if baseline is not None:
        lines += ["| bench | baseline (s) | current (s) | delta | status |",
                  "|---|---:|---:|---:|---|"]
    else:
        lines += ["| bench | seconds | status |", "|---|---:|---|"]
    for name, entry in sorted(current["benches"].items()):
        status = "ok" if entry.get("ok") else "FAIL"
        holds = entry.get("holds")
        if holds is True:
            status += " holds"
        elif holds is False:
            status = "FAIL claim"
        if baseline is None:
            lines.append(f"| {name} | {entry['seconds']:.3f} | {status} |")
            continue
        base = baseline["benches"].get(name)
        if base is None:
            base_s, delta = "-", "new"
        else:
            base_s = f"{base['seconds']:.3f}"
            pct = ((entry["seconds"] - base["seconds"])
                   / max(base["seconds"], 1e-9) * 100.0)
            delta = f"{pct:+.1f}%"
        lines.append(f"| {name} | {base_s} | {entry['seconds']:.3f} | "
                     f"{delta} | {status} |")
    if baseline is not None:
        for name in sorted(set(baseline["benches"])
                           - set(current["benches"])):
            base = baseline["benches"][name]
            lines.append(f"| {name} | {base['seconds']:.3f} | - | gone | "
                         f"MISSING |")
    lines.append("")
    if problems is not None:
        if problems:
            lines.append(f"**{len(problems)} regression(s):**")
            lines.append("")
            lines.extend(f"- {problem}" for problem in problems)
        else:
            lines.append("No bench regressions.")
        lines.append("")
    return "\n".join(lines)


def _write_markdown(
    path: str,
    current: Dict[str, Any],
    baseline: Optional[Dict[str, Any]],
    problems: Optional[List[str]],
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_markdown(current, baseline, problems))
        handle.write("\n")
    print(f"wrote {path}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the benchmarks/ suite in parallel and record "
        "the perf trajectory (BENCH_SUITE.json).",
    )
    parser.add_argument("--root", default=None, metavar="DIR",
                        help="bench directory (default: repo benchmarks/)")
    parser.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="suite JSON output (default BENCH_SUITE.json; "
                        "--smoke defaults to a temp file so the gate "
                        "leaves no artifact in the tree)")
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="pool size (default: min(benches, cpus))")
    parser.add_argument("--smoke", action="store_true",
                        help=f"run only the smoke subset: "
                        f"{', '.join(SMOKE_BENCHES)}")
    parser.add_argument("--only", nargs="+", default=None, metavar="NAME",
                        help="run only these bench stems")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="after running, compare against a saved "
                        "BENCH_SUITE.json; exit 1 on regression")
    parser.add_argument("--compare-only", nargs=2, default=None,
                        metavar=("BASELINE", "CURRENT"),
                        help="compare two saved suite files without "
                        "running anything; exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="relative slowdown allowed before a bench "
                        "counts as regressed (default 0.5 = +50%%)")
    parser.add_argument("--markdown", default=None, metavar="PATH",
                        help="also write a markdown job-summary table "
                        "(deltas vs the baseline when comparing)")
    return parser


def _report_compare(problems: List[str]) -> int:
    if problems:
        print("bench regressions:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("no bench regressions")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.compare_only is not None:
        baseline = load_suite(args.compare_only[0])
        current = load_suite(args.compare_only[1])
        problems = compare(baseline, current, args.tolerance)
        if args.markdown is not None:
            _write_markdown(args.markdown, current, baseline, problems)
        return _report_compare(problems)
    root = Path(args.root) if args.root else default_bench_root()
    only: Optional[Iterable[str]] = args.only
    if args.smoke:
        only = list(SMOKE_BENCHES)
    paths = discover(root, list(only) if only is not None else None)
    if not paths:
        print(f"no bench_*.py found under {root}", file=sys.stderr)
        return 2
    suite = run_suite(paths, jobs=args.jobs)
    out = args.output
    if out is None:
        if args.smoke:
            # Smoke runs are a gate, not a trajectory update: write to
            # a temp file so no stale artifact lands in the worktree.
            fd, out = tempfile.mkstemp(prefix="BENCH_SUITE.smoke.",
                                       suffix=".json")
            os.close(fd)
        else:
            out = "BENCH_SUITE.json"
    write_suite(suite, out)
    print(render_suite(suite))
    print(f"wrote {out}")
    failed = [
        name for name, entry in suite["benches"].items()
        if not entry.get("ok")
    ]
    for name in failed:
        detail = suite["benches"][name].get("detail", "")
        print(f"-- {name} failed --\n{detail}", file=sys.stderr)
    if args.compare is not None:
        baseline = load_suite(args.compare)
        problems = compare(baseline, suite, args.tolerance)
        if args.markdown is not None:
            _write_markdown(args.markdown, suite, baseline, problems)
        status = _report_compare(problems)
        return status or (1 if failed else 0)
    if args.markdown is not None:
        _write_markdown(args.markdown, suite, None, None)
    return 1 if failed else 0
