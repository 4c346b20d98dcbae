"""Self-tests of the perf lab (not part of tier-1).

    python -m pytest benchmarks/perflab -q

Everything here runs at ``--scale 0.02`` sizes for one epoch — sizes
used *only* by these tests, never for a reported number.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as perflab_run  # noqa: F401  (puts src/ and this dir on sys.path)
import catalog
import compare
import runner
from plans import Planner
from tracing import SpanTracer, install
from workloads import Tally, World, run_percall, verify_world

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCALE = 0.02
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def tiny(name: str) -> catalog.WorkloadSpec:
    return catalog.WORKLOADS_BY_NAME[name].scaled(SCALE)


def tiny_run(name: str, seed: int = 1992, traced: bool = False,
             trace_out=None) -> runner.Report:
    return runner.run_workload(tiny(name), seed, seconds=0.0, traced=traced,
                               epochs=1, trace_out=trace_out)


# ----------------------------------------------------------------------
# BENCHMARK.json is the printed form of the catalog, within the limits
# ----------------------------------------------------------------------
def committed() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_is_the_catalog():
    assert committed() == catalog.benchmark_json()


def test_benchmark_json_limits():
    spec = committed()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/perflab"]
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    # The driver's budget: 4 + 22 runs per workload inside 3420 s.
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 6) < 3420


# ----------------------------------------------------------------------
# every workload: correct, every catalogued metric printed, none zero
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", [w.name for w in catalog.WORKLOADS])
def test_workload_reports_every_metric(workload):
    report = tiny_run(workload)
    assert report.correct and report.failed == 0 and report.attempted >= 1
    assert list(report.metrics) == [m.name for m in catalog.END_TO_END]
    assert all(value > 0 for value in report.metrics.values())
    traced = tiny_run(workload, traced=True)
    assert traced.correct
    assert list(traced.metrics) == [m.name for m in catalog.PER_LAYER]
    assert traced.metrics["perflab.unattributed_share"] < 0.25


def test_result_line_shape():
    report = tiny_run("sd-percall-fit")
    line = json.loads(perflab_run.result_line(report))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert isinstance(line["failed"], int)
    for name, entry in line["metrics"].items():
        assert NAME.match(name) and set(entry) == {"value", "unit"}


# ----------------------------------------------------------------------
# the seed reaches the plan, and a seed pins every logical count
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["sd-percall-miss", "sd-bulk-miss",
                                      "sd-shared-2sys", "cs-commit-2cl",
                                      "restart-instant"])
def test_same_seed_same_plan_and_counts(workload):
    first, second = tiny_run(workload, 7), tiny_run(workload, 7)
    assert first.info["plan_hash"] == second.info["plan_hash"]
    assert first.info["exact"] == second.info["exact"]
    for name in ("forces_per_txn", "log_bytes_per_user_byte"):
        assert first.metrics[name] == second.metrics[name]
    other = tiny_run(workload, 8)
    assert other.info["plan_hash"] != first.info["plan_hash"]
    assert other.info["exact"] != first.info["exact"]


def test_restart_modes_leave_identical_disk_images():
    eager, instant = tiny_run("restart-eager"), tiny_run("restart-instant")
    assert eager.info["plan_hash"] == instant.info["plan_hash"]
    assert (eager.info["cycle1_disk_sha256"]
            == instant.info["cycle1_disk_sha256"])


# ----------------------------------------------------------------------
# tracing: spans telescope, wrappers come off, counts are untouched
# ----------------------------------------------------------------------
def _traced_world(name: str):
    spec = tiny(name)
    world = World(spec)
    planner = Planner(spec, 3, world.slots_of)
    trace = SpanTracer(keep_spans=True)
    install(trace, world)
    tally = Tally()
    run_percall(world, planner.percall_slice(spec.slice_txns), tally, trace)
    return world, trace, tally


def test_span_forest_telescopes(tmp_path):
    world, trace, tally = _traced_world("sd-percall-miss")
    trace.unwrap_all()
    attributed, step_wall = trace.raw_balance()
    assert attributed == pytest.approx(step_wall, rel=0.02)
    assert step_wall == pytest.approx(sum(tally.lat), rel=1e-9)
    assert trace.loop_wall >= step_wall
    # The same identity from the file alone: a span's self time is its
    # duration minus its children's, and the spans of one step sum to
    # the step.
    out = tmp_path / "perflab.trace.jsonl"
    trace.write(str(out))
    spans = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(set(span) == {"name", "start", "end", "parent", "txn"}
               for span in spans)
    children = [0.0] * len(spans)
    top_level = 0.0
    for span in spans:
        duration = span["end"] - span["start"]
        if span["name"] == "perflab:step":
            continue
        if span["parent"] < 0:
            top_level += duration
        else:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]
            children[span["parent"]] += duration
    self_time = sum(span["end"] - span["start"] - children[index]
                    for index, span in enumerate(spans)
                    if span["name"] != "perflab:step")
    assert self_time == pytest.approx(top_level, rel=1e-6)
    assert self_time + trace.driver_self == pytest.approx(step_wall,
                                                          rel=0.02)


def test_wrappers_are_removed_and_counts_unchanged():
    from repro.storage.page import Page

    pristine = {attr: Page.__dict__[attr]
                for attr in ("read_record", "update_record",
                             "insert_record")}
    before = tiny_run("sd-percall-miss", 5)
    world, trace, _ = _traced_world("sd-percall-miss")
    assert "acquire" in vars(world.sd.glm)
    trace.unwrap_all()
    for target in (world.sd.glm, world.sd.coherency, world.sd.disk,
                   world.sd.network, world.engines[0],
                   world.engines[0].pool, world.engines[0].log, world.sd):
        assert not any(callable(value) and "wrapper" in repr(value)
                       for value in vars(target).values())
    assert {attr: Page.__dict__[attr] for attr in pristine} == pristine
    traced = tiny_run("sd-percall-miss", 5, traced=True)
    assert traced.correct
    after = tiny_run("sd-percall-miss", 5)
    assert after.info["exact"] == before.info["exact"]
    assert after.info["plan_hash"] == before.info["plan_hash"]


# ----------------------------------------------------------------------
# the oracle can fail
# ----------------------------------------------------------------------
def test_oracle_detects_a_tampered_record():
    spec = tiny("sd-percall-fit")
    world = World(spec)
    planner = Planner(spec, 11, world.slots_of)
    run_percall(world, planner.percall_slice(spec.slice_txns), Tally(), None)
    checked, mismatches = verify_world(world)
    assert checked == spec.n_pages * catalog.RECORDS_PER_PAGE
    assert mismatches == 0
    page_id = sorted(world.slots_of)[0]
    slot = world.slots_of[page_id][0]
    page = world.disk.read_page(page_id)
    page.update_record(slot, b"\xff" * catalog.PAYLOAD_BYTES)
    world.disk.write_page(page)
    assert verify_world(world) == (checked, 1)


def test_wrong_read_counts_as_failed():
    world = World(tiny("sd-percall-fit"))
    key = next(iter(world.model))
    world.model[key] = b"not what the engine holds"
    tally = Tally()
    run_percall(world, [((key[0], key[1], None),) * 4], tally, None)
    assert tally.failed == 4


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "perflab" / "run.py"),
         *args],
        capture_output=True, text=True, cwd=str(cwd), check=False)


def test_driver_mode_prints_the_result_last():
    done = _cli("--workload", "sd-percall-fit", "--seed", "3", "--seconds",
                "0.2", "--trace", "0", "--scale", str(SCALE))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in catalog.END_TO_END]
    printed = [line.split()[0] for line in lines if line.startswith("  ")
               and "better:" in line]
    assert printed == [m.name for m in catalog.END_TO_END]


def test_no_result_without_the_engine_sources(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files, the command must fail without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perflab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli("--workload", "sd-percall-fit", "--seed", "1", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_describe_prints_every_name_and_readme_carries_it():
    done = _cli("--describe")
    assert done.returncode == 0, done.stderr
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert f"`{metric.name}`" in done.stdout
    for workload in catalog.WORKLOADS:
        assert f"`{workload.name}`" in done.stdout
    # The README's glossary is this output, not a second copy to drift.
    readme = (HERE / "README.md").read_text(encoding="utf-8")
    glossary = readme.split("<!-- describe:begin")[1].split(
        "<!-- describe:end -->")[0]
    assert done.stdout.strip() in glossary


# ----------------------------------------------------------------------
# --compare verdicts
# ----------------------------------------------------------------------
def test_compare_verdicts():
    ops = catalog.END_TO_END[1]
    assert ops.name == "ops_per_s" and ops.better == "higher"
    steady = [100.0, 101.0, 99.0, 100.5]
    assert compare.verdict(ops, steady, steady)[0] == "same"
    down = [value * (1.0 - 2 * ops.bound) for value in steady]
    up = [value * (1.0 + 2 * ops.bound) for value in steady]
    assert compare.verdict(ops, steady, down)[0] == "worse"
    assert compare.verdict(ops, steady, up)[0] == "better"
    assert compare.verdict(ops, steady,
                           [40.0, 100.0, 160.0, 90.0])[0] == "unresolved"
