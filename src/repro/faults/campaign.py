"""Crash-point torture campaigns: kill the system at every fault
point, run restart recovery, and verify the outcome.

The campaign has two phases.  A **survey** run drives the seeded chaos
workload (:mod:`repro.faults.scenarios`) under an *enabled but empty*
injector, which counts how many times each fault point is crossed
without perturbing the run.  The runner then **enumerates crash
specs** — (point, hit number, crash flavour) triples — and replays the
identical workload once per spec with a one-shot rule armed, so the
run dies exactly there.  Determinism makes the two runs agree hit for
hit up to the fault, so a spec aimed at "the 17th log force" really
kills the 17th log force.

After the injected death the runner plays operator:

1. crash the faulted scope (one instance/client, or the whole
   complex/server — an injected fault from the shared disk or the
   server always takes the complex view);
2. sweep the disk for unreadable pages (torn writes) and rebuild them
   with media recovery (Section 3.2.2) *before* restart, since restart
   redo must be able to read every page it screens;
3. restart recovery for everything that died;
4. roll back the surviving systems' in-flight transactions (their
   locks are live; only the dead systems' transactions are losers);
5. quiesce (flush every pool) and run the harness verifier in
   ``quiesced`` mode plus the trace invariant checker.

A spec passes only if the armed rule actually fired, recovery ran to
completion, and both checkers are clean.  ``CampaignReport.ok`` folds
the table into the process exit status.

:func:`sabotage_redo_screening` deliberately breaks redo's page_LSN
test so the campaign's own alarm can be tested: with screening off,
restart redo double-applies records and the trace checker's
``redo-screening`` invariant trips, turning the whole campaign red.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cs.system import CsSystem
    from repro.sd.complex import SDComplex
    from repro.storage.disk import SharedDisk
    from repro.wal.log_manager import LogManager

from repro.common.errors import FaultInjectedError, MediaError, ReproError
from repro.faults import points as fpoints
from repro.faults import scenarios
from repro.faults.injector import (
    CRASH,
    CRASH_COMPLEX,
    TORN,
    FaultInjector,
    FaultPlan,
    FaultRule,
)
from repro.harness.verifier import verify_cs_system, verify_sd_complex
from repro.obs import events as ev
from repro.obs.invariants import Violation, check_trace
from repro.recovery import redo
from repro.recovery.media import recover_page_from_media

ARCH_SD = "sd"
ARCH_CS = "cs"
ARCHES = (ARCH_SD, ARCH_CS)

#: Points the ``--smoke`` gate crashes (one mid-workload kill each);
#: chosen to cover disk, log, network and the commit path per
#: architecture while keeping the whole gate at <= 10 crash points.
SMOKE_POINTS: Dict[str, Tuple[str, ...]] = {
    ARCH_SD: (
        fpoints.DISK_WRITE,
        fpoints.LOG_FORCE,
        fpoints.NET_MSG,
        fpoints.INSTANCE_UPDATE,
        fpoints.COMMIT_PRE_FORCE,
    ),
    ARCH_CS: (
        fpoints.DISK_WRITE,
        fpoints.LOG_FORCE,
        fpoints.CS_SHIP,
        fpoints.CS_COMMIT,
        fpoints.INSTANCE_UPDATE,
    ),
}


# ----------------------------------------------------------------------
# survey
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SurveyResult:
    """Hit counts from one un-faulted pass over the chaos workload.

    ``build_hits`` are hits consumed while *constructing* the stack
    (initial space-map writes and the like); crash specs only target
    the workload phase, ``build_hits[p] < hit <= total_hits[p]``,
    because a death during construction leaves nothing to recover.
    """

    arch: str
    seed: int
    build_hits: Dict[str, int]
    total_hits: Dict[str, int]
    #: Page id written at each disk.write hit, in hit order.
    disk_write_pages: Tuple[int, ...]
    #: Pages born via allocate_page — rebuildable from a blank page by
    #: media recovery (their FORMAT records are logged; the statically
    #: formatted space-map pages are not).
    data_pages: FrozenSet[int]

    def workload_hits(self, point: str) -> Tuple[int, int]:
        """(first, last) workload-phase hit for ``point`` (0, 0 if the
        workload never crosses it)."""
        first = self.build_hits.get(point, 0) + 1
        last = self.total_hits.get(point, 0)
        if last < first:
            return (0, 0)
        return (first, last)


def run_survey(arch: str, seed: int) -> SurveyResult:
    """Drive the chaos workload once with an empty plan, counting hits."""
    injector = FaultInjector(FaultPlan(seed=seed))
    if arch == ARCH_SD:
        system, tracer = scenarios.build_sd(injector, seed)
        build_hits = dict(injector.hit_counts())
        handles = scenarios.run_sd_workload(system, seed)
    elif arch == ARCH_CS:
        cs, tracer = scenarios.build_cs(injector, seed)
        build_hits = dict(injector.hit_counts())
        handles = scenarios.run_cs_workload(cs, seed)
    else:
        raise ValueError(f"unknown architecture {arch!r}")
    disk_write_pages = tuple(
        event.fields["page"] for event in tracer.events()
        if event.kind == ev.DISK_WRITE
    )
    return SurveyResult(
        arch=arch,
        seed=seed,
        build_hits=build_hits,
        total_hits=dict(injector.hit_counts()),
        disk_write_pages=disk_write_pages,
        data_pages=frozenset(page_id for page_id, _ in handles),
    )


# ----------------------------------------------------------------------
# spec enumeration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrashSpec:
    """One planned death: arm ``action`` at the ``hit``-th crossing of
    ``point`` and see whether recovery holds."""

    arch: str
    point: str
    hit: int
    action: str

    @property
    def label(self) -> str:
        return f"{self.arch}:{self.point}@{self.hit}:{self.action}"


def enumerate_specs(survey: SurveyResult, smoke: bool = False) -> List[CrashSpec]:
    """Expand a survey into the campaign's crash specs.

    Full mode arms a single-scope crash at the first, middle and last
    workload hit of every point, a complex-wide crash at the middle
    hit, and one torn write against a rebuildable data page.  Smoke
    mode arms one mid-workload crash per :data:`SMOKE_POINTS` entry.
    """
    specs: List[CrashSpec] = []
    if smoke:
        for point in SMOKE_POINTS[survey.arch]:
            first, last = survey.workload_hits(point)
            if not last:
                continue
            mid = first + (last - first) // 2
            specs.append(CrashSpec(survey.arch, point, mid, CRASH))
        return specs
    for point in fpoints.ALL_POINTS:
        first, last = survey.workload_hits(point)
        if not last:
            continue
        mid = first + (last - first) // 2
        for hit in sorted({first, mid, last}):
            specs.append(CrashSpec(survey.arch, point, hit, CRASH))
        specs.append(CrashSpec(survey.arch, point, mid, CRASH_COMPLEX))
    torn_hit = _torn_target_hit(survey)
    if torn_hit:
        specs.append(
            CrashSpec(survey.arch, fpoints.DISK_WRITE, torn_hit, TORN))
    return specs


def _torn_target_hit(survey: SurveyResult) -> int:
    """The disk.write hit to tear: the middle workload-phase write of a
    data page.  Space-map pages are skipped — their initial format is
    not logged, so a blank-page rebuild cannot recreate them (a real
    complex rebuilds those from an image copy, not from the log)."""
    first, last = survey.workload_hits(fpoints.DISK_WRITE)
    if not last:
        return 0
    candidates = [
        hit for hit in range(first, last + 1)
        if survey.disk_write_pages[hit - 1] in survey.data_pages
    ]
    if not candidates:
        return 0
    return candidates[len(candidates) // 2]


# ----------------------------------------------------------------------
# one torture run
# ----------------------------------------------------------------------
@dataclass
class SpecResult:
    """Outcome of one crash spec."""

    spec: CrashSpec
    fired: bool = False
    fault_system: int = -1
    crashed_scope: str = ""
    repaired_pages: Tuple[int, ...] = ()
    recovered: bool = False
    verifier_ok: bool = False
    invariant_violations: Tuple[str, ...] = ()
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (self.fired and self.recovered and self.verifier_ok
                and not self.invariant_violations)

    @property
    def status(self) -> str:
        if self.ok:
            return "ok"
        if not self.fired:
            return "no-fire"
        if not self.recovered:
            return "unrecovered"
        if not self.verifier_ok:
            return "verify-fail"
        return "invariant-fail"

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.label,
            "fired": self.fired,
            "fault_system": self.fault_system,
            "crashed_scope": self.crashed_scope,
            "repaired_pages": list(self.repaired_pages),
            "recovered": self.recovered,
            "verifier_ok": self.verifier_ok,
            "invariant_violations": list(self.invariant_violations),
            "status": self.status,
            "detail": self.detail,
        }


def run_spec(spec: CrashSpec, seed: int) -> SpecResult:
    """Replay the workload with ``spec`` armed; crash, recover, verify."""
    plan = FaultPlan(seed=seed)
    plan.add(FaultRule(point=spec.point, action=spec.action, nth=spec.hit))
    injector = FaultInjector(plan)
    result = SpecResult(spec=spec)
    if spec.arch == ARCH_SD:
        system, tracer = scenarios.build_sd(injector, seed)
        runner, recoverer = scenarios.run_sd_workload, _recover_sd
        verifier = verify_sd_complex
    else:
        system, tracer = scenarios.build_cs(injector, seed)
        runner, recoverer = scenarios.run_cs_workload, _recover_cs
        verifier = verify_cs_system
    fault: Optional[FaultInjectedError] = None
    try:
        runner(system, seed)
    except FaultInjectedError as exc:
        fault = exc
    if fault is None:
        result.detail = "armed rule never fired (hit count drifted?)"
        return result
    result.fired = True
    result.fault_system = fault.system
    try:
        result.crashed_scope, repaired = recoverer(system, spec, fault)
        result.repaired_pages = tuple(repaired)
    except ReproError as exc:
        result.detail = f"recovery failed: {type(exc).__name__}: {exc}"
        return result
    result.recovered = True
    report = verifier(system, quiesced=True)
    result.verifier_ok = report.ok
    if not report.ok:
        result.detail = "; ".join(
            f"{v.invariant}: {v.detail}" for v in report.violations[:3])
    result.invariant_violations = tuple(
        _render_violation(v) for v in check_trace(tracer.events()))
    return result


def _recover_sd(sd: "SDComplex", spec: CrashSpec,
                fault: FaultInjectedError) -> Tuple[str, List[int]]:
    if spec.action == CRASH_COMPLEX or fault.system not in sd.instances:
        sd.crash_complex()
        scope = "complex"
        # Messages parked by injected delays die with the complex —
        # delivering them to the recovered incarnation would replay
        # traffic from before the crash.
        sd.network.fail_parked()
    else:
        sd.crash_instance(fault.system)
        scope = f"instance:{fault.system}"
    repaired = _repair_media(sd.disk, sd.local_logs())
    sd.restart_complex()
    for system_id in sorted(sd.instances):
        instance = sd.instances[system_id]
        for txn in list(instance.txns.active()):
            instance.rollback(txn)
    for system_id in sorted(sd.instances):
        sd.instances[system_id].pool.flush_all()
    return scope, repaired


def _recover_cs(cs: "CsSystem", spec: CrashSpec,
                fault: FaultInjectedError) -> Tuple[str, List[int]]:
    if spec.action == CRASH_COMPLEX or fault.system not in cs.clients:
        cs.crash_server()
        scope = "server"
        cs.network.fail_parked()
    else:
        cs.crash_client(fault.system)
        scope = f"client:{fault.system}"
    repaired = _repair_media(cs.server.disk, [cs.server.log])
    if cs.server.crashed:
        cs.restart_server()
    else:
        for client_id in sorted(cs.clients):
            if cs.clients[client_id].crashed:
                cs.recover_client(client_id)
    for client_id in sorted(cs.clients):
        client = cs.clients[client_id]
        if client.crashed:
            continue
        for txn in list(client.txns.active()):
            client.rollback(txn)
    cs.quiesce()
    return scope, repaired


def _repair_media(
    disk: "SharedDisk", logs: Sequence["LogManager"]
) -> List[int]:
    """Probe every written page; rebuild the unreadable ones from the
    merged stable logs (torn writes fail their checksum on read)."""
    repaired: List[int] = []
    for page_id in list(disk.written_page_ids()):
        try:
            disk.read_page(page_id)
        except MediaError:
            recover_page_from_media(page_id, None, logs, disk=disk)
            repaired.append(page_id)
    return repaired


def _render_violation(violation: Violation) -> str:
    return (f"{violation.invariant}@seq{violation.seq}"
            f"(sys{violation.system}): {violation.message}")


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
@dataclass
class CampaignReport:
    """Everything one architecture's campaign produced."""

    arch: str
    seed: int
    smoke: bool
    survey: SurveyResult
    results: List[SpecResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    @property
    def failed(self) -> List[SpecResult]:
        return [r for r in self.results if not r.ok]

    def table(self) -> str:
        """Fixed-width summary table, one row per crash spec."""
        header = (f"{'#':>3} {'point':<17} {'hit':>5} {'action':<13} "
                  f"{'scope':<12} {'repair':>6} {'status':<14}")
        lines = [
            f"-- chaos campaign: arch={self.arch} seed={self.seed} "
            f"mode={'smoke' if self.smoke else 'full'} "
            f"specs={len(self.results)} --",
            header,
            "-" * len(header),
        ]
        for index, result in enumerate(self.results, start=1):
            spec = result.spec
            lines.append(
                f"{index:>3} {spec.point:<17} {spec.hit:>5} "
                f"{spec.action:<13} {result.crashed_scope or '-':<12} "
                f"{len(result.repaired_pages):>6} {result.status:<14}")
            if not result.ok:
                for violation in result.invariant_violations[:3]:
                    lines.append(f"      ! {violation}")
                if result.detail:
                    lines.append(f"      ! {result.detail}")
        passed = sum(1 for r in self.results if r.ok)
        lines.append(f"-- {passed}/{len(self.results)} specs recovered "
                     f"cleanly --")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "arch": self.arch,
            "seed": self.seed,
            "smoke": self.smoke,
            "survey_hits": dict(sorted(self.survey.total_hits.items())),
            "results": [r.to_dict() for r in self.results],
            "ok": self.ok,
        }


def run_campaign(arch: str, seed: int = 0, smoke: bool = False) -> CampaignReport:
    """Survey, enumerate, and torture one architecture."""
    survey = run_survey(arch, seed)
    report = CampaignReport(arch=arch, seed=seed, smoke=smoke, survey=survey)
    for spec in enumerate_specs(survey, smoke=smoke):
        report.results.append(run_spec(spec, seed))
    return report


# ----------------------------------------------------------------------
# failover drill
# ----------------------------------------------------------------------
#: Smoke-mode drill points: the replication seams plus the commit
#: point, the three places a primary death interacts with shipping.
DRILL_SMOKE_POINTS = (
    fpoints.COMMIT_POST_FORCE,
    fpoints.REPL_SHIP,
    fpoints.REPL_APPLY,
)


@dataclass(frozen=True)
class DrillSpec:
    """One failover rehearsal: run the replicated workload at write-ack
    level ``ack``, kill the whole primary at the ``hit``-th crossing of
    ``point``, promote the best standby, and audit the loss."""

    point: str
    hit: int
    ack: str

    @property
    def label(self) -> str:
        return f"failover:{self.point}@{self.hit}:{self.ack}"


def run_drill_survey(ack: str, seed: int) -> SurveyResult:
    """Un-faulted hit counts for the replicated workload at ``ack``.

    Replication adds crossings everywhere (standby disk writes, ship
    and ack rounds), so the plain-campaign survey cannot be reused —
    the drill takes its own census per ack level.
    """
    injector = FaultInjector(FaultPlan(seed=seed))
    sd, _ = scenarios.build_replicated_sd(injector, seed, ack)
    build_hits = dict(injector.hit_counts())
    scenarios.run_sd_workload(sd, seed)
    return SurveyResult(
        arch=ARCH_SD, seed=seed, build_hits=build_hits,
        total_hits=dict(injector.hit_counts()),
        disk_write_pages=(), data_pages=frozenset(),
    )


def enumerate_drill_specs(survey: SurveyResult, ack: str,
                          smoke: bool = False) -> List[DrillSpec]:
    """Every fault point the replicated workload crosses, mid-hit.

    Smoke mode keeps only :data:`DRILL_SMOKE_POINTS`; full mode covers
    all of :data:`~repro.faults.points.ALL_POINTS` the workload hits.
    """
    points = DRILL_SMOKE_POINTS if smoke else fpoints.ALL_POINTS
    specs: List[DrillSpec] = []
    for point in points:
        first, last = survey.workload_hits(point)
        if not last:
            continue
        mid = first + (last - first) // 2
        specs.append(DrillSpec(point=point, hit=mid, ack=ack))
    return specs


@dataclass
class DrillResult:
    """Outcome of one failover rehearsal."""

    spec: DrillSpec
    fired: bool = False
    fault_system: int = -1
    promoted_system: int = -1
    acked_commits: int = 0
    lost_commits: int = 0
    loss_bounded: bool = False
    image_match: bool = False
    writable: bool = False
    invariant_violations: Tuple[str, ...] = ()
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (self.fired and self.loss_bounded and self.image_match
                and self.writable and not self.invariant_violations)

    @property
    def status(self) -> str:
        if self.ok:
            return "ok"
        if not self.fired:
            return "no-fire"
        if self.detail:
            return "error"
        if not self.loss_bounded:
            return "loss"
        if not self.image_match:
            return "image-mismatch"
        if not self.writable:
            return "not-writable"
        return "invariant-fail"

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.label,
            "fired": self.fired,
            "fault_system": self.fault_system,
            "promoted_system": self.promoted_system,
            "acked_commits": self.acked_commits,
            "lost_commits": self.lost_commits,
            "loss_bounded": self.loss_bounded,
            "image_match": self.image_match,
            "writable": self.writable,
            "invariant_violations": list(self.invariant_violations),
            "status": self.status,
            "detail": self.detail,
        }


def _reference_failover_digest(system_id: int, sd: "SDComplex",
                               snapshot: Dict[int, bytes]) -> str:
    """Recover the promoted standby's replica stream from scratch.

    A fresh, silent standby (own stats, no tracer, no injector) is fed
    the *identical* shipped records in merged LSN order and promoted;
    its disk digest is the reference the live standby must match.  The
    merge re-sort matters: per-page redo is only correct in ascending
    LSN order, and the per-source snapshot blobs alone are not globally
    ordered.
    """
    from repro.common.stats import StatsRegistry
    from repro.faults.injector import NULL_INJECTOR
    from repro.obs.tracer import NULL_TRACER
    from repro.replication.standby import StandbyComplex
    from repro.wal.records import LogRecord

    entries: List[Tuple[int, int, bytes]] = []
    for source_id in sorted(snapshot):
        for _, record in LogRecord.parse_stream(snapshot[source_id]):
            entries.append((int(record.lsn), source_id, record.to_bytes()))
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    reference = StandbyComplex(system_id, sd, stats=StatsRegistry(),
                               tracer=NULL_TRACER, injector=NULL_INJECTOR)
    reference.receive((source_id, data) for _, source_id, data in entries)
    reference.promote()
    return reference.disk.digest()


def run_drill_spec(spec: DrillSpec, seed: int) -> DrillResult:
    """One rehearsal: kill the primary, promote, audit, verify."""
    plan = FaultPlan(seed=seed)
    plan.add(FaultRule(point=spec.point, action=CRASH_COMPLEX,
                       nth=spec.hit))
    injector = FaultInjector(plan)
    result = DrillResult(spec=spec)
    sd, tracer = scenarios.build_replicated_sd(injector, seed, spec.ack)
    fault: Optional[FaultInjectedError] = None
    try:
        scenarios.run_sd_workload(sd, seed)
    except FaultInjectedError as exc:
        fault = exc
    if fault is None:
        result.detail = "armed rule never fired (hit count drifted?)"
        return result
    result.fired = True
    result.fault_system = fault.system
    # The primary site is gone: every instance dies, parked messages
    # die with it.  (No log salvage — this drill models losing the
    # machine, the case the ack levels exist to bound.)
    sd.crash_complex()
    sd.network.fail_parked()
    try:
        result = _promote_and_audit(result, sd, tracer)
    except ReproError as exc:
        result.detail = f"failover failed: {type(exc).__name__}: {exc}"
        return result
    return result


def _promote_and_audit(result: DrillResult, sd: "SDComplex",
                       tracer) -> DrillResult:
    from repro.wal.records import LogRecord, RecordKind

    spec = result.spec
    # Elect the standby holding the longest prefix of the shipped
    # stream.  Every standby receives the same batch sequence, so
    # (absorbed LSN, records held) orders prefixes by containment and
    # the winner holds a superset of every acked standby's stream.
    standbys = sd.replication.standbys()
    snapshots = {sid: standby.replica_snapshot()
                 for sid, standby in standbys.items()}
    record_counts = {
        sid: sum(1 for blob in snapshot.values()
                 for _ in LogRecord.parse_stream(blob))
        for sid, snapshot in snapshots.items()
    }
    promoted_id = max(
        standbys,
        key=lambda sid: (int(standbys[sid].absorbed_lsn),
                         record_counts[sid], -sid),
    )
    standby = standbys[promoted_id]
    snapshot = snapshots[promoted_id]
    result.promoted_system = promoted_id
    # Loss audit against the pre-promotion snapshot (promotion appends
    # CLRs; the audit must see exactly what was shipped).
    survivors = set()
    for source_id, blob in snapshot.items():
        for _, record in LogRecord.parse_stream(blob):
            if record.kind == RecordKind.COMMIT:
                survivors.add((source_id, record.txn_id))
    acked = [ack for ack in sd.replication.commit_acks if ack.satisfied]
    lost = [ack for ack in acked
            if (ack.system, ack.txn) not in survivors]
    result.acked_commits = len(acked)
    result.lost_commits = len(lost)
    if spec.ack == "local":
        # Async shipping bounds the unshipped tail — and with it the
        # lost commits — by the in-flight window.
        result.loss_bounded = (
            len(lost) <= scenarios.REPL_WINDOW_RECORDS)
    else:
        # quorum / all: an acknowledged commit must never be lost.
        result.loss_bounded = not lost
    promoted = standby.promote()
    result.image_match = (
        promoted.disk.digest()
        == _reference_failover_digest(promoted_id, sd, snapshot))
    # The promoted complex must take new work: one smoke transaction
    # (after the digest — it changes the disk).
    instance = promoted.instances[promoted_id]
    txn = instance.begin()
    page_id = instance.allocate_page(txn)
    instance.insert(txn, page_id, b"post-failover write")
    instance.commit(txn)
    result.writable = True
    result.invariant_violations = tuple(
        _render_violation(v) for v in check_trace(tracer.events()))
    return result


@dataclass
class DrillReport:
    """Everything one failover drill produced."""

    seed: int
    smoke: bool
    results: List[DrillResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    @property
    def failed(self) -> List[DrillResult]:
        return [r for r in self.results if not r.ok]

    def table(self) -> str:
        """Fixed-width summary, one row per rehearsal."""
        header = (f"{'#':>3} {'point':<17} {'hit':>5} {'ack':<7} "
                  f"{'promoted':>8} {'acked':>5} {'lost':>4} "
                  f"{'status':<14}")
        lines = [
            f"-- failover drill: seed={self.seed} "
            f"mode={'smoke' if self.smoke else 'full'} "
            f"rehearsals={len(self.results)} --",
            header,
            "-" * len(header),
        ]
        for index, result in enumerate(self.results, start=1):
            spec = result.spec
            lines.append(
                f"{index:>3} {spec.point:<17} {spec.hit:>5} "
                f"{spec.ack:<7} {result.promoted_system:>8} "
                f"{result.acked_commits:>5} {result.lost_commits:>4} "
                f"{result.status:<14}")
            if not result.ok:
                for violation in result.invariant_violations[:3]:
                    lines.append(f"      ! {violation}")
                if result.detail:
                    lines.append(f"      ! {result.detail}")
        passed = sum(1 for r in self.results if r.ok)
        lines.append(f"-- {passed}/{len(self.results)} failovers "
                     f"clean --")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "smoke": self.smoke,
            "results": [r.to_dict() for r in self.results],
            "ok": self.ok,
        }


def run_failover_drill(seed: int = 0, smoke: bool = False) -> DrillReport:
    """Survey and rehearse failover at every ack level.

    Kills the primary complex at every reachable fault point (mid-hit)
    per write-ack level, promotes the best standby, and checks: the
    promoted disk image equals a from-scratch reference recovery of
    the shipped stream; ``quorum``/``all``-acked commits are never
    lost; ``local`` loss stays within the in-flight window; the
    promoted complex accepts new transactions; the whole trace passes
    the invariant checker.
    """
    from repro.replication import ACK_LEVELS

    report = DrillReport(seed=seed, smoke=smoke)
    for ack in ACK_LEVELS:
        survey = run_drill_survey(ack, seed)
        for spec in enumerate_drill_specs(survey, ack, smoke=smoke):
            report.results.append(run_drill_spec(spec, seed))
    return report


# ----------------------------------------------------------------------
# restart drill: eager vs instant equivalence
# ----------------------------------------------------------------------
#: Smoke-mode restart-drill points: the disk, the log, and the commit
#: path — three SD crash flavours whose recovery images the instant
#: path must reproduce byte for byte.
RESTART_DRILL_SMOKE_POINTS = (
    fpoints.DISK_WRITE,
    fpoints.LOG_FORCE,
    fpoints.COMMIT_PRE_FORCE,
)


@dataclass(frozen=True)
class RestartDrillSpec:
    """One restart rehearsal: run the identical workload and crash
    twice — once recovered eagerly, once with ``restart_mode="instant"``
    — and demand that the final disk images are SHA-256 identical."""

    arch: str
    point: str
    hit: int

    @property
    def label(self) -> str:
        return f"restart:{self.arch}:{self.point}@{self.hit}"


@dataclass
class RestartDrillResult:
    """Outcome of one eager-vs-instant restart rehearsal."""

    spec: RestartDrillSpec
    fired: bool = False
    fault_system: int = -1
    crashed_scope: str = ""
    lazy_pages: int = 0
    eager_digest: str = ""
    instant_digest: str = ""
    image_match: bool = False
    verifier_ok: bool = False
    invariant_violations: Tuple[str, ...] = ()
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (self.fired and self.image_match and self.verifier_ok
                and not self.invariant_violations)

    @property
    def status(self) -> str:
        if self.ok:
            return "ok"
        if not self.fired:
            return "no-fire"
        if self.detail and not self.instant_digest:
            return "error"
        if not self.image_match:
            return "image-mismatch"
        if not self.verifier_ok:
            return "verify-fail"
        return "invariant-fail"

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.label,
            "fired": self.fired,
            "fault_system": self.fault_system,
            "crashed_scope": self.crashed_scope,
            "lazy_pages": self.lazy_pages,
            "eager_digest": self.eager_digest,
            "instant_digest": self.instant_digest,
            "image_match": self.image_match,
            "verifier_ok": self.verifier_ok,
            "invariant_violations": list(self.invariant_violations),
            "status": self.status,
            "detail": self.detail,
        }


def _drain_instant(system, arch: str) -> int:
    """Finish an instant restart's lazy phase deterministically.

    The first still-pending page is recovered through the demand entry
    point — the same seam a normal page fix would hit — and the rest
    through the background sweeper, so a rehearsal exercises both lazy
    paths.  Returns how many pages restart left for lazy recovery.
    """
    if arch == ARCH_SD:
        managers = [system.instant[sid] for sid in sorted(system.instant)]
    else:
        managers = [system.server.instant] if system.server.instant else []
    pending = sorted({page for manager in managers
                      for page in manager.pending_pages()})
    if pending:
        if arch == ARCH_SD:
            system.ensure_instant_recovered(pending[0])
            system.instant_drain()
        else:
            system.server.instant.recover_page(pending[0])
            system.server.instant_drain()
    return len(pending)


def _run_restart_variant(spec: RestartDrillSpec, seed: int,
                         mode: str) -> Dict[str, object]:
    """One leg of a restart rehearsal.

    Replays the seeded workload with the spec's rule armed, recovers
    through the standard campaign sequence under ``restart_mode=mode``
    (the instant leg then drains its lazy pages), and returns the final
    disk digest plus the evidence the comparison needs.  Determinism
    makes the two legs' crashes land on the same operation, so any
    digest divergence is recovery's fault alone.
    """
    plan = FaultPlan(seed=seed)
    plan.add(FaultRule(point=spec.point, action=CRASH, nth=spec.hit))
    injector = FaultInjector(plan)
    leg: Dict[str, object] = {
        "fired": False, "fault_system": -1, "scope": "",
        "lazy_pages": 0, "digest": "", "verifier_ok": True,
        "violations": (), "detail": "",
    }
    if spec.arch == ARCH_SD:
        system, tracer = scenarios.build_sd(injector, seed)
        system.restart_mode = mode
        runner, recoverer = scenarios.run_sd_workload, _recover_sd
        verifier = verify_sd_complex
    else:
        system, tracer = scenarios.build_cs(injector, seed)
        system.server.restart_mode = mode
        runner, recoverer = scenarios.run_cs_workload, _recover_cs
        verifier = verify_cs_system
    fault: Optional[FaultInjectedError] = None
    try:
        runner(system, seed)
    except FaultInjectedError as exc:
        fault = exc
    if fault is None:
        leg["detail"] = "armed rule never fired (hit count drifted?)"
        return leg
    leg["fired"] = True
    leg["fault_system"] = fault.system
    crash_spec = CrashSpec(spec.arch, spec.point, spec.hit, CRASH)
    try:
        scope, _ = recoverer(system, crash_spec, fault)
        if mode == "instant":
            leg["lazy_pages"] = _drain_instant(system, spec.arch)
    except ReproError as exc:
        leg["detail"] = f"recovery failed: {type(exc).__name__}: {exc}"
        return leg
    leg["scope"] = scope
    disk = system.disk if spec.arch == ARCH_SD else system.server.disk
    leg["digest"] = disk.digest()
    if mode == "instant":
        report = verifier(system, quiesced=True)
        leg["verifier_ok"] = report.ok
        if not report.ok:
            leg["detail"] = "; ".join(
                f"{v.invariant}: {v.detail}" for v in report.violations[:3])
        leg["violations"] = tuple(
            _render_violation(v) for v in check_trace(tracer.events()))
    return leg


def run_restart_drill_spec(spec: RestartDrillSpec,
                           seed: int) -> RestartDrillResult:
    """One rehearsal: same crash recovered eagerly and instantly."""
    result = RestartDrillResult(spec=spec)
    eager = _run_restart_variant(spec, seed, "eager")
    if not eager["fired"] or eager["detail"]:
        result.fired = bool(eager["fired"])
        result.detail = str(eager["detail"]) or "eager leg failed"
        return result
    instant = _run_restart_variant(spec, seed, "instant")
    result.fired = bool(instant["fired"])
    result.fault_system = int(instant["fault_system"])
    result.crashed_scope = str(instant["scope"])
    result.lazy_pages = int(instant["lazy_pages"])
    result.eager_digest = str(eager["digest"])
    result.instant_digest = str(instant["digest"])
    result.image_match = bool(result.eager_digest) \
        and result.eager_digest == result.instant_digest
    result.verifier_ok = bool(instant["verifier_ok"])
    result.invariant_violations = tuple(instant["violations"])
    result.detail = str(instant["detail"])
    return result


@dataclass
class RestartDrillReport:
    """Everything one restart drill produced."""

    seed: int
    smoke: bool
    results: List[RestartDrillResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    @property
    def failed(self) -> List[RestartDrillResult]:
        return [r for r in self.results if not r.ok]

    def table(self) -> str:
        """Fixed-width summary, one row per rehearsal."""
        header = (f"{'#':>3} {'arch':<4} {'point':<17} {'hit':>5} "
                  f"{'scope':<12} {'lazy':>4} {'match':<5} "
                  f"{'status':<14}")
        lines = [
            f"-- restart drill: seed={self.seed} "
            f"mode={'smoke' if self.smoke else 'full'} "
            f"rehearsals={len(self.results)} --",
            header,
            "-" * len(header),
        ]
        for index, result in enumerate(self.results, start=1):
            spec = result.spec
            lines.append(
                f"{index:>3} {spec.arch:<4} {spec.point:<17} "
                f"{spec.hit:>5} {result.crashed_scope or '-':<12} "
                f"{result.lazy_pages:>4} "
                f"{'yes' if result.image_match else 'no':<5} "
                f"{result.status:<14}")
            if not result.ok:
                for violation in result.invariant_violations[:3]:
                    lines.append(f"      ! {violation}")
                if result.detail:
                    lines.append(f"      ! {result.detail}")
        passed = sum(1 for r in self.results if r.ok)
        lines.append(f"-- {passed}/{len(self.results)} restarts "
                     f"equivalent --")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "smoke": self.smoke,
            "results": [r.to_dict() for r in self.results],
            "ok": self.ok,
        }


def run_restart_drill(seed: int = 0,
                      smoke: bool = False) -> RestartDrillReport:
    """Rehearse instant restart against the eager reference.

    For every reachable fault point (mid workload hit) the drill runs
    the identical seeded workload twice: once recovered with the
    classic eager restart, once with ``restart_mode="instant"`` (open
    after analysis + undo, then demand-recover one page and sweep the
    rest).  A rehearsal passes only if both legs end with SHA-256
    identical disk images and the instant leg satisfies the harness
    verifier and the trace invariant checker.  Smoke mode keeps the
    three :data:`RESTART_DRILL_SMOKE_POINTS` crash points on SD; full
    mode covers both architectures at every reachable point.
    """
    report = RestartDrillReport(seed=seed, smoke=smoke)
    arches = (ARCH_SD,) if smoke else ARCHES
    for arch in arches:
        survey = run_survey(arch, seed)
        points = (RESTART_DRILL_SMOKE_POINTS if smoke
                  else fpoints.ALL_POINTS)
        for point in points:
            first, last = survey.workload_hits(point)
            if not last:
                continue
            mid = first + (last - first) // 2
            report.results.append(run_restart_drill_spec(
                RestartDrillSpec(arch=arch, point=point, hit=mid), seed))
    return report


# ----------------------------------------------------------------------
# self-test sabotage
# ----------------------------------------------------------------------
@contextmanager
def sabotage_redo_screening() -> Iterator[None]:
    """Disable restart redo's page_LSN screening for the duration.

    Exists so the campaign's alarm can be proven live: under sabotage
    the trace checker's ``redo-screening`` invariant must trip and the
    campaign must exit non-zero.  Never set the flag any other way.
    """
    redo._SABOTAGE_DISABLE_REDO_SCREENING = True
    try:
        yield
    finally:
        redo._SABOTAGE_DISABLE_REDO_SCREENING = False
