"""Crash drills: kill the system at a fault point, recover, and audit.

Every drill follows one protocol.  A **survey** run drives the seeded
chaos workload (:mod:`repro.faults.scenarios`) under an *enabled but
empty* injector, which counts how many times each fault point is
crossed without perturbing the run.  The driver then **enumerates
specs** — (point, hit number, crash flavour) triples — and **runs**
the identical workload once per spec with a one-shot rule armed, so
the run dies exactly there.  Determinism makes the two runs agree hit
for hit up to the fault, so a spec aimed at "the 17th log force"
really kills the 17th log force.  Each drill's **audit** step then
recovers and checks the outcome; the first failed check of the
drill's status ladder names the spec's status.

A drill is a row of data (:class:`Drill`); three rows exist:

* :data:`CAMPAIGN` — crash restart (Section 3.2.1).  The runner plays
  operator: crash the faulted scope (one instance/client, or the whole
  complex/server — an injected fault from the shared disk or the
  server always takes the complex view); rebuild torn pages with media
  recovery (Section 3.2.2) *before* restart, since restart redo must
  be able to read every page it screens; restart everything that died;
  roll back the survivors' in-flight transactions (their locks are
  live; only the dead systems' transactions are losers); quiesce and
  run the harness verifier plus the trace invariant checker.
* :data:`FAILOVER` — the replicated primary dies whole, the best
  standby is promoted from its merged replica logs, and the loss is
  audited against the write-ack level.
* :data:`RESTART` — the identical crash is recovered eagerly and with
  ``restart_mode="instant"``; the final disk images must be SHA-256
  identical.

:func:`sabotage_redo_screening` deliberately breaks redo's page_LSN
test so the drills' own alarm can be tested: with screening off,
restart redo double-applies records and the trace checker's
``redo-screening`` invariant trips, turning every drill red.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from typing import (TYPE_CHECKING, Callable, Dict, FrozenSet, Iterator, List,
                    Sequence, Tuple)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cs.system import CsSystem
    from repro.sd.complex import SDComplex
    from repro.storage.disk import SharedDisk
    from repro.wal.log_manager import LogManager

from repro.common.errors import FaultInjectedError, MediaError, ReproError
from repro.common.seams import Seams
from repro.faults import points as fpoints
from repro.faults import scenarios
from repro.faults.injector import (CRASH, CRASH_COMPLEX, TORN, FaultInjector,
                                   FaultPlan, FaultRule)
from repro.harness.verifier import verify_cs_system, verify_sd_complex
from repro.obs import events as ev
from repro.obs.invariants import check_trace
from repro.recovery import redo
from repro.recovery.media import recover_page_from_media
from repro.replication import ACK_LEVELS, StandbyComplex
from repro.wal.records import LogRecord, RecordKind

ARCH_SD = "sd"
ARCH_CS = "cs"
ARCHES = (ARCH_SD, ARCH_CS)


@dataclass(frozen=True)
class Spec:
    """One planned death: arm ``action`` at the ``hit``-th crossing of
    ``point`` in the ``arch`` workload, replicated at write-ack level
    ``ack`` when set.  ``hit == 0`` arms nothing (the survey run)."""

    arch: str
    point: str
    hit: int
    action: str = CRASH
    ack: str = ""


# ----------------------------------------------------------------------
# survey
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SurveyResult:
    """Hit counts from one un-faulted pass over the chaos workload.

    ``build_hits`` are hits consumed while *constructing* the stack
    (initial space-map writes and the like); specs only target the
    workload phase, ``build_hits[p] < hit <= total_hits[p]``, because
    a death during construction leaves nothing to recover.
    """

    arch: str
    ack: str
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


def _build(spec: Spec, seed: int, mode: str = "eager"):
    """The spec's scenario with its rule armed (none when ``hit`` is
    0), restarting in ``mode``; returns the system, its tracer, the
    injector and the workload driver."""
    plan = FaultPlan(seed=seed)
    if spec.hit:
        plan.add(FaultRule(point=spec.point, action=spec.action,
                           nth=spec.hit))
    injector = FaultInjector(plan)
    if spec.arch == ARCH_CS:
        system, tracer = scenarios.build_cs(injector, seed)
        system.server.restart_mode = mode
        return system, tracer, injector, scenarios.run_cs_workload
    if spec.ack:
        system, tracer = scenarios.build_replicated_sd(injector, seed,
                                                       spec.ack)
    else:
        system, tracer = scenarios.build_sd(injector, seed)
    system.restart_mode = mode
    return system, tracer, injector, scenarios.run_sd_workload


def _survey(template: Spec, seed: int) -> SurveyResult:
    system, tracer, injector, workload = _build(template, seed)
    build_hits = dict(injector.hit_counts())
    handles = workload(system, seed)
    return SurveyResult(
        arch=template.arch,
        ack=template.ack,
        build_hits=build_hits,
        total_hits=dict(injector.hit_counts()),
        disk_write_pages=tuple(
            event.fields["page"] for event in tracer.events()
            if event.kind == ev.DISK_WRITE),
        data_pages=frozenset(page_id for page_id, _ in handles),
    )


def run_survey(arch: str, seed: int) -> SurveyResult:
    """Drive the chaos workload once with an empty plan, counting hits."""
    return _survey(Spec(arch, "", 0), seed)


# ----------------------------------------------------------------------
# the drill row, its spec enumeration and its result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Drill:
    """One drill as data; :func:`run_drill` is the protocol."""

    #: Table header title, what one table row is called, and the table
    #: footer after "passed/total".
    title: str
    noun: str
    footer: str
    #: Exit verdict word, and the wording after "failed/total" (red) or
    #: "total" (green).
    verdict: str
    fail_text: str
    ok_text: str
    #: Crash flavour armed at each point's middle workload hit.
    action: str
    #: The drill's architectures, each with its ``--smoke`` points.
    smoke_points: Dict[str, Tuple[str, ...]]
    #: Recover-and-audit step: replays the spec (``_crash``) and fills
    #: in the result; a :class:`ReproError` means recovery failed.
    audit: Callable[["Result", int], None]
    #: (status, check) in order; the first check that does not hold
    #: names the status.
    ladder: Tuple[Tuple[str, str], ...]
    #: (heading, format, result attribute) per table column.
    columns: Tuple[Tuple[str, str, str], ...]
    #: Write-ack levels surveyed per architecture ("" = unreplicated).
    acks: Tuple[str, ...] = ("",)
    #: Full mode also kills the first and last hit, the whole complex
    #: at the middle hit, and tears one data-page write.
    sweep: bool = False
    #: One table per architecture instead of one for the whole drill.
    per_arch: bool = False


def enumerate_specs(drill: Drill, survey: SurveyResult,
                    smoke: bool = False) -> List[Spec]:
    """Expand a survey into the drill's specs.

    Every point the workload crosses (smoke mode: the drill's smoke
    points) is killed at its middle workload hit with the drill's
    action; a sweeping drill in full mode adds the rest of
    :attr:`Drill.sweep`.
    """
    sweep = drill.sweep and not smoke
    specs: List[Spec] = []
    points = drill.smoke_points[survey.arch] if smoke else fpoints.ALL_POINTS
    for point in points:
        first, last = survey.workload_hits(point)
        if not last:
            continue
        mid = first + (last - first) // 2
        for hit in sorted({first, mid, last}) if sweep else (mid,):
            specs.append(
                Spec(survey.arch, point, hit, drill.action, survey.ack))
        if sweep:
            specs.append(Spec(survey.arch, point, mid, CRASH_COMPLEX))
    torn_hit = _torn_target_hit(survey) if sweep else 0
    if torn_hit:
        specs.append(Spec(survey.arch, fpoints.DISK_WRITE, torn_hit, TORN))
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
    return candidates[len(candidates) // 2] if candidates else 0


@dataclass
class Result:
    """Outcome of one spec; each drill fills the fields its audit and
    table use and judges them through its ``ladder``."""

    spec: Spec
    ladder: Tuple[Tuple[str, str], ...]
    fired: bool = False
    fault_system: int = -1
    recovered: bool = False
    crashed_scope: str = ""
    repaired_pages: Tuple[int, ...] = ()
    verifier_ok: bool = False
    promoted_system: int = -1
    acked_commits: int = 0
    lost_commits: int = 0
    loss_bounded: bool = False
    image_match: bool = False
    writable: bool = False
    lazy_pages: int = 0
    invariant_violations: Tuple[str, ...] = ()
    detail: str = ""

    @property
    def clean(self) -> bool:
        return not self.invariant_violations

    @property
    def status(self) -> str:
        return next((status for status, check in self.ladder
                     if not getattr(self, check)), "ok")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, object]:
        return {**asdict(self), "status": self.status}


def _cell(result: Result, name: str) -> object:
    value = attrgetter(name)(result)
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, tuple):
        return len(value)
    return value if value != "" else "-"


@dataclass
class Report:
    """Everything one drill table holds."""

    drill: Drill
    #: The table's architecture ("" when it spans several).
    arch: str
    seed: int
    smoke: bool
    results: List[Result] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(r.ok for r in self.results)

    @property
    def failed(self) -> List[Result]:
        return [r for r in self.results if not r.ok]

    def table(self) -> str:
        """Fixed-width summary table, one row per spec."""
        columns = self.drill.columns + (("status", "<14", "status"),)
        header = " ".join([f"{'#':>3}"] + [
            format(heading, fmt) for heading, fmt, _ in columns])
        arch = f"arch={self.arch} " if self.arch else ""
        lines = [
            f"-- {self.drill.title}: {arch}seed={self.seed} "
            f"mode={'smoke' if self.smoke else 'full'} "
            f"{self.drill.noun}={len(self.results)} --",
            header,
            "-" * len(header),
        ]
        for index, result in enumerate(self.results, start=1):
            lines.append(" ".join([f"{index:>3}"] + [
                format(_cell(result, name), fmt) for _, fmt, name in columns]))
            if not result.ok:
                lines += [f"      ! {violation}"
                          for violation in result.invariant_violations[:3]]
                if result.detail:
                    lines.append(f"      ! {result.detail}")
        passed = len(self.results) - len(self.failed)
        lines.append(f"-- {passed}/{len(self.results)} {self.drill.footer} --")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the protocol: survey -> enumerate -> run -> audit
# ----------------------------------------------------------------------
class _NoFire(Exception):
    """The armed rule never fired: the replay drifted from its survey."""


def run_drill(drill: Drill, seed: int = 0, smoke: bool = False,
              arches: Sequence[str] = ARCHES) -> List[Report]:
    """Survey, enumerate, run and audit ``drill`` over ``arches``: one
    report per architecture for a per-arch drill, else one report."""
    arches = [arch for arch in arches if arch in drill.smoke_points
              and (drill.smoke_points[arch] or not smoke)]
    groups = [[arch] for arch in arches] if drill.per_arch else [arches]
    reports = []
    for group in groups:
        report = Report(drill, group[0] if drill.per_arch else "", seed,
                        smoke)
        for arch in group:
            for ack in drill.acks:
                survey = _survey(Spec(arch, "", 0, ack=ack), seed)
                report.results += [
                    run_spec(drill, spec, seed)
                    for spec in enumerate_specs(drill, survey, smoke)]
        reports.append(report)
    return reports


def run_spec(drill: Drill, spec: Spec, seed: int) -> Result:
    """Run one spec through the drill's audit step."""
    result = Result(spec, drill.ladder)
    try:
        drill.audit(result, seed)
    except _NoFire:
        result.fired = False
        result.detail = "armed rule never fired (hit count drifted?)"
    except ReproError as exc:
        result.detail = f"recovery failed: {type(exc).__name__}: {exc}"
    else:
        result.recovered = True
    return result


def _crash(result: Result, seed: int, mode: str = "eager"):
    """Replay the workload with ``result.spec`` armed; returns the dead
    system, its tracer and the fault."""
    system, tracer, _, workload = _build(result.spec, seed, mode)
    try:
        workload(system, seed)
    except FaultInjectedError as exc:
        result.fired, result.fault_system = True, exc.system
        return system, tracer, exc
    raise _NoFire


def _verify(result: Result, system, tracer) -> None:
    """The audit tail: the harness verifier in ``quiesced`` mode, then
    the trace invariant checker."""
    verify = (verify_sd_complex if result.spec.arch == ARCH_SD
              else verify_cs_system)
    report = verify(system, quiesced=True)
    result.verifier_ok = report.ok
    if not report.ok:
        result.detail = "; ".join(
            f"{v.invariant}: {v.detail}" for v in report.violations[:3])
    result.invariant_violations = _violations(tracer)


def _violations(tracer) -> Tuple[str, ...]:
    return tuple(f"{v.invariant}@seq{v.seq}(sys{v.system}): {v.message}"
                 for v in check_trace(tracer.events()))


# ----------------------------------------------------------------------
# crash restart: the campaign's recovery
# ----------------------------------------------------------------------
def _recover_sd(sd: "SDComplex", spec: Spec,
                fault: FaultInjectedError) -> Tuple[str, Tuple[int, ...]]:
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


def _recover_cs(cs: "CsSystem", spec: Spec,
                fault: FaultInjectedError) -> Tuple[str, Tuple[int, ...]]:
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
) -> Tuple[int, ...]:
    """Probe every written page; rebuild the unreadable ones from the
    merged stable logs (torn writes fail their checksum on read)."""
    repaired: List[int] = []
    for page_id in list(disk.written_page_ids()):
        try:
            disk.read_page(page_id)
        except MediaError:
            recover_page_from_media(page_id, None, logs, disk=disk)
            repaired.append(page_id)
    return tuple(repaired)


#: Per architecture: crash the faulted scope, repair torn pages,
#: restart, roll back the survivors and quiesce; each returns (scope,
#: repaired pages).
_RECOVER = {ARCH_SD: _recover_sd, ARCH_CS: _recover_cs}


def _audit_crash(result: Result, seed: int) -> None:
    system, tracer, fault = _crash(result, seed)
    result.crashed_scope, result.repaired_pages = _RECOVER[result.spec.arch](
        system, result.spec, fault)
    _verify(result, system, tracer)


# ----------------------------------------------------------------------
# failover: promote a standby from its merged replica logs
# ----------------------------------------------------------------------
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
    entries: List[Tuple[int, int, bytes]] = []
    for source_id in sorted(snapshot):
        for _, record in LogRecord.parse_stream(snapshot[source_id]):
            entries.append((int(record.lsn), source_id, record.to_bytes()))
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    reference = StandbyComplex(system_id, sd, Seams.of())
    reference.receive((source_id, data) for _, source_id, data in entries)
    reference.promote()
    return reference.disk.digest()


def _audit_failover(result: Result, seed: int) -> None:
    sd, tracer, _ = _crash(result, seed)
    # The primary site is gone: every instance dies, parked messages
    # die with it.  (No log salvage — this drill models losing the
    # machine, the case the ack levels exist to bound.)
    sd.crash_complex()
    sd.network.fail_parked()
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
    snapshot = snapshots[promoted_id]
    result.promoted_system = promoted_id
    # Loss audit against the pre-promotion snapshot (promotion appends
    # CLRs; the audit must see exactly what was shipped).
    survivors = {
        (source_id, record.txn_id)
        for source_id, blob in snapshot.items()
        for _, record in LogRecord.parse_stream(blob)
        if record.kind == RecordKind.COMMIT
    }
    acked = [ack for ack in sd.replication.commit_acks if ack.satisfied]
    lost = [ack for ack in acked
            if (ack.system, ack.txn) not in survivors]
    result.acked_commits = len(acked)
    result.lost_commits = len(lost)
    if result.spec.ack == "local":
        # Async shipping bounds the unshipped tail — and with it the
        # lost commits — by the in-flight window.
        result.loss_bounded = len(lost) <= scenarios.REPL_WINDOW_RECORDS
    else:
        # quorum / all: an acknowledged commit must never be lost.
        result.loss_bounded = not lost
    promoted = standbys[promoted_id].promote()
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
    result.invariant_violations = _violations(tracer)


# ----------------------------------------------------------------------
# restart: eager vs instant equivalence
# ----------------------------------------------------------------------
def _drain_instant(system, arch: str) -> int:
    """Finish an instant restart's lazy phase deterministically.

    The first still-pending page is recovered through the demand entry
    point — the same seam a normal page fix would hit — and the rest
    through the background sweeper, so a rehearsal exercises both lazy
    paths.  Returns how many pages restart left for lazy recovery (0
    after an eager restart).
    """
    registry = system if arch == ARCH_SD else system.server
    pending = sorted({page for manager in registry.instant.values()
                      for page in manager.pending_pages()})
    if pending:
        registry.ensure_instant_recovered(pending[0])
        registry.instant_drain()
    return len(pending)


def _audit_restart(result: Result, seed: int) -> None:
    """Replay and recover the identical crash eagerly, then instantly;
    determinism makes both legs' crashes land on the same operation,
    so any digest divergence is recovery's fault alone.  The instant
    leg is also verified."""
    arch = result.spec.arch
    digests = []
    for mode in ("eager", "instant"):
        system, tracer, fault = _crash(result, seed, mode)
        result.crashed_scope, _ = _RECOVER[arch](system, result.spec, fault)
        result.lazy_pages = _drain_instant(system, arch)
        disk = system.disk if arch == ARCH_SD else system.server.disk
        digests.append(disk.digest())
    result.image_match = digests[0] == digests[1]
    _verify(result, system, tracer)


# ----------------------------------------------------------------------
# the three rows
# ----------------------------------------------------------------------
_POINT_HIT = (("point", "<17", "spec.point"), ("hit", ">5", "spec.hit"))

CAMPAIGN = Drill(
    title="chaos campaign",
    noun="specs",
    footer="specs recovered cleanly",
    verdict="CHAOS",
    fail_text="crash specs left the database unrecovered or inconsistent",
    ok_text="crash specs, all recovered and verified",
    action=CRASH,
    # Disk, log, network and the commit path per architecture, keeping
    # the whole smoke gate at <= 10 crash points.
    smoke_points={
        ARCH_SD: (fpoints.DISK_WRITE, fpoints.LOG_FORCE, fpoints.NET_MSG,
                  fpoints.INSTANCE_UPDATE, fpoints.COMMIT_PRE_FORCE),
        ARCH_CS: (fpoints.DISK_WRITE, fpoints.LOG_FORCE, fpoints.CS_SHIP,
                  fpoints.CS_COMMIT, fpoints.INSTANCE_UPDATE),
    },
    audit=_audit_crash,
    ladder=(("no-fire", "fired"), ("unrecovered", "recovered"),
            ("verify-fail", "verifier_ok"), ("invariant-fail", "clean")),
    columns=_POINT_HIT + (("action", "<13", "spec.action"),
                          ("scope", "<12", "crashed_scope"),
                          ("repair", ">6", "repaired_pages")),
    sweep=True,
    per_arch=True,
)

FAILOVER = Drill(
    title="failover drill",
    noun="rehearsals",
    footer="failovers clean",
    verdict="DRILL",
    fail_text="failovers lost acked commits or diverged from reference "
              "recovery",
    ok_text="failovers, loss within ack guarantees, images match reference "
            "recovery",
    action=CRASH_COMPLEX,
    # The replication seams plus the commit point: the three places a
    # primary death interacts with shipping.
    smoke_points={ARCH_SD: (fpoints.COMMIT_POST_FORCE, fpoints.REPL_SHIP,
                            fpoints.REPL_APPLY)},
    audit=_audit_failover,
    ladder=(("no-fire", "fired"), ("error", "recovered"),
            ("loss", "loss_bounded"), ("image-mismatch", "image_match"),
            ("not-writable", "writable"), ("invariant-fail", "clean")),
    columns=_POINT_HIT + (("ack", "<7", "spec.ack"),
                          ("promoted", ">8", "promoted_system"),
                          ("acked", ">5", "acked_commits"),
                          ("lost", ">4", "lost_commits")),
    acks=ACK_LEVELS,
)

RESTART = Drill(
    title="restart drill",
    noun="rehearsals",
    footer="restarts equivalent",
    verdict="DRILL",
    fail_text="restarts diverged from the eager disk image or tripped a "
              "checker",
    ok_text="restarts, instant and eager recovery produced identical disk "
            "images",
    action=CRASH,
    # Smoke: the disk, the log and the commit path on SD only.
    smoke_points={
        ARCH_SD: (fpoints.DISK_WRITE, fpoints.LOG_FORCE,
                  fpoints.COMMIT_PRE_FORCE),
        ARCH_CS: (),
    },
    audit=_audit_restart,
    ladder=(("no-fire", "fired"), ("error", "recovered"),
            ("image-mismatch", "image_match"),
            ("verify-fail", "verifier_ok"), ("invariant-fail", "clean")),
    columns=(("arch", "<4", "spec.arch"),) + _POINT_HIT + (
        ("scope", "<12", "crashed_scope"), ("lazy", ">4", "lazy_pages"),
        ("match", "<5", "image_match")),
)


def run_campaign(arch: str, seed: int = 0, smoke: bool = False) -> Report:
    """Survey, enumerate, and torture one architecture."""
    return run_drill(CAMPAIGN, seed, smoke, (arch,))[0]


# ----------------------------------------------------------------------
# self-test sabotage
# ----------------------------------------------------------------------
@contextmanager
def sabotage_redo_screening() -> Iterator[None]:
    """Disable restart redo's page_LSN screening for the duration.

    Exists so the drills' alarm can be proven live: under sabotage the
    trace checker's ``redo-screening`` invariant must trip and the
    drill must exit non-zero.  Never set the flag any other way.
    """
    redo._SABOTAGE_DISABLE_REDO_SCREENING = True
    try:
        yield
    finally:
        redo._SABOTAGE_DISABLE_REDO_SCREENING = False
