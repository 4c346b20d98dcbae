"""Trace-driven protocol invariant checker.

Replays a trace in logical-time order and asserts the paper's safety
properties *as observed*, independent of the implementation that emitted
them:

* **I1 page-lsn-monotonic** — every page_LSN stamp (``page.update``,
  ``recovery.redo``, ``recovery.clr``) must install an LSN strictly
  greater than the page's previous page_LSN.  This is Section 1.5's
  correctness condition; the naive address-based LSN baseline violates
  it on the E1 lost-update scenario (a remote update stamps a *smaller*
  LSN over a larger one), which is exactly what this checker flags.
* **I2 redo-screening** — restart redo must honour the ARIES test:
  ``recovery.redo`` only when ``lsn > page_LSN``, ``recovery.skip`` only
  when ``lsn <= page_LSN``.
* **I3 update-under-lock** — every traced record-level page update (log
  record kind ``UPDATE``) runs under a lock its transaction holds on
  that page or a record of it.  Space-map and format updates are exempt
  (the paper's SMPs are protected by latches, not locks), as are
  restart-recovery redo/CLR stamps (restart runs with locks released).
* **I4 lamport** — every ``lsn.observe`` merge must leave the local
  maximum at least ``max(before, remote)``: observing a remote
  Local_Max_LSN may never move logical time backwards.
* (I5 policed redo partitions, which no longer exist; the numbers
  stay stable.)
* **I6 span-pairing** — every ``span.begin`` has exactly one matching
  ``span.end`` (same span id, later in logical time); no duplicate
  begins, no orphan ends, nothing left open at end of trace.
* **I7 span-nesting** — per system, spans close in LIFO order: the
  causal tree reconstructed by :mod:`repro.obs.spans` is only
  meaningful if brackets nest properly.
* **I8 instant-recovery** — under instant restart, no page may be
  served before its redo chain is applied: between ``instant.open``
  (which carries the sorted pending-page list) and that page's
  ``instant.recover_page``, any ``page.read`` / ``page.update`` /
  ``recovery.clr`` touching the page — by *any* system — is a stale
  access.  ``instant.done`` must find no page still pending.
* **I9 log-consistency** — no ``log.append`` of a transaction may
  follow its COMMIT: a committed transaction's COMMIT is its last
  record (END is rollback-only).  A COMMIT a crash took back does not
  count, because restart then rightly undoes its transaction: each
  analysis pass (``span.begin`` of ``analysis`` on system S) forgets
  the COMMITs S's log had not forced (``log.force`` ``up_to``) and
  every COMMIT still in a CS client's buffer (appended with no offset,
  not yet covered by a ``cs.ship``); a promotion (``span.begin`` of
  ``promote``) starts a new history and forgets them all.

The checker is deliberately event-sourced: it keeps page and lock state
reconstructed *only from the trace*, so it can audit a saved JSONL file
without re-running the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.obs import events as ev
from repro.obs.tracer import TraceEvent

#: Log-record kinds whose page stamps must run under a transaction lock.
_LOCKED_RECORD_KINDS = frozenset({"UPDATE"})


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the offending event."""

    invariant: str
    seq: int
    system: int
    message: str

    def __str__(self) -> str:
        return (
            f"[{self.invariant}] seq={self.seq} sys={self.system}: "
            f"{self.message}"
        )


def _resource_key(resource: Any) -> Tuple[Any, ...]:
    if isinstance(resource, (list, tuple)):
        return tuple(resource)
    return (resource,)


class _LockTable:
    """Lock state reconstructed from lock.* events."""

    def __init__(self) -> None:
        self._held: Dict[Any, Set[Tuple[Any, ...]]] = {}

    def grant(self, owner: Any, resource: Any) -> None:
        self._held.setdefault(owner, set()).add(_resource_key(resource))

    def release(self, owner: Any, resource: Any) -> None:
        self._held.get(owner, set()).discard(_resource_key(resource))

    def release_all(self, owner: Any) -> None:
        self._held.pop(owner, None)

    def covers_page(self, owner: Any, page: Any) -> bool:
        """True if ``owner`` holds a lock on ``page`` or one of its records."""
        for res in self._held.get(owner, ()):
            if len(res) >= 2 and res[0] in ("page", "record") and res[1] == page:
                return True
        return False


def check_trace(events: Iterable[TraceEvent]) -> List[Violation]:
    """Replay ``events`` and return all invariant violations found."""
    ordered = sorted(events, key=lambda e: e.seq)
    violations: List[Violation] = []
    # page_LSN per (system, page): page images diverge across systems
    # (each buffer pool holds its own copy between transfers), so the
    # monotonicity ledger is keyed per system and re-seeded from each
    # event's own page_lsn_prev field.
    locks = _LockTable()
    observed_max: Dict[int, int] = {}
    # I6: span id -> begin event (still open); closed ids kept to catch
    # duplicate ends.
    open_spans: Dict[int, TraceEvent] = {}
    closed_spans: Set[int] = set()
    # I7: per-system stack of open span ids.
    span_stacks: Dict[int, List[int]] = {}
    # I8: page -> recovering systems whose redo chain for it is still
    # unapplied (a page can be pending in several instant managers).
    instant_pending: Dict[Any, Set[int]] = {}
    # I9: committed txn -> (log's system, offset the COMMIT needs
    # forced past; None while it sits in a CS client's buffer); the
    # highest force per log; each client's COMMITs awaiting a ship.
    committed: Dict[Any, Tuple[int, Optional[int]]] = {}
    forced: Dict[int, int] = {}
    unshipped: Dict[Any, List[Any]] = {}

    def flag(inv: str, event: TraceEvent, message: str) -> None:
        violations.append(
            Violation(
                invariant=inv,
                seq=event.seq,
                system=event.system,
                message=message,
            )
        )

    for event in ordered:
        f = event.fields
        kind = event.kind

        if kind == ev.LOCK_GRANT:
            locks.grant(f.get("owner"), f.get("resource"))
        elif kind == ev.LOCK_RELEASE:
            locks.release(f.get("owner"), f.get("resource"))
        elif kind == ev.LOCK_RELEASE_ALL:
            locks.release_all(f.get("owner"))

        if kind in ev.PAGE_STAMP_KINDS:
            lsn = f.get("lsn")
            prev = f.get("page_lsn_prev")
            if lsn is not None and prev is not None and lsn <= prev:
                flag(
                    "page-lsn-monotonic",
                    event,
                    f"page {f.get('page')} stamped lsn={lsn} over "
                    f"page_lsn={prev} (stamp must strictly advance; "
                    f"this is the Section 1.5 anomaly)",
                )

        if kind == ev.RECOVERY_REDO:
            lsn, prev = f.get("lsn"), f.get("page_lsn_prev")
            if lsn is not None and prev is not None and lsn <= prev:
                flag(
                    "redo-screening",
                    event,
                    f"redo applied record lsn={lsn} to page "
                    f"{f.get('page')} with page_lsn={prev} "
                    f"(ARIES requires lsn > page_lsn)",
                )
        elif kind == ev.RECOVERY_SKIP:
            lsn, page_lsn = f.get("lsn"), f.get("page_lsn")
            if lsn is not None and page_lsn is not None and lsn > page_lsn:
                flag(
                    "redo-screening",
                    event,
                    f"redo of record lsn={lsn} skipped although page "
                    f"{f.get('page')} has page_lsn={page_lsn} < lsn",
                )

        if (
            kind == ev.PAGE_UPDATE
            and f.get("kind") in _LOCKED_RECORD_KINDS
            and f.get("txn") is not None
        ):
            if not locks.covers_page(f.get("txn"), f.get("page")):
                flag(
                    "update-under-lock",
                    event,
                    f"txn {f.get('txn')} updated page {f.get('page')} "
                    f"without holding a page or record lock on it",
                )

        if kind == ev.LSN_OBSERVE:
            before = f.get("before")
            remote = f.get("remote")
            after = f.get("after")
            if before is not None and remote is not None and after is not None:
                floor = max(before, remote)
                if after < floor:
                    flag(
                        "lamport",
                        event,
                        f"Local_Max_LSN merge went backwards: "
                        f"before={before} remote={remote} after={after}",
                    )
                prev_seen = observed_max.get(event.system)
                if prev_seen is not None and after < prev_seen:
                    flag(
                        "lamport",
                        event,
                        f"system's observed maximum regressed: "
                        f"{prev_seen} -> {after}",
                    )
                observed_max[event.system] = after

        if kind == ev.INSTANT_OPEN:
            for page in f.get("pages", ()):
                instant_pending.setdefault(page, set()).add(event.system)
        elif kind == ev.INSTANT_PAGE:
            page = f.get("page")
            holders = instant_pending.get(page)
            if holders is None or event.system not in holders:
                flag(
                    "instant-recovery",
                    event,
                    f"recover_page for page {page} that instant.open "
                    f"never declared pending on system {event.system}",
                )
            else:
                holders.discard(event.system)
                if not holders:
                    instant_pending.pop(page, None)
        elif kind == ev.INSTANT_DONE:
            stale = sorted(
                page for page, holders in instant_pending.items()
                if event.system in holders
            )
            if stale:
                flag(
                    "instant-recovery",
                    event,
                    f"instant.done with page(s) {stale} still pending",
                )
        elif (
            kind in (ev.PAGE_READ, ev.PAGE_UPDATE, ev.RECOVERY_CLR)
            and instant_pending
            and f.get("page") in instant_pending
        ):
            flag(
                "instant-recovery",
                event,
                f"page {f.get('page')} served ({kind}) before its "
                f"instant-restart redo chain was applied (pending on "
                f"system(s) {sorted(instant_pending[f.get('page')])})",
            )

        if kind == ev.LOG_APPEND and f.get("txn"):
            txn = f.get("txn")
            if txn in committed:
                flag(
                    "log-consistency",
                    event,
                    f"txn {txn} appended a {f.get('kind')} record after "
                    f"its COMMIT (a COMMIT is its transaction's last "
                    f"record)",
                )
            elif f.get("kind") == "COMMIT":
                offset = f.get("offset")
                committed[txn] = (event.system, offset)
                if offset is None:
                    unshipped.setdefault(event.system, []).append(txn)
        elif kind == ev.LOG_FORCE:
            up_to = f.get("up_to") or 0
            if up_to > forced.get(event.system, 0):
                forced[event.system] = up_to
        elif kind == ev.CS_SHIP:
            end = (f.get("offset") or 0) + (f.get("nbytes") or 0)
            for txn in unshipped.pop(f.get("client"), ()):
                if txn in committed:
                    committed[txn] = (event.system, end - 1)
        elif kind == ev.SPAN_BEGIN and f.get("name") == ev.SPAN_PROMOTE:
            committed.clear()
            unshipped.clear()
        elif kind == ev.SPAN_BEGIN and f.get("name") == ev.SPAN_ANALYSIS:
            stable = forced.get(event.system, 0)
            for txn, (system, offset) in list(committed.items()):
                if offset is None or (system == event.system
                                      and offset >= stable):
                    del committed[txn]
            unshipped.clear()

        if kind == ev.SPAN_BEGIN:
            span_id = f.get("span")
            if span_id in open_spans or span_id in closed_spans:
                flag(
                    "span-pairing",
                    event,
                    f"duplicate span.begin for span id {span_id}",
                )
            else:
                open_spans[span_id] = event
                span_stacks.setdefault(event.system, []).append(span_id)
        elif kind == ev.SPAN_END:
            span_id = f.get("span")
            begin = open_spans.pop(span_id, None)
            if begin is None:
                flag(
                    "span-pairing",
                    event,
                    f"span.end for span id {span_id} without an open "
                    f"span.begin",
                )
            else:
                closed_spans.add(span_id)
                if begin.system != event.system:
                    flag(
                        "span-pairing",
                        event,
                        f"span {span_id} began on system {begin.system} "
                        f"but ended on system {event.system}",
                    )
                stack = span_stacks.get(event.system, [])
                if stack and stack[-1] == span_id:
                    stack.pop()
                else:
                    flag(
                        "span-nesting",
                        event,
                        f"span {span_id} ({f.get('name')}) closed out of "
                        f"LIFO order on system {event.system} "
                        f"(open stack: {stack})",
                    )
                    if span_id in stack:
                        stack.remove(span_id)

    for span_id in sorted(open_spans):
        begin = open_spans[span_id]
        violations.append(
            Violation(
                invariant="span-pairing",
                seq=begin.seq,
                system=begin.system,
                message=(
                    f"span {span_id} ({begin.fields.get('name')}) never "
                    f"closed (no span.end by end of trace)"
                ),
            )
        )

    return violations


def render_violations(violations: List[Violation]) -> str:
    """Human-readable report (one line per violation, or an all-clear)."""
    if not violations:
        return "invariants: OK (page-lsn-monotonic, redo-screening, " \
               "update-under-lock, lamport, " \
               "span-pairing, span-nesting, instant-recovery, " \
               "log-consistency)"
    lines = [f"invariants: {len(violations)} violation(s)"]
    lines.extend(f"  {v}" for v in violations)
    return "\n".join(lines)


def first_violation(
    violations: List[Violation], invariant: str
) -> Optional[Violation]:
    """Convenience for tests: the first violation of a given invariant."""
    for v in violations:
        if v.invariant == invariant:
            return v
    return None
