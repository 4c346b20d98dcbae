"""The typed trace-event catalog.

Event kinds are constants so call sites, the timeline renderer and the
invariant checker agree on spelling (rule R006 enforces the same
discipline for counter names).  The field schema of each kind is
documented here and in ``docs/observability.md``; the invariant checker
relies on the starred fields.

Transaction lifecycle (system = the instance/client running the txn):

* ``TXN_BEGIN``     — ``txn``
* ``TXN_COMMIT``    — ``txn``, ``lazy``
* ``TXN_ROLLBACK``  — ``txn``, ``savepoint``

Logging (system = the log's owner):

* ``LOG_APPEND``    — ``lsn``*, ``kind``, ``txn``, ``page``, ``offset``
* ``LOG_APPEND_RAW``— ``nbytes``, ``local_max`` (CS server ship append)
* ``LOG_FORCE``     — ``up_to``
* ``LSN_OBSERVE``   — ``remote``*, ``before``*, ``after``* (Lamport
  merge of another system's Local_Max_LSN)

Page state (the invariant checker treats these three as page_LSN stamp
points; all carry ``page``*, ``lsn``*, ``page_lsn_prev``*):

* ``PAGE_UPDATE``   — + ``txn``*, ``slot``, ``kind``* (log record kind)
* ``RECOVERY_REDO`` — + (restart redo reapplied the record)
* ``RECOVERY_CLR``  — + ``txn``* (restart undo compensated the record)

Buffer/disk traffic (system = the pool's owner):

* ``PAGE_READ``     — ``page`` (disk read on a pool miss)
* ``PAGE_WRITE``    — ``page``, ``page_lsn`` (disk write, WAL honoured)
* ``PAGE_EVICT``    — ``page``, ``dirty``

Coherency (system = the sender):

* ``PAGE_TRANSFER`` — ``page``, ``src``, ``dst``, ``dirty``, ``scheme``
* ``PAGE_COPY``     — ``page``, ``src``, ``dst`` (fast-scheme read)

Locking (system 0, the global lock manager):

* ``LOCK_GRANT``    — ``owner``*, ``resource``*, ``mode``
* ``LOCK_WAIT``     — ``owner``, ``resource``, ``mode``
* ``LOCK_RELEASE``  — ``owner``*, ``resource``*
* ``LOCK_RELEASE_ALL`` — ``owner``* (commit/abort/crash-recovery)
* ``LOCK_DEADLOCK`` — ``owner``, ``resource``

Messages and the Commit_LSN service:

* ``NET_MSG``       — ``src``, ``dst``, ``kind``, ``nbytes``,
  ``piggyback``* (sender's Local_Max_LSN when piggybacking is on)
* ``NET_BROADCAST`` — ``maxima`` (the Section 3.5 explicit exchange)
* ``COMMIT_LSN_CHECK`` — ``page_lsn``, ``commit_lsn``, ``hit``

Recovery pass brackets:

* ``RECOVERY_BEGIN``— ``mode`` ("restart" | "fast" | "instant" |
  "cs-client")
* ``RECOVERY_SKIP`` — ``page``*, ``lsn``*, ``page_lsn``* (redo screened
  out by the page_LSN test)
* ``RECOVERY_END``  — ``redone``, ``skipped``, ``losers``, ``clrs``

Client-server shipping (system = the server):

* ``CS_SHIP``       — ``client``, ``nbytes``, ``offset``
* ``CS_PAGE_BACK``  — ``client``, ``page``, ``rec_lsn``
* ``CS_COMMIT_POINT`` — ``client``, ``txn``

Disk-level I/O (system 0, the shared disk; distinct from the
pool-level ``PAGE_READ``/``PAGE_WRITE``, which attribute the I/O to
the pool's owner):

* ``DISK_READ``     — ``page``
* ``DISK_WRITE``    — ``page``, ``page_lsn``
* ``DISK_LOSE``     — ``page`` (simulated media failure armed)
* ``DISK_CORRUPT``  — ``page``, ``offset`` (byte flipped in the image)

Faults and degradation (see :mod:`repro.faults` and
``docs/fault_injection.md``):

* ``FAULT_INJECT``  — ``point``, ``action``, ``hit`` (system = the
  system the injection point attributed the hit to, 0 when unknown)
* ``DEGRADED_ENTER``— ``reason`` (log-device failure flipped the
  system read-only)
* ``DEGRADED_EXIT`` — (restart repaired the log device)

Replication (see :mod:`repro.replication` and ``docs/replication.md``;
system = the primary complex's shipper (system 0) unless noted):

* ``REPL_SHIP``     — ``standby``, ``records``, ``nbytes``, ``max_lsn``
  (one merged-log batch shipped to one standby)
* ``REPL_ACK``      — ``standby``, ``lsn``, ``durable_lsn`` (the
  cumulative absorbed and forced LSNs one ack records on the primary)
* ``REPL_COMMIT_ACK`` — ``txn``, ``lsn``, ``level``, ``satisfied``
  (system = the committing instance; the commit-point ack decision)
* ``REPL_DEGRADED_ENTER`` — ``reason``, ``standby`` (primary stops
  waiting for this standby's acks instead of stalling)
* ``REPL_DEGRADED_EXIT``  — ``standby`` (acks caught back up)
* ``REPL_PROMOTE``  — ``applied_max_lsn``, ``sources`` (system = the
  promoted standby)

Instant restart (see :mod:`repro.recovery.instant` and
``docs/recovery.md``; system = the recovering system):

* ``INSTANT_OPEN``  — ``mode`` ("medium" | "fast" | "cs"), ``pages``
  (the sorted list of page ids whose redo chains are still pending),
  ``losers`` (loser transactions undone eagerly at open)
* ``INSTANT_PAGE``  — ``page``, ``redone``, ``skipped``, ``via``
  ("demand" | "sweep"); emitted *after* the page's chain is applied
  and before any access is served from it
* ``INSTANT_DONE``  — ``recovered``, ``demand``, ``swept`` (the
  manager drained: every pending page has been recovered)

Causal spans (see ``docs/observability.md`` — paired brackets tying
flat events into per-transaction / per-recovery causal trees; emitted
by :meth:`~repro.obs.tracer.Tracer.span`):

* ``SPAN_BEGIN``    — ``span``* (deterministic span id), ``name``*
  (one of the ``SPAN_*`` names below), ``parent``* (enclosing span id,
  ``None`` for a root), plus free-form attributes (``txn``, ...)
* ``SPAN_END``      — ``span``*, ``name``*, plus ``error`` (exception
  class name) when the spanned block raised

Span names (the ``name`` field of span brackets; system = the system
doing the work):

* ``SPAN_COMMIT``        — a transaction commit (SD instance or CS
  client), attribute ``txn``
* ``SPAN_COMMIT_POINT``  — the CS server-side commit point, attributes
  ``client``, ``txn``
* ``SPAN_LOG_FORCE``     — one log force that actually advanced the
  stable boundary
* ``SPAN_LOCK_ACQUIRE``  — one blocking lock acquisition, attributes
  ``resource``, ``mode``
* ``SPAN_RECOVERY``      — a whole recovery run, attribute ``mode``
  ("restart" | "fast" | "cs-client" | "media")
* ``SPAN_ANALYSIS`` / ``SPAN_REDO`` / ``SPAN_UNDO`` — the recovery
  passes inside a ``SPAN_RECOVERY``
* ``SPAN_RESTART``       — an instance/server/complex restart wrapper,
  attribute ``target``
* ``SPAN_QUIESCE``       — a CS quiesce checkpoint
* ``SPAN_PROMOTE``       — a standby promotion (final catch-up +
  restart recovery + flip writable), attribute ``standby``
* ``SPAN_RECOVER_PAGE``  — one on-demand page recovery under instant
  restart, attributes ``page``, ``via``
"""

from __future__ import annotations

TXN_BEGIN = "txn.begin"
TXN_COMMIT = "txn.commit"
TXN_ROLLBACK = "txn.rollback"

LOG_APPEND = "log.append"
LOG_APPEND_RAW = "log.append_raw"
LOG_FORCE = "log.force"
LSN_OBSERVE = "lsn.observe"

PAGE_UPDATE = "page.update"
PAGE_READ = "page.read"
PAGE_WRITE = "page.write"
PAGE_EVICT = "page.evict"
PAGE_TRANSFER = "page.transfer"
PAGE_COPY = "page.copy"

LOCK_GRANT = "lock.grant"
LOCK_WAIT = "lock.wait"
LOCK_RELEASE = "lock.release"
LOCK_RELEASE_ALL = "lock.release_all"
LOCK_DEADLOCK = "lock.deadlock"

NET_MSG = "net.msg"
NET_BROADCAST = "net.broadcast"
COMMIT_LSN_CHECK = "commit_lsn.check"

RECOVERY_BEGIN = "recovery.begin"
RECOVERY_REDO = "recovery.redo"
RECOVERY_SKIP = "recovery.skip"
RECOVERY_CLR = "recovery.clr"
RECOVERY_END = "recovery.end"

CS_SHIP = "cs.ship"
CS_PAGE_BACK = "cs.page_back"
CS_COMMIT_POINT = "cs.commit_point"

DISK_READ = "disk.read"
DISK_WRITE = "disk.write"
DISK_LOSE = "disk.lose"
DISK_CORRUPT = "disk.corrupt"

FAULT_INJECT = "fault.inject"
DEGRADED_ENTER = "degraded.enter"
DEGRADED_EXIT = "degraded.exit"

REPL_SHIP = "repl.ship"
REPL_ACK = "repl.ack"
REPL_COMMIT_ACK = "repl.commit_ack"
REPL_DEGRADED_ENTER = "repl.degraded.enter"
REPL_DEGRADED_EXIT = "repl.degraded.exit"
REPL_PROMOTE = "repl.promote"

INSTANT_OPEN = "instant.open"
INSTANT_PAGE = "instant.recover_page"
INSTANT_DONE = "instant.done"

SPAN_BEGIN = "span.begin"
SPAN_END = "span.end"

SPAN_COMMIT = "commit"
SPAN_COMMIT_POINT = "commit_point"
SPAN_LOG_FORCE = "log_force"
SPAN_LOCK_ACQUIRE = "lock_acquire"
SPAN_RECOVERY = "recovery"
SPAN_ANALYSIS = "analysis"
SPAN_REDO = "redo"
SPAN_UNDO = "undo"
SPAN_RESTART = "restart"
SPAN_QUIESCE = "quiesce"
SPAN_PROMOTE = "promote"
SPAN_RECOVER_PAGE = "recover_page"

#: The bracket kinds a span emits (for filters and the checker).
SPAN_KINDS = frozenset({SPAN_BEGIN, SPAN_END})

#: Event kinds that stamp a new page_LSN onto a page image; each must
#: carry ``page``, ``lsn`` and ``page_lsn_prev``.
PAGE_STAMP_KINDS = frozenset({PAGE_UPDATE, RECOVERY_REDO, RECOVERY_CLR})
