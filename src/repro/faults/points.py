"""The named fault-point catalog.

Injection points are constants so call sites, fault plans and the
campaign runner agree on spelling (the same discipline rule R006
enforces for counter names and the event catalog uses for trace
kinds).  Each point is a *place in the stack* where the injector is
consulted; what happens there is decided by the matching
:class:`~repro.faults.injector.FaultRule` action.

* ``DISK_WRITE``   — :meth:`SharedDisk.write_page`; supports ``fail``
  (write never happens) and ``torn`` (a half-old/half-new image is
  persisted, detected by checksum on the next read) plus the crash
  actions.
* ``DISK_READ``    — :meth:`SharedDisk.read_page`; ``fail`` raises
  :class:`~repro.common.errors.MediaError`, indistinguishable from a
  genuine media failure (media recovery applies).
* ``LOG_FORCE``    — :meth:`LogManager.force`, consulted only when the
  stable boundary would actually advance (a real device write);
  ``fail`` models a log-device failure, which the SD instance and the
  CS server answer with read-only degraded mode.
* ``NET_MSG``      — :meth:`Network.message`; supports ``drop``
  (retransmitted when a :class:`~repro.faults.policy.RetryPolicy` is
  configured), ``duplicate`` (second delivery deduplicated) and
  ``delay`` (delivery deferred to the next message).
* ``BUFFER_WRITE`` — :meth:`BufferPool._write_stable`, between the WAL
  force and the disk write (the classic "page write in flight" crash
  window).
* ``INSTANCE_UPDATE`` — :meth:`TransactionFrontEnd._log_update
  <repro.txn.front.TransactionFrontEnd._log_update>` (one body for SD
  instances and CS clients) and the SD bulk lane, before the update's
  log record is appended (mid-operation crash point).
* ``COMMIT_PRE_FORCE`` / ``COMMIT_POST_FORCE`` — bracketing the commit
  log force in :meth:`DbmsInstance.commit`: a crash before the force
  makes the transaction a loser, one after makes it a winner whose END
  record is missing.
* ``CS_SHIP``      — :meth:`CsServer.receive_log_records`, before the
  shipped batch reaches the server log (hit attributed to the shipping
  client).
* ``CS_COMMIT``    — :meth:`CsServer.commit_point` entry (hit
  attributed to the committing client).
* ``REPL_SHIP``    — :meth:`ReplicationManager._ship_to`, before a
  merged-log batch leaves the primary for one standby (hit attributed
  to the standby; ``fail`` is answered with bounded retry/backoff,
  exhaustion disconnects the standby).
* ``REPL_ACK``     — before the standby's cumulative ack is recorded on
  the primary; ``fail`` models a lost round trip (the shipped batch
  survives, the acked LSNs simply do not advance until the next one;
  a probe lost here never reached the standby, so it forced nothing).
* ``REPL_APPLY``   — :meth:`StandbyComplex.receive`, before a shipped
  batch is absorbed into the replica logs (hit attributed to the
  standby).
* ``INSTANT_RECOVER`` — :meth:`InstantRecoveryManager._replay`, the
  pending set's apply step under instant restart, before a pending
  page's redo chain is applied (hit attributed to the recovering
  system); a ``fail`` here models a
  crash during lazy recovery — the page stays pending and the next
  touch retries from the same stable chain.
"""

from __future__ import annotations

from typing import Tuple

DISK_WRITE = "disk.write"
DISK_READ = "disk.read"
LOG_FORCE = "log.force"
NET_MSG = "net.msg"
BUFFER_WRITE = "buffer.write"
INSTANCE_UPDATE = "instance.update"
COMMIT_PRE_FORCE = "commit.pre_force"
COMMIT_POST_FORCE = "commit.post_force"
CS_SHIP = "cs.ship"
CS_COMMIT = "cs.commit"
REPL_SHIP = "repl.ship"
REPL_ACK = "repl.ack"
REPL_APPLY = "repl.apply"
INSTANT_RECOVER = "instant.recover"

#: Every injection point, in the order campaign tables list them.
ALL_POINTS: Tuple[str, ...] = (
    DISK_WRITE,
    DISK_READ,
    LOG_FORCE,
    NET_MSG,
    BUFFER_WRITE,
    INSTANCE_UPDATE,
    COMMIT_PRE_FORCE,
    COMMIT_POST_FORCE,
    CS_SHIP,
    CS_COMMIT,
    REPL_SHIP,
    REPL_ACK,
    REPL_APPLY,
    INSTANT_RECOVER,
)
