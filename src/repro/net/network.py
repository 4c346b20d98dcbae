"""The message fabric between systems.

Section 3.5 of the paper: "periodically all the systems are informed of
the other systems' Local_Max_LSNs... To make the process efficient, the
transmission of Local_Max_LSNs can be piggybacked onto the other
messages being exchanged between the systems.  This essentially amounts
to a Lamport logical clock scheme."

Our simulation is synchronous (a message is a counted method call), but
the piggybacking is a real code path: every :meth:`Network.message`
carries the sender's current ``Local_Max_LSN`` and the receiver's log
manager absorbs it.  Turning ``piggyback_enabled`` off reproduces the
paper's failure mode — skewed systems keep issuing low LSNs and the
complex-wide Commit_LSN drags behind (experiment E2).

Participants register an object exposing ``local_max_lsn`` and
``observe_remote_max`` (both :class:`~repro.wal.log_manager.LogManager`
and :class:`~repro.wal.client_log.ClientLogManager` qualify).

Fault handling (the injector in ``seams``, :mod:`repro.faults`): the
``net.msg`` point can *drop*, *duplicate* or *delay* a message.  Drops
are answered by bounded retransmission under the configured
:class:`~repro.faults.policy.RetryPolicy`; duplicates are filtered by a
per-source sequence-number window (at-most-once delivery); delayed
messages are parked and delivered before the next message on the
fabric, modelling reordering the Lamport merge is insensitive to.  All
of this lives off the fast path: with the null injector the delivery
code is exactly the pre-fault version.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Set, Tuple

from repro.common.lsn import Lsn
from repro.common.seams import Seams
from repro.common.stats import (
    MESSAGES_SENT,
    MESSAGE_BYTES,
    NET_DELAYED,
    NET_DROPS_INJECTED,
    NET_DUP_DROPPED,
    NET_MAX_LSN_BROADCAST,
    NET_PARKED_DRAINED,
    NET_PARKED_FAILED,
    NET_RETRANSMITS,
    CounterHandle,
    message_kind_counter,
)
from repro.faults import points as fp
from repro.faults.injector import DELAY, DROP, DUPLICATE
from repro.faults.policy import RetryPolicy
from repro.obs import events as ev


class LamportParticipant(Protocol):
    """What the network needs from each registered system."""

    local_max_lsn: Lsn

    def observe_remote_max(self, remote_max_lsn: Lsn) -> None: ...


class Network:
    """Counts messages between systems and piggybacks LSN maxima."""

    def __init__(
        self,
        seams: Optional[Seams] = None,
        piggyback_enabled: bool = True,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.stats, self.tracer, self._injector = seams or Seams.of()
        self.piggyback_enabled = piggyback_enabled
        self.retry = retry if retry is not None else RetryPolicy()
        self._participants: Dict[int, LamportParticipant] = {}
        # Pre-resolved counter handles: _deliver runs once per message
        # (20+ per CS transaction), so it skips the registry's string
        # hashing and builds each per-kind counter name only once.
        self._messages_sent = self.stats.handle(MESSAGES_SENT)
        self._message_bytes = self.stats.handle(MESSAGE_BYTES)
        self._kind_counters: Dict[str, CounterHandle] = {}
        # Fault-path state (untouched on the fast path): a fabric-wide
        # message sequence, the at-most-once delivery window, and the
        # park bench for delayed messages.
        self._msg_seq = 0
        self._seen_seqs: Set[int] = set()
        self._delayed: List[Tuple[int, int, str, int, int]] = []

    def register(self, system_id: int, participant: LamportParticipant) -> None:
        """Attach a system's log manager to the fabric."""
        self._participants[system_id] = participant

    def deregister(self, system_id: int) -> None:
        self._participants.pop(system_id, None)

    def message(
        self,
        src_id: int,
        dst_id: int,
        kind: str,
        nbytes: int = 64,
    ) -> None:
        """Account one message from ``src_id`` to ``dst_id``.

        ``kind`` labels the message for per-type counters (page
        transfer, lock grant, log ship, ...).  When piggybacking is on,
        the destination learns the source's Local_Max_LSN for free.
        """
        if src_id == dst_id:
            return  # local calls are not messages
        if self._injector.enabled:
            self._message_faulty(src_id, dst_id, kind, nbytes)
            return
        self._deliver(src_id, dst_id, kind, nbytes)

    def _message_faulty(
        self, src_id: int, dst_id: int, kind: str, nbytes: int
    ) -> None:
        """The injector-enabled transmit path.

        Parked (delayed) messages are released ahead of this one, then
        the injector is consulted once per transmission attempt: a drop
        burns one attempt of the retry budget and retransmits with
        deterministic backoff; a duplicate delivers a second copy the
        sequence window rejects; a delay parks the message for the next
        release.  A message still dropped after ``retry.max_attempts``
        attempts is lost for good — bounded retries, not a guarantee.
        """
        self._flush_delayed()
        self._msg_seq += 1
        seq = self._msg_seq
        attempts = 0
        while True:
            attempts += 1
            action = self._injector.fire(
                fp.NET_MSG, system=src_id, src=src_id, dst=dst_id, kind=kind
            )
            if action == DROP:
                self.stats.incr(NET_DROPS_INJECTED)
                if attempts >= self.retry.max_attempts:
                    return
                self.retry.backoff(attempts)
                self.stats.incr(NET_RETRANSMITS)
                continue
            if action == DELAY:
                self.stats.incr(NET_DELAYED)
                self._delayed.append((src_id, dst_id, kind, nbytes, seq))
                return
            self._deliver(src_id, dst_id, kind, nbytes, seq=seq)
            if action == DUPLICATE:
                self._deliver(src_id, dst_id, kind, nbytes, seq=seq)
            return

    def _flush_delayed(self) -> None:
        """Deliver every parked message, in park order."""
        while self._delayed:
            src_id, dst_id, kind, nbytes, seq = self._delayed.pop(0)
            self._deliver(src_id, dst_id, kind, nbytes, seq=seq)

    def parked_count(self) -> int:
        """How many injected-DELAY messages are still parked."""
        return len(self._delayed)

    def drain_parked(self) -> int:
        """Deliver every parked message now; returns how many.

        The graceful half of quiesce/shutdown hygiene: a drill or a
        checkpoint that stops the fabric must not leave in-flight state
        behind, or the next run would observe deliveries it never sent.
        Counted as ``net.parked_drained``.
        """
        count = len(self._delayed)
        if count:
            self._flush_delayed()
            self.stats.incr(NET_PARKED_DRAINED, count)
        return count

    def fail_parked(self) -> int:
        """Discard every parked message; returns how many.

        The crash half: messages parked when a complex dies are lost,
        never delivered to a survivor later.  Counted as
        ``net.parked_failed``.
        """
        count = len(self._delayed)
        if count:
            self._delayed.clear()
            self.stats.incr(NET_PARKED_FAILED, count)
        return count

    def _deliver(
        self,
        src_id: int,
        dst_id: int,
        kind: str,
        nbytes: int,
        seq: Optional[int] = None,
    ) -> None:
        if seq is not None:
            if seq in self._seen_seqs:
                # At-most-once: the receiver has already processed this
                # sequence number (an injected duplicate).
                self.stats.incr(NET_DUP_DROPPED)
                return
            self._seen_seqs.add(seq)
        self._messages_sent.value += 1
        self._message_bytes.value += nbytes
        kind_counter = self._kind_counters.get(kind)
        if kind_counter is None:
            kind_counter = self.stats.handle(message_kind_counter(kind))
            self._kind_counters[kind] = kind_counter
        kind_counter.value += 1
        src = self._participants.get(src_id)
        if self.tracer.enabled:
            piggyback = (
                int(src.local_max_lsn)
                if self.piggyback_enabled and src is not None
                else None
            )
            self.tracer.emit(
                ev.NET_MSG,
                system=src_id,
                src=src_id,
                dst=dst_id,
                kind=kind,
                nbytes=nbytes,
                piggyback=piggyback,
            )
        if self.piggyback_enabled:
            dst = self._participants.get(dst_id)
            if src is not None and dst is not None:
                dst.observe_remote_max(src.local_max_lsn)

    def broadcast_max_lsns(self) -> None:
        """The explicit periodic exchange of Section 3.5.

        Every system sends its Local_Max_LSN to every other system;
        each receiver keeps the maximum.  Used when regular traffic is
        too sparse for piggybacking alone.
        """
        participants = list(self._participants.items())
        maxima = {sid: p.local_max_lsn for sid, p in participants}
        if self.tracer.enabled:
            self.tracer.emit(
                ev.NET_BROADCAST,
                maxima={str(sid): int(m) for sid, m in maxima.items()},
            )
        for src_id, _ in participants:
            for dst_id, dst in participants:
                if src_id == dst_id:
                    continue
                self.stats.incr(MESSAGES_SENT)
                self.stats.incr(NET_MAX_LSN_BROADCAST)
                dst.observe_remote_max(maxima[src_id])

    def participants(self) -> Dict[int, LamportParticipant]:
        return dict(self._participants)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Network(participants={sorted(self._participants)}, "
            f"piggyback={self.piggyback_enabled})"
        )
