"""Deterministic cost counters.

The 1992 paper argues in terms of avoided costs: synchronous page reads
saved by the reallocation rule, log-merge comparisons, global-lock
messages for a shared log, space overhead in space map pages.  Because
our substrate is a simulator, we report these as exact counters rather
than wall-clock time; every subsystem increments a shared
:class:`StatsRegistry` so experiments can diff costs across schemes.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterator, Mapping, Tuple


class CounterHandle:
    """A pre-resolved counter: bumping it skips the registry's per-call
    string hashing (the fast lane for hot loops).

    A handle owns its running value; the registry merges handle values
    back into every read (:meth:`StatsRegistry.get`, ``snapshot`` ...),
    so mixing ``registry.incr(NAME)`` and ``handle.bump()`` on the same
    name stays coherent.  ``bump`` deliberately skips the negative-
    amount guard of :meth:`StatsRegistry.incr` — handles live on
    audited hot paths that only ever move counters forward.  The very
    hottest of them (one log append, one lock request, one message)
    add to ``value`` directly and save the method frame as well.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def bump(self, amount: int = 1) -> None:
        """Increase the counter by ``amount`` (hot path, unchecked)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CounterHandle({self.name!r}, value={self.value})"


class StatsRegistry:
    """A named bag of monotonically increasing counters."""

    def __init__(self) -> None:
        self._counters: "Counter[str]" = Counter()
        self._handles: Dict[str, CounterHandle] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Increase counter ``name`` by ``amount`` (must be >= 0)."""
        if amount < 0:
            raise ValueError("counters only move forward")
        self._counters[name] += amount

    def handle(self, name: str) -> CounterHandle:
        """The interned :class:`CounterHandle` for ``name``.

        Repeated calls return the same handle, so every holder bumps
        the same underlying value.  Handles survive :meth:`reset`
        (their value is zeroed, the object stays valid).
        """
        found = self._handles.get(name)
        if found is None:
            found = CounterHandle(name)
            self._handles[name] = found
        return found

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        found = self._handles.get(name)
        base = self._counters[name]
        return base + found.value if found is not None else base

    def snapshot(self) -> Dict[str, int]:
        """A copy of all counters (handle values merged), for reporting."""
        out = dict(self._counters)
        for name, handle in self._handles.items():
            if handle.value:
                out[name] = out.get(name, 0) + handle.value
        return out

    def reset(self) -> None:
        """Zero every counter (used between experiment phases)."""
        self._counters.clear()
        for handle in self._handles.values():
            handle.value = 0

    def diff(self, before: Mapping[str, int]) -> Dict[str, int]:
        """Counters minus a prior :meth:`snapshot`, dropping zeros."""
        out: Dict[str, int] = {}
        for name, value in self.snapshot().items():
            delta = value - before.get(name, 0)
            if delta:
                out[name] = delta
        return out

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self.snapshot().items()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StatsRegistry({self.snapshot()!r})"


# Well-known counter names, centralised so experiments and subsystems
# agree on spelling.  (Plain strings on purpose: the registry accepts
# ad-hoc names too, e.g. per-experiment counters.)
DISK_PAGE_READS = "disk.page_reads"
DISK_PAGE_WRITES = "disk.page_writes"
LOG_RECORDS_WRITTEN = "log.records_written"
LOG_BYTES_WRITTEN = "log.bytes_written"
LOG_FORCES = "log.forces"
LOG_FORCES_COALESCED = "log.forces_coalesced"
LOCK_REQUESTS = "lock.requests"
LOCK_WAITS = "lock.waits"
MESSAGES_SENT = "net.messages_sent"
MESSAGE_BYTES = "net.message_bytes"
MERGE_COMPARISONS = "merge.comparisons"
COMMIT_LSN_HITS = "commit_lsn.hits"
COMMIT_LSN_MISSES = "commit_lsn.misses"
PAGE_READS_AVOIDED = "storage.page_reads_avoided"
GLOBAL_LOG_LOCKS = "global_log.lock_acquisitions"
GLOBAL_LOG_LOCK_MESSAGES = "net.messages.global_log_lock"
NET_MAX_LSN_BROADCAST = "net.messages.max_lsn_broadcast"
LOG_BYTES_ARCHIVED = "log.bytes_archived"
LOG_ARCHIVE_SCANS = "log.archive_scans"
LOG_BYTES_SCANNED = "log.bytes_scanned"
LOCK_ESCALATIONS = "lock.escalations"
BUFFER_BATCH_FLUSHES = "buffer.batch_flushes"
FAULTS_INJECTED = "faults.injected"
DEGRADED_ENTRIES = "faults.degraded_entries"
DEGRADED_REJECTIONS = "faults.degraded_rejections"
NET_DROPS_INJECTED = "net.drops_injected"
NET_RETRANSMITS = "net.retransmits"
NET_DUP_DROPPED = "net.dup_dropped"
NET_DELAYED = "net.delayed"
LOCK_RETRIES = "lock.retries"
LOCK_RETRY_TIMEOUTS = "lock.retry_timeouts"
BULK_UPDATE_BATCHES = "bulk.update_batches"
BULK_READ_BATCHES = "bulk.read_batches"
BULK_OPS_APPLIED = "bulk.ops_applied"
RETRY_EXHAUSTED = "faults.retry.exhausted"
NET_PARKED_DRAINED = "net.parked_drained"
NET_PARKED_FAILED = "net.parked_failed"
REPL_RECORDS_SHIPPED = "repl.records_shipped"
REPL_BATCHES_SHIPPED = "repl.batches_shipped"
REPL_ACKS = "repl.acks"
REPL_SHIP_RETRIES = "repl.ship_retries"
REPL_RECORDS_APPLIED = "repl.records_applied"
REPL_APPLY_SKIPPED = "repl.apply_skipped"
REPL_DEGRADED_ENTRIES = "repl.degraded_entries"
REPL_COMMITS_ACKED = "repl.commits_acked"
REPL_PROMOTIONS = "repl.promotions"
INSTANT_OPENS = "instant.opens"
INSTANT_PAGES_RECOVERED = "instant.pages_recovered"
INSTANT_DEMAND_RECOVERIES = "instant.demand_recoveries"
INSTANT_SWEEP_RECOVERIES = "instant.sweep_recoveries"
INSTANT_SWEEP_TICKS = "instant.sweep_ticks"
INSTANT_RECORDS_REDONE = "instant.records_redone"
INSTANT_RECORDS_SKIPPED = "instant.records_skipped"


def message_kind_counter(kind: str) -> str:
    """The per-kind message counter name (``net.messages.<kind>``)."""
    return f"net.messages.{kind}"

