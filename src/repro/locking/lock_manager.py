"""A global lock manager with hierarchical modes and deadlock detection.

Single-threaded simulation semantics: :meth:`LockManager.acquire`
either grants immediately or enqueues the request and reports
``WAITING``; the caller (the workload driver or architecture layer)
reschedules the blocked work and calls :meth:`LockManager.release`
later, which returns the newly granted requests so their owners can
resume.  Deadlocks are detected on demand via the wait-for graph; the
youngest transaction in the cycle is the victim.

Lock names are arbitrary hashable tuples; :func:`record_lock` and
:func:`page_lock` build the conventional ones.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.common.errors import DeadlockError
from repro.common.seams import Seams
from repro.common.stats import LOCK_REQUESTS, LOCK_WAITS
from repro.obs import events as ev


class LockMode(enum.IntEnum):
    """Hierarchical lock modes (System R lineage)."""

    IS = 1
    IX = 2
    S = 3
    SIX = 4
    X = 5


# Compatibility as a precomputed bitmask table: ``_COMPAT_MASK[a]`` has
# bit ``b`` set iff modes ``a`` and ``b`` can be held simultaneously.
# ``are_compatible`` is the single hottest predicate in the lock
# manager (every grant/conversion/promotion consults it), and a list
# index plus a shift beats hashing a tuple of two enum members.
def _build_compat_mask() -> List[int]:
    yes = {
        (LockMode.IS, LockMode.IS), (LockMode.IS, LockMode.IX),
        (LockMode.IS, LockMode.S), (LockMode.IS, LockMode.SIX),
        (LockMode.IX, LockMode.IS), (LockMode.IX, LockMode.IX),
        (LockMode.S, LockMode.IS), (LockMode.S, LockMode.S),
        (LockMode.SIX, LockMode.IS),
    }
    masks = [0] * (max(LockMode) + 1)
    for a in LockMode:
        for b in LockMode:
            if (a, b) in yes or (b, a) in yes:
                masks[a] |= 1 << b
    return masks


_COMPAT_MASK: List[int] = _build_compat_mask()

# Least upper bound of two modes (for conversions).
_SUPREMUM: Dict[Tuple[LockMode, LockMode], LockMode] = {}


def _fill_supremum() -> None:
    order = {
        (LockMode.IS, LockMode.IX): LockMode.IX,
        (LockMode.IS, LockMode.S): LockMode.S,
        (LockMode.IS, LockMode.SIX): LockMode.SIX,
        (LockMode.IS, LockMode.X): LockMode.X,
        (LockMode.IX, LockMode.S): LockMode.SIX,
        (LockMode.IX, LockMode.SIX): LockMode.SIX,
        (LockMode.IX, LockMode.X): LockMode.X,
        (LockMode.S, LockMode.SIX): LockMode.SIX,
        (LockMode.S, LockMode.X): LockMode.X,
        (LockMode.SIX, LockMode.X): LockMode.X,
    }
    for a in LockMode:
        _SUPREMUM[(a, a)] = a
        for b in LockMode:
            if (a, b) in order:
                _SUPREMUM[(a, b)] = order[(a, b)]
                _SUPREMUM[(b, a)] = order[(a, b)]


_fill_supremum()


def are_compatible(a: LockMode, b: LockMode) -> bool:
    """Can modes ``a`` and ``b`` be held simultaneously?"""
    return bool(_COMPAT_MASK[a] & (1 << b))


def supremum(a: LockMode, b: LockMode) -> LockMode:
    """The weakest mode at least as strong as both."""
    return _SUPREMUM[(a, b)]


def record_lock(page_id: int, slot: int) -> Tuple[str, int, int]:
    """Lock name for a record (the paper assumes record locking)."""
    return ("record", page_id, slot)


def page_lock(page_id: int) -> Tuple[str, int]:
    """Lock name for a whole page (coherency / Section 1.5 example)."""
    return ("page", page_id)


class LockStatus(enum.Enum):
    GRANTED = "granted"
    WAITING = "waiting"
    WOULD_BLOCK = "would_block"   # try_acquire only: nothing enqueued


@dataclass
class _Request:
    owner: Hashable           # (system_id, txn_id) or any hashable owner
    mode: LockMode
    convert_from: Optional[LockMode] = None


class _LockHead:
    """One resource's grants and FIFO queue.

    ``seq`` numbers heads in creation order, which is the iteration
    order of the lock table: :meth:`LockManager.release_all` sorts by
    it to report promotions in the order a table sweep would.
    """

    __slots__ = ("seq", "granted", "queue")

    def __init__(self, seq: int) -> None:
        self.seq = seq
        self.granted: Dict[Hashable, LockMode] = {}
        self.queue: List[_Request] = []


_HeadsByResource = Dict[Hashable, _LockHead]


class LockManager:
    """Global lock table shared by all systems/clients."""

    def __init__(self, seams: Optional[Seams] = None) -> None:
        self.stats, self.tracer, _ = seams or Seams.of()
        # Pre-resolved handle: LOCK_REQUESTS is bumped on every single
        # acquire, so it skips the registry's per-call string hashing.
        self._requests = self.stats.handle(LOCK_REQUESTS)
        self._table: _HeadsByResource = {}
        self._heads_created = 0
        # Owner index: the heads each owner holds a grant on, and the
        # heads it has a queued request on (a queued conversion is in
        # both).  Kept in step with the table by every grant, release
        # and queue edit, so commit-time release is O(locks held), not
        # a sweep of the whole table.
        self._held: Dict[Hashable, _HeadsByResource] = {}
        self._queued: Dict[Hashable, _HeadsByResource] = {}
        # owner -> resource currently waited for (for the WFG)
        self._waiting_on: Dict[Hashable, Hashable] = {}

    def _trace(self, kind: str, **fields: Hashable) -> None:
        """Emit a lock event.  Callers test ``tracer.enabled`` first,
        so an untraced request builds neither the kwargs nor a frame."""
        # The lock table is global, so its events carry system 0 (the
        # GLM in SD, the server in CS).
        self.tracer.emit(kind, system=0, **fields)

    # ------------------------------------------------------------------
    def acquire(
        self,
        owner: Hashable,
        resource: Hashable,
        mode: LockMode,
    ) -> LockStatus:
        """Request ``resource`` in ``mode`` for ``owner``.

        Returns GRANTED or WAITING.  Raises :class:`DeadlockError` if
        enqueueing this request closes a cycle in the wait-for graph and
        ``owner`` is chosen as the victim (the youngest, i.e. the one
        with the greatest owner key).
        """
        if self.tracer.enabled:
            # Guarded span: acquire is the lock hot path (PR 3 fast
            # lane), so the attrs dict only materializes when tracing.
            with self.tracer.span(
                ev.SPAN_LOCK_ACQUIRE, resource=resource, mode=mode.name
            ):
                return self._acquire(owner, resource, mode)
        return self._acquire(owner, resource, mode)

    def try_acquire(
        self,
        owner: Hashable,
        resource: Hashable,
        mode: LockMode,
    ) -> LockStatus:
        """Like :meth:`acquire` but never waits: a conflicting request
        returns WOULD_BLOCK without being enqueued.  Used for
        opportunistic operations such as lock escalation."""
        return self._acquire(owner, resource, mode, wait=False)

    def _acquire(
        self,
        owner: Hashable,
        resource: Hashable,
        mode: LockMode,
        wait: bool = True,
    ) -> LockStatus:
        self._requests.value += 1
        head = self._table.get(resource)
        if head is None:
            # Uncontended fast lane: the first request on a free
            # resource always grants — no queue to scan, no
            # compatibility to check.
            self._heads_created += 1
            head = self._table[resource] = _LockHead(self._heads_created)
            self._grant(owner, resource, head, mode)
            return LockStatus.GRANTED
        if self._queued and resource in self._queued.get(owner, ()):
            # Retry of a still-queued request: keep the queue position.
            return LockStatus.WAITING if wait else LockStatus.WOULD_BLOCK
        current = head.granted.get(owner)
        if current is not None:
            target = _SUPREMUM[current, mode]
            if target == current:
                return LockStatus.GRANTED
            grantable = self._conversion_compatible(head, owner, target)
        else:
            target = mode
            grantable = not head.queue and self._grant_compatible(head, mode)
        if grantable:
            self._grant(owner, resource, head, target)
            return LockStatus.GRANTED
        if not wait:
            return LockStatus.WOULD_BLOCK
        request = _Request(owner=owner, mode=target, convert_from=current)
        if current is not None:
            head.queue.insert(0, request)  # conversions go first
        else:
            head.queue.append(request)
        self._queued.setdefault(owner, {})[resource] = head
        self.stats.incr(LOCK_WAITS)
        self._waiting_on[owner] = resource
        if self.tracer.enabled:
            self._trace(ev.LOCK_WAIT, owner=owner, resource=resource,
                        mode=request.mode.name)
        if self._find_cycle(owner):
            # The requester whose wait closes the cycle is the victim:
            # every other participant is already parked and will never
            # re-enter acquire(), so it is the only one positioned to
            # break the deadlock.
            self._remove_request(resource, owner)
            if self.tracer.enabled:
                self._trace(ev.LOCK_DEADLOCK, owner=owner, resource=resource)
            raise DeadlockError(f"{owner} chosen as deadlock victim on {resource}")
        return LockStatus.WAITING

    def _grant(self, owner: Hashable, resource: Hashable, head: _LockHead,
               mode: LockMode) -> None:
        """Record a grant (or a granted conversion) on a live head."""
        head.granted[owner] = mode
        held = self._held.get(owner)
        if held is None:
            self._held[owner] = {resource: head}
        else:
            held[resource] = head
        if self.tracer.enabled:
            self._trace(ev.LOCK_GRANT, owner=owner, resource=resource,
                        mode=mode.name)

    def release(self, owner: Hashable, resource: Hashable) -> List[Hashable]:
        """Release ``owner``'s lock on ``resource``.

        Returns the owners whose queued requests became granted.
        """
        head = self._table.get(resource)
        if head is None or owner not in head.granted:
            raise KeyError(f"{owner} holds no lock on {resource}")
        del head.granted[owner]
        held = self._held[owner]
        del held[resource]
        if not held:
            del self._held[owner]
        if self.tracer.enabled:
            self._trace(ev.LOCK_RELEASE, owner=owner, resource=resource)
        if head.queue:
            return self._promote(resource, head)
        if not head.granted:
            del self._table[resource]
        return []

    def release_all(self, owner: Hashable) -> List[Tuple[Hashable, Hashable]]:
        """Release every lock ``owner`` holds (commit/abort/crash) and
        withdraw every request it still has queued — including a queued
        conversion on a resource it holds, which would otherwise be
        promoted later on behalf of a finished transaction.

        Returns ``(resource, new_owner)`` pairs for promoted waiters,
        in lock-table order.  Cost is O(locks held or awaited by
        ``owner``), whatever other owners hold.
        """
        self._waiting_on.pop(owner, None)
        if self.tracer.enabled:
            self._trace(ev.LOCK_RELEASE_ALL, owner=owner)
        held = self._held.pop(owner, None)
        queued = self._queued.pop(owner, None)
        # Heads whose queue must be re-examined, keyed for table order.
        waiting: List[Tuple[int, Hashable, _LockHead]] = []
        if held:
            for resource, head in held.items():
                del head.granted[owner]
                if head.queue:
                    waiting.append((head.seq, resource, head))
                elif not head.granted:
                    del self._table[resource]
        if queued:
            for resource, head in queued.items():
                head.queue = [r for r in head.queue if r.owner != owner]
                if not held or resource not in held:
                    waiting.append((head.seq, resource, head))
        waiting.sort()  # seq is unique, so ties never compare resources
        return [
            (resource, new_owner)
            for _, resource, head in waiting
            for new_owner in self._promote(resource, head)
        ]

    # ------------------------------------------------------------------
    def holds(self, owner: Hashable, resource: Hashable,
              mode: Optional[LockMode] = None) -> bool:
        """Does ``owner`` hold ``resource`` (at least in ``mode``)?"""
        head = self._table.get(resource)
        if head is None:
            return False
        held = head.granted.get(owner)
        if held is None:
            return False
        return mode is None or supremum(held, mode) == held

    def holders(self, resource: Hashable) -> Dict[Hashable, LockMode]:
        head = self._table.get(resource)
        return dict(head.granted) if head else {}

    def waiters(self, resource: Hashable) -> List[Hashable]:
        head = self._table.get(resource)
        return [r.owner for r in head.queue] if head else []

    def locks_of(self, owner: Hashable) -> Dict[Hashable, LockMode]:
        """Every lock ``owner`` currently holds."""
        held = self._held.get(owner)
        if not held:
            return {}
        return {resource: head.granted[owner]
                for resource, head in held.items()}

    def owners(self) -> Set[Hashable]:
        """Every owner currently holding or awaiting a lock."""
        result: Set[Hashable] = set()
        for head in self._table.values():
            result.update(head.granted)
            result.update(r.owner for r in head.queue)
        return result

    def resources(self) -> List[Hashable]:
        """Every resource with a live lock head (insertion order)."""
        return list(self._table)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _grant_compatible(head: _LockHead, mode: LockMode) -> bool:
        mask = _COMPAT_MASK[mode]
        for held in head.granted.values():
            if not mask >> held & 1:
                return False
        return True

    @staticmethod
    def _conversion_compatible(
        head: _LockHead, owner: Hashable, target: LockMode
    ) -> bool:
        mask = _COMPAT_MASK[target]
        for other, held in head.granted.items():
            if other != owner and not mask >> held & 1:
                return False
        return True

    def _promote(self, resource: Hashable, head: _LockHead) -> List[Hashable]:
        granted: List[Hashable] = []
        while head.queue:
            request = head.queue[0]
            if request.convert_from is not None:
                ok = self._conversion_compatible(head, request.owner, request.mode)
            else:
                ok = self._grant_compatible(head, request.mode)
            if not ok:
                break
            head.queue.pop(0)
            self._forget_queued(request.owner, resource)
            self._waiting_on.pop(request.owner, None)
            self._grant(request.owner, resource, head, request.mode)
            granted.append(request.owner)
        if not head.granted and not head.queue:
            del self._table[resource]
        return granted

    def _forget_queued(self, owner: Hashable, resource: Hashable) -> None:
        queued = self._queued[owner]
        del queued[resource]
        if not queued:
            del self._queued[owner]

    def _remove_request(self, resource: Hashable, owner: Hashable) -> None:
        """Withdraw ``owner``'s queued request on ``resource`` (the
        deadlock victim's)."""
        head = self._table[resource]
        head.queue = [r for r in head.queue if r.owner != owner]
        self._forget_queued(owner, resource)
        if not head.granted and not head.queue:
            del self._table[resource]
        self._waiting_on.pop(owner, None)

    def _blockers(self, owner: Hashable) -> List[Hashable]:
        """Owners that must release or advance before ``owner`` can run."""
        resource = self._waiting_on.get(owner)
        if resource is None:
            return []
        head = self._table.get(resource)
        if head is None:
            return []
        request = next((r for r in head.queue if r.owner == owner), None)
        if request is None:
            return []
        blockers = [
            other for other, held in head.granted.items()
            if other != owner and not are_compatible(request.mode, held)
        ]
        for queued in head.queue:  # FIFO: earlier requests block later ones
            if queued.owner == owner:
                break
            blockers.append(queued.owner)
        return blockers

    def _find_cycle(self, start: Hashable) -> bool:
        """Is ``start`` on a wait-for cycle?  Full DFS over all blocker
        edges (a single-successor walk can miss cycles when a resource
        has several incompatible holders)."""
        stack = list(self._blockers(start))
        seen: Set[Hashable] = set()
        while stack:
            current = stack.pop()
            if current == start:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._blockers(current))
        return False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LockManager(resources={len(self._table)}, "
            f"waiting={len(self._waiting_on)})"
        )
