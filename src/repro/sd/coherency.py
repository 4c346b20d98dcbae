"""Buffer coherency: the medium and fast page-transfer schemes.

The controller tracks, per page, which instance may hold a dirty copy
(the *writer*) and which instances hold cached copies (the *readers*),
and mediates transfers between buffer pools.

Two schemes from [MoNa91], both discussed by the paper:

* **medium** (the paper's Section 3.1 assumption, the default): a dirty
  page is written to disk before another system may use it.  A page on
  disk therefore carries dirty updates of at most one system, and
  restart redo of a failed instance needs only that instance's log.
* **fast** (the paper's Section 5 extension): a dirty page is
  transferred memory-to-memory after the *sender forces its log*
  through the page's last update — no intermediate disk write.  Restart
  recovery of an instance must then redo its pages from the **merged**
  local logs (see ``SDComplex.restart_instance``).

Crashed instances keep their writer marks ("retained" ownership) until
restart recovery finishes — other instances must not touch those pages,
because the disk version may be missing redo that only log recovery can
supply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set

from repro.common.config import NULL_LSN, PAGE_SIZE
from repro.common.errors import ProtocolError
from repro.common.lsn import Lsn
from repro.obs import events as ev
from repro.storage.page import Page

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sd.complex import SDComplex
    from repro.sd.instance import DbmsInstance

SCHEMES = ("medium", "fast")


@dataclass
class _Transfer:
    """A page image in flight between buffer pools."""

    page: Page
    dirty: bool = False
    rec_lsn: Lsn = NULL_LSN   # sender's RecLSN (fast scheme only)


class CoherencyController:
    """Mediates page ownership between the instances of one complex."""

    def __init__(self, sd_complex: "SDComplex",
                 scheme: str = "medium") -> None:
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        self._complex = sd_complex
        self.scheme = scheme
        self._writer: Dict[int, int] = {}
        self._readers: Dict[int, Set[int]] = {}
        self._crashed: Set[int] = set()

    # ------------------------------------------------------------------
    def access(
        self, requester: "DbmsInstance", page_id: int, for_update: bool
    ) -> Page:
        """Give ``requester`` a fixed copy of ``page_id`` in its pool."""
        if self._complex.instant:
            # Instant restart in progress somewhere in the complex: a
            # still-pending page must have its redo chain applied before
            # any system reads or updates it.  The registry is empty on
            # the classic path, so this costs one truthiness test there.
            self._complex.ensure_instant_recovered(page_id)
        me = requester.system_id
        writer = self._writer.get(page_id)
        transfer: Optional[_Transfer] = None
        if writer is not None and writer != me:
            if writer in self._crashed:
                raise ProtocolError(
                    f"page {page_id} is owned by crashed system {writer}; "
                    f"restart recovery must run first"
                )
            if for_update or self.scheme == "medium":
                transfer = self._surrender(writer, page_id, me)
            else:
                # fast-scheme read: the writer keeps its dirty copy and
                # writer status; the reader gets a consistent image.
                transfer = self._share_copy(writer, page_id, me)
        readers = self._readers.get(page_id)
        if for_update:
            if readers is None or len(readers) != 1 or me not in readers:
                self._invalidate_other_readers(page_id, me)
            self._writer[page_id] = me
        else:
            if writer is not None and writer != me \
                    and self.scheme == "medium":
                # Old writer demoted: its copy (if any) is now clean.
                self._writer.pop(page_id, None)
            if readers is None:
                self._readers[page_id] = {me}
            else:
                readers.add(me)
        pool = requester.pool
        if transfer is None:
            return pool.fix(page_id)  # buffered copy, or a disk read
        if pool.contains(page_id):
            # The requester's buffered copy predates the transfer
            # (e.g. a recovery redo pass read the disk version
            # while another system still held the page); the
            # transferred image is the current one.
            pool.put_page(transfer.page)
            if transfer.dirty:
                self._stamp_transferred_dirty(requester, page_id, transfer)
            return pool.fix(page_id)
        page = pool.install_page(transfer.page, dirty=transfer.dirty)
        if transfer.dirty:
            self._stamp_transferred_dirty(requester, page_id, transfer)
        return page

    @staticmethod
    def _stamp_transferred_dirty(requester: "DbmsInstance", page_id: int,
                                 transfer: "_Transfer") -> None:
        """BCB bookkeeping for a dirty page received via fast transfer.

        The covering log records live in the *sender's* log (already
        forced); nothing in the receiver's log describes this page yet,
        so the WAL high-water mark is zero and RecAddr is only a
        fast-restart placeholder.
        """
        bcb = requester.pool.bcb(page_id)
        bcb.dirty = True
        bcb.rec_lsn = transfer.rec_lsn
        bcb.rec_addr = requester.log.end_offset
        bcb.last_update_end = 0

    def note_new_page(self, owner: "DbmsInstance", page_id: int) -> None:
        """A freshly formatted page materialised in ``owner``'s pool
        without any disk traffic (the reallocation optimization).

        Any copies other systems still cache belong to the page's
        previous (deallocated) life and are purged — even dirty ones:
        a deallocated page's content is moot, and the format record's
        LSN supersedes it on every recovery path.
        """
        for system_id, instance in self._complex.instances.items():
            if system_id != owner.system_id \
                    and instance.pool.contains(page_id):
                instance.pool.drop_page(page_id, allow_dirty=True)
                self._complex.network.message(owner.system_id, system_id,
                                              "invalidate")
        self._writer[page_id] = owner.system_id
        self._readers[page_id] = {owner.system_id}

    # ------------------------------------------------------------------
    def _surrender(
        self, owner_id: int, page_id: int, requester_id: int
    ) -> Optional[_Transfer]:
        """Current writer gives up the page."""
        owner = self._complex.instances[owner_id]
        if not owner.pool.contains(page_id):
            return None  # already evicted (and therefore already on disk)
        bcb = owner.pool.bcb(page_id)
        dirty = bcb.dirty
        transfer: _Transfer
        if self.scheme == "medium":
            if dirty:
                # Medium scheme: write to disk *before* the transfer.
                owner.pool.write_page(page_id)
            transfer = _Transfer(page=bcb.page.copy(), dirty=False)
        else:
            if dirty:
                # Fast scheme: no disk write, but the sender's log must
                # be stable through the page's last update first.
                owner.log.force(up_to=bcb.last_update_end)
            transfer = _Transfer(page=bcb.page.copy(), dirty=dirty,
                                 rec_lsn=bcb.rec_lsn)
            bcb.mark_clean()  # responsibility moves with the page
        owner.pool.drop_page(page_id)
        self._readers.setdefault(page_id, set()).discard(owner_id)
        self._complex.network.message(
            owner_id, requester_id, "page_transfer", nbytes=PAGE_SIZE
        )
        tracer = self._complex.tracer
        if tracer.enabled:
            tracer.emit(
                ev.PAGE_TRANSFER, system=owner_id, page=page_id,
                src=owner_id, dst=requester_id, dirty=transfer.dirty,
                scheme=self.scheme,
            )
        return transfer

    def _share_copy(
        self, owner_id: int, page_id: int, requester_id: int
    ) -> Optional[_Transfer]:
        """Fast-scheme read: copy without ownership change."""
        owner = self._complex.instances[owner_id]
        if not owner.pool.contains(page_id):
            return None
        bcb = owner.pool.bcb(page_id)
        if bcb.dirty:
            # Reader consistency: the records covering what it sees
            # must be stable before the copy escapes the owner.
            owner.log.force(up_to=bcb.last_update_end)
        self._complex.network.message(
            owner_id, requester_id, "page_copy", nbytes=PAGE_SIZE
        )
        tracer = self._complex.tracer
        if tracer.enabled:
            tracer.emit(
                ev.PAGE_COPY, system=owner_id, page=page_id,
                src=owner_id, dst=requester_id,
            )
        return _Transfer(page=bcb.page.copy(), dirty=False)

    def _invalidate_other_readers(self, page_id: int, keep: int) -> None:
        for reader_id in sorted(self._readers.get(page_id, set()) - {keep}):
            instance = self._complex.instances.get(reader_id)
            if instance is not None and instance.pool.contains(page_id):
                if instance.pool.is_dirty(page_id):
                    raise ProtocolError(
                        f"system {reader_id} holds page {page_id} dirty "
                        f"without writer status"
                    )
                instance.pool.drop_page(page_id)
            self._complex.network.message(keep, reader_id, "invalidate")
        self._readers[page_id] = {keep}

    # ------------------------------------------------------------------
    # failure handling
    # ------------------------------------------------------------------
    def note_crash(self, system_id: int) -> None:
        """Writer marks are retained; reader registrations are dropped."""
        self._crashed.add(system_id)
        for readers in self._readers.values():
            readers.discard(system_id)

    def note_recovered(self, system_id: int) -> None:
        """Restart recovery finished: release retained ownership.

        Cached copies other systems took from the failed writer are
        dropped: under the fast scheme they may be older than the
        reconstructed disk version, so letting them linger would serve
        stale reads.
        """
        self._crashed.discard(system_id)
        for page_id in [p for p, w in self._writer.items() if w == system_id]:
            del self._writer[page_id]
            for reader_id in self._readers.pop(page_id, set()):
                if reader_id == system_id:
                    continue
                instance = self._complex.instances.get(reader_id)
                if instance is not None and instance.pool.contains(page_id) \
                        and not instance.pool.is_dirty(page_id) \
                        and instance.pool.bcb(page_id).fix_count == 0:
                    instance.pool.drop_page(page_id)
        # The pages recovery pulled into the survivor's pool must be
        # registered as cached copies, or future cross-system updates
        # would never invalidate them and stale reads could follow.
        recovered = self._complex.instances.get(system_id)
        if recovered is not None:
            for bcb in recovered.pool.pages():
                self._readers.setdefault(bcb.page_id, set()).add(system_id)

    def writer_of(self, page_id: int) -> Optional[int]:
        return self._writer.get(page_id)

    def readers_of(self, page_id: int) -> Set[int]:
        return set(self._readers.get(page_id, set()))

    def pages_owned_by(self, system_id: int) -> List[int]:
        """Pages whose latest version may live only in ``system_id``'s
        (possibly lost) buffer pool — the fast-restart redo candidates."""
        return sorted(p for p, w in self._writer.items() if w == system_id)
