"""Binary log record format.

Every record serializes to a 48-byte packed header followed by three
variable-length payloads (redo, undo, extra).  Fields:

==============  =====  ====================================================
field           bytes  meaning
==============  =====  ====================================================
lsn             8      update sequence number assigned by the log manager
prev_lsn        8      LSN of this transaction's previous record (0 = none)
txn_id          8      owning transaction
undo_next_lsn   8      CLRs only: next record of the txn to undo (0 = done)
page_id         4      page the record describes (0xFFFFFFFF = none)
system_id       2      writer system / client id (Section 3.1: client log
                       records carry the client's identity)
slot            2      record slot within the page (0xFFFF = none)
redo_len        2
undo_len        2
extra_len       2
kind            1      :class:`RecordKind`
padding         1
==============  =====  ====================================================

Update payloads are *physiological*: an operation byte
(:class:`PageOp`) plus operand bytes, applied to a named slot of a named
page.  Lomet-baseline records reuse this format, carrying the before-
state identifier (BSI) in the ``extra`` field.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.common.lsn import Lsn

_HEADER = struct.Struct("<QQQQIHHHHHBx")
HEADER_SIZE = _HEADER.size
assert HEADER_SIZE == 48

#: Log bytes can be parsed out of an owned ``bytes`` object or a
#: zero-copy ``memoryview`` over someone else's buffer (the log
#: manager's bytearray, a network frame).  The header path never
#: materializes intermediate ``bytes`` either way.
LogBuffer = Union[bytes, bytearray, memoryview]

NO_PAGE = 0xFFFFFFFF
NO_SLOT = 0xFFFF


class RecordKind(enum.IntEnum):
    """Discriminates log record roles during the recovery passes."""

    UPDATE = 1            # redo+undo page change
    CLR = 2               # compensation record (redo-only)
    COMMIT = 3            # transaction committed (forces the log)
    ABORT = 4             # rollback started
    END = 5               # transaction fully finished (after commit/undo)
    BEGIN_CHECKPOINT = 6
    END_CHECKPOINT = 7    # carries serialized DPT + transaction table
    FORMAT_PAGE = 8       # page (re)allocation format record (redo-only)
    SMP_UPDATE = 9        # space map page bit flip (redo+undo)
    DUMMY = 10            # filler for log-production-rate experiments


class PageOp(enum.IntEnum):
    """Physiological operation encoded at the head of redo/undo data."""

    INSERT = 1      # operand: record payload, inserted at the named slot
    DELETE = 2      # operand: empty
    SET = 3         # operand: full new/old record payload
    FORMAT = 4      # operand: u8 page type
    SMP_SET = 5        # operand: SpaceMap.encode_entry_update payload
    NOOP = 6           # operand: ignored
    SMP_SET_RANGE = 7  # operand: SpaceMap.encode_range_update payload
                       # (mass delete logs one record per SMP page)


def encode_op(op: PageOp, data: bytes = b"") -> bytes:
    """Serialize an operation payload."""
    return bytes([int(op)]) + data


def decode_op(payload: bytes) -> Tuple[PageOp, bytes]:
    """Inverse of :func:`encode_op`."""
    if not payload:
        raise ValueError("empty operation payload")
    return PageOp(payload[0]), payload[1:]


@dataclass(init=False)
class LogRecord:
    """One log record; mutable because the log manager stamps the LSN."""

    kind: RecordKind
    txn_id: int = 0
    system_id: int = 0
    page_id: int = NO_PAGE
    slot: int = NO_SLOT
    lsn: Lsn = 0
    prev_lsn: Lsn = 0
    undo_next_lsn: Lsn = 0
    redo: bytes = b""
    undo: bytes = b""
    extra: bytes = b""

    def __init__(
        self,
        kind: RecordKind,
        txn_id: int = 0,
        system_id: int = 0,
        page_id: int = NO_PAGE,
        slot: int = NO_SLOT,
        lsn: Lsn = 0,
        prev_lsn: Lsn = 0,
        undo_next_lsn: Lsn = 0,
        redo: bytes = b"",
        undo: bytes = b"",
        extra: bytes = b"",
    ) -> None:
        # Hand-written (``init=False``): the generated __init__ would
        # route eleven assignments through the invalidation hook below,
        # and every update builds a record.  A record under
        # construction has no cached encoding, so filling ``__dict__``
        # directly is safe.
        d = self.__dict__
        d["kind"] = kind
        d["txn_id"] = txn_id
        d["system_id"] = system_id
        d["page_id"] = page_id
        d["slot"] = slot
        d["lsn"] = lsn
        d["prev_lsn"] = prev_lsn
        d["undo_next_lsn"] = undo_next_lsn
        d["redo"] = redo
        d["undo"] = undo
        d["extra"] = extra

    # ------------------------------------------------------------------
    # encoded-bytes cache
    # ------------------------------------------------------------------
    # ``to_bytes`` caches its result under the non-field ``__dict__``
    # key ``_encoded``; any later field assignment invalidates it.  The
    # cache is written with a direct ``__dict__`` store so the
    # invalidation hook below never sees it.  The hot lanes (__init__,
    # from_bytes, stamp_and_encode*) bypass the hook where they can
    # prove the cache is absent or about to be replaced; it stays as
    # the safety net for every other writer.
    def __setattr__(self, name: str, value: object) -> None:
        d = self.__dict__
        d[name] = value
        if "_encoded" in d:
            del d["_encoded"]

    # ------------------------------------------------------------------
    def is_page_oriented(self) -> bool:
        """Does this record describe a change to a specific page?"""
        return self.page_id != NO_PAGE

    def is_undoable(self) -> bool:
        """UPDATE/SMP_UPDATE records are undone during rollback; CLRs,
        format records and control records are not."""
        return self.kind in (RecordKind.UPDATE, RecordKind.SMP_UPDATE)

    def serialized_size(self) -> int:
        """Encoded length, computed from field lengths (no packing)."""
        return HEADER_SIZE + len(self.redo) + len(self.undo) + len(self.extra)

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        cached: Optional[bytes] = self.__dict__.get("_encoded")
        if cached is not None:
            return cached
        data = _HEADER.pack(
            self.lsn, self.prev_lsn, self.txn_id, self.undo_next_lsn,
            self.page_id, self.system_id, self.slot,
            len(self.redo), len(self.undo), len(self.extra), int(self.kind),
        ) + self.redo + self.undo + self.extra
        self.__dict__["_encoded"] = data
        return data

    @classmethod
    def from_bytes(
        cls, data: LogBuffer, offset: int = 0
    ) -> Tuple["LogRecord", int]:
        """Parse one record at ``offset``; returns ``(record, next_offset)``.

        The header is unpacked in place (``unpack_from``), so passing a
        ``memoryview`` parses without materializing any intermediate
        ``bytes``; only the (possibly empty) payloads are copied out.
        """
        (lsn, prev_lsn, txn_id, undo_next_lsn, page_id, system_id, slot,
         redo_len, undo_len, extra_len, kind) = _HEADER.unpack_from(data, offset)
        pos = offset + HEADER_SIZE
        redo = bytes(data[pos:pos + redo_len]) if redo_len else b""
        pos += redo_len
        undo = bytes(data[pos:pos + undo_len]) if undo_len else b""
        pos += undo_len
        extra = bytes(data[pos:pos + extra_len]) if extra_len else b""
        pos += extra_len
        # __init__ fills __dict__ without the invalidation hook, which
        # recovery scans (records by the thousand) could not afford.
        return cls(RecordKind(kind), txn_id, system_id, page_id, slot, lsn,
                   prev_lsn, undo_next_lsn, redo, undo, extra), pos

    @staticmethod
    def parse_stream(data: LogBuffer) -> Iterator[Tuple[int, "LogRecord"]]:
        """Yield ``(offset, record)`` for every record in ``data``.

        ``data`` may be ``bytes`` or a ``memoryview``; either way a
        single view is threaded through every :meth:`from_bytes` call,
        so per-record parsing never slices the underlying buffer into
        intermediate ``bytes`` objects for the header path.
        """
        view = data if isinstance(data, memoryview) else memoryview(data)
        offset = 0
        end = len(view)
        while offset < end:
            record, offset_next = LogRecord.from_bytes(view, offset)
            yield offset, record
            offset = offset_next


#: The header fields that locate and order a record without parsing
#: it: the LSN and the three payload lengths.
_SPAN = struct.Struct("<Q32xHHH")


def record_spans(data: LogBuffer) -> List[Tuple[Lsn, int, int]]:
    """``(lsn, start, end)`` of every record in ``data``, read from the
    headers alone — what a consumer that forwards records verbatim
    (the log shipper) needs to order and cut a stream."""
    spans: List[Tuple[Lsn, int, int]] = []
    unpack = _SPAN.unpack_from
    offset = 0
    length = len(data)
    while offset < length:
        lsn, redo_len, undo_len, extra_len = unpack(data, offset)
        end = offset + HEADER_SIZE + redo_len + undo_len + extra_len
        spans.append((lsn, offset, end))
        offset = end
    return spans


def stamp_and_encode(record: LogRecord, lsn: Lsn, system_id: int) -> bytes:
    """Hot-lane helper: assign ``lsn``/``system_id`` and serialize.

    Semantically identical to two attribute assignments followed by
    :meth:`LogRecord.to_bytes`, collapsed into one call so the per-call
    append path (:meth:`repro.wal.log_manager.LogManager.append`, the
    CS client log) pays one function call per record instead of five.
    The encoded bytes are cached on the record exactly as ``to_bytes``
    would.
    """
    d = record.__dict__
    d["lsn"] = lsn
    d["system_id"] = system_id
    redo = record.redo
    undo = record.undo
    extra = record.extra
    data = _HEADER.pack(
        lsn, record.prev_lsn, record.txn_id, record.undo_next_lsn,
        record.page_id, system_id, record.slot,
        len(redo), len(undo), len(extra), record.kind,
    ) + redo + undo + extra
    d["_encoded"] = data
    return data


def stamp_and_encode_batch(
    records: Sequence[LogRecord],
    lsn: Lsn,
    system_id: int,
    page_lsns: Optional[Sequence[Lsn]] = None,
) -> Tuple[List[bytes], Lsn]:
    """Stamp and serialize a whole batch; returns ``(parts, last_lsn)``.

    The innermost loop of :meth:`LogManager.append_many
    <repro.wal.log_manager.LogManager.append_many>`, kept here next to
    ``_HEADER`` so a 64-record batch pays zero per-record function
    calls: LSN assignment follows the USN rule
    (``max(page_lsn, running_lsn) + 1``, degenerating to ``+1`` when
    ``page_lsns`` is omitted), fields are stamped through ``__dict__``
    (skipping the invalidation hook — the fresh encoding is installed
    in the same breath), and each record's encoded bytes are cached
    exactly as :meth:`LogRecord.to_bytes` would.
    """
    pack = _HEADER.pack
    parts: List[bytes] = []
    note_part = parts.append
    if page_lsns is None:
        for record in records:
            lsn += 1
            d = record.__dict__
            d["lsn"] = lsn
            d["system_id"] = system_id
            redo = d["redo"]
            undo = d["undo"]
            extra = d["extra"]
            data = pack(
                lsn, d["prev_lsn"], d["txn_id"], d["undo_next_lsn"],
                d["page_id"], system_id, d["slot"],
                len(redo), len(undo), len(extra), d["kind"],
            ) + redo + undo + extra
            d["_encoded"] = data
            note_part(data)
    else:
        for record, page_lsn in zip(records, page_lsns):
            if page_lsn > lsn:
                lsn = page_lsn
            lsn += 1
            d = record.__dict__
            d["lsn"] = lsn
            d["system_id"] = system_id
            redo = d["redo"]
            undo = d["undo"]
            extra = d["extra"]
            data = pack(
                lsn, d["prev_lsn"], d["txn_id"], d["undo_next_lsn"],
                d["page_id"], system_id, d["slot"],
                len(redo), len(undo), len(extra), d["kind"],
            ) + redo + undo + extra
            d["_encoded"] = data
            note_part(data)
    return parts, lsn


# ----------------------------------------------------------------------
# checkpoint payloads
# ----------------------------------------------------------------------
_CKPT_HDR = struct.Struct("<HH")
_DPT_ENTRY = struct.Struct("<IQQ")     # page_id, rec_lsn, rec_addr_offset
_TT_ENTRY = struct.Struct("<QQB")      # txn_id, last_lsn, state


@dataclass
class CheckpointData:
    """Serializable content of an END_CHECKPOINT record.

    ``dirty_pages`` maps page_id -> (RecLSN, RecAddr offset): the LSN of
    the first update that dirtied the page plus the local-log byte
    offset of that record (the paper's RecAddr, Section 3.2.2, which
    bounds where the restart redo scan must begin).

    ``transactions`` maps txn_id -> (last_lsn, state) for in-flight
    transactions, where ``state`` is 0 = active, 1 = committing.
    """

    dirty_pages: Dict[int, Tuple[Lsn, int]] = field(default_factory=dict)
    transactions: Dict[int, Tuple[Lsn, int]] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        parts: List[bytes] = [
            _CKPT_HDR.pack(len(self.dirty_pages), len(self.transactions))
        ]
        for page_id in sorted(self.dirty_pages):
            rec_lsn, rec_addr = self.dirty_pages[page_id]
            parts.append(_DPT_ENTRY.pack(page_id, rec_lsn, rec_addr))
        for txn_id in sorted(self.transactions):
            last_lsn, state = self.transactions[txn_id]
            parts.append(_TT_ENTRY.pack(txn_id, last_lsn, state))
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CheckpointData":
        n_dpt, n_tt = _CKPT_HDR.unpack_from(data, 0)
        pos = _CKPT_HDR.size
        dirty: Dict[int, Tuple[Lsn, int]] = {}
        for _ in range(n_dpt):
            page_id, rec_lsn, rec_addr = _DPT_ENTRY.unpack_from(data, pos)
            dirty[page_id] = (rec_lsn, rec_addr)
            pos += _DPT_ENTRY.size
        txns: Dict[int, Tuple[Lsn, int]] = {}
        for _ in range(n_tt):
            txn_id, last_lsn, state = _TT_ENTRY.unpack_from(data, pos)
            txns[txn_id] = (last_lsn, state)
            pos += _TT_ENTRY.size
        return cls(dirty_pages=dirty, transactions=txns)


# Convenience constructors ------------------------------------------------

def make_update(
    txn_id: int,
    system_id: int,
    page_id: int,
    slot: int,
    redo: bytes,
    undo: bytes,
    prev_lsn: Lsn = 0,
) -> LogRecord:
    """An ordinary redo/undo page update record."""
    return LogRecord(
        kind=RecordKind.UPDATE, txn_id=txn_id, system_id=system_id,
        page_id=page_id, slot=slot, redo=redo, undo=undo, prev_lsn=prev_lsn,
    )


def make_clr(
    txn_id: int,
    system_id: int,
    page_id: int,
    slot: int,
    redo: bytes,
    undo_next_lsn: Lsn,
    prev_lsn: Lsn = 0,
) -> LogRecord:
    """A compensation log record: redo-only, never undone."""
    return LogRecord(
        kind=RecordKind.CLR, txn_id=txn_id, system_id=system_id,
        page_id=page_id, slot=slot, redo=redo,
        undo_next_lsn=undo_next_lsn, prev_lsn=prev_lsn,
    )


def make_format(
    txn_id: int,
    system_id: int,
    page_id: int,
    page_type: int,
    prev_lsn: Lsn = 0,
) -> LogRecord:
    """A page-format record, written when (re)allocating a page.

    Redo-only: formatting wipes the page, so there is nothing to undo at
    the page level (deallocation of the page is what gets undone, via
    the covering SMP_UPDATE record).
    """
    return LogRecord(
        kind=RecordKind.FORMAT_PAGE, txn_id=txn_id, system_id=system_id,
        page_id=page_id, slot=NO_SLOT,
        redo=encode_op(PageOp.FORMAT, bytes([page_type])), prev_lsn=prev_lsn,
    )
