"""Binary log record format.

Every record serializes to a packed header followed by its variable-
length payloads (redo, undo, extra).  The kind byte leads every header,
and one table lookup on it selects one of three layouts, so the two
record families written once per update and once per transaction
carry only what they need:

==============  =======  ====  ====  ===================================
field           control  page  full  meaning
==============  =======  ====  ====  ===================================
kind            1        1     1     :class:`RecordKind`; the high bit
                                     marks a full-shape fallback
lsn             8        8     8     update sequence number assigned
                                     by the log manager
prev_lsn        4        4     8     this transaction's previous record
                                     (0 = none); the narrow shapes store
                                     ``lsn - prev_lsn``
txn_id          4        4     8     owning transaction
undo_next_lsn                  8     CLRs only: next record of the txn
                                     to undo (0 = done)
page_id                  4     4     page the record describes
                                     (0xFFFFFFFF = none)
system_id       2        2     2     writer system / client id
                                     (Section 3.1: client log records
                                     carry the client's identity)
slot                     2     2     record slot within the page
                                     (0xFFFF = none)
redo_len                 2     2
undo_len                 2     2
extra_len                      2
padding                        1
header size     19       29    48
==============  =======  ====  ====  ===================================

* **control** -- COMMIT, ABORT, END: no page, no payload.  A
  committed transaction's last record is its COMMIT; END is
  rollback-only, written by a rollback or by restart's undo of a loser
  to close the CLR chain.
* **page** -- UPDATE, SMP_UPDATE, FORMAT_PAGE: everything but
  ``undo_next_lsn`` and ``extra``.
* **full** -- CLR, BEGIN/END_CHECKPOINT, DUMMY: every field.

A control or page record whose fields overflow its narrow shape -- a
``txn_id`` of 2**32 or more, a previous record that is not 1 to
2**32 - 1 LSNs behind it, or an ``extra`` payload (the Lomet
baseline's before-state identifier) -- is written in the full shape
instead, its kind byte's high bit (``kind | 0x80``) set so a reader
picks the full layout.  The LSN sits at offset 1 in every shape.

A record whose fields fit no shape its kind allows (a COMMIT with a
page, an UPDATE with an ``undo_next_lsn``, a slot or a payload length
too wide for its field, a kind byte that names no kind) raises
:class:`ValueError` when it is encoded; nothing is ever silently
dropped or truncated.

Update payloads are *physiological*: an operation byte
(:class:`PageOp`) plus operand bytes, applied to a named slot of a named
page.  Lomet-baseline records reuse this format, carrying the before-
state identifier (BSI) in the ``extra`` field.

An overwrite whose new payload has the old one's length is logged as
one ``XOR`` operation whose operand is ``old ^ new``, *stored once*
(in ``redo``, with an empty ``undo``), and *its own inverse*: XOR-ing
it into the after image gives back the before image, so undo and the
CLR that records it take the redo payload as the undo payload
(:func:`encode_overwrite`).  That is sound because redo is screened
per page (a record is redone iff its LSN exceeds the page_LSN, and the
USN rule keeps page_LSNs monotonic per page), so an XOR is only ever
applied to exactly the state it was logged against.  A length-changing
overwrite keeps the two-image ``SET`` (new payload as redo, old as
undo).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.common.lsn import Lsn

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
    COMMIT = 3            # transaction committed: its last record
    ABORT = 4             # rollback started
    END = 5               # rollback finished (closes the CLR chain)
    BEGIN_CHECKPOINT = 6
    END_CHECKPOINT = 7    # carries serialized DPT + transaction table
    FORMAT_PAGE = 8       # page (re)allocation format record (redo-only)
    SMP_UPDATE = 9        # space map page bit flip (redo+undo)
    DUMMY = 10            # filler for log-production-rate experiments


# The three header shapes (see the module docstring).
_CONTROL = struct.Struct("<BQIIH")
_PAGE = struct.Struct("<BQIIIHHHH")
_FULL = struct.Struct("<BQQQQIHHHHHx")
assert (_CONTROL.size, _PAGE.size, _FULL.size) == (19, 29, 48)

#: The kind byte's high bit: a control or page record written in the
#: full shape because a field overflows its narrow one.
_FULL_BIT = 0x80
#: The narrow shape of each kind that has one.
_NARROW: Dict[RecordKind, struct.Struct] = {
    **dict.fromkeys((RecordKind.COMMIT, RecordKind.ABORT, RecordKind.END),
                    _CONTROL),
    **dict.fromkeys((RecordKind.UPDATE, RecordKind.SMP_UPDATE,
                     RecordKind.FORMAT_PAGE), _PAGE),
}
_BY_VALUE = {kind.value: kind for kind in RecordKind}

#: Kind byte -> :class:`RecordKind` and kind byte -> header shape (None
#: for a byte that names no kind), as tuples over all 256 byte values
#: so the parse and encode lanes pay one index, not a call.  A byte
#: with the high bit set names a kind only if that kind has a narrow
#: shape to fall back from.
_KINDS: Tuple[Optional[RecordKind], ...] = tuple(
    _BY_VALUE.get(byte) if byte < _FULL_BIT
    else _BY_VALUE.get(byte ^ _FULL_BIT) if (byte ^ _FULL_BIT) in _NARROW
    else None
    for byte in range(256))
_SHAPES: Tuple[Optional[struct.Struct], ...] = tuple(
    None if kind is None
    else _FULL if byte & _FULL_BIT
    else _NARROW.get(kind, _FULL)
    for byte, kind in enumerate(_KINDS))
#: Every kind byte a COMMIT, ABORT or END is written with, narrow or
#: full: a transaction's fate, never a page.
CONTROL_KIND_BYTES = frozenset(
    byte for kind, shape in _NARROW.items() if shape is _CONTROL
    for byte in (kind, kind | _FULL_BIT))

#: Where a header's LSN and payload lengths sit: what a reader that
#: only orders and cuts records needs.
_CONTROL_LSN = struct.Struct("<xQ")
_PAGE_SPAN = struct.Struct("<xQ16xHH")
_FULL_SPAN = struct.Struct("<xQ32xHHH")


def _misfit(record: "LogRecord") -> ValueError:
    """Drop ``record``'s stale encoding; the error an encoder raises
    for a record whose fields do not fit its kind's header shape."""
    record.__dict__.pop("_encoded", None)
    return ValueError(f"{record!r} does not fit its kind's header shape")


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
    XOR = 8            # operand: old ^ new record payload (equal
                       # lengths); its own inverse, stored once


def encode_op(op: PageOp, data: bytes = b"") -> bytes:
    """Serialize an operation payload."""
    return bytes([int(op)]) + data


_SET_BYTE = bytes([PageOp.SET])
_XOR_BYTE = bytes([PageOp.XOR])


def encode_overwrite(old: bytes, new: bytes) -> Tuple[bytes, bytes]:
    """``(redo, undo)`` payloads of overwriting record ``old`` with
    ``new``: one ``XOR`` of ``old ^ new`` and no undo when the lengths
    match, else ``SET new`` / ``SET old``."""
    size = len(new)
    if len(old) == size:
        return _XOR_BYTE + (
            int.from_bytes(old, "little") ^ int.from_bytes(new, "little")
        ).to_bytes(size, "little"), b""
    return _SET_BYTE + new, _SET_BYTE + old


#: Operation byte -> :class:`PageOp` (``None`` for no operation): one
#: index per decode, where ``PageOp(byte)`` is two interpreted calls.
_OPS: Tuple[Optional[PageOp], ...] = tuple(
    map({op.value: op for op in PageOp}.get, range(256)))


def decode_op(payload: bytes) -> Tuple[PageOp, bytes]:
    """Inverse of :func:`encode_op`."""
    if not payload:
        raise ValueError("empty operation payload")
    op = _OPS[payload[0]]
    if op is None:
        raise ValueError(f"{payload[0]} is not a valid PageOp")
    return op, payload[1:]


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

    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        cached: Optional[bytes] = self.__dict__.get("_encoded")
        if cached is not None:
            return cached
        return stamp_and_encode(self, self.lsn, self.system_id)

    @classmethod
    def from_bytes(
        cls, data: LogBuffer, offset: int = 0
    ) -> Tuple["LogRecord", int]:
        """Parse one record at ``offset``; returns ``(record, next_offset)``.

        The header is unpacked in place (``unpack_from``), so passing a
        ``memoryview`` parses without materializing any intermediate
        ``bytes``; only the (possibly empty) payloads are copied out.
        """
        kind = data[offset]
        shape = _SHAPES[kind]
        # __init__ fills __dict__ without the invalidation hook, which
        # recovery scans (records by the thousand) could not afford.
        if shape is _CONTROL:
            _, lsn, prev_delta, txn_id, system_id = shape.unpack_from(
                data, offset)
            return cls(_KINDS[kind], txn_id, system_id, NO_PAGE, NO_SLOT,
                       lsn, lsn - prev_delta if prev_delta else 0
                       ), offset + shape.size
        if shape is _PAGE:
            (_, lsn, prev_lsn, txn_id, page_id, system_id, slot,
             redo_len, undo_len) = shape.unpack_from(data, offset)
            if prev_lsn:                # stored as lsn - prev_lsn
                prev_lsn = lsn - prev_lsn
            undo_next_lsn = extra_len = 0
        elif shape is _FULL:
            (_, lsn, prev_lsn, txn_id, undo_next_lsn, page_id, system_id,
             slot, redo_len, undo_len, extra_len) = shape.unpack_from(
                 data, offset)
        else:
            raise ValueError(f"no record kind {kind} at offset {offset}")
        pos = offset + shape.size
        redo = bytes(data[pos:pos + redo_len]) if redo_len else b""
        pos += redo_len
        undo = bytes(data[pos:pos + undo_len]) if undo_len else b""
        pos += undo_len
        extra = bytes(data[pos:pos + extra_len]) if extra_len else b""
        pos += extra_len
        return cls(_KINDS[kind], txn_id, system_id, page_id, slot, lsn,
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


def record_spans(data: LogBuffer) -> List[Tuple[Lsn, int, int]]:
    """``(lsn, start, end)`` of every record in ``data``, read from the
    headers alone — what a consumer that forwards records verbatim
    (the log shipper) or only wants their LSNs needs."""
    spans: List[Tuple[Lsn, int, int]] = []
    note_span = spans.append
    shapes = _SHAPES
    control_lsn = _CONTROL_LSN.unpack_from
    page_span = _PAGE_SPAN.unpack_from
    offset = 0
    length = len(data)
    while offset < length:
        shape = shapes[data[offset]]
        if shape is _CONTROL:
            (lsn,) = control_lsn(data, offset)
            end = offset + _CONTROL.size
        elif shape is _PAGE:
            lsn, redo_len, undo_len = page_span(data, offset)
            end = offset + _PAGE.size + redo_len + undo_len
        elif shape is None:
            raise ValueError(f"no record kind {data[offset]} at offset {offset}")
        else:
            lsn, redo_len, undo_len, extra_len = _FULL_SPAN.unpack_from(
                data, offset)
            end = offset + _FULL.size + redo_len + undo_len + extra_len
        note_span((lsn, offset, end))
        offset = end
    return spans


def _encode_full(kind: int, d: Dict[str, Any], lsn: Lsn,
                 system_id: int) -> bytes:
    """The full-shape encoding of a record's fields (``d``, its
    ``__dict__``) under kind byte ``kind``: every full-shape kind, and
    the fallback of a control or page record its narrow shape cannot
    hold."""
    redo = d["redo"]
    undo = d["undo"]
    extra = d["extra"]
    return _FULL.pack(
        kind, lsn, d["prev_lsn"], d["txn_id"], d["undo_next_lsn"],
        d["page_id"], system_id, d["slot"], len(redo), len(undo),
        len(extra),
    ) + redo + undo + extra


def stamp_and_encode(record: LogRecord, lsn: Lsn, system_id: int) -> bytes:
    """Hot-lane helper: assign ``lsn``/``system_id`` and serialize.

    Semantically identical to two attribute assignments followed by
    :meth:`LogRecord.to_bytes` (which delegates here), collapsed into
    one call so the per-call append path
    (:meth:`repro.wal.log_manager.LogManager.append`, the CS client log)
    pays one function call per record instead of five.  The encoded
    bytes are cached on the record.  Raises :class:`ValueError`, leaving
    no encoding cached, if the record fits no shape its kind allows.
    """
    d = record.__dict__
    d["lsn"] = lsn
    d["system_id"] = system_id
    kind = d["kind"]
    try:
        shape = _SHAPES[kind]
        if shape is _PAGE and not d["undo_next_lsn"]:
            # The narrow fit rule: prev_lsn is stored as the delta back
            # from lsn (0 = none); a previous record at or past lsn has
            # none and maps to -1.  x >> 32 is non-zero exactly when x
            # is negative or needs more than 32 bits, and so is the OR
            # of two such fields.
            prev_lsn = d["prev_lsn"]
            if prev_lsn:
                prev_lsn = lsn - prev_lsn or -1
            txn_id = d["txn_id"]
            if d["extra"] or (txn_id | prev_lsn) >> 32:
                data = _encode_full(kind | _FULL_BIT, d, lsn, system_id)
            else:
                redo = d["redo"]
                undo = d["undo"]
                data = shape.pack(
                    kind, lsn, prev_lsn, txn_id, d["page_id"], system_id,
                    d["slot"], len(redo), len(undo),
                ) + redo + undo
        elif shape is _CONTROL and d["page_id"] == NO_PAGE \
                and d["slot"] == NO_SLOT and not (
                    d["undo_next_lsn"] or d["redo"] or d["undo"]
                    or d["extra"]):
            prev_lsn = d["prev_lsn"]
            if prev_lsn:
                prev_lsn = lsn - prev_lsn or -1
            txn_id = d["txn_id"]
            if (txn_id | prev_lsn) >> 32:
                data = _encode_full(kind | _FULL_BIT, d, lsn, system_id)
            else:
                data = shape.pack(kind, lsn, prev_lsn, txn_id, system_id)
        elif shape is _FULL and kind < _FULL_BIT:
            data = _encode_full(kind, d, lsn, system_id)
        else:
            raise _misfit(record)
    except (struct.error, IndexError) as err:
        raise _misfit(record) from err
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
    the header shapes so a 64-record batch of narrow records pays zero
    per-record function calls: LSN assignment follows the USN rule
    (``max(page_lsn, running_lsn) + 1``, degenerating to ``+1`` when
    ``page_lsns`` is omitted), fields are stamped through ``__dict__``
    (skipping the invalidation hook — the fresh encoding is installed
    in the same breath), and each record is encoded and cached exactly
    as :func:`stamp_and_encode` would, misfits raising alike.
    """
    parts: List[bytes] = []
    note_part = parts.append
    for record, page_lsn in zip(
            records, repeat(0) if page_lsns is None else page_lsns):
        if page_lsn > lsn:
            lsn = page_lsn
        lsn += 1
        d = record.__dict__
        d["lsn"] = lsn
        d["system_id"] = system_id
        kind = d["kind"]
        try:
            shape = _SHAPES[kind]
            if shape is _PAGE and not d["undo_next_lsn"]:
                prev_lsn = d["prev_lsn"]
                if prev_lsn:
                    prev_lsn = lsn - prev_lsn or -1
                txn_id = d["txn_id"]
                if d["extra"] or (txn_id | prev_lsn) >> 32:
                    data = _encode_full(kind | _FULL_BIT, d, lsn, system_id)
                else:
                    redo = d["redo"]
                    undo = d["undo"]
                    data = shape.pack(
                        kind, lsn, prev_lsn, txn_id, d["page_id"],
                        system_id, d["slot"], len(redo), len(undo),
                    ) + redo + undo
            elif shape is _CONTROL and d["page_id"] == NO_PAGE \
                    and d["slot"] == NO_SLOT and not (
                        d["undo_next_lsn"] or d["redo"] or d["undo"]
                        or d["extra"]):
                prev_lsn = d["prev_lsn"]
                if prev_lsn:
                    prev_lsn = lsn - prev_lsn or -1
                txn_id = d["txn_id"]
                if (txn_id | prev_lsn) >> 32:
                    data = _encode_full(kind | _FULL_BIT, d, lsn, system_id)
                else:
                    data = shape.pack(kind, lsn, prev_lsn, txn_id,
                                      system_id)
            elif shape is _FULL and kind < _FULL_BIT:
                data = _encode_full(kind, d, lsn, system_id)
            else:
                raise _misfit(record)
        except (struct.error, IndexError) as err:
            raise _misfit(record) from err
        d["_encoded"] = data
        note_part(data)
    return parts, lsn


# ----------------------------------------------------------------------
# checkpoint payloads
# ----------------------------------------------------------------------
_CKPT_HDR = struct.Struct("<HH")
_DPT_ENTRY = struct.Struct("<IQQ")     # page_id, rec_lsn, rec_addr_offset
_TT_ENTRY = struct.Struct("<QQB")      # txn_id, last_lsn, reserved (0)


@dataclass
class CheckpointData:
    """Serializable content of an END_CHECKPOINT record.

    ``dirty_pages`` maps page_id -> (RecLSN, RecAddr offset): the LSN of
    the first update that dirtied the page plus the local-log byte
    offset of that record (the paper's RecAddr, Section 3.2.2, which
    bounds where the restart redo scan must begin).

    ``transactions`` maps txn_id -> last_lsn for the transactions still
    in flight: a COMMIT forgets its transaction, so a committed one is
    never listed.  Each entry keeps a reserved state byte, always 0.
    """

    dirty_pages: Dict[int, Tuple[Lsn, int]] = field(default_factory=dict)
    transactions: Dict[int, Lsn] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        parts: List[bytes] = [
            _CKPT_HDR.pack(len(self.dirty_pages), len(self.transactions))
        ]
        for page_id in sorted(self.dirty_pages):
            rec_lsn, rec_addr = self.dirty_pages[page_id]
            parts.append(_DPT_ENTRY.pack(page_id, rec_lsn, rec_addr))
        for txn_id in sorted(self.transactions):
            parts.append(_TT_ENTRY.pack(txn_id, self.transactions[txn_id], 0))
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
        txns: Dict[int, Lsn] = {}
        for _ in range(n_tt):
            txn_id, last_lsn, _ = _TT_ENTRY.unpack_from(data, pos)
            txns[txn_id] = last_lsn
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
