"""Human-readable log inspection.

Debugging multi-system recovery means reading logs; this module renders
a local log (or the CS server's interleaved log) as a table, decodes
operation payloads, and lists one transaction's or one page's records.
Used by developers and a handful of tests; never by recovery itself.
"""

from __future__ import annotations

from typing import List, Optional

from repro.wal.log_manager import LogManager
from repro.wal.records import (
    CheckpointData,
    LogRecord,
    NO_PAGE,
    PageOp,
    RecordKind,
    decode_op,
    iter_slots,
)

_KIND_ABBREV = {
    RecordKind.UPDATE: "UPD",
    RecordKind.CLR: "CLR",
    RecordKind.COMMIT: "CMT",
    RecordKind.ABORT: "ABT",
    RecordKind.END: "END",
    RecordKind.BEGIN_CHECKPOINT: "BCK",
    RecordKind.END_CHECKPOINT: "ECK",
    RecordKind.FORMAT_PAGE: "FMT",
    RecordKind.SMP_UPDATE: "SMP",
    RecordKind.DUMMY: "DMY",
}


def describe_op(payload: bytes) -> str:
    """Render an operation payload compactly."""
    if not payload:
        return "-"
    op, data = decode_op(payload)
    if op is PageOp.SET or op is PageOp.INSERT:
        preview = data[:12]
        suffix = "..." if len(data) > 12 else ""
        return f"{op.name}({preview!r}{suffix})"
    if op is PageOp.FORMAT:
        return f"FORMAT(type={data[0]})"
    if op is PageOp.XOR:
        return f"XOR({len(data)}B)"
    if op is PageOp.SLOTS:
        entries = [f"s{slot} {describe_op(entry)}"
                   for slot, entry in iter_slots(data)]
        return f"SLOTS({len(entries)}: {', '.join(entries)})"
    return op.name


def describe_record(offset: int, record: LogRecord) -> str:
    """One line per record: offset, LSN, encoded length, kind (marked
    ``+full`` when a control or page record overflowed its narrow
    header), txn, page/slot, ops."""
    data = record.to_bytes()
    kind = _KIND_ABBREV.get(record.kind, str(record.kind))
    if data[0] != record.kind:
        kind += "+full"
    page = "" if record.page_id == NO_PAGE else \
        f" p{record.page_id}.{record.slot}"
    txn = f" t{record.txn_id}" if record.txn_id else ""
    parts = [f"@{offset:<7} lsn={record.lsn:<6} {len(data):>4}B "
             f"{kind}{txn}{page}"]
    if record.redo:
        parts.append(f"redo={describe_op(record.redo)}")
    if record.undo:
        parts.append(f"undo={describe_op(record.undo)}")
    if record.kind == RecordKind.CLR:
        parts.append(f"undo_next={record.undo_next_lsn}")
    if record.kind == RecordKind.END_CHECKPOINT and record.extra:
        data = CheckpointData.from_bytes(record.extra)
        parts.append(
            f"dpt={len(data.dirty_pages)} txns={len(data.transactions)}"
        )
    return " ".join(parts)


def dump_log(log: LogManager, from_offset: int = 0,
             limit: Optional[int] = None) -> str:
    """The whole log (or a slice) as a readable multi-line string."""
    lines = [
        f"log of system {log.system_id}: {log.end_offset} bytes, "
        f"{log.flushed_offset} flushed, archived below "
        f"{log.archived_offset}, Local_Max_LSN={log.local_max_lsn}"
    ]
    for i, (addr, record) in enumerate(log.scan(from_offset=from_offset)):
        if limit is not None and i >= limit:
            lines.append(f"... (truncated at {limit} records)")
            break
        lines.append(describe_record(addr.offset, record))
    return "\n".join(lines)


def transaction_history(log: LogManager, txn_id: int) -> List[str]:
    """Every record of one transaction, rendered in log order."""
    return [
        describe_record(addr.offset, record)
        for addr, record in log.scan()
        if record.txn_id == txn_id
    ]


def page_history(log: LogManager, page_id: int) -> List[str]:
    """Every record describing one page, rendered in log order."""
    return [
        describe_record(addr.offset, record)
        for addr, record in log.scan()
        if record.page_id == page_id
    ]
