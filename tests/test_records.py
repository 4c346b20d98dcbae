"""Tests for log record serialization."""

import re
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.wal import records as records_mod
from repro.wal.records import (
    CheckpointData,
    LogRecord,
    MAX_OPERAND,
    NO_PAGE,
    NO_SLOT,
    PageOp,
    RecordKind,
    decode_op,
    encode_op,
    encode_overwrite,
    encode_page_run,
    iter_slots,
    make_clr,
    make_format,
    make_update,
    record_spans,
    stamp_and_encode,
    stamp_and_encode_batch,
)

#: The header each kind is written with when its fields fit (see the
#: records module docstring): control 19 B, page 29 B, full 48 B; the
#: full shape is also every kind's fallback.
CONTROL_KINDS = (RecordKind.COMMIT, RecordKind.ABORT, RecordKind.END)
PAGE_KINDS = (RecordKind.UPDATE, RecordKind.SMP_UPDATE,
              RecordKind.FORMAT_PAGE)
FULL_HEADER = 48
HEADER_BYTES = {kind: 19 if kind in CONTROL_KINDS
                else 29 if kind in PAGE_KINDS else FULL_HEADER
                for kind in RecordKind}
U32 = 2**32


def fits_narrow(record):
    """The narrow-shape rule, restated: a control or page record whose
    txn id and prev-LSN delta fit 32 bits and that carries no extra."""
    return (record.kind in CONTROL_KINDS + PAGE_KINDS
            and record.txn_id < U32 and not record.extra
            and (not record.prev_lsn
                 or 0 < record.lsn - record.prev_lsn < U32))


def header_bytes(record):
    """The header ``record`` is written with."""
    return HEADER_BYTES[record.kind] if fits_narrow(record) else FULL_HEADER


def kind_byte(record):
    """The kind byte ``record`` is written with: the high bit marks a
    control or page record in its full-shape fallback."""
    narrow = record.kind in CONTROL_KINDS + PAGE_KINDS
    return record.kind | (0x80 if narrow and not fits_narrow(record) else 0)


class TestOpCodec:
    def test_roundtrip(self):
        op, data = decode_op(encode_op(PageOp.SET, b"abc"))
        assert op == PageOp.SET
        assert data == b"abc"

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            decode_op(b"")

    def test_no_operand(self):
        op, data = decode_op(encode_op(PageOp.DELETE))
        assert op == PageOp.DELETE
        assert data == b""


class TestRecordSerialization:
    def test_roundtrip_all_fields(self):
        record = LogRecord(
            kind=RecordKind.CLR, txn_id=1_000_003, system_id=7,
            page_id=42, slot=3, lsn=99, prev_lsn=55, undo_next_lsn=11,
            redo=b"redo-bytes", undo=b"undo-bytes", extra=b"extra",
        )
        clone, offset = LogRecord.from_bytes(record.to_bytes())
        assert clone == record
        assert offset == len(record.to_bytes())

    def test_serialized_size(self):
        record = make_update(1, 1, 5, 0, redo=b"1234", undo=b"56")
        assert len(record.to_bytes()) == 29 + 6

    @pytest.mark.parametrize("kind", list(RecordKind))
    def test_serialized_size_is_the_encoding_for_every_kind(self, kind):
        payload = {} if kind in CONTROL_KINDS else dict(
            page_id=3, slot=1, redo=b"redo", undo=b"un")
        if kind not in CONTROL_KINDS + PAGE_KINDS:
            payload["extra"] = b"x"
        record = LogRecord(kind=kind, txn_id=5, lsn=9, **payload)
        payload_bytes = sum(len(payload.get(name, b""))
                            for name in ("redo", "undo", "extra"))
        assert len(record.to_bytes()) == HEADER_BYTES[kind] + payload_bytes

    def test_defaults(self):
        record = LogRecord(kind=RecordKind.COMMIT, txn_id=9)
        assert record.page_id == NO_PAGE
        assert record.slot == NO_SLOT
        assert not record.is_page_oriented()

    def test_parse_stream(self):
        records = [
            make_update(1, 1, 5, 0, redo=b"a", undo=b"b"),
            LogRecord(kind=RecordKind.COMMIT, txn_id=1),
            make_format(1, 1, 9, 1),
        ]
        data = b"".join(r.to_bytes() for r in records)
        parsed = list(LogRecord.parse_stream(data))
        assert [r for _, r in parsed] == records
        offsets = [o for o, _ in parsed]
        assert offsets[0] == 0
        assert offsets[1] == len(records[0].to_bytes())

    def test_undoable_classification(self):
        assert make_update(1, 1, 5, 0, b"a", b"b").is_undoable()
        assert not make_clr(1, 1, 5, 0, b"a", undo_next_lsn=3).is_undoable()
        assert not make_format(1, 1, 9, 1).is_undoable()
        assert not LogRecord(kind=RecordKind.COMMIT).is_undoable()
        assert LogRecord(kind=RecordKind.SMP_UPDATE).is_undoable()

    def test_clr_is_redo_only(self):
        clr = make_clr(1, 1, 5, 0, redo=b"comp", undo_next_lsn=44)
        assert clr.undo == b""
        assert clr.undo_next_lsn == 44

    def test_format_record_carries_page_type(self):
        fmt = make_format(1, 2, page_id=30, page_type=2)
        op, data = decode_op(fmt.redo)
        assert op == PageOp.FORMAT
        assert data == bytes([2])

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(list(RecordKind)),
        txn_id=st.integers(0, 2**63),
        system_id=st.integers(0, 2**16 - 1),
        page_id=st.integers(0, 2**32 - 1),
        slot=st.integers(0, 2**16 - 1),
        lsn=st.integers(0, 2**63),
        prev_lsn=st.integers(0, 2**63),
        undo_next_lsn=st.integers(0, 2**63),
        redo=st.binary(max_size=200),
        undo=st.binary(max_size=200),
        extra=st.binary(max_size=200),
    )
    def test_property_roundtrip(self, kind, txn_id, system_id, page_id,
                                slot, lsn, prev_lsn, undo_next_lsn,
                                redo, undo, extra):
        # Only the fields the kind's header shape carries.
        if kind in CONTROL_KINDS:
            page_id, slot, undo_next_lsn = NO_PAGE, NO_SLOT, 0
            redo = undo = extra = b""
        elif kind in PAGE_KINDS:
            undo_next_lsn = 0
        record = LogRecord(
            kind=kind, txn_id=txn_id, system_id=system_id, page_id=page_id,
            slot=slot, lsn=lsn, prev_lsn=prev_lsn,
            undo_next_lsn=undo_next_lsn, redo=redo, undo=undo, extra=extra,
        )
        data = record.to_bytes()
        clone, offset = LogRecord.from_bytes(data)
        assert clone == record
        assert offset == len(data) == header_bytes(record) + len(
            redo + undo + extra)
        assert data[0] == kind_byte(record)
        assert record_spans(data) == [(lsn, 0, len(data))]


class TestHeaderShapes:
    """A record is written with its kind's header and nothing else; a
    record with a field its shape cannot carry is refused, never
    truncated."""

    @pytest.mark.parametrize("record", [
        # control: no page, no slot, no payload, no undo_next_lsn
        LogRecord(RecordKind.COMMIT, txn_id=1, page_id=4),
        LogRecord(RecordKind.END, txn_id=1, slot=0),
        LogRecord(RecordKind.ABORT, txn_id=1, redo=b"r"),
        # page: no undo_next_lsn
        LogRecord(RecordKind.UPDATE, txn_id=1, page_id=4, slot=0,
                  undo_next_lsn=3, redo=b"r", undo=b"u"),
        # full: every field, each within its width
        LogRecord(RecordKind.CLR, txn_id=1, page_id=4, slot=2**16,
                  undo_next_lsn=3, redo=b"r"),
        LogRecord(RecordKind.DUMMY, redo=bytes(2**16)),
    ], ids=["commit-page", "end-slot", "abort-payload", "update-undo-next",
            "clr-wide-slot", "dummy-wide-payload"])
    def test_out_of_shape_record_raises(self, record):
        with pytest.raises(ValueError, match="header shape"):
            record.to_bytes()
        with pytest.raises(ValueError, match="header shape"):
            stamp_and_encode(record, 7, 1)
        with pytest.raises(ValueError, match="header shape"):
            stamp_and_encode_batch([record], 0, 1)
        assert "_encoded" not in vars(record)

    def test_unknown_kind_byte_raises(self):
        with pytest.raises(ValueError, match="header shape"):
            LogRecord(0).to_bytes()
        data = bytearray(LogRecord(RecordKind.COMMIT, txn_id=1).to_bytes())
        data[0] = 0
        with pytest.raises(ValueError, match="no record kind"):
            LogRecord.from_bytes(data)
        with pytest.raises(ValueError, match="no record kind"):
            record_spans(data)

    def test_spans_agree_with_parse_stream(self):
        lomet_update = LogRecord(
            RecordKind.UPDATE, txn_id=2, page_id=8, slot=1, redo=b"new",
            undo=b"old", extra=(1234).to_bytes(8, "little"))
        records = [
            make_update(1, 1, 5, 0, redo=b"a" * 10, undo=b"b" * 3),
            lomet_update,
            LogRecord(RecordKind.BEGIN_CHECKPOINT),
            LogRecord(RecordKind.END_CHECKPOINT,
                      redo=CheckpointData({5: (1, 0)}, {1: 1}).to_bytes()),
            make_clr(1, 1, 5, 0, redo=b"c" * 4, undo_next_lsn=0),
            LogRecord(RecordKind.ABORT, txn_id=1),
            make_format(3, 1, 9, 1),
            LogRecord(RecordKind.SMP_UPDATE, txn_id=3, page_id=0, slot=0,
                      redo=b"s", undo=b"t"),
            LogRecord(RecordKind.DUMMY, redo=b"f" * 20),
            LogRecord(RecordKind.COMMIT, txn_id=3),
            LogRecord(RecordKind.END, txn_id=3),
        ]
        assert {r.kind for r in records} == set(RecordKind)
        parts, _ = stamp_and_encode_batch(records, 40, 1)
        data = b"".join(parts)
        parsed = list(LogRecord.parse_stream(data))
        assert [r for _, r in parsed] == records
        ends = [offset for offset, _ in parsed[1:]] + [len(data)]
        assert record_spans(data) == [
            (record.lsn, offset, end)
            for (offset, record), end in zip(parsed, ends)]
        assert record_spans(memoryview(data)) == record_spans(data)


def _record(kind, wide=False, **fields):
    """A record of ``kind`` with every field its shape carries set;
    ``wide`` puts its txn id out of the narrow shapes' reach."""
    base = dict(txn_id=2**40 if wide else 7, system_id=2, prev_lsn=40)
    if kind not in CONTROL_KINDS:
        base.update(page_id=9, slot=1, redo=b"redo", undo=b"un")
    if kind not in CONTROL_KINDS + PAGE_KINDS:
        base.update(undo_next_lsn=3, extra=b"x")
    base.update(fields)
    return LogRecord(kind, **base)


class TestNarrowAndFullShapes:
    """Control and page records take their narrow header whenever the
    fields fit and the full shape, kind byte | 0x80, when they do not;
    every encoder agrees byte for byte, and every reader follows."""

    @pytest.mark.parametrize("wide", [False, True], ids=["fits", "wide"])
    @pytest.mark.parametrize("kind", list(RecordKind),
                             ids=[kind.name for kind in RecordKind])
    def test_three_encoders_agree(self, kind, wide):
        by_to_bytes, by_stamp, by_batch = (
            _record(kind, wide) for _ in range(3))
        by_to_bytes.lsn = 50
        by_to_bytes.system_id = 4
        slow = by_to_bytes.to_bytes()
        assert stamp_and_encode(by_stamp, 50, 4) == slow
        assert stamp_and_encode_batch([by_batch], 49, 4) == ([slow], 50)
        assert by_to_bytes == by_stamp == by_batch
        payload = len(by_to_bytes.redo + by_to_bytes.undo
                      + by_to_bytes.extra)
        expected = FULL_HEADER if wide else HEADER_BYTES[kind]
        assert len(slow) == expected + payload
        narrow = kind in CONTROL_KINDS + PAGE_KINDS
        assert slow[0] == kind | (0x80 if wide and narrow else 0)
        assert LogRecord.from_bytes(slow) == (by_to_bytes, len(slow))
        assert record_spans(slow) == [(50, 0, len(slow))]

    @pytest.mark.parametrize("fields", [
        dict(txn_id=U32 - 1),
        dict(prev_lsn=0),
        dict(lsn=U32 + 5, prev_lsn=6),          # delta 2**32 - 1
        dict(lsn=2**63, prev_lsn=2**63 - 1),    # delta 1, LSN past u32
    ], ids=["widest-txn", "no-prev", "widest-delta", "wide-lsn"])
    @pytest.mark.parametrize("kind", CONTROL_KINDS + PAGE_KINDS,
                             ids=lambda kind: kind.name)
    def test_narrow_whenever_the_fields_fit(self, kind, fields):
        record = _record(kind, **{"lsn": 50, **fields})
        data = record.to_bytes()
        assert data[0] == kind
        assert len(data) == HEADER_BYTES[kind] + len(record.redo
                                                     + record.undo)
        assert LogRecord.from_bytes(data)[0] == record

    @pytest.mark.parametrize("fields", [
        dict(txn_id=2**40),
        dict(lsn=2**33 + 50, prev_lsn=50),      # delta 2**33
        dict(lsn=U32 + 6, prev_lsn=6),          # delta 2**32
        dict(lsn=50, prev_lsn=50),              # prev_lsn >= lsn
        dict(lsn=50, prev_lsn=51),
    ], ids=["txn-2**40", "delta-2**33", "delta-2**32", "prev-equal",
            "prev-after"])
    @pytest.mark.parametrize("kind", CONTROL_KINDS + PAGE_KINDS,
                             ids=lambda kind: kind.name)
    def test_overflow_falls_back_to_the_full_shape(self, kind, fields):
        record = _record(kind, **fields)
        data = record.to_bytes()
        assert data[0] == kind | 0x80
        assert len(data) == FULL_HEADER + len(record.redo + record.undo)
        assert LogRecord.from_bytes(data) == (record, len(data))
        assert record_spans(data) == [(record.lsn, 0, len(data))]

    def test_lomet_bsi_update_falls_back_to_the_full_shape(self):
        bsi = (1234).to_bytes(8, "little")
        record = LogRecord(RecordKind.UPDATE, txn_id=2, page_id=8, slot=1,
                           lsn=9, redo=b"new", undo=b"old", extra=bsi)
        data = record.to_bytes()
        assert data[0] == RecordKind.UPDATE | 0x80
        assert len(data) == FULL_HEADER + 6 + len(bsi)
        assert LogRecord.from_bytes(data) == (record, len(data))

    def test_mixed_stream_parses_and_spans(self):
        """Narrow and fallback records of the same kinds, interleaved,
        through the batch encoder, ``parse_stream`` and
        ``record_spans``."""
        records = [
            _record(RecordKind.UPDATE, prev_lsn=0),
            _record(RecordKind.UPDATE, wide=True),
            _record(RecordKind.COMMIT),
            _record(RecordKind.COMMIT, prev_lsn=2**40),   # prev >= lsn
            _record(RecordKind.CLR),
            _record(RecordKind.UPDATE, extra=b"bsi"),
            _record(RecordKind.END, wide=True),
            _record(RecordKind.SMP_UPDATE),
            _record(RecordKind.FORMAT_PAGE, prev_lsn=1),  # delta > 2**32
            _record(RecordKind.ABORT),
        ]
        parts, _ = stamp_and_encode_batch(records, U32 + 40, 3)
        assert [part[0] for part in parts] == [
            kind_byte(record) for record in records]
        assert {part[0] >= 0x80 for part in parts} == {False, True}
        data = b"".join(parts)
        parsed = list(LogRecord.parse_stream(data))
        assert [record for _, record in parsed] == records
        ends = [offset for offset, _ in parsed[1:]] + [len(data)]
        assert record_spans(data) == [
            (record.lsn, offset, end)
            for (offset, record), end in zip(parsed, ends)]

    def test_high_bit_names_only_kinds_with_a_narrow_shape(self):
        clr = bytearray(_record(RecordKind.CLR, lsn=50).to_bytes())
        clr[0] |= 0x80
        with pytest.raises(ValueError, match="no record kind"):
            LogRecord.from_bytes(clr)
        with pytest.raises(ValueError, match="no record kind"):
            record_spans(clr)
        with pytest.raises(ValueError, match="header shape"):
            LogRecord(RecordKind.UPDATE | 0x80, page_id=1, slot=0).to_bytes()


class TestOverwriteOps:
    """An equal-length overwrite logs one self-inverse XOR image and no
    undo; a length-changing one keeps the two-image SET."""

    @pytest.mark.parametrize("size", [1, 32, 64, 300])
    def test_equal_lengths_encode_one_xor_image(self, size):
        old = bytes(i % 256 for i in range(size))
        new = bytes(b ^ 0x5A for b in old)
        redo, undo = encode_overwrite(old, new)
        assert undo == b""
        op, delta = decode_op(redo)
        assert op is PageOp.XOR and len(delta) == size
        assert bytes(a ^ b for a, b in zip(old, delta)) == new
        records = [make_update(3, 0, 7, 2, redo, undo, prev_lsn=40)
                   for _ in range(3)]
        records[0].lsn, records[0].system_id = 50, 4
        slow = records[0].to_bytes()
        assert stamp_and_encode(records[1], 50, 4) == slow
        assert stamp_and_encode_batch([records[2]], 49, 4) == ([slow], 50)
        assert slow[0] == RecordKind.UPDATE
        assert len(slow) == HEADER_BYTES[RecordKind.UPDATE] + 1 + size
        assert LogRecord.from_bytes(slow) == (records[0], len(slow))
        assert record_spans(slow) == [(50, 0, len(slow))]

    @pytest.mark.parametrize("old, new", [
        (b"abc", b"abcd"), (b"abcd", b"abc"), (b"v0", b"r000")])
    def test_unequal_lengths_stay_two_image_set(self, old, new):
        redo, undo = encode_overwrite(old, new)
        assert redo == encode_op(PageOp.SET, new)
        assert undo == encode_op(PageOp.SET, old)
        data = make_update(3, 0, 7, 2, redo, undo).to_bytes()
        assert len(data) == HEADER_BYTES[RecordKind.UPDATE] + 2 + len(
            old + new)

    def test_identical_payloads_log_a_zero_delta(self):
        assert encode_overwrite(b"same", b"same") == (
            encode_op(PageOp.XOR, bytes(4)), b"")

    @given(st.integers(1, 64).flatmap(
        lambda n: st.tuples(st.binary(min_size=n, max_size=n),
                            st.binary(min_size=n, max_size=n))))
    def test_property_xor_is_its_own_inverse(self, pair):
        old, new = pair
        _, delta = decode_op(encode_overwrite(old, new)[0])
        assert bytes(a ^ b for a, b in zip(old, delta)) == new
        assert bytes(a ^ b for a, b in zip(new, delta)) == old


class TestPageRunOps:
    def test_one_change_is_logged_as_it_stands(self):
        redo, _ = encode_overwrite(b"abc", b"xyz")
        assert encode_page_run([(4, redo)]) == [(4, redo)]

    def test_xor_run_is_one_self_inverse_slots_image(self):
        changes = [(slot, encode_overwrite(b"%02d" % slot, b"xx")[0])
                   for slot in (3, 1, 3)]
        ((slot, redo),) = encode_page_run(changes)
        assert slot == NO_SLOT
        assert redo[0] == PageOp.SLOTS
        assert list(iter_slots(redo[1:])) == changes
        assert len(redo) == 1 + 3 * (4 + 1 + 2)

    def test_run_past_the_u16_length_goes_on_in_a_new_record(self):
        """Entries are packed into each record while its redo fits
        ``MAX_OPERAND``; a record left with one entry logs it as it
        stands."""
        op = encode_overwrite(bytes(4000), b"v" * 4000)[0]
        entry = 4 + len(op)
        per_record = (MAX_OPERAND - 1) // entry
        changes = [(slot % 3, op) for slot in range(2 * per_record + 1)]
        records = encode_page_run(changes)
        assert [len(redo) for _, redo in records] == \
            [1 + per_record * entry] * 2 + [len(op)]
        assert all(len(redo) <= MAX_OPERAND for _, redo in records)
        assert records[-1] == changes[-1]
        assert [change for _, redo in records[:2]
                for change in iter_slots(redo[1:])] == changes[:-1]

    @pytest.mark.parametrize("operand", [b"\x01", b"\x01\x00\x05\x00abc"])
    def test_truncated_entry_raises(self, operand):
        with pytest.raises(ValueError, match="truncated"):
            list(iter_slots(operand))


def _docstring_table():
    """Field -> (control, page, full) byte widths, from the records
    module docstring's shape table."""
    lines = records_mod.__doc__.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("=" * 14)]
    widths = {}
    for line in lines[rules[1] + 1:rules[2]]:
        name = line[:16].strip()
        if name:
            widths[name] = tuple(
                int(cell) if cell.strip() else 0
                for cell in (line[16:25], line[25:31], line[31:37]))
    return widths


def test_docstring_shape_table_is_the_codec():
    """The module docstring's table lists the three header layouts
    field by field, in order, with the sizes the codec packs."""
    table = _docstring_table()
    sizes = table.pop("header size")
    shapes = (records_mod._CONTROL, records_mod._PAGE, records_mod._FULL)
    assert sizes == tuple(shape.size for shape in shapes) == (19, 29, 48)
    for column, shape in enumerate(shapes):
        listed = [width[column] for width in table.values() if width[column]]
        packed = [struct.calcsize("<" + code)
                  for code in re.findall(r"[A-Za-z]", shape.format[1:])]
        assert listed == packed
        assert sum(listed) == sizes[column]
    assert list(table) == [
        "kind", "lsn", "prev_lsn", "txn_id", "undo_next_lsn", "page_id",
        "system_id", "slot", "redo_len", "undo_len", "extra_len",
        "padding"]


class TestCheckpointData:
    def test_roundtrip(self):
        data = CheckpointData(
            dirty_pages={10: (100, 2048), 20: (200, 4096)},
            transactions={1_000_001: 150, 2_000_001: 250},
        )
        clone = CheckpointData.from_bytes(data.to_bytes())
        assert clone.dirty_pages == data.dirty_pages
        assert clone.transactions == data.transactions

    def test_empty(self):
        clone = CheckpointData.from_bytes(CheckpointData().to_bytes())
        assert clone.dirty_pages == {}
        assert clone.transactions == {}

    @settings(max_examples=50, deadline=None)
    @given(
        dpt=st.dictionaries(st.integers(0, 2**32 - 1),
                            st.tuples(st.integers(0, 2**63),
                                      st.integers(0, 2**63)),
                            max_size=30),
        tt=st.dictionaries(st.integers(0, 2**63), st.integers(0, 2**63),
                           max_size=30),
    )
    def test_property_roundtrip(self, dpt, tt):
        data = CheckpointData(dirty_pages=dpt, transactions=tt)
        clone = CheckpointData.from_bytes(data.to_bytes())
        assert clone.dirty_pages == dpt
        assert clone.transactions == tt


class TestZeroCopyParsing:
    """PR 3 fast lane: ``parse_stream``/``from_bytes`` accept
    ``memoryview`` and never copy the buffer for header parsing."""

    def _stream(self):
        records = [
            make_update(1, 1, 5, 0, redo=b"a" * 10, undo=b"b" * 10),
            LogRecord(kind=RecordKind.COMMIT, txn_id=1),
            make_format(1, 1, 9, 1),
        ]
        return records, b"".join(r.to_bytes() for r in records)

    def test_parse_stream_accepts_memoryview(self):
        records, data = self._stream()
        parsed = [r for _, r in LogRecord.parse_stream(memoryview(data))]
        assert parsed == records

    def test_parse_stream_accepts_bytearray(self):
        records, data = self._stream()
        parsed = [r for _, r in LogRecord.parse_stream(bytearray(data))]
        assert parsed == records

    def test_from_bytes_accepts_memoryview_at_offset(self):
        records, data = self._stream()
        offset = len(records[0].to_bytes())
        clone, _ = LogRecord.from_bytes(memoryview(data), offset)
        assert clone == records[1]

    def test_no_intermediate_bytes_for_headers(self, monkeypatch):
        """Regression: every header unpack must happen against the one
        shared memoryview — no per-record slicing/copying of the input
        buffer on the header path."""
        from repro.wal import records as records_mod

        seen_buffers = []

        records, data = self._stream()  # serialize before installing spies

        class SpyShape:
            def __init__(self, real):
                self.real = real
                self.size = real.size

            def unpack_from(self, buffer, offset=0):
                seen_buffers.append(buffer)
                return self.real.unpack_from(buffer, offset)

        spies = {}
        for name in ("_CONTROL", "_PAGE", "_FULL"):
            real = getattr(records_mod, name)
            spies[real] = SpyShape(real)
            monkeypatch.setattr(records_mod, name, spies[real])
        monkeypatch.setattr(records_mod, "_SHAPES", tuple(
            spies.get(shape, shape) for shape in records_mod._SHAPES))
        view = memoryview(data)
        parsed = [r for _, r in LogRecord.parse_stream(view)]
        assert parsed == records
        assert len(seen_buffers) == len(records)
        for buffer in seen_buffers:
            assert buffer is view, "header parsed from a copied buffer"


#: One record per header shape, with every field that shape carries
#: set away from its default.
_BASES = {
    "control": dict(kind=RecordKind.COMMIT, txn_id=7, system_id=2, lsn=5,
                    prev_lsn=4),
    "page": dict(kind=RecordKind.UPDATE, txn_id=7, system_id=2, page_id=9,
                 slot=1, lsn=5, prev_lsn=4, redo=b"r", undo=b"u"),
    "full": dict(kind=RecordKind.CLR, txn_id=7, system_id=2, page_id=9,
                 slot=1, lsn=5, prev_lsn=4, undo_next_lsn=3, redo=b"r",
                 undo=b"u", extra=b"e"),
}


def _built_by_init(shape="full"):
    return LogRecord(**_BASES[shape])


def _built_by_from_bytes(shape="full"):
    record, _ = LogRecord.from_bytes(_built_by_init(shape).to_bytes())
    return record


def _built_by_stamp_and_encode(shape="full"):
    record = _built_by_init(shape)
    stamp_and_encode(record, 5, 2)
    return record


_FRESH_VALUES = {
    "txn_id": 70, "system_id": 20, "page_id": 90,
    "slot": 10, "lsn": 50, "prev_lsn": 40, "undo_next_lsn": 30,
    "redo": b"redo!", "undo": b"undo!", "extra": b"extra!",
}
#: A fresh kind keeps the record in its shape.
_FRESH_KIND = {"control": RecordKind.ABORT, "page": RecordKind.SMP_UPDATE,
               "full": RecordKind.DUMMY}
#: Every field of every shape, and ``extra`` on a page record (which
#: moves it to the full shape); the full shape keeps the bare field id.
_SHAPE_FIELDS = [
    pytest.param(shape, field,
                 id=field if shape == "full" else f"{shape}-{field}")
    for shape, base in _BASES.items()
    for field in sorted({*base, "extra"} if shape == "page" else base)]


class TestEncodingCache:
    def test_to_bytes_is_cached(self):
        record = make_update(1, 1, 5, 0, redo=b"r", undo=b"u")
        assert record.to_bytes() is record.to_bytes()

    def test_field_assignment_invalidates_cache(self):
        record = make_update(1, 1, 5, 0, redo=b"r", undo=b"u")
        first = record.to_bytes()
        record.lsn = 42
        second = record.to_bytes()
        assert second is not first
        clone, _ = LogRecord.from_bytes(second)
        assert clone.lsn == 42

    def test_cache_never_leaks_into_equality(self):
        cached = make_update(1, 1, 5, 0, redo=b"r", undo=b"u")
        cached.to_bytes()
        fresh = make_update(1, 1, 5, 0, redo=b"r", undo=b"u")
        assert cached == fresh

    def test_parsed_record_reserializes_identically(self):
        record = make_update(3, 2, 7, 1, redo=b"xy", undo=b"z")
        record.lsn = 9
        data = record.to_bytes()
        clone, _ = LogRecord.from_bytes(data)
        assert clone.to_bytes() == data

    # The invalidation guarantee, field by field, for every way a
    # record comes to hold a cached encoding: a field assignment after
    # encoding never yields stale bytes.
    @pytest.mark.parametrize("shape, field", _SHAPE_FIELDS)
    @pytest.mark.parametrize("build", [
        _built_by_init, _built_by_from_bytes, _built_by_stamp_and_encode,
    ])
    def test_assignment_after_encoding_is_fresh(self, build, shape, field):
        value = _FRESH_KIND[shape] if field == "kind" else _FRESH_VALUES[field]
        record = build(shape)
        stale = record.to_bytes()
        assert record.to_bytes() is stale          # cached
        setattr(record, field, value)
        fresh = record.to_bytes()
        assert fresh != stale
        clone, _ = LogRecord.from_bytes(fresh)
        assert getattr(clone, field) == value
        assert clone == record

    def test_fields_cover_the_dataclass(self):
        import dataclasses

        assert set(_BASES["full"]) == {
            f.name for f in dataclasses.fields(LogRecord)}

    def test_init_matches_generated_signature(self):
        """The hand-written __init__ keeps the dataclass contract:
        field order, defaults, positional and keyword use."""
        import dataclasses

        defaults = LogRecord(RecordKind.COMMIT)
        for f in dataclasses.fields(LogRecord)[1:]:
            assert getattr(defaults, f.name) == f.default
        positional = LogRecord(RecordKind.CLR, 7, 2, 9, 1, 5, 4, 3,
                               b"r", b"u", b"e")
        assert positional == _built_by_init()
        assert "_encoded" not in vars(positional)

    def test_stamp_and_encode_matches_slow_path(self):
        slow = make_update(3, 0, 7, 1, redo=b"xy", undo=b"z", prev_lsn=8)
        slow.lsn = 9
        slow.system_id = 4
        fast = make_update(3, 0, 7, 1, redo=b"xy", undo=b"z", prev_lsn=8)
        data = stamp_and_encode(fast, 9, 4)
        assert data == slow.to_bytes()
        assert fast == slow
        assert fast.to_bytes() is data


class TestStampAndEncodeBatch:
    def test_matches_single_stamp_path(self):
        def fresh():
            return [
                make_update(i + 1, 0, 10 + i, 0, redo=b"r" * i, undo=b"u")
                for i in range(6)
            ]

        slow = fresh()
        expected = []
        lsn = 0
        for record in slow:
            lsn += 1
            record.lsn = lsn
            record.system_id = 3
            expected.append(record.to_bytes())
        fast = fresh()
        parts, last = stamp_and_encode_batch(fast, 0, 3)
        assert parts == expected
        assert last == lsn
        assert fast == slow

    def test_page_lsn_rule(self):
        records = [make_update(1, 0, 10, 0, b"r", b"u") for _ in range(3)]
        _, last = stamp_and_encode_batch(records, 5, 1,
                                         page_lsns=[0, 100, 0])
        assert [r.lsn for r in records] == [6, 101, 102]
        assert last == 102

    def test_prev_lsn_chains_the_batch(self):
        records = [make_update(1, 0, 10, 0, b"r", b"u") for _ in range(3)]
        stamp_and_encode_batch(records, 5, 1, page_lsns=[0, 100, 0],
                               prev_lsn=4)
        assert [(r.prev_lsn, r.lsn) for r in records] == \
            [(4, 6), (6, 101), (101, 102)]

    def test_installed_cache_is_the_encoding(self):
        records = [make_update(1, 0, 10, 0, b"r", b"u")]
        (part,), _ = stamp_and_encode_batch(records, 0, 1)
        assert records[0].to_bytes() is part
