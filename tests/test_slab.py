"""The zero-copy slab storage spine.

Three claims, each load-bearing for the TPS headline:

* **streaming checksum** — the streamed two-window CRC32 the disk
  stamps is *the same function* as the old slice-concat form, byte for
  byte;
* **zero copies on the hot path** — the write/flush lane feeds the CRC
  nothing but the cached memoryview windows and never materialises a
  page image (spy-buffer regression tests, in the style of
  ``TestZeroCopyParsing`` in ``tests/test_records.py``);
* **faults are still detected** — torn writes, media corruption and
  lost pages surface as :class:`MediaError` (and torn pages are rebuilt).

The disk images, traces and counters the spine leaves under the E1
anomaly, an E7-style restart, the chaos workloads and a CS server
restart are frozen in ``tests/test_disk_golden.py``.
"""

import zlib

import pytest

import repro.storage.disk as disk_mod
from repro.common.errors import MediaError, TornPageError
from repro.faults import points as fp
from repro.faults.injector import FaultInjector, FaultPlan
from repro.recovery.media import recover_page_from_media
from repro.sd.complex import SDComplex
from repro.storage.disk import SharedDisk
from repro.storage.page import Page, PageType


def arm_next_hit(injector, point):
    """A site builder for the *next* crossing of ``point``."""
    return injector.plan.at(point).on_hit(injector.hit_count(point) + 1)


def committed_row(engine, payload=b"v1"):
    txn = engine.begin()
    page_id = engine.allocate_page(txn)
    slot = engine.insert(txn, page_id, payload)
    engine.commit(txn)
    return page_id, slot


def formatted_page(page_id=7, n_records=5):
    page = Page()
    page.format(page_id, PageType.DATA)
    for i in range(n_records):
        page.insert_record(b"row %02d" % i)
    return page


# ----------------------------------------------------------------------
# streaming checksum == the old slice-concat form
# ----------------------------------------------------------------------
class TestStreamingChecksum:
    def _old_concat_form(self, image):
        """The pre-slab checksum, verbatim: concatenate the two slices
        into a fresh page-sized ``bytes``, then one crc32 call."""
        flat = bytes(image)
        return zlib.crc32(flat[:17] + flat[21:])

    def test_streamed_crc_equals_concat_crc(self):
        """Both write lanes stamp the old form's checksum, and reads
        verify against it."""
        pages = [
            formatted_page(page_id=1, n_records=0),
            formatted_page(page_id=2),
            formatted_page(page_id=3, n_records=40),
        ]
        per_call, batched = SharedDisk(), SharedDisk()
        for page in pages:
            per_call.write_page(page)
        batched.write_many(pages)
        for disk in (per_call, batched):
            for page in pages:
                stored = disk.raw_image(page.page_id)
                assert Page.view(stored).checksum == \
                    self._old_concat_form(stored)
                disk.read_page(page.page_id)  # verifies, or raises


# ----------------------------------------------------------------------
# copy-on-write page views
# ----------------------------------------------------------------------
class TestPageCopyOnWrite:
    def test_view_is_borrowed_until_first_mutation(self):
        original = formatted_page().to_bytes()
        page = Page.view(original)
        assert page.is_borrowed
        assert page.read_record(0) == b"row 00"  # reads go through

        page.update_record(0, b"mutated")
        assert not page.is_borrowed  # detached onto a private copy
        assert page.read_record(0) == b"mutated"
        assert Page.view(original).read_record(0) == b"row 00"

    def test_read_page_view_cannot_write_through_to_disk(self):
        disk = SharedDisk()
        page = formatted_page()
        disk.write_page(page)
        before = disk.raw_image(page.page_id)

        view = disk.read_page_view(page.page_id)
        assert view.is_borrowed
        view.update_record(0, b"scribble")
        assert disk.raw_image(page.page_id) == before
        # ...and the slab still verifies: the stored checksum was not
        # invalidated behind the disk's back.
        assert disk.read_page(page.page_id).read_record(0) == b"row 00"

    def test_read_page_returns_private_image(self):
        disk = SharedDisk()
        page = formatted_page()
        disk.write_page(page)
        owned = disk.read_page(page.page_id)
        assert not owned.is_borrowed
        owned.update_record(0, b"private")
        assert disk.read_page(page.page_id).read_record(0) == b"row 00"

    def test_borrowed_view_aliases_live_slab_storage(self):
        """read_page_view is genuinely zero-copy: its buffer is a
        window straight onto a slab extent."""
        disk = SharedDisk()
        page = formatted_page()
        disk.write_page(page)
        view = disk.read_page_view(page.page_id)
        buf = view.raw_buffer()
        assert isinstance(buf, memoryview)
        assert buf.readonly
        assert any(buf.obj is extent for extent in disk._extents)


# ----------------------------------------------------------------------
# spy-buffer regression tests: zero copies on the hot path
# ----------------------------------------------------------------------
class TestZeroCopyHotPath:
    def _spy_crc(self, monkeypatch):
        """Record the buffer type of every crc32 call made by the disk
        layer (same spy style as TestZeroCopyParsing)."""
        calls = []
        real = zlib.crc32

        def spy(data, value=0):
            calls.append(type(data))
            return real(data, value)

        monkeypatch.setattr(disk_mod.zlib, "crc32", spy)
        return calls

    def test_slab_write_many_feeds_crc_only_memoryviews(self, monkeypatch):
        disk = SharedDisk()
        pages = [formatted_page(page_id=i) for i in range(8)]
        disk.write_many(pages)  # allocate windows outside the spy

        calls = self._spy_crc(monkeypatch)
        disk.write_many(pages)
        assert len(calls) == 2 * len(pages)  # head + tail per page
        assert all(t is memoryview for t in calls)

    def test_slab_read_page_feeds_crc_only_memoryviews(self, monkeypatch):
        disk = SharedDisk()
        page = formatted_page()
        disk.write_page(page)

        calls = self._spy_crc(monkeypatch)
        disk.read_page(page.page_id)
        assert calls == [memoryview, memoryview]

    def test_flush_lane_never_materialises_a_page_image(self, monkeypatch):
        """The buffer-pool flush hot path (flush_pages -> write_many on
        the slab) must not call Page.to_bytes — the whole point of the
        spine is that the per-write page copies are gone."""
        sd = SDComplex(n_data_pages=64)
        engine = sd.add_instance(1)
        rows = [committed_row(engine) for _ in range(6)]

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("full-page copy on the slab flush lane")

        monkeypatch.setattr(Page, "to_bytes", boom)
        flushed = engine.pool.flush_pages(
            sorted({page_id for page_id, _ in rows}))
        assert flushed == len({page_id for page_id, _ in rows})


# ----------------------------------------------------------------------
# faults are still detected under the slab
# ----------------------------------------------------------------------
class TestSlabFaultDetection:
    def test_torn_write_detected_and_rebuilt(self):
        injector = FaultInjector(FaultPlan(seed=0))
        sd = SDComplex(n_data_pages=64, injector=injector)
        s1 = sd.add_instance(1)
        page_id, slot = committed_row(s1, b"precious")
        arm_next_hit(injector, fp.DISK_WRITE).torn()

        with pytest.raises(TornPageError):
            s1.pool.write_page(page_id)
        with pytest.raises(MediaError):
            sd.disk.read_page(page_id)

        recover_page_from_media(page_id, None, sd.local_logs(),
                                disk=sd.disk)
        assert sd.disk.read_page(page_id).read_record(slot) == b"precious"

    def test_corruption_detected_by_checksum(self):
        disk = SharedDisk()
        page = formatted_page()
        disk.write_page(page)
        disk.corrupt_page(page.page_id, byte_offset=100)
        with pytest.raises(MediaError):
            disk.read_page(page.page_id)

    def test_lost_page_detected(self):
        disk = SharedDisk()
        page = formatted_page()
        disk.write_page(page)
        disk.lose_page(page.page_id)
        with pytest.raises(MediaError):
            disk.read_page(page.page_id)
        assert not disk.page_exists(page.page_id)
