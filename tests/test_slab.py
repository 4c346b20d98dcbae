"""The zero-copy slab storage spine.

Three claims, each load-bearing for the TPS headline:

* **streaming checksum** — the streamed two-window CRC32 is *the same
  function* as the old slice-concat form, byte for byte;
* **zero copies on the hot path** — the slab write/flush lane feeds the
  CRC nothing but the cached memoryview windows and never materialises
  a page image (spy-buffer regression tests, in the style of
  ``TestZeroCopyParsing`` in ``tests/test_records.py``);
* **flavour equivalence** — slab and classic spines leave SHA-256
  identical disk images and byte-identical traces under the E1 anomaly,
  an E7-style whole-complex restart and the seeded chaos workload —
  and torn writes and
  media corruption are still *detected* (and repaired) under the slab.
"""

import hashlib
import zlib

import pytest

import repro.storage.disk as disk_mod
from repro.common.clock import SkewedClock
from repro.common.config import PAGE_SIZE
from repro.common.errors import MediaError, TornPageError
from repro.faults import points as fp
from repro.faults import scenarios
from repro.faults.injector import NULL_INJECTOR, FaultInjector, FaultPlan
from repro.obs.tracer import Tracer
from repro.recovery.media import recover_page_from_media
from repro.sd.complex import SDComplex
from repro.storage.disk import SharedDisk, _compute_checksum
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


def disk_sha(disk):
    """SHA-256 over every materialised disk page, in page-id order."""
    digest = hashlib.sha256()
    for page_id in sorted(disk._pages):
        digest.update(page_id.to_bytes(8, "big"))
        digest.update(disk.raw_image(page_id))
    return digest.hexdigest()


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
        images = [
            bytes(PAGE_SIZE),
            formatted_page().to_bytes(),
            bytes(range(256)) * (PAGE_SIZE // 256),
        ]
        for image in images:
            assert _compute_checksum(image) == self._old_concat_form(image)
            # ...and over a zero-copy window, not just owned bytes.
            assert _compute_checksum(memoryview(image)) == \
                self._old_concat_form(image)

    def test_slab_and_classic_stamp_identical_checksums(self):
        page = formatted_page()
        slab, classic = SharedDisk(slab=True), SharedDisk(slab=False)
        slab.write_page(page)
        classic.write_page(page)
        assert slab.raw_image(page.page_id) == classic.raw_image(page.page_id)
        assert slab.read_page(page.page_id).checksum == \
            classic.read_page(page.page_id).checksum


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
        disk = SharedDisk(slab=True)
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
        for slab in (True, False):
            disk = SharedDisk(slab=slab)
            page = formatted_page()
            disk.write_page(page)
            owned = disk.read_page(page.page_id)
            assert not owned.is_borrowed
            owned.update_record(0, b"private")
            assert disk.read_page(page.page_id).read_record(0) == b"row 00"

    def test_borrowed_view_aliases_live_slab_storage(self):
        """read_page_view is genuinely zero-copy: its buffer is a
        window straight onto a slab extent."""
        disk = SharedDisk(slab=True)
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
        disk = SharedDisk(slab=True)
        pages = [formatted_page(page_id=i) for i in range(8)]
        disk.write_many(pages)  # allocate windows outside the spy

        calls = self._spy_crc(monkeypatch)
        disk.write_many(pages)
        assert len(calls) == 2 * len(pages)  # head + tail per page
        assert all(t is memoryview for t in calls)

    def test_slab_read_page_feeds_crc_only_memoryviews(self, monkeypatch):
        disk = SharedDisk(slab=True)
        page = formatted_page()
        disk.write_page(page)

        calls = self._spy_crc(monkeypatch)
        disk.read_page(page.page_id)
        assert calls == [memoryview, memoryview]

    def test_flush_lane_never_materialises_a_page_image(self, monkeypatch):
        """The buffer-pool flush hot path (flush_pages -> write_many on
        the slab) must not call Page.to_bytes or build a stamped copy —
        the whole point of the spine is that those copies are gone."""
        sd = SDComplex(n_data_pages=64)
        engine = sd.add_instance(1)
        rows = [committed_row(engine) for _ in range(6)]

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("full-page copy on the slab flush lane")

        monkeypatch.setattr(Page, "to_bytes", boom)
        monkeypatch.setattr(SharedDisk, "_stamped_image", boom)
        flushed = engine.pool.flush_pages(
            sorted({page_id for page_id, _ in rows}))
        assert flushed == len({page_id for page_id, _ in rows})

    def test_classic_flush_lane_still_copies(self):
        """Contrast case: the classic spine stores one immutable bytes
        image per page, so its stored values are real ``bytes``."""
        sd = SDComplex(n_data_pages=64, slab=False)
        engine = sd.add_instance(1)
        page_id, _ = committed_row(engine)
        engine.pool.flush_all()
        assert type(sd.disk._pages[page_id]) is bytes


# ----------------------------------------------------------------------
# slab-vs-classic equivalence: SHA-256 disk images + byte-equal traces
# ----------------------------------------------------------------------
def run_e1_anomaly(slab):
    """The Section 1.5 lost-update scenario (capture_e1's script) over
    the chosen spine; returns (sd, tracer, survivor payload)."""
    tracer = Tracer()
    sd = SDComplex(n_data_pages=128, tracer=tracer, slab=slab)
    instances = {}
    for system_id, (offset, rate) in ((1, (37.0, 1.13)), (2, (74.0, 1.26))):
        instances[system_id] = sd.add_instance(
            system_id, lock_granularity="page",
            clock=SkewedClock(offset=offset, rate=rate))
    s1, s2 = instances[1], instances[2]
    txn = s2.begin()
    page_id = s2.allocate_page(txn)
    slot = s2.insert(txn, page_id, b"original")
    s2.commit(txn)
    s2.pool.write_page(page_id)
    s2.write_filler(50)
    t2 = s2.begin()
    s2.update(t2, page_id, slot, b"t2-update")
    s2.commit(t2)
    t1 = s1.begin()
    s1.update(t1, page_id, slot, b"t1-committed")
    s1.commit(t1)
    sd.crash_instance(1)
    sd.restart_instance(1)
    return sd, tracer, sd.disk.read_page(page_id).read_record(slot)


class TestSlabClassicEquality:
    def test_e1_anomaly_disk_and_trace_identical(self):
        slab_sd, slab_tracer, slab_survivor = run_e1_anomaly(slab=True)
        classic_sd, classic_tracer, survivor = run_e1_anomaly(slab=False)
        assert slab_survivor == survivor == b"t1-committed"
        assert disk_sha(slab_sd.disk) == disk_sha(classic_sd.disk)
        assert slab_tracer.dump_jsonl() == classic_tracer.dump_jsonl()
        assert slab_sd.stats.snapshot() == classic_sd.stats.snapshot()

    def _restart_run(self, slab):
        """E7-style: the seeded chaos workload, then a whole-complex
        crash and restart (real redo/undo over both spines)."""
        sd, tracer = scenarios.build_sd(NULL_INJECTOR, seed=3, slab=slab)
        scenarios.run_sd_workload(sd, 3)
        sd.crash_complex()
        sd.restart_complex()
        return sd, tracer

    def test_e7_restart_disk_and_trace_identical(self):
        slab_sd, slab_tracer = self._restart_run(slab=True)
        classic_sd, classic_tracer = self._restart_run(slab=False)
        assert disk_sha(slab_sd.disk) == disk_sha(classic_sd.disk)
        assert slab_tracer.dump_jsonl() == classic_tracer.dump_jsonl()
        assert slab_sd.stats.snapshot() == classic_sd.stats.snapshot()

    def test_chaos_smoke_disk_identical(self):
        """The chaos scenario workload itself (no crash) — the smoke
        geometry the fault campaign tortures."""
        runs = {}
        for slab in (True, False):
            sd, tracer = scenarios.build_sd(NULL_INJECTOR, seed=0, slab=slab)
            scenarios.run_sd_workload(sd, 0)
            runs[slab] = (disk_sha(sd.disk), tracer.dump_jsonl())
        assert runs[True] == runs[False]


# ----------------------------------------------------------------------
# faults are still detected under the slab
# ----------------------------------------------------------------------
class TestSlabFaultDetection:
    @pytest.mark.parametrize("slab", [True, False])
    def test_torn_write_detected_and_rebuilt(self, slab):
        injector = FaultInjector(FaultPlan(seed=0))
        sd = SDComplex(n_data_pages=64, injector=injector, slab=slab)
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

    @pytest.mark.parametrize("slab", [True, False])
    def test_corruption_detected_by_checksum(self, slab):
        disk = SharedDisk(slab=slab)
        page = formatted_page()
        disk.write_page(page)
        disk.corrupt_page(page.page_id, byte_offset=100)
        with pytest.raises(MediaError):
            disk.read_page(page.page_id)

    @pytest.mark.parametrize("slab", [True, False])
    def test_lost_page_detected(self, slab):
        disk = SharedDisk(slab=slab)
        page = formatted_page()
        disk.write_page(page)
        disk.lose_page(page.page_id)
        with pytest.raises(MediaError):
            disk.read_page(page.page_id)
        assert not disk.page_exists(page.page_id)
