"""Tests for the simulated shared disk."""

import pytest

from repro.common.errors import MediaError
from repro.common.stats import DISK_PAGE_READS, DISK_PAGE_WRITES
from repro.storage.disk import SharedDisk
from repro.storage.page import Page, PageType


def make_disk(capacity=100):
    return SharedDisk(capacity=capacity)


def formatted(page_id, payload=b"payload"):
    page = Page()
    page.format(page_id, PageType.DATA)
    page.insert_record(payload)
    return page


class TestReadWrite:
    def test_write_then_read(self):
        disk = make_disk()
        disk.write_page(formatted(5))
        page = disk.read_page(5)
        assert page.page_id == 5
        assert page.read_record(0) == b"payload"

    def test_read_never_written_returns_free_page(self):
        disk = make_disk()
        page = disk.read_page(9)
        assert page.page_type == PageType.FREE
        assert page.page_id == 9

    def test_write_does_not_mutate_callers_page(self):
        disk = make_disk()
        page = formatted(5)
        before = page.to_bytes()
        disk.write_page(page)
        assert page.to_bytes() == before  # checksum stamped on copy only

    def test_overwrite_replaces_content(self):
        disk = make_disk()
        disk.write_page(formatted(5, b"old"))
        disk.write_page(formatted(5, b"new"))
        assert disk.read_page(5).read_record(0) == b"new"

    def test_page_id_bounds(self):
        disk = make_disk(capacity=10)
        with pytest.raises(ValueError):
            disk.read_page(10)
        with pytest.raises(ValueError):
            disk.write_page(formatted(10))

    def test_io_counters(self):
        disk = make_disk()
        disk.write_page(formatted(1))
        disk.write_page(formatted(2))
        disk.read_page(1)
        assert disk.stats.get(DISK_PAGE_WRITES) == 2
        assert disk.stats.get(DISK_PAGE_READS) == 1

    def test_page_lsn_on_disk_helper(self):
        disk = make_disk()
        page = formatted(3)
        page.page_lsn = 77
        disk.write_page(page)
        reads_before = disk.stats.get(DISK_PAGE_READS)
        assert disk.page_lsn_on_disk(3) == 77
        assert disk.stats.get(DISK_PAGE_READS) == reads_before

    def test_written_page_ids_sorted(self):
        disk = make_disk()
        for page_id in (9, 2, 5):
            disk.write_page(formatted(page_id))
        assert list(disk.written_page_ids()) == [2, 5, 9]


class TestFaultInjection:
    def test_lost_page_raises_media_error(self):
        disk = make_disk()
        disk.write_page(formatted(4))
        disk.lose_page(4)
        with pytest.raises(MediaError):
            disk.read_page(4)

    def test_rewrite_heals_lost_page(self):
        disk = make_disk()
        disk.write_page(formatted(4, b"a"))
        disk.lose_page(4)
        disk.write_page(formatted(4, b"b"))
        assert disk.read_page(4).read_record(0) == b"b"

    def test_corruption_caught_by_checksum(self):
        disk = make_disk()
        disk.write_page(formatted(4))
        disk.corrupt_page(4, byte_offset=200)
        with pytest.raises(MediaError):
            disk.read_page(4)

    def test_corrupt_unwritten_page_raises(self):
        disk = make_disk()
        with pytest.raises(ValueError):
            disk.corrupt_page(4)

    def test_page_exists(self):
        disk = make_disk()
        assert not disk.page_exists(6)
        disk.write_page(formatted(6))
        assert disk.page_exists(6)
        disk.lose_page(6)
        assert not disk.page_exists(6)
