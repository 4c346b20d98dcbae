"""Tests for the DB2-style and Lomet-style space maps."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import PAGE_DATA_SIZE
from repro.storage.page import Page, PageType
from repro.storage.space_map import (
    LometSpaceMap,
    SpaceMap,
    lomet_entries_per_page,
    smp_entries_per_page,
)


def smp_page(page_type=PageType.SPACE_MAP):
    page = Page()
    page.format(1, page_type)
    return page


class TestGeometry:
    def test_entries_per_page(self):
        assert smp_entries_per_page() == PAGE_DATA_SIZE * 8

    def test_slot_mapping(self):
        sm = SpaceMap(smp_start=1, data_start=100, n_data_pages=100_000)
        slot = sm.slot_for(100)
        assert slot.smp_page_id == 1
        assert slot.index == 0
        epp = smp_entries_per_page()
        slot = sm.slot_for(100 + epp)
        assert slot.smp_page_id == 2
        assert slot.index == 0

    def test_n_smp_pages_ceiling(self):
        epp = smp_entries_per_page()
        sm = SpaceMap(smp_start=1, data_start=100, n_data_pages=epp + 1)
        assert sm.n_smp_pages == 2

    def test_out_of_range_page(self):
        sm = SpaceMap(smp_start=1, data_start=100, n_data_pages=10)
        with pytest.raises(ValueError):
            sm.slot_for(99)
        with pytest.raises(ValueError):
            sm.slot_for(110)

    def test_smp_page_ids(self):
        sm = SpaceMap(smp_start=5, data_start=100, n_data_pages=10)
        assert list(sm.smp_page_ids()) == [5]


class TestBitmap:
    def test_bits_default_clear(self):
        page = smp_page()
        assert not SpaceMap.read_allocated(page, 0)
        assert not SpaceMap.read_allocated(page, 12345)

    def test_set_and_clear_bit(self):
        page = smp_page()
        SpaceMap.write_allocated(page, 9, True)
        assert SpaceMap.read_allocated(page, 9)
        assert not SpaceMap.read_allocated(page, 8)
        assert not SpaceMap.read_allocated(page, 10)
        SpaceMap.write_allocated(page, 9, False)
        assert not SpaceMap.read_allocated(page, 9)

    def test_entry_update_codec(self):
        payload = SpaceMap.encode_entry_update(777, True)
        assert SpaceMap.decode_entry_update(payload) == (777, True)

    def test_apply_entry_update(self):
        page = smp_page()
        SpaceMap.apply_entry_update(page, SpaceMap.encode_entry_update(5, True))
        assert SpaceMap.read_allocated(page, 5)

    def test_range_update(self):
        page = smp_page()
        SpaceMap.write_range(page, 10, 20, True)
        assert all(SpaceMap.read_allocated(page, i) for i in range(10, 30))
        assert not SpaceMap.read_allocated(page, 9)
        assert not SpaceMap.read_allocated(page, 30)

    def test_range_codec_roundtrip(self):
        payload = SpaceMap.encode_range_update(100, 50, False)
        assert SpaceMap.decode_range_update(payload) == (100, 50, False)

    def test_apply_range_update(self):
        page = smp_page()
        SpaceMap.write_range(page, 0, 40, True)
        SpaceMap.apply_range_update(
            page, SpaceMap.encode_range_update(10, 5, False)
        )
        assert not SpaceMap.read_allocated(page, 12)
        assert SpaceMap.read_allocated(page, 15)

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.integers(0, 2000), max_size=50))
    def test_property_bitmap_matches_set_model(self, indices):
        page = smp_page()
        for index in indices:
            SpaceMap.write_allocated(page, index, True)
        for index in range(2001):
            assert SpaceMap.read_allocated(page, index) == (index in indices)

    @settings(max_examples=60, deadline=None)
    @given(prefix=st.integers(0, 300), limit=st.integers(1, 300),
           holes=st.sets(st.integers(0, 299), max_size=4))
    def test_property_first_free_matches_the_per_bit_search(
            self, prefix, limit, holes):
        """The chosen page must be the one the per-bit loop chose."""
        page = smp_page()
        SpaceMap.write_range(page, 0, prefix, True)
        for index in holes:
            SpaceMap.write_allocated(page, index, False)
        expected = next((index for index in range(limit)
                         if not SpaceMap.read_allocated(page, index)), None)
        assert SpaceMap.first_free(page, limit) == expected

    def test_first_free_on_a_full_last_byte(self):
        page = smp_page()
        SpaceMap.write_range(page, 0, 16, True)
        assert SpaceMap.first_free(page, 16) is None
        assert SpaceMap.first_free(page, 17) == 16


class TestLomet:
    def test_entries_per_page(self):
        assert lomet_entries_per_page(8) == PAGE_DATA_SIZE // 8
        assert lomet_entries_per_page(6) == PAGE_DATA_SIZE // 6

    def test_invalid_lsn_bytes(self):
        with pytest.raises(ValueError):
            lomet_entries_per_page(4)

    def test_fresh_entry_reads_deallocated_lsn_zero(self):
        sm = LometSpaceMap(smp_start=1, data_start=10, n_data_pages=100)
        page = smp_page(PageType.LOMET_SPACE_MAP)
        allocated, lsn = sm.read_entry(page, 0)
        assert not allocated
        assert lsn == 0

    def test_allocate_then_deallocate_with_lsn(self):
        sm = LometSpaceMap(smp_start=1, data_start=10, n_data_pages=100)
        page = smp_page(PageType.LOMET_SPACE_MAP)
        sm.write_allocated(page, 3)
        assert sm.read_entry(page, 3) == (True, 0)
        sm.write_deallocated(page, 3, 987654)
        assert sm.read_entry(page, 3) == (False, 987654)

    def test_lsn_width_enforced(self):
        sm = LometSpaceMap(smp_start=1, data_start=10, n_data_pages=100,
                           lsn_bytes=6)
        page = smp_page(PageType.LOMET_SPACE_MAP)
        with pytest.raises(ValueError):
            sm.write_deallocated(page, 0, 1 << 48)

    def test_overhead_factor_matches_paper(self):
        """Section 4.2: 47-63x more space than DB2's single bit."""
        six = LometSpaceMap(smp_start=1, data_start=10, n_data_pages=10,
                            lsn_bytes=6)
        eight = LometSpaceMap(smp_start=1, data_start=10, n_data_pages=10,
                              lsn_bytes=8)
        assert six.overhead_factor() == 48.0    # paper: "47-63 times" MORE
        assert eight.overhead_factor() == 64.0

    def test_coverage_ratio(self):
        """One bitmap SMP covers ~64x more pages than a Lomet SMP."""
        ratio = smp_entries_per_page() / lomet_entries_per_page(8)
        assert ratio == pytest.approx(64.0, abs=0.2)

    @pytest.mark.parametrize("lsn_bytes", [6, 8])
    @settings(max_examples=40, deadline=None)
    @given(prefix=st.integers(0, 40), limit=st.integers(1, 40),
           holes=st.dictionaries(st.integers(0, 39),
                                 st.sampled_from([0, 0xFF, 0xFFFF00,
                                                  2**48 - 2]), max_size=3))
    def test_property_first_free_matches_the_per_entry_search(
            self, lsn_bytes, prefix, limit, holes):
        sm = LometSpaceMap(smp_start=1, data_start=10, n_data_pages=500,
                           lsn_bytes=lsn_bytes)
        page = smp_page(PageType.LOMET_SPACE_MAP)
        for index in range(prefix):
            sm.write_allocated(page, index)
        for index, lsn in holes.items():
            sm.write_deallocated(page, index, lsn)
        expected = next((index for index in range(limit)
                         if not sm.read_entry(page, index)[0]), None)
        assert sm.first_free(page, limit) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(st.integers(0, 400),
                           st.integers(0, 2**48 - 1), max_size=30))
    def test_property_entries_independent(self, entries):
        sm = LometSpaceMap(smp_start=1, data_start=10, n_data_pages=500)
        page = smp_page(PageType.LOMET_SPACE_MAP)
        for index, lsn in entries.items():
            sm.write_deallocated(page, index, lsn)
        for index, lsn in entries.items():
            assert sm.read_entry(page, index) == (False, lsn)
