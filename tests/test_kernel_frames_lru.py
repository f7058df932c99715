"""Unit tests for the frame allocator and the batched LRU."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernel import DEFAULT_VM_PARAMS, FrameAllocator, PageLRU, VMParams
from repro.kernel.vmm import AddressSpace
from repro.simulator import StatsRegistry


class TestVMParams:
    def test_watermark_ordering_enforced(self):
        with pytest.raises(ValueError):
            VMParams(frac_min=0.1, frac_low=0.05, frac_high=0.2)

    def test_readahead_positive(self):
        with pytest.raises(ValueError):
            VMParams(readahead_pages=0)

    @pytest.mark.parametrize("cost", [-1.0, float("nan")])
    def test_cpu_costs_non_negative(self, cost):
        with pytest.raises(ValueError, match="alloc_overhead"):
            VMParams(alloc_overhead=cost)

    def test_defaults_valid(self):
        p = DEFAULT_VM_PARAMS
        assert 0 < p.frac_min < p.frac_low < p.frac_high


class TestFrameAllocator:
    def make(self, sim, total=10_000):
        return FrameAllocator(sim, total, DEFAULT_VM_PARAMS, StatsRegistry())

    def test_rejects_tiny_memory(self, sim):
        with pytest.raises(ValueError):
            FrameAllocator(sim, 10, DEFAULT_VM_PARAMS)

    def test_watermark_geometry(self, sim):
        fa = self.make(sim)
        assert 0 < fa.wm_min < fa.wm_low < fa.wm_high < fa.total_frames

    def test_alloc_free_cycle(self, sim):
        fa = self.make(sim)
        assert fa.try_alloc(100)
        assert fa.free == 9_900
        assert fa.used == 100
        fa.release(100)
        assert fa.free == 10_000

    def test_cannot_go_negative(self, sim):
        fa = self.make(sim, total=100)
        assert not fa.try_alloc(101)
        assert fa.free == 100

    def test_over_release_detected(self, sim):
        fa = self.make(sim)
        with pytest.raises(AssertionError):
            fa.release(1)

    def test_watermark_predicates(self, sim):
        fa = self.make(sim)
        assert not fa.below_low()
        fa.try_alloc(fa.total_frames - fa.wm_low)
        assert fa.below_low()
        assert fa.below_high()
        fa.try_alloc(fa.free - fa.wm_min)
        assert fa.below_min()

    def test_release_wakes_waiters(self, sim):
        fa = self.make(sim, total=100)
        fa.try_alloc(100)
        woken = []

        def waiter(sim):
            yield fa.memory_waiters.wait()
            woken.append(sim.now)

        def releaser(sim):
            yield sim.timeout(5)
            fa.release(1)

        p = sim.spawn(waiter(sim))
        sim.spawn(releaser(sim))
        sim.run(until=p)
        assert woken == [5.0]

    def test_free_timeseries_recorded(self, sim):
        fa = self.make(sim)
        fa.try_alloc(5)
        fa.release(5)
        series = fa.stats.get("frames.free")
        assert series.count == 2


class TestPageLRU:
    def test_stamps_strictly_increasing(self):
        lru = PageLRU()
        a = lru.next_stamps(5)
        b = lru.next_stamps(3)
        assert a[-1] < b[0]
        assert np.all(np.diff(np.concatenate([a, b])) > 0)

    def _touched(self, lru, aspace, pages):
        pages = np.asarray(pages, dtype=np.int64)
        stamps = lru.next_stamps(len(pages))
        aspace.page_stamp[pages] = stamps
        aspace.resident[pages] = True
        lru.push_batch(aspace, pages, stamps)
        return pages

    @pytest.mark.parametrize("run", [[7], [7, 3, 9]])
    def test_push_each_is_one_push_batch_per_page(self, run):
        each, one_by_one = PageLRU(), PageLRU()
        a, b = AddressSpace(100, "a"), AddressSpace(100, "b")
        pages = np.array(run, dtype=np.int64)
        each.push_each(a, pages)
        for page in pages:
            single = np.array([page], dtype=np.int64)
            stamps = one_by_one.next_stamps(1)
            b.page_stamp[single] = stamps
            one_by_one.push_batch(b, single, stamps)
        np.testing.assert_array_equal(a.page_stamp, b.page_stamp)
        assert len(each) == len(one_by_one) == len(run)
        got = [(p.tolist(), s.tolist()) for _a, p, s in each._queue]
        want = [(p.tolist(), s.tolist()) for _a, p, s in one_by_one._queue]
        assert got == want == [([p], [i + 1]) for i, p in enumerate(run)]

    def test_eviction_order_is_lru(self):
        lru = PageLRU()
        aspace = AddressSpace(100, "a")
        self._touched(lru, aspace, [0, 1, 2])
        self._touched(lru, aspace, [3, 4])
        victims = lru.pop_victims(4)
        flat = np.concatenate([p for (_a, p) in victims])
        np.testing.assert_array_equal(flat, [0, 1, 2, 3])

    def test_retouch_makes_old_entry_stale(self):
        lru = PageLRU()
        aspace = AddressSpace(100, "a")
        self._touched(lru, aspace, [0, 1, 2])
        self._touched(lru, aspace, [0])  # 0 is young again
        victims = lru.pop_victims(2)
        flat = np.concatenate([p for (_a, p) in victims])
        np.testing.assert_array_equal(flat, [1, 2])

    def test_nonresident_entries_skipped(self):
        lru = PageLRU()
        aspace = AddressSpace(100, "a")
        self._touched(lru, aspace, [0, 1, 2])
        aspace.resident[1] = False  # reclaimed elsewhere
        victims = lru.pop_victims(3)
        flat = np.concatenate([p for (_a, p) in victims])
        np.testing.assert_array_equal(flat, [0, 2])

    def test_partial_batch_tail_stays_cold(self):
        lru = PageLRU()
        aspace = AddressSpace(100, "a")
        self._touched(lru, aspace, [0, 1, 2, 3, 4])
        v1 = lru.pop_victims(2)
        v2 = lru.pop_victims(3)
        flat = np.concatenate([p for (_a, p) in v1 + v2])
        np.testing.assert_array_equal(flat, [0, 1, 2, 3, 4])

    def test_multiple_address_spaces_interleave(self):
        lru = PageLRU()
        a1 = AddressSpace(10, "a1")
        a2 = AddressSpace(10, "a2")
        self._touched(lru, a1, [0])
        self._touched(lru, a2, [5])
        self._touched(lru, a1, [1])
        victims = lru.pop_victims(3)
        owners = [a.name for (a, _p) in victims]
        assert owners == ["a1", "a2", "a1"]

    def test_empty_lru_returns_nothing(self):
        assert PageLRU().pop_victims(10) == []

    def test_bad_victim_count(self):
        with pytest.raises(ValueError):
            PageLRU().pop_victims(0)

    def test_drop_address_space_invalidates(self):
        lru = PageLRU()
        aspace = AddressSpace(10, "a")
        self._touched(lru, aspace, [0, 1])
        lru.drop_address_space(aspace)
        assert lru.pop_victims(2) == []
