"""Unit + integration tests for the VM: faults, reclaim, write-back,
read-ahead, swap-cache economy, destruction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.disk import DiskDevice
from repro.kernel import Node, VMParams
from repro.simulator import SimulationError
from repro.units import MiB


@pytest.fixture
def swap_node(sim, fabric):
    """A small node with a disk swap area attached."""
    node = Node(sim, fabric, "n0", mem_bytes=8 * MiB)
    disk = DiskDevice(sim, swap_partition_bytes=64 * MiB, stats=node.stats)
    node.swapon(disk.queue, 64 * MiB)
    return node


def run(sim, gen):
    return sim.run(until=sim.spawn(gen))


class TestFirstTouch:
    def test_minor_faults_allocate_frames(self, sim, swap_node):
        vmm = swap_node.vmm
        aspace = vmm.create_address_space(100, "a")

        def proc(sim):
            yield from vmm.touch_run(aspace, 0, 50, write=True)

        run(sim, proc(sim))
        assert aspace.minor_faults == 50
        assert aspace.major_faults == 0
        assert aspace.resident_pages == 50
        assert swap_node.frames.used == 50

    def test_write_marks_dirty(self, sim, swap_node):
        vmm = swap_node.vmm
        aspace = vmm.create_address_space(100, "a")

        def proc(sim):
            yield from vmm.touch_run(aspace, 0, 10, write=True)
            yield from vmm.touch_run(aspace, 10, 20, write=False)

        run(sim, proc(sim))
        assert aspace.dirty[:10].all()
        assert not aspace.dirty[10:20].any()

    def test_retouch_no_new_faults(self, sim, swap_node):
        vmm = swap_node.vmm
        aspace = vmm.create_address_space(100, "a")

        def proc(sim):
            yield from vmm.touch_run(aspace, 0, 50, write=True)
            yield from vmm.touch_run(aspace, 0, 50, write=True)

        run(sim, proc(sim))
        assert aspace.minor_faults == 50

    def test_bad_range_rejected(self, sim, swap_node):
        vmm = swap_node.vmm
        aspace = vmm.create_address_space(10, "a")
        with pytest.raises(ValueError):
            next(iter(vmm.touch_run(aspace, 5, 5, False)))
        with pytest.raises(ValueError):
            next(iter(vmm.touch_run(aspace, 0, 11, False)))


class TestEvictionAndSwapIn:
    def overflow(self, sim, swap_node, npages=None):
        vmm = swap_node.vmm
        total = swap_node.frames.total_frames
        npages = npages or total * 2
        aspace = vmm.create_address_space(npages, "big")

        def proc(sim):
            for start in range(0, npages, 64):
                stop = min(start + 64, npages)
                yield from vmm.touch_run(aspace, start, stop, write=True)
            yield from vmm.quiesce()

        run(sim, proc(sim))
        return aspace

    def test_working_set_larger_than_memory_pages_out(self, sim, swap_node):
        aspace = self.overflow(sim, swap_node)
        assert aspace.resident_pages < aspace.npages
        assert aspace.swapped_pages > 0
        stats = swap_node.stats
        assert stats.get("n0.vm.swapout_pages").total > 0
        swap_node.vmm.check_frame_accounting()

    def test_swapin_on_refault(self, sim, swap_node):
        aspace = self.overflow(sim, swap_node)
        vmm = swap_node.vmm

        def proc(sim):
            yield from vmm.touch_run(aspace, 0, 64, write=False)
            yield from vmm.quiesce()

        run(sim, proc(sim))
        assert aspace.major_faults > 0
        assert aspace.resident[:64].all()
        vmm.check_frame_accounting()

    def test_readahead_brings_cluster(self, sim, swap_node):
        aspace = self.overflow(sim, swap_node)
        vmm = swap_node.vmm

        def proc(sim):
            # fault exactly one page
            yield from vmm.touch_run(aspace, 0, 1, write=False)
            yield from vmm.quiesce()

        before = aspace.major_faults
        run(sim, proc(sim))
        assert aspace.major_faults == before + 1
        # read-ahead made neighbours resident without faults
        swapped_in = swap_node.stats.get("n0.vm.swapin_pages").total
        assert swapped_in >= vmm.params.readahead_pages

    def test_clean_swapped_page_eviction_free(self, sim, swap_node):
        """Swap-cache economy: a page swapped in and only *read* keeps
        its slot, so its next eviction writes nothing."""
        aspace = self.overflow(sim, swap_node)
        vmm = swap_node.vmm
        stats = swap_node.stats

        def reread(sim):
            yield from vmm.touch_run(aspace, 0, 64, write=False)
            yield from vmm.quiesce()

        run(sim, reread(sim))

        def evict_again(sim):
            # Touch other pages to push [0,64) out again.
            hi = aspace.npages
            for start in range(hi - 4096, hi, 64):
                yield from vmm.touch_run(aspace, start, start + 64, write=False)
            yield from vmm.quiesce()

        run(sim, evict_again(sim))
        clean_drops = stats.get("n0.vm.reclaim_clean_pages").total
        assert clean_drops > 0  # clean re-evictions happened without I/O

    def test_write_invalidates_swap_slot(self, sim, swap_node):
        aspace = self.overflow(sim, swap_node)
        vmm = swap_node.vmm

        def proc(sim):
            yield from vmm.touch_run(aspace, 0, 8, write=True)

        run(sim, proc(sim))
        assert (aspace.swap_slot[:8] == -1).all()
        assert aspace.dirty[:8].all()

    def test_random_touch_pages(self, sim, swap_node):
        vmm = swap_node.vmm
        aspace = vmm.create_address_space(1000, "r")
        pages = np.array([1, 5, 900, 5, 333])

        def proc(sim):
            yield from vmm.touch_pages(aspace, pages, write=True)

        run(sim, proc(sim))
        assert aspace.resident[[1, 5, 333, 900]].all()
        assert aspace.minor_faults == 4  # deduplicated


class TestConcurrentAddressSpaces:
    def test_two_spaces_cross_readahead_race(self, sim, swap_node):
        """Two address spaces sharing one swap area: read-ahead for one
        space's fault can pull the other space's pages in while their
        owner is itself faulting them.  Regression test for the
        double-swap-in race found by the Fig. 9 configuration."""
        vmm = swap_node.vmm
        total = swap_node.frames.total_frames
        spaces = [
            vmm.create_address_space(total, f"a{i}") for i in range(2)
        ]

        def worker(sim, aspace, passes=3):
            for _ in range(passes):
                for start in range(0, aspace.npages, 32):
                    stop = min(start + 32, aspace.npages)
                    yield from vmm.touch_run(aspace, start, stop, write=True)
                    yield from swap_node.cpus.run(50.0)

        procs = [sim.spawn(worker(sim, a)) for a in spaces]
        sim.run_all(procs)

        def quiesce(sim):
            yield from vmm.quiesce()

        sim.run(until=sim.spawn(quiesce(sim)))
        vmm.check_frame_accounting()
        assert all(not a.swapin_pending for a in spaces)
        assert all(not a.writeback for a in spaces)


class TestDestroy:
    def test_destroy_releases_everything(self, sim, swap_node):
        vmm = swap_node.vmm
        aspace = vmm.create_address_space(500, "d")

        def proc(sim):
            yield from vmm.touch_run(aspace, 0, 500, write=True)
            yield from vmm.destroy_address_space(aspace)

        run(sim, proc(sim))
        assert swap_node.frames.used == 0
        assert all(a.free == a.nslots for a in vmm.swap.areas)

    def test_destroy_waits_for_writeback(self, sim, swap_node):
        vmm = swap_node.vmm
        total = swap_node.frames.total_frames
        aspace = vmm.create_address_space(total * 2, "d")

        def proc(sim):
            for start in range(0, aspace.npages, 64):
                yield from vmm.touch_run(
                    aspace, start, min(start + 64, aspace.npages), write=True
                )
            yield from vmm.destroy_address_space(aspace)

        run(sim, proc(sim))
        assert swap_node.frames.used == 0
        vmm.check_frame_accounting()


class TestAccountingGuards:
    def test_check_frame_accounting_detects_leak(self, sim, swap_node):
        vmm = swap_node.vmm
        aspace = vmm.create_address_space(10, "x")

        def proc(sim):
            yield from vmm.touch_run(aspace, 0, 5, write=True)

        run(sim, proc(sim))
        aspace.resident[0] = False  # corrupt the ledger
        with pytest.raises(SimulationError):
            vmm.check_frame_accounting()

    def test_touch_loop_guard_trips_on_impossible_config(self, sim, fabric):
        # Memory so small that one chunk cannot stay resident: converge
        # guard must fire instead of looping forever.
        params = VMParams(frac_min=0.3, frac_low=0.35, frac_high=0.45)
        node = Node(sim, fabric, "tiny", mem_bytes=64 * 4096, vm_params=params)
        disk = DiskDevice(sim, swap_partition_bytes=8 * MiB, stats=node.stats)
        node.swapon(disk.queue, 8 * MiB)
        aspace = node.vmm.create_address_space(256, "x")

        def proc(sim):
            yield from node.vmm.touch_run(aspace, 0, 256, write=True)

        sim.spawn(proc(sim))
        with pytest.raises(SimulationError):
            sim.run()


class _InstantDevice:
    """A block driver that completes every request after a fixed delay —
    isolates VM behaviour from device speed."""

    def __init__(self, sim, stats, delay=10.0, capacity_sectors=1 << 20):
        from repro.kernel import RequestQueue

        self.queue = RequestQueue(
            sim, "fastdev.rq", capacity_sectors=capacity_sectors, stats=stats
        )
        self.delay = delay
        sim.spawn(self._serve(sim), name="fastdev")

    def _serve(self, sim):
        while True:
            req = yield self.queue.next_request()
            yield sim.timeout(self.delay)
            self.queue.complete(req)


class TestKswapd:
    def test_fast_device_keeps_app_unblocked(self, sim, fabric):
        """With a fast swap device kswapd runs ahead and the app almost
        never sees empty memory — the asynchrony HPBD relies on."""
        node = Node(sim, fabric, "n0", mem_bytes=8 * MiB)
        dev = _InstantDevice(sim, node.stats)
        node.swapon(dev.queue, 64 * MiB)
        vmm, frames = node.vmm, node.frames
        aspace = vmm.create_address_space(frames.total_frames * 2, "k")
        seen = []

        def proc(sim):
            for start in range(0, aspace.npages, 32):
                stop = min(start + 32, aspace.npages)
                yield from vmm.touch_run(aspace, start, stop, write=True)
                yield from node.cpus.run(500.0)
                seen.append(frames.free)
            yield from vmm.quiesce()

        run(sim, proc(sim))
        assert node.kswapd.rounds > 0
        assert (np.array(seen) > 0).mean() > 0.95

    def test_slow_device_paces_the_app(self, sim, swap_node):
        """A slow disk cannot keep up: the app regularly blocks with
        zero free frames (direct-reclaim pacing), yet still completes
        with a balanced ledger."""
        vmm = swap_node.vmm
        frames = swap_node.frames
        aspace = vmm.create_address_space(frames.total_frames * 2, "k")
        seen = []

        def proc(sim):
            for start in range(0, aspace.npages, 32):
                stop = min(start + 32, aspace.npages)
                yield from vmm.touch_run(aspace, start, stop, write=True)
                yield from swap_node.cpus.run(200.0)
                seen.append(frames.free)
            yield from vmm.quiesce()

        run(sim, proc(sim))
        arr = np.array(seen)
        assert (arr == 0).any()  # pacing happened
        vmm.check_frame_accounting()
        # After quiescing, write-backs completed and freed their frames.
        assert frames.free > frames.wm_high


class TestReadaheadEdges:
    def test_window_clipped_at_area_end(self, sim, swap_node):
        """Faulting a slot near the end of the swap area must clip the
        read-ahead window, not run off the device."""
        vmm = swap_node.vmm
        total = swap_node.frames.total_frames
        aspace = vmm.create_address_space(total * 2, "e")

        def fill(sim):
            for start in range(0, aspace.npages, 64):
                stop = min(start + 64, aspace.npages)
                yield from vmm.touch_run(aspace, start, stop, write=True)
            yield from vmm.quiesce()

        sim.run(until=sim.spawn(fill(sim)))
        # Find a page whose slot is in the last (possibly short) window.
        import numpy as np

        slots = aspace.swap_slot
        swapped = np.flatnonzero(slots >= 0)
        assert len(swapped)
        victim = int(swapped[np.argmax(slots[swapped])])

        def refault(sim):
            yield from vmm.touch_run(aspace, victim, victim + 1, write=False)
            yield from vmm.quiesce()

        sim.run(until=sim.spawn(refault(sim)))
        assert aspace.resident[victim]
        vmm.check_frame_accounting()

    def test_stale_reverse_map_skipped(self, sim, swap_node):
        """A slot whose owner re-wrote the page (slot freed, possibly
        re-used) must not be read ahead into the wrong page."""
        vmm = swap_node.vmm
        total = swap_node.frames.total_frames
        aspace = vmm.create_address_space(total * 2, "s")

        def churn(sim):
            # Two full passes: plenty of slot free/realloc churn.
            for _ in range(2):
                for start in range(0, aspace.npages, 64):
                    stop = min(start + 64, aspace.npages)
                    yield from vmm.touch_run(aspace, start, stop, write=True)
            # Random re-reads pull read-ahead through recycled windows.
            import numpy as np

            rng = np.random.default_rng(3)
            for _ in range(32):
                pages = rng.integers(0, aspace.npages, size=16)
                yield from vmm.touch_pages(aspace, pages, write=False)
            yield from vmm.quiesce()

        sim.run(until=sim.spawn(churn(sim)))
        vmm.check_frame_accounting()
        # Invariant: every swapped page's slot reverse-maps to itself.
        import numpy as np

        area = vmm.swap.areas[0]
        for page in np.flatnonzero(aspace.swap_slot >= 0)[:200]:
            slot = int(aspace.swap_slot[page])
            owner, opage = area.owner(slot)
            assert owner is aspace and opage == page


class _HeldDevice:
    """A block driver that holds each request until the test completes
    it, so the test knows each I/O's completion instant exactly."""

    def __init__(self, sim, stats):
        from repro.kernel import RequestQueue

        self.sim = sim
        self.queue = RequestQueue(
            sim, "helddev.rq", capacity_sectors=1 << 20, stats=stats
        )
        self.held = []
        self.served = 0
        sim.spawn(self._serve(), name="helddev")

    def _serve(self):
        while True:
            req = yield self.queue.next_request()
            self.held.append(req)
            self.served += 1

    def complete_at(self, when):
        """Complete every request held now at time ``when``."""
        reqs, self.held = self.held, []
        assert reqs, "no request to complete"

        def finish():
            for req in reqs:
                self.queue.complete(req)

        self.sim.schedule_call(when - self.sim.now, finish)


class TestLazyCompletionEvents:
    """Write-back and read-ahead completions get an event only once
    something waits on them; every such waiter wakes at the instant the
    I/O completes."""

    PAGES = 8

    @pytest.fixture
    def held(self, sim, fabric):
        node = Node(sim, fabric, "h0", mem_bytes=8 * MiB, ncpus=4)
        dev = _HeldDevice(sim, node.stats)
        node.swapon(dev.queue, 64 * MiB)
        aspace = node.vmm.create_address_space(64, "lazy")
        return node, dev, aspace

    @staticmethod
    def _fired_at(sim, evt):
        fired = []
        evt.callbacks.append(lambda _e: fired.append(sim.now))
        return fired

    def _under_writeback(self, sim, node, dev, aspace):
        """Dirty pages [0, PAGES) and queue them all for write-back."""
        vmm = node.vmm

        def proc(sim):
            yield from vmm.touch_run(aspace, 0, self.PAGES, write=True)
            yield from vmm.reclaim_batch(self.PAGES)

        sim.run(until=sim.spawn(proc(sim)))
        sim.run(until=sim.now + 500.0)  # past the plug timer
        assert sorted(aspace.writeback) == list(range(self.PAGES))
        assert all(evt is None for evt in aspace.writeback.values())
        assert dev.held

    def _swapped_out(self, sim, node, dev, aspace):
        """Pages [0, PAGES) written to swap and no longer resident."""
        self._under_writeback(sim, node, dev, aspace)
        dev.complete_at(sim.now + 10.0)
        sim.run(until=sim.now + 20.0)
        assert not aspace.writeback
        assert not aspace.resident[: self.PAGES].any()

    def _fault(self, sim, node, aspace, page, delay=0.0):
        def proc(sim):
            if delay:
                yield sim.timeout(delay)
            yield from node.vmm.touch_run(aspace, page, page + 1, write=False)

        return sim.spawn(proc(sim))

    def test_fault_on_page_under_writeback(self, sim, held):
        node, dev, aspace = held
        self._under_writeback(sim, node, dev, aspace)
        faulter = self._fault(sim, node, aspace, 3)
        sim.run(until=sim.now + 50.0)
        evt = aspace.writeback[3]
        assert evt is not None and evt.owner is faulter
        assert all(aspace.writeback[p] is None for p in range(self.PAGES) if p != 3)
        done = sim.now + 100.0
        fired = self._fired_at(sim, evt)
        dev.complete_at(done)
        sim.run(until=done)
        assert fired == [done]
        # The fault goes on to read the page back in.
        sim.run(until=done + 50.0)
        dev.complete_at(sim.now + 100.0)
        sim.run(until=faulter)
        assert aspace.resident[3]

    def test_fault_on_readahead_page(self, sim, held):
        node, dev, aspace = held
        self._swapped_out(sim, node, dev, aspace)
        first = self._fault(sim, node, aspace, 0)
        sim.run(until=sim.now + 500.0)
        assert sorted(aspace.swapin_pending) == list(range(self.PAGES))
        assert aspace.swapin_pending[0].owner is first
        assert aspace.swapin_pending[5] is None
        second = self._fault(sim, node, aspace, 5)
        sim.run(until=sim.now + 50.0)
        evt = aspace.swapin_pending[5]
        assert evt is not None and evt.owner is second
        fired = [self._fired_at(sim, aspace.swapin_pending[p]) for p in (0, 5)]
        done = sim.now + 100.0
        dev.complete_at(done)
        sim.run(until=done)
        assert fired == [[done], [done]]
        sim.run_all([first, second])
        assert aspace.resident[: self.PAGES].all()
        assert aspace.major_faults == 1

    def test_swapin_recheck_waits_on_readahead(self, sim, held):
        """A fault that passed its first check, then found its page read
        ahead by another fault after its frame allocation, waits on that
        read instead of issuing a second one."""
        node, dev, aspace = held
        self._swapped_out(sim, node, dev, aspace)
        params = node.vmm.params
        start = sim.now
        served = dev.served
        reader = self._fault(sim, node, aspace, 0)
        # The late fault checks page 5 before the reader marks the
        # window in flight and re-checks after it.
        late = self._fault(sim, node, aspace, 5, delay=params.alloc_overhead / 2)
        marked = start + params.fault_overhead + params.alloc_overhead
        sim.run(until=marked - params.alloc_overhead / 4)
        assert 5 not in aspace.swapin_pending
        sim.run(until=sim.now + 50.0)
        evt = aspace.swapin_pending[5]
        assert evt is not None and evt.owner is late
        fired = self._fired_at(sim, evt)
        done = sim.now + 500.0
        sim.run(until=done - 1.0)  # let the plug timer dispatch the read
        dev.complete_at(done)
        sim.run(until=done)
        assert fired == [done]
        sim.run_all([reader, late])
        assert dev.served == served + 1  # one read for both faults
        assert node.stats.get("h0.vm.swapin_pages").total == self.PAGES

    def test_quiesce_wakes_at_completion(self, sim, held):
        node, dev, aspace = held
        self._under_writeback(sim, node, dev, aspace)
        woke = []

        def proc(sim):
            yield from node.vmm.quiesce()
            woke.append(sim.now)

        sim.spawn(proc(sim))
        sim.run(until=sim.now + 10.0)
        assert aspace.writeback[0] is not None
        assert all(aspace.writeback[p] is None for p in range(1, self.PAGES))
        done = sim.now + 100.0
        dev.complete_at(done)
        sim.run(until=done + 1.0)
        assert woke == [done]

    def test_destroy_waits_then_frees_at_completion(self, sim, held):
        node, dev, aspace = held
        self._under_writeback(sim, node, dev, aspace)
        woke = []

        def proc(sim):
            yield from node.vmm.destroy_address_space(aspace)
            woke.append(sim.now)

        sim.spawn(proc(sim))
        sim.run(until=sim.now + 10.0)
        assert not aspace.dead
        done = sim.now + 100.0
        dev.complete_at(done)
        sim.run(until=done + 1.0)
        assert woke == [done]
        assert aspace.dead
        assert node.frames.used == 0
