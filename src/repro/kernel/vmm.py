"""Virtual-memory manager: address spaces, faults, reclaim, write-back.

This models the slice of the Linux 2.4 VM that the paper's results flow
through:

* **anonymous pages** with first-touch allocation;
* a global :class:`~repro.kernel.lru.PageLRU` feeding reclaim;
* **kswapd**-style background reclaim between ``low``/``high`` free
  watermarks plus **direct reclaim** when an allocation finds memory
  tight (the throttling that couples application speed to swap-device
  speed);
* **swap-slot clustering** so page-out bios merge into ~128 KiB requests
  (Fig. 6);
* **swap read-ahead** over an aligned 8-slot window on fault;
* the **swap-cache** economy: a swapped-in page keeps its slot while
  clean (eviction is then free); writing the page invalidates the slot.

State is kept in per-address-space numpy vectors so the workload hot
path (`touch_run`) is vectorized.  Hits never reach the event kernel,
and neither does a run of first-touch faults whose every CPU grant and
sleep would fire next: one loop faults such a run in with no generator
per page (``_first_touch_inline``).  The other misses take the
generator path (``_fault``).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from ..simulator import (
    Event,
    SimulationError,
    Simulator,
    StatsRegistry,
    WaitQueue,
)
from ..units import SECTORS_PER_PAGE
from .blockdev import READ, WRITE, Bio, RequestQueue
from .frames import FrameAllocator
from .lru import PageLRU
from .params import VMParams
from .swapmap import SwapArea, SwapManager
from .task import CPUSet

if TYPE_CHECKING:  # pragma: no cover
    pass

__all__ = ["AddressSpace", "VMM"]


class AddressSpace:
    """One process's anonymous memory, page-granular numpy state."""

    def __init__(self, npages: int, name: str) -> None:
        if npages < 1:
            raise ValueError(f"address space needs pages, got {npages}")
        self.npages = npages
        self.name = name
        self.resident = np.zeros(npages, dtype=bool)
        self.dirty = np.zeros(npages, dtype=bool)
        self.page_stamp = np.full(npages, -1, dtype=np.int64)
        #: index into VMM._area_registry, -1 = no swap copy
        self.swap_area = np.full(npages, -1, dtype=np.int16)
        self.swap_slot = np.full(npages, -1, dtype=np.int64)
        #: page -> write-back in flight.  The value is the completion
        #: event once something waits on it (``VMM._completion``), else
        #: None: a completion nobody waits on is never scheduled.
        self.writeback: dict[int, Event | None] = {}
        #: page -> swap-in read in flight, valued as ``writeback``
        self.swapin_pending: dict[int, Event | None] = {}
        self.dead = False
        # accounting
        self.major_faults = 0
        self.minor_faults = 0
        self.stall_usec = 0.0

    @property
    def resident_pages(self) -> int:
        return int(self.resident.sum())

    @property
    def swapped_pages(self) -> int:
        return int((self.swap_slot >= 0).sum())


class VMM:
    """Per-node virtual-memory system."""

    def __init__(
        self,
        sim: Simulator,
        cpus: CPUSet,
        frames: FrameAllocator,
        params: VMParams,
        stats: StatsRegistry | None = None,
        name: str = "vm",
    ) -> None:
        self.sim = sim
        self.cpus = cpus
        self.frames = frames
        self.params = params
        self.name = name
        self.stats = stats if stats is not None else StatsRegistry()
        self.lru = PageLRU()
        self.swap = SwapManager()
        self._area_registry: list[SwapArea] = []
        self._spaces: list[AddressSpace] = []
        # kswapd plumbing (the daemon itself lives in kswapd.py)
        self.kswapd_wakeup = WaitQueue(sim, name=f"{name}.kswapd", latch=True)
        # write-back throttle
        self.wb_inflight = 0
        self.wb_waiters = WaitQueue(sim, name=f"{name}.wb")
        self._direct_reclaim_active = False
        # counters
        self._c_minor = self.stats.counter(f"{name}.fault_minor")
        self._c_major = self.stats.counter(f"{name}.fault_major")
        self._c_swapin = self.stats.counter(f"{name}.swapin_pages")
        self._c_swapout = self.stats.counter(f"{name}.swapout_pages")
        self._c_reclaim_clean = self.stats.counter(f"{name}.reclaim_clean_pages")
        self._t_fault_stall = self.stats.tally(f"{name}.fault_stall_usec")
        self._t_alloc_stall = self.stats.tally(f"{name}.alloc_stall_usec")

    # -- setup ---------------------------------------------------------------

    def add_swap_area(
        self, queue: RequestQueue, nslots: int, priority: int = 0
    ) -> SwapArea:
        """``swapon``: attach a block device as swap space."""
        area = SwapArea(
            queue, nslots, priority, name=f"{self.name}.swap{len(self._area_registry)}"
        )
        self._area_registry.append(area)
        if len(self._area_registry) > 32000:
            raise SimulationError("too many swap areas for int16 index")
        self.swap.add(area)
        return area

    def create_address_space(self, npages: int, name: str = "") -> AddressSpace:
        aspace = AddressSpace(npages, name or f"as{len(self._spaces)}")
        self._spaces.append(aspace)
        return aspace

    def destroy_address_space(self, aspace: AddressSpace):
        """Free everything; generator — waits for in-flight I/O first."""
        while (evt := self._next_completion([aspace])) is not None:
            yield evt
        aspace.dead = True
        resident = int(aspace.resident.sum())
        if resident:
            self.frames.release(resident)
        aspace.resident[:] = False
        for idx, area in enumerate(self._area_registry):
            mask = aspace.swap_area == idx
            slots = aspace.swap_slot[mask]
            if len(slots):
                area.free_slots(slots)
        aspace.swap_area[:] = -1
        aspace.swap_slot[:] = -1
        self.lru.drop_address_space(aspace)
        if aspace in self._spaces:
            self._spaces.remove(aspace)

    # -- the application-facing hot path -------------------------------------

    def touch_run(self, aspace: AddressSpace, start: int, stop: int, write: bool):
        """Touch pages ``[start, stop)`` in order; generator.

        Blocks (yields) only for misses; residency checks, dirty marking
        and LRU stamping are vectorized.
        """
        if not (0 <= start < stop <= aspace.npages):
            raise ValueError(
                f"bad page range [{start}, {stop}) for {aspace.npages} pages"
            )
        pages = np.arange(start, stop, dtype=np.int64)
        yield from self._touch_common(aspace, pages, write)

    def touch_pages(self, aspace: AddressSpace, pages: np.ndarray, write: bool):
        """Touch an arbitrary page set (ascending order enforced here)."""
        pages = np.unique(np.asarray(pages, dtype=np.int64))
        if len(pages) == 0:
            return
        if pages[0] < 0 or pages[-1] >= aspace.npages:
            raise ValueError("page index out of range")
        yield from self._touch_common(aspace, pages, write)

    def _touch_common(self, aspace: AddressSpace, pages: np.ndarray, write: bool):
        limit = 16 * len(pages) + 64
        faults = 0
        while True:
            missing = pages[~aspace.resident[pages]]
            if len(missing) == 0:
                break
            # Each page of a leading run of first touches faults inline;
            # the page after the run takes the generator path.
            done = self._first_touch_inline(aspace, missing, limit - faults)
            faults += done
            if done == len(missing):
                break
            faults += 1
            if faults > limit:
                raise SimulationError(
                    f"{aspace.name}: touch loop not converging "
                    f"(memory far too small for working set?)"
                )
            yield from self._fault(aspace, int(missing[done]))
        self._mark_touched(aspace, pages, write)

    def _mark_touched(
        self, aspace: AddressSpace, pages: np.ndarray, write: bool
    ) -> None:
        if write:
            # Writing invalidates any swap copy (swap-cache delete).
            stale = pages[(aspace.swap_slot[pages] >= 0)]
            if len(stale):
                self._free_slots_of(aspace, stale)
            aspace.dirty[pages] = True
        stamps = self.lru.next_stamps(len(pages))
        aspace.page_stamp[pages] = stamps
        self.lru.push_batch(aspace, pages, stamps)

    def _free_slots_of(self, aspace: AddressSpace, pages: np.ndarray) -> None:
        areas = aspace.swap_area[pages]
        for idx in np.unique(areas):
            if idx < 0:
                continue
            sel = pages[areas == idx]
            self._area_registry[idx].free_slots(aspace.swap_slot[sel])
        aspace.swap_area[pages] = -1
        aspace.swap_slot[pages] = -1

    # -- fault path ----------------------------------------------------------

    def _first_touch_inline(
        self, aspace: AddressSpace, missing: np.ndarray, budget: int
    ) -> int:
        """Fault in the leading first touches of ``missing``, at most
        ``budget`` of them, with no generator; return how many.

        A page is taken only when :meth:`_fault` would run its minor
        fault without an event: the page has no swap copy and no I/O in
        flight, a frame is free (no reclaim), and a CPU is free with
        nobody queued.  The fault, frame-allocation and pressure charges
        then run back to back, and the clock only grows, so one
        ``CPUSet.can_run_inline`` check at the fault's end instant
        covers each of their grants and sleeps.  It is asked again for
        every page: ``wake_kswapd`` may post.  Every state change lands
        at the instant and in the order ``_fault`` makes it; residency,
        dirty bits, LRU stamps and the stall tallies are written once
        per run, in page order.
        """
        sim = self.sim
        cpus = self.cpus
        frames = self.frames
        params = self.params
        fault = params.fault_overhead
        alloc = params.alloc_overhead
        pressure = params.pressure_page_overhead
        swap_slot = aspace.swap_slot
        writeback = aspace.writeback
        swapin_pending = aspace.swapin_pending
        trace = sim.trace
        fault_stalls: list[float] = []
        alloc_stalls: list[float] = []
        done = 0
        for page in missing[:budget]:
            page = int(page)
            if swap_slot[page] >= 0 or page in writeback or page in swapin_pending:
                break
            free = frames.free
            if free < 1:
                break
            # The allocation leaves free memory below ``high``: the
            # allocator's slow path charges pressure too.
            pressed = free - 1 < frames.wm_high
            end = sim.now + fault + alloc
            if pressed:
                end += pressure
            if not cpus.can_run_inline(end):
                break
            t0 = sim.now
            cpus.run_inline(fault)
            t1 = sim.now
            cpus.run_inline(alloc)
            frames.try_alloc(1)
            if pressed:
                cpus.run_inline(pressure)
            stall = sim.now - t1
            if stall > 0:
                alloc_stalls.append(stall)
            if frames.below_low():
                self.wake_kswapd()
            stall = sim.now - t0
            aspace.stall_usec += stall
            fault_stalls.append(stall)
            if trace.enabled:
                trace.complete(
                    self.name, aspace.name, "fault.minor", "vm.fault",
                    t0, sim.now, page=page,
                )
            done += 1
        if done:
            self._zero_filled(aspace, missing[:done])
            self._t_alloc_stall.record_many(alloc_stalls)
            self._t_fault_stall.record_many(fault_stalls)
        return done

    def _zero_filled(self, aspace: AddressSpace, pages: np.ndarray) -> None:
        """Map zeroed frames at ``pages``, first-touched in that order."""
        aspace.resident[pages] = True
        aspace.dirty[pages] = False
        aspace.minor_faults += len(pages)
        for _ in range(len(pages)):
            self._c_minor.add()
        self.lru.push_each(aspace, pages)

    def _fault(self, aspace: AddressSpace, page: int):
        t0 = self.sim.now
        yield from self.cpus.run(self.params.fault_overhead)
        if aspace.resident[page]:  # raced with read-ahead / other faulter
            return
        if page in aspace.swapin_pending:
            yield self._completion(aspace.swapin_pending, page, "swapin")
            self._record_stall(aspace, t0, page, "fault.wait")
            return
        if page in aspace.writeback:
            # Page is being cleaned; wait, then fall through to swap-in.
            yield self._completion(aspace.writeback, page, "wb")
        if aspace.resident[page]:
            self._record_stall(aspace, t0, page, "fault.wait")
            return
        if aspace.swap_slot[page] < 0:
            # First touch of an anonymous page: allocate a zeroed frame.
            yield from self._alloc_frames_blocking(1)
            self._zero_filled(aspace, np.array([page], dtype=np.int64))
            self._record_stall(aspace, t0, page, "fault.minor")
        else:
            yield from self._swapin(aspace, page)
            aspace.major_faults += 1
            self._c_major.add()
            self._record_stall(aspace, t0, page, "fault.major")

    def _record_stall(
        self, aspace: AddressSpace, t0: float, page: int, kind: str
    ) -> None:
        dt = self.sim.now - t0
        aspace.stall_usec += dt
        self._t_fault_stall.record(dt)
        trace = self.sim.trace
        if trace.enabled:
            trace.complete(
                self.name, aspace.name, kind, "vm.fault",
                t0, self.sim.now, page=page,
            )

    def _completion(
        self, in_flight: dict[int, Event | None], page: int, name: str
    ) -> Event:
        """The event that fires when ``page``'s I/O in ``in_flight``
        (an address space's ``writeback`` or ``swapin_pending``)
        completes, created on the first wait."""
        evt = in_flight[page]
        if evt is None:
            evt = in_flight[page] = self.sim.event(name)
        return evt

    def _next_completion(self, spaces: list[AddressSpace]) -> Event | None:
        """The completion event of the first page with I/O in flight in
        ``spaces`` (write-back before swap-in, oldest first), or None."""
        for aspace in spaces:
            if aspace.writeback:
                return self._completion(
                    aspace.writeback, next(iter(aspace.writeback)), "wb"
                )
            if aspace.swapin_pending:
                return self._completion(
                    aspace.swapin_pending, next(iter(aspace.swapin_pending)), "swapin"
                )
        return None

    def _swapin(self, aspace: AddressSpace, page: int):
        """Read the page back, with aligned-window read-ahead."""
        t0 = self.sim.now
        area_idx = int(aspace.swap_area[page])
        area = self._area_registry[area_idx]
        slot = int(aspace.swap_slot[page])
        # The target page's frame: may block (and direct-reclaim).
        yield from self._alloc_frames_blocking(1)
        # Re-check after the blocking allocation: another fault's
        # read-ahead may have started (or finished) this very page while
        # we slept — starting a second read would double-complete it.
        if aspace.resident[page]:
            self.frames.release(1)
            return
        if page in aspace.swapin_pending:
            self.frames.release(1)
            yield self._completion(aspace.swapin_pending, page, "swapin")
            return
        # Gather read-ahead candidates from the aligned slot window.
        window = area.window(slot, self.params.readahead_pages)
        group: list[tuple[int, AddressSpace, int]] = [(slot, aspace, page)]
        for s in window:
            s = int(s)
            if s == slot or not area.in_use(s):
                continue
            owner, opage = area.owner(s)
            if owner is None or owner.dead:
                continue
            if owner.resident[opage]:
                continue
            if opage in owner.swapin_pending or opage in owner.writeback:
                continue
            if owner.swap_slot[opage] != s:  # stale reverse map
                continue
            # Read-ahead frames are opportunistic: never block for them.
            if not self.frames.try_alloc(1):
                continue
            group.append((s, owner, opage))
        group.sort(key=lambda t: t[0])
        # Mark all as in flight before any yield; only the faulting
        # page has a waiter yet.
        for _s, owner, opage in group:
            owner.swapin_pending[opage] = None
        target_evt = self._completion(aspace.swapin_pending, page, "swapin")
        # Submit one bio per contiguous slot run; merging makes requests.
        self._c_swapin.add(len(group))
        for run in _contiguous_runs(group):
            first_slot = run[0][0]
            nslots = len(run)

            def on_read_done(_bio: Bio, run=run) -> None:
                # One LRU entry per page, stamped in slot order.
                for owner, items in groupby(run, key=itemgetter(1)):
                    pages = np.array(
                        [opage for _s, _o, opage in items], dtype=np.int64
                    )
                    owner.resident[pages] = True
                    owner.dirty[pages] = False
                    self.lru.push_each(owner, pages)
                for _s, owner, opage in run:
                    pend = owner.swapin_pending.pop(opage)
                    if pend is not None:
                        pend.succeed(None)

            area.queue.submit_bio(
                Bio(
                    op=READ,
                    sector=area.slot_to_sector(first_slot),
                    nsectors=nslots * SECTORS_PER_PAGE,
                    end_io=on_read_done,
                )
            )
        # Demand read: unplug immediately, like the 2.4 wait-on-page path.
        area.queue.unplug()
        yield target_evt
        # Post-read kernel work for the whole cluster (swap cache, page
        # locks, PTE rewrites) lands on the faulting task.
        yield from self.cpus.run(
            self.params.swapin_page_overhead * len(group)
        )
        trace = self.sim.trace
        if trace.enabled:
            trace.complete(
                self.name, aspace.name, "swapin", "vm.swapin",
                t0, self.sim.now, page=page, group=len(group),
            )

    # -- frame allocation with reclaim ---------------------------------------

    def _alloc_frames_blocking(self, n: int):
        t0 = self.sim.now
        yield from self.cpus.run(self.params.alloc_overhead * n)
        spins = 0
        while not self.frames.try_alloc(n):
            self.wake_kswapd()
            spins += 1
            if spins > 100_000:
                raise SimulationError("allocation livelock: no reclaimable memory")
            if self._direct_reclaim_active:
                yield self.frames.memory_waiters.wait()
                continue
            self._direct_reclaim_active = True
            try:
                freed = yield from self.reclaim_batch()
            finally:
                self._direct_reclaim_active = False
            if freed == 0 and self.frames.free < n:
                # Everything cold is being written; sleep for progress.
                yield self.frames.memory_waiters.wait()
        if self.frames.below_high():
            # Reclaim is active: the allocator takes the contended slow
            # path (see VMParams.pressure_page_overhead).
            yield from self.cpus.run(self.params.pressure_page_overhead * n)
        stall = self.sim.now - t0
        if stall > 0:
            self._t_alloc_stall.record(stall)
        if self.frames.below_low():
            self.wake_kswapd()

    def wake_kswapd(self) -> None:
        self.kswapd_wakeup.wake_one()

    # -- reclaim --------------------------------------------------------------

    def reclaim_batch(self, batch: int | None = None):
        """Evict up to one batch of coldest pages; generator.

        Returns the number of frames freed *immediately* (clean pages).
        Dirty pages are queued for write-back and free their frames on
        completion.
        """
        params = self.params
        want = batch if batch is not None else params.kswapd_batch
        victims = self.lru.pop_victims(want)
        freed_now = 0
        for aspace, pages in victims:
            yield from self.cpus.run(params.reclaim_page_overhead * len(pages))
            dirty_mask = aspace.dirty[pages]
            clean = pages[~dirty_mask]
            if len(clean):
                # Clean pages drop straight out: either they still have a
                # valid swap copy, or they were never written (zero).
                aspace.resident[clean] = False
                self.frames.release(len(clean))
                freed_now += len(clean)
                self._c_reclaim_clean.add(len(clean))
            dirty = pages[dirty_mask]
            if len(dirty):
                if not self.swap.areas:
                    # No swap configured: anonymous dirty pages are not
                    # reclaimable — rotate them back to the young end.
                    stamps = self.lru.next_stamps(len(dirty))
                    aspace.page_stamp[dirty] = stamps
                    self.lru.push_batch(aspace, dirty, stamps)
                else:
                    yield from self._pageout(aspace, dirty)
        return freed_now

    def _pageout(self, aspace: AddressSpace, pages: np.ndarray):
        """Queue dirty ``pages`` for swap-out write-back; generator."""
        params = self.params
        t0 = self.sim.now
        # Throttle: bound write-back bytes in flight (2.4 dirty throttling).
        while self.wb_inflight >= params.max_writeback_pages:
            yield self.wb_waiters.wait()
        remaining = pages
        while len(remaining):
            area, slots = self.swap.alloc(len(remaining), aspace, remaining)
            chunk = remaining[: len(slots)]
            remaining = remaining[len(slots) :]
            yield from self.cpus.run(params.slot_overhead * len(chunk))
            aspace.swap_area[chunk] = self._area_registry.index(area)
            aspace.swap_slot[chunk] = slots
            aspace.resident[chunk] = False
            aspace.dirty[chunk] = False
            self.wb_inflight += len(chunk)
            self._c_swapout.add(len(chunk))
            order = np.argsort(slots)
            for page, slot in zip(chunk[order], slots[order]):
                page = int(page)
                aspace.writeback[page] = None

                def on_write_done(_bio: Bio, aspace=aspace, page=page) -> None:
                    self.wb_inflight -= 1
                    evt = aspace.writeback.pop(page)
                    self.frames.release(1)
                    if evt is not None:
                        evt.succeed(None)
                    self.wb_waiters.wake_all()

                area.queue.submit_bio(
                    Bio(
                        op=WRITE,
                        sector=area.slot_to_sector(int(slot)),
                        nsectors=SECTORS_PER_PAGE,
                        end_io=on_write_done,
                    )
                )
        trace = self.sim.trace
        if trace.enabled:
            # Slot allocation + bio submission; the writes themselves
            # complete asynchronously under blk.service.
            trace.complete(
                self.name, aspace.name, "pageout", "vm.pageout",
                t0, self.sim.now, pages=len(pages),
            )

    # -- invariants / quiescing ------------------------------------------------

    def quiesce(self):
        """Wait for all in-flight swap I/O to settle; generator."""
        while (evt := self._next_completion(self._spaces)) is not None:
            yield evt

    def check_frame_accounting(self) -> None:
        """Assert the frame ledger balances (only valid when quiesced)."""
        held = sum(a.resident_pages for a in self._spaces)
        inflight = sum(
            len(a.writeback) + len(a.swapin_pending) for a in self._spaces
        )
        if inflight:
            self.sim.monitors.violation(
                "vm.frame_ledger", self.name,
                "frame accounting checked with swap I/O in flight",
                inflight=inflight,
            )
            raise SimulationError("check_frame_accounting needs quiesced VM")
        if held != self.frames.used:
            self.sim.monitors.violation(
                "vm.frame_ledger", self.name,
                "resident pages and used frames diverged",
                resident=held, used=self.frames.used,
            )
            raise SimulationError(
                f"frame ledger broken: resident={held} used={self.frames.used}"
            )


def _contiguous_runs(
    group: list[tuple[int, "AddressSpace", int]]
) -> list[list[tuple[int, "AddressSpace", int]]]:
    """Split (slot, aspace, page) triples (sorted by slot) into runs of
    consecutive slots."""
    runs: list[list[tuple[int, AddressSpace, int]]] = []
    for item in group:
        if runs and item[0] == runs[-1][-1][0] + 1:
            runs[-1].append(item)
        else:
            runs.append([item])
    return runs
