"""Tunable constants of the modelled Linux 2.4 VM.

These are the knobs the paper's results flow through: watermark geometry
decides how early kswapd starts cleaning, batch sizes and slot clustering
decide how large the merged block requests get (Fig. 6's ~120 KiB), and
the per-page CPU costs are the "host overhead" the paper identifies as
dominant once the network is fast (§6.2).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["VMParams", "DEFAULT_VM_PARAMS"]


@dataclass(frozen=True)
class VMParams:
    """Knobs of the simulated virtual-memory system."""

    #: CPU cost of a minor fault: trap, PTE walk, mapping (µs).
    fault_overhead: float = 3.0
    #: CPU cost to allocate one free frame (buddy fast path) (µs).
    alloc_overhead: float = 0.3
    #: CPU cost per page reclaimed: LRU scan share, unmap, TLB flush (µs).
    reclaim_page_overhead: float = 1.0
    #: CPU cost to allocate/free one swap slot (µs).
    slot_overhead: float = 0.3
    #: Extra per-frame cost charged to a task allocating while free
    #: memory sits below the *high* watermark, i.e. while reclaim is
    #: active (µs).  Stands in for the
    #: 2.4 slow path the paper's "host overhead" consists of:
    #: ``balance_classzone``'s synchronous scan work, zone/LRU lock
    #: contention with kswapd, SMP TLB-shootdown IPIs, and memory-bus
    #: contention with the swap device's copies/DMA.  Calibrated so
    #: testswap over HPBD lands at the paper's 1.45× local (Fig. 5).
    pressure_page_overhead: float = 18.0

    #: CPU cost per page brought in from swap, beyond the raw fault trap:
    #: swap-cache insertion/lookup, page locking, PTE rewrite and the
    #: cold-cache context switches around the blocking read (µs).
    #: Calibrated against quick sort over HPBD (Fig. 7).
    swapin_page_overhead: float = 30.0

    #: Swap read-ahead window in pages (Linux ``page_cluster=3`` → 8).
    readahead_pages: int = 8
    #: Pages reclaimed per kswapd scan batch (``SWAP_CLUSTER_MAX``).
    kswapd_batch: int = 32
    #: Maximum write-back bytes in flight per node before reclaim waits
    #: (models the 2.4 throttling of dirty-page producers).
    max_writeback_pages: int = 512

    #: Free-frame watermarks as fractions of total frames.
    frac_min: float = 0.010
    frac_low: float = 0.020
    frac_high: float = 0.040

    #: kswapd background wakeup period when idle (µs) — 2.4 woke about
    #: once a second even without pressure.
    kswapd_period: float = 1_000_000.0

    def __post_init__(self) -> None:
        if not (0 < self.frac_min < self.frac_low < self.frac_high < 0.5):
            raise ValueError(
                f"watermarks must satisfy 0 < min < low < high < 0.5, got "
                f"{self.frac_min}/{self.frac_low}/{self.frac_high}"
            )
        for name in (
            "fault_overhead",
            "alloc_overhead",
            "reclaim_page_overhead",
            "slot_overhead",
            "pressure_page_overhead",
            "swapin_page_overhead",
        ):
            # CPU time only runs forward; the VM's inline first-touch
            # loop relies on it (one check at a fault's end instant).
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.readahead_pages < 1:
            raise ValueError("readahead_pages must be >= 1")
        if self.kswapd_batch < 1:
            raise ValueError("kswapd_batch must be >= 1")


DEFAULT_VM_PARAMS = VMParams()
