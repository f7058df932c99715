"""Batched lazy-deletion LRU for page reclaim.

A faithful per-page linked list would put every page touch on the Python
hot path.  Instead we exploit the structure of the workloads (runs of
pages touched together) and keep the LRU as a FIFO of *touch batches*:

* touching pages appends ``(aspace, pages, stamps)`` with fresh stamps,
  and records the same stamps in ``aspace.page_stamp`` — O(1) amortized
  per page and fully vectorized;
* a page touched again later simply appears in a younger batch; the old
  entry becomes *stale* (its stamp no longer matches);
* eviction pops batches from the cold end and keeps only entries whose
  stamp still matches and whose page is still resident — exact LRU order
  at batch granularity, which is also how 2.4's scan-based reclaim
  behaves in practice.

Memory is bounded: the queue never holds more live entries than resident
pages, and stale entries are dropped the first time they surface.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .vmm import AddressSpace

__all__ = ["PageLRU"]


class PageLRU:
    """Global (per-node) LRU over all address spaces' resident pages."""

    def __init__(self) -> None:
        self._queue: deque[tuple["AddressSpace", np.ndarray, np.ndarray]] = deque()
        self._stamp = 0
        #: total entries including stale ones (for compaction heuristics)
        self._entries = 0
        self.live_hint = 0  # resident pages tracked (approximate)

    def __len__(self) -> int:
        return self._entries

    def next_stamps(self, n: int) -> np.ndarray:
        """Reserve ``n`` fresh, strictly increasing stamps."""
        start = self._stamp + 1
        self._stamp += n
        return np.arange(start, start + n, dtype=np.int64)

    def push_batch(
        self, aspace: "AddressSpace", pages: np.ndarray, stamps: np.ndarray
    ) -> None:
        """Record ``pages`` as most-recently-used with the given stamps.

        The caller must already have written ``stamps`` into
        ``aspace.page_stamp[pages]`` (the VMM does both together).
        """
        if len(pages) == 0:
            return
        if len(pages) != len(stamps):
            raise ValueError("pages and stamps must have equal length")
        self._queue.append((aspace, pages, stamps))
        self._entries += len(pages)

    def push_each(self, aspace: "AddressSpace", pages: np.ndarray) -> None:
        """Stamp ``pages`` most-recently-used in order, one queue entry
        per page: what :meth:`push_batch` of one page at a time does,
        with one stamp reservation and one ``page_stamp`` write (the
        entries of a longer run are views of ``pages`` and its stamps).
        Pages faulted in one by one must stay separate entries: reclaim
        charges CPU and allocates swap slots per ``pop_victims`` group."""
        n = len(pages)
        if n == 0:
            return
        stamps = self.next_stamps(n)
        aspace.page_stamp[pages] = stamps
        if n == 1:  # the common single fault: no views to cut
            self._queue.append((aspace, pages, stamps))
        else:
            self._queue.extend(
                zip(repeat(aspace, n), pages.reshape(n, 1), stamps.reshape(n, 1))
            )
        self._entries += n

    def pop_victims(self, want: int) -> list[tuple["AddressSpace", np.ndarray]]:
        """Collect up to ``want`` genuinely-coldest resident pages.

        Returns ``(aspace, pages)`` groups in eviction order.  Batches
        are consumed whole except possibly the last, whose unused tail is
        pushed back to the cold end.
        """
        if want < 1:
            raise ValueError(f"bad victim count {want}")
        got = 0
        out: list[tuple["AddressSpace", np.ndarray]] = []
        while got < want and self._queue:
            aspace, pages, stamps = self._queue.popleft()
            self._entries -= len(pages)
            # Live = stamp still current AND page still resident AND not
            # already under writeback (vmm clears resident at submit).
            live = (aspace.page_stamp[pages] == stamps) & aspace.resident[pages]
            pages = pages[live]
            stamps = stamps[live]
            if len(pages) == 0:
                continue
            take = min(len(pages), want - got)
            out.append((aspace, pages[:take]))
            got += take
            if take < len(pages):
                # Put the untaken (still cold) tail back at the front.
                self._queue.appendleft((aspace, pages[take:], stamps[take:]))
                self._entries += len(pages) - take
        return out

    def drop_address_space(self, aspace: "AddressSpace") -> None:
        """Forget all entries of an exiting address space (lazy: bump the
        stamps so every queued entry for it becomes stale)."""
        aspace.page_stamp[:] = -1
