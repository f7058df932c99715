"""Property-based tests (hypothesis) on the core data structures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.hpbd import ChunkMapDistribution, RegisteredPool, blocking_chunks
from repro.hpbd.ramdisk import RamDisk
from repro.kernel import PageLRU
from repro.kernel.vmm import AddressSpace
from repro.net.model import LinearCost, PiecewiseLinearCost
from repro.simulator import Simulator
from repro.units import KiB, MiB, PAGE_SIZE


# ---------------------------------------------------------------------------
# Registration buffer pool: the ledger always balances, free extents stay
# sorted/disjoint/non-adjacent, and everything freed makes the pool whole.
# ---------------------------------------------------------------------------


@st.composite
def pool_ops(draw):
    """A sequence of alloc sizes and free choices."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["alloc", "free"]),
                st.integers(min_value=1, max_value=256 * KiB),
            ),
            min_size=1,
            max_size=120,
        )
    )


class TestPoolProperties:
    @given(ops=pool_ops())
    @settings(max_examples=60, deadline=None)
    def test_invariants_hold_under_any_schedule(self, ops):
        sim = Simulator()
        pool = RegisteredPool(sim, size=MiB)
        live = []
        for kind, size in ops:
            if kind == "alloc":
                buf = pool.try_alloc(size)
                if buf is not None:
                    live.append(buf)
            elif live:
                # deterministic pseudo-random pick driven by size
                pool.free(live.pop(size % len(live)))
            pool.check_invariants()
        for buf in live:
            pool.free(buf)
        pool.check_invariants()
        assert pool.free_bytes == MiB
        assert pool.fragments == 1

    @given(sizes=st.lists(st.integers(1, 128 * KiB), min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_allocations_never_overlap(self, sizes):
        sim = Simulator()
        pool = RegisteredPool(sim, size=MiB)
        bufs = [b for b in (pool.try_alloc(s) for s in sizes) if b is not None]
        spans = sorted((b.offset, b.end) for b in bufs)
        for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
            assert e1 <= s2

    @given(size=st.integers(1, MiB))
    @settings(max_examples=30, deadline=None)
    def test_first_fit_lowest_offset(self, size):
        sim = Simulator()
        pool = RegisteredPool(sim, size=MiB)
        buf = pool.try_alloc(size)
        assert buf is not None and buf.offset == 0


# ---------------------------------------------------------------------------
# Blocking distribution: splits always cover the extent exactly, land in
# bounds, and follow the contiguous-chunk layout.
# ---------------------------------------------------------------------------


class TestStripingProperties:
    @given(
        nservers=st.integers(1, 16),
        chunk_mib=st.integers(1, 64),
        offset=st.integers(0, 2**30),
        nbytes=st.integers(1, 128 * KiB),
    )
    @settings(max_examples=120, deadline=None)
    def test_split_partitions_extent(self, nservers, chunk_mib, offset, nbytes):
        total = nservers * chunk_mib * MiB
        assume(offset + nbytes <= total)
        d = ChunkMapDistribution(total, nservers, blocking_chunks(total, nservers))
        chunk_bytes = total // nservers
        segs = d.split(offset, nbytes)
        assert sum(s.nbytes for s in segs) == nbytes
        # Reconstruct: walking the segments reproduces the offsets.
        pos = offset
        for seg in segs:
            srv, soff = d.locate(pos)
            assert (srv, soff) == (seg.server, seg.server_offset)
            assert 0 <= seg.server_offset < chunk_bytes
            assert seg.server_offset + seg.nbytes <= chunk_bytes
            pos += seg.nbytes

    @given(nservers=st.integers(1, 16), chunk_mib=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_max_two_segments_for_128k(self, nservers, chunk_mib):
        # A 128 KiB request can straddle at most one chunk boundary as
        # long as chunks are >= 128 KiB.
        total = nservers * chunk_mib * MiB
        d = ChunkMapDistribution(total, nservers, blocking_chunks(total, nservers))
        for offset in range(0, total - 128 * KiB, total // 7 + 1):
            assert len(d.split(offset, 128 * KiB)) <= 2


# ---------------------------------------------------------------------------
# LRU: pop order equals last-touch order, no duplicates, no lost pages.
# ---------------------------------------------------------------------------


class TestLRUProperties:
    @given(
        touches=st.lists(
            st.lists(st.integers(0, 63), min_size=1, max_size=16),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_eviction_matches_reference_lru(self, touches):
        lru = PageLRU()
        aspace = AddressSpace(64, "p")
        reference: dict[int, int] = {}  # page -> last touch index
        clock = 0
        for batch in touches:
            pages = np.unique(np.array(batch, dtype=np.int64))
            stamps = lru.next_stamps(len(pages))
            aspace.page_stamp[pages] = stamps
            aspace.resident[pages] = True
            lru.push_batch(aspace, pages, stamps)
            for p in pages:
                clock += 1
                reference[int(p)] = clock
        victims = lru.pop_victims(64)
        got = [int(p) for (_a, arr) in victims for p in arr]
        assert len(got) == len(set(got))  # no duplicates
        assert set(got) == set(reference)  # no lost pages
        # order: reference last-touch times must be non-decreasing,
        # comparing at batch granularity (page order inside one batch is
        # the batch's internal order).
        batch_maxes = []
        for _a, arr in victims:
            batch_maxes.append(max(reference[int(p)] for p in arr))
        assert batch_maxes == sorted(batch_maxes)


# ---------------------------------------------------------------------------
# RamDisk: page store behaves like a dict keyed by page.
# ---------------------------------------------------------------------------


class TestRamDiskProperties:
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 63), st.integers(1, 8)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_reads_see_latest_writes(self, writes):
        rd = RamDisk(64 * PAGE_SIZE)
        reference: dict[int, object] = {}
        for i, (page, npages) in enumerate(writes):
            npages = min(npages, 64 - page)
            if npages == 0:
                continue
            token = f"w{i}"
            rd.write(page * PAGE_SIZE, npages * PAGE_SIZE, token=token)
            for p in range(page, page + npages):
                reference[p] = token
        for p, expected in reference.items():
            tokens, _ = rd.read(p * PAGE_SIZE, PAGE_SIZE)
            assert tokens[0][0] == expected


# ---------------------------------------------------------------------------
# Cost models: monotonicity and vectorization coherence.
# ---------------------------------------------------------------------------


class TestCostModelProperties:
    @given(
        alpha=st.floats(0, 1e3),
        beta=st.floats(0, 1.0),
        a=st.integers(0, 1 << 20),
        b=st.integers(0, 1 << 20),
    )
    @settings(max_examples=80, deadline=None)
    def test_linear_monotone(self, alpha, beta, a, b):
        m = LinearCost(alpha, beta)
        if a <= b:
            assert m.cost(a) <= m.cost(b)

    @given(sizes=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_piecewise_vector_matches_scalar(self, sizes):
        m = PiecewiseLinearCost(
            knots=((0.0, 1.0), (4096.0, 3.0), (65536.0, 40.0))
        )
        arr = m.cost_array(np.array(sizes, dtype=np.float64))
        for s, v in zip(sizes, arr):
            assert v == pytest.approx(m.cost(s), rel=1e-9, abs=1e-9)

    @given(sizes=st.lists(st.integers(0, 1 << 21), min_size=2, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_memcpy_monotone(self, sizes):
        from repro.net import MEMCPY

        ordered = sorted(sizes)
        costs = [MEMCPY.cost(s) for s in ordered]
        assert all(x <= y + 1e-9 for x, y in zip(costs, costs[1:]))
