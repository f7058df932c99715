"""Tests for the cooperative idle-memory extension (§7 future work)."""

from __future__ import annotations

import pytest

from repro.hpbd import HPBDClient, HPBDServer, MemoryBroker, lender_chunk_map
from repro.kernel import Node
from repro.simulator import SimulationError
from repro.units import KiB, MiB, PAGE_SIZE


class TestLenderChunkMap:
    def test_unequal_shares_layout(self):
        d = lender_chunk_map([2 * MiB, MiB, 4 * MiB])
        assert d.total_bytes == 7 * MiB
        assert d.locate(0) == (0, 0)
        assert d.locate(2 * MiB) == (1, 0)
        assert d.locate(3 * MiB) == (2, 0)
        assert d.locate(7 * MiB - 1) == (2, 4 * MiB - 1)

    def test_split_covers_extent(self):
        d = lender_chunk_map([MiB, 3 * MiB])
        segs = d.split(MiB - 64 * KiB, 128 * KiB)
        assert len(segs) == 2
        assert segs[0].server == 0 and segs[0].nbytes == 64 * KiB
        assert segs[1].server == 1 and segs[1].server_offset == 0
        assert sum(s.nbytes for s in segs) == 128 * KiB

    def test_share_of(self):
        d = lender_chunk_map([MiB, 2 * MiB])
        assert d.share_of(0) == MiB
        assert d.share_of(1) == 2 * MiB

    def test_validation(self):
        with pytest.raises(ValueError):
            lender_chunk_map([])
        with pytest.raises(ValueError):
            lender_chunk_map([MiB, 0])
        d = lender_chunk_map([MiB])
        with pytest.raises(ValueError):
            d.locate(MiB)
        with pytest.raises(ValueError):
            d.split(0, 0)


class TestMemoryBroker:
    def test_advertise_applies_self_reserve(self, sim):
        broker = MemoryBroker(sim, self_reserve_bytes=64 * MiB)
        ad = broker.advertise("n1", 100 * MiB)
        assert ad.idle_bytes == 36 * MiB
        assert broker.idle_of("n1") == 36 * MiB

    def test_poor_node_advertises_zero(self, sim):
        broker = MemoryBroker(sim, self_reserve_bytes=64 * MiB)
        ad = broker.advertise("n1", 32 * MiB)
        assert ad.idle_bytes == 0

    def test_selection_is_richest_first(self, sim):
        broker = MemoryBroker(sim, self_reserve_bytes=0)
        broker.advertise("poor", 8 * MiB)
        broker.advertise("rich", 64 * MiB)
        broker.advertise("mid", 32 * MiB)
        chosen = broker.select_servers(70 * MiB)
        assert [n for n, _s in chosen] == ["rich", "mid"]
        assert chosen[0][1] == 64 * MiB
        assert chosen[1][1] == 6 * MiB

    def test_grants_reserve_memory(self, sim):
        broker = MemoryBroker(sim, self_reserve_bytes=0)
        broker.advertise("a", 32 * MiB)
        broker.select_servers(8 * MiB)
        assert broker.idle_of("a") == 24 * MiB
        broker.release("a", 8 * MiB)
        assert broker.idle_of("a") == 32 * MiB

    def test_insufficient_cluster_raises(self, sim):
        broker = MemoryBroker(sim, self_reserve_bytes=0)
        broker.advertise("a", 8 * MiB)
        with pytest.raises(SimulationError, match="cannot lend"):
            broker.select_servers(16 * MiB)

    def test_max_servers_bound(self, sim):
        broker = MemoryBroker(sim, self_reserve_bytes=0)
        for i in range(10):
            broker.advertise(f"n{i}", 4 * MiB)
        with pytest.raises(SimulationError):
            broker.select_servers(36 * MiB, max_servers=8)

    def test_bad_request_sizes(self, sim):
        broker = MemoryBroker(sim, self_reserve_bytes=0)
        with pytest.raises(ValueError):
            broker.select_servers(0)
        with pytest.raises(ValueError):
            broker.select_servers(PAGE_SIZE + 1)

    def test_withdraw(self, sim):
        broker = MemoryBroker(sim, self_reserve_bytes=0)
        broker.advertise("a", 8 * MiB)
        broker.withdraw("a")
        assert broker.total_idle == 0


class TestCooperativeEndToEnd:
    def test_broker_built_device_serves_swap(self, sim, fabric):
        """Full path: advertisements -> broker selection -> weighted
        HPBD device -> real swap traffic lands proportionally."""
        broker = MemoryBroker(sim, self_reserve_bytes=0)
        broker.advertise("mem0", 24 * MiB)
        broker.advertise("mem1", 8 * MiB)
        chosen = broker.select_servers(32 * MiB)
        servers = [
            HPBDServer(sim, fabric, name, store_bytes=share)
            for name, share in chosen
        ]
        dist = lender_chunk_map([share for _n, share in chosen])
        node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
        client = HPBDClient(
            sim, node, servers, total_bytes=32 * MiB, distribution=dist
        )
        sim.run(until=sim.spawn(client.connect()))
        node.swapon(client.queue, 32 * MiB)
        aspace = node.vmm.create_address_space((28 * MiB) // PAGE_SIZE, "a")

        def app(sim):
            for start in range(0, aspace.npages, 64):
                stop = min(start + 64, aspace.npages)
                yield from node.vmm.touch_run(aspace, start, stop, write=True)
            yield from node.vmm.quiesce()

        sim.run(until=sim.spawn(app(sim)))
        stored = [s.ramdisk.pages_stored for s in servers]
        # The first (richest) server holds the front of the device and
        # takes the bulk of the sequential page-out stream.
        assert stored[0] > 0
        assert sum(stored) * PAGE_SIZE <= 32 * MiB
        node.vmm.check_frame_accounting()

    def test_distribution_mismatch_rejected(self, sim, fabric):
        node = Node(sim, fabric, "c", mem_bytes=16 * MiB)
        srv = HPBDServer(sim, fabric, "m", store_bytes=8 * MiB)
        with pytest.raises(ValueError, match="covers"):
            HPBDClient(
                sim, node, [srv], total_bytes=8 * MiB,
                distribution=lender_chunk_map([4 * MiB]),
            )
        with pytest.raises(ValueError, match="names"):
            HPBDClient(
                sim, node, [srv], total_bytes=8 * MiB,
                distribution=lender_chunk_map([4 * MiB, 4 * MiB]),
            )
