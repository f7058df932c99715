"""One memory server serving multiple client nodes (§5).

"The server is a typical daemon program.  It is able to serve multiple
clients using different swap areas."
"""

from __future__ import annotations

import pytest

from repro.hpbd import HPBDClient, HPBDServer
from repro.kernel import Node
from repro.kernel.blockdev import Bio, WRITE
from repro.simulator import Event, SimulationError
from repro.units import KiB, MiB


@pytest.fixture
def two_clients(sim, fabric):
    """Two nodes sharing one 64 MiB server, 16 MiB area each."""
    server = HPBDServer(sim, fabric, "mem0", store_bytes=64 * MiB)
    nodes = []
    clients = []
    for i in range(2):
        node = Node(sim, fabric, f"node{i}", mem_bytes=16 * MiB)
        client = HPBDClient(
            sim,
            node,
            [server],
            total_bytes=16 * MiB,
            name=f"hpbd{i}",
            server_area_bases=[i * 16 * MiB],
        )
        nodes.append(node)
        clients.append(client)

    def wire(sim):
        for c in clients:
            yield from c.connect()

    sim.run(until=sim.spawn(wire(sim)))
    return server, nodes, clients


def do_io(sim, client, op, sector, nsectors):
    done = Event(sim)

    def proc(sim):
        client.queue.submit_bio(
            Bio(op=op, sector=sector, nsectors=nsectors, done=done)
        )
        client.queue.unplug()
        yield done

    sim.run(until=sim.spawn(proc(sim)))


class TestMultiClient:
    def test_both_clients_served(self, sim, two_clients):
        server, _nodes, clients = two_clients
        do_io(sim, clients[0], WRITE, sector=0, nsectors=8)
        do_io(sim, clients[1], WRITE, sector=0, nsectors=8)
        assert server.requests_served == 2

    def test_areas_do_not_collide(self, sim, two_clients):
        """Both clients write their own sector 0; each must read back
        its own data, not the other's."""
        server, _nodes, clients = two_clients
        do_io(sim, clients[0], WRITE, sector=0, nsectors=8)
        do_io(sim, clients[1], WRITE, sector=0, nsectors=8)
        # Distinct pages stored (two separate areas written).
        assert server.ramdisk.pages_stored == 2
        t0, _ = server.ramdisk.read(0, 4 * KiB)
        t1, _ = server.ramdisk.read(16 * MiB, 4 * KiB)
        assert t0 != t1
        assert t0[0] is not None and t1[0] is not None

    def test_concurrent_traffic_from_both(self, sim, two_clients):
        server, _nodes, clients = two_clients
        events = []

        def flood(sim, client):
            for i in range(16):
                done = Event(sim)
                events.append(done)
                client.queue.submit_bio(
                    Bio(op=WRITE, sector=i * 8, nsectors=8, done=done)
                )
            client.queue.unplug()
            for _ in range(0):
                yield  # pragma: no cover
            return

        def waiter(sim):
            for c in clients:
                # submit both floods in one process context
                pass
            for i in range(16):
                done = Event(sim)
                events.append(done)
                clients[0].queue.submit_bio(
                    Bio(op=WRITE, sector=i * 8, nsectors=8, done=done)
                )
                done2 = Event(sim)
                events.append(done2)
                clients[1].queue.submit_bio(
                    Bio(op=WRITE, sector=i * 8, nsectors=8, done=done2)
                )
            clients[0].queue.unplug()
            clients[1].queue.unplug()
            for evt in events:
                yield evt

        p = sim.spawn(waiter(sim))
        sim.run(until=p)
        assert server.requests_served >= 2
        for c in clients:
            assert c.pool.allocated_bytes == 0

    def test_bad_area_base_rejected(self, sim, fabric):
        # Caught at construction: base + share exceeds the store.
        server = HPBDServer(sim, fabric, "m", store_bytes=MiB)
        node = Node(sim, fabric, "n", mem_bytes=16 * MiB)
        with pytest.raises(ValueError, match="too small"):
            HPBDClient(
                sim, node, [server], total_bytes=MiB, server_area_bases=[2 * MiB]
            )

    def test_bad_area_base_rejected_at_server(self, sim, fabric):
        # The server-side guard still exists for raw (non-driver) users.
        server = HPBDServer(sim, fabric, "m", store_bytes=MiB)
        with pytest.raises(SimulationError, match="area base"):
            server.register_client(object(), area_base=4 * MiB)
