"""Integration tests for the NBD baseline (client + server over TCP)."""

from __future__ import annotations

import pytest

from repro.kernel import Node
from repro.kernel.blockdev import Bio, READ, WRITE
from repro.nbd import NBDClient, NBDServer
from repro.net import GIGE_DEFAULT, IPOIB_DEFAULT
from repro.simulator import Event
from repro.units import KiB, MiB


@pytest.fixture
def setup(sim, fabric):
    node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
    server = NBDServer(
        sim, fabric, "nbdsrv", store_bytes=64 * MiB,
        tcp_params=GIGE_DEFAULT, stats=node.stats,
    )
    client = NBDClient(
        sim, node, server, total_bytes=64 * MiB, tcp_params=GIGE_DEFAULT
    )
    return node, server, client


def connect(sim, client):
    sim.run(until=sim.spawn(client.connect()))


def do_io(sim, client, op, sector, nsectors):
    done = Event(sim)
    bio = Bio(op=op, sector=sector, nsectors=nsectors, done=done)

    def proc(sim):
        client.queue.submit_bio(bio)
        client.queue.unplug()
        yield done
        return sim.now

    return sim.run(until=sim.spawn(proc(sim)))


class TestNBD:
    def test_write_read_roundtrip(self, sim, setup):
        _node, server, client = setup
        connect(sim, client)
        do_io(sim, client, WRITE, sector=0, nsectors=8)
        assert server.ramdisk.pages_stored == 1
        do_io(sim, client, READ, sector=0, nsectors=8)
        assert server.requests_served == 2

    def test_double_connect_rejected(self, sim, setup):
        _node, _server, client = setup
        connect(sim, client)
        with pytest.raises(Exception):
            sim.run(until=sim.spawn(client.connect()))

    def test_undersized_store_rejected(self, sim, fabric):
        node = Node(sim, fabric, "c", mem_bytes=16 * MiB)
        server = NBDServer(
            sim, fabric, "s", store_bytes=MiB,
            tcp_params=GIGE_DEFAULT, stats=node.stats,
        )
        with pytest.raises(ValueError):
            NBDClient(sim, node, server, total_bytes=64 * MiB,
                      tcp_params=GIGE_DEFAULT)

    def test_strictly_serial_service(self, sim, setup):
        """2.4 NBD: one request at a time — total time for N concurrent
        bios is ~N times a single round trip."""
        _node, _server, client = setup
        connect(sim, client)
        t_single = do_io(sim, client, WRITE, sector=0, nsectors=256)
        t0 = sim.now
        events = []

        def proc(sim):
            for i in range(4):
                done = Event(sim)
                events.append(done)
                client.queue.submit_bio(
                    Bio(op=WRITE, sector=1024 + i * 256, nsectors=256, done=done)
                )
            client.queue.unplug()
            for evt in events:
                yield evt
            return sim.now - t0

        t_four = sim.run(until=sim.spawn(proc(sim)))
        assert t_four > 3.0 * t_single

    def test_gige_slower_than_ipoib_for_bulk(self, sim, fabric):
        def one_write(params):
            from repro.simulator import Simulator

            s2 = Simulator()
            from repro.net import Fabric as F

            f2 = F(s2)
            node = Node(s2, f2, "c", mem_bytes=16 * MiB)
            server = NBDServer(s2, f2, "s", store_bytes=64 * MiB,
                               tcp_params=params, stats=node.stats)
            client = NBDClient(s2, node, server, total_bytes=64 * MiB,
                               tcp_params=params)
            s2.run(until=s2.spawn(client.connect()))
            t0 = s2.now
            done = Event(s2)

            def proc(s2):
                client.queue.submit_bio(
                    Bio(op=WRITE, sector=0, nsectors=256, done=done)
                )
                client.queue.unplug()
                yield done
                return s2.now - t0

            return s2.run(until=s2.spawn(proc(s2)))

        assert one_write(GIGE_DEFAULT) > one_write(IPOIB_DEFAULT)

    def test_request_latency_recorded(self, sim, setup):
        _node, _server, client = setup
        connect(sim, client)
        do_io(sim, client, WRITE, sector=0, nsectors=8)
        tally = client.stats.get("nbd0.request_usec")
        assert tally.count == 1
        assert tally.mean > 0

    def test_read_returns_stored_data_token(self, sim, setup):
        _node, server, client = setup
        connect(sim, client)
        do_io(sim, client, WRITE, sector=8, nsectors=8)
        tokens, _ = server.ramdisk.read(8 * 512, 4 * KiB)
        assert tokens[0] is not None

    def test_deadlock_hazard_detected_under_pressure(self, sim, fabric):
        """§3.3's NBD footnote: swap-outs sent while free memory sits at
        the min watermark are exactly the TCP-allocation-under-reclaim
        deadlock condition — the client counts them."""
        node = Node(sim, fabric, "c", mem_bytes=8 * MiB)
        server = NBDServer(sim, fabric, "s", store_bytes=64 * MiB,
                           tcp_params=GIGE_DEFAULT, stats=node.stats)
        client = NBDClient(sim, node, server, total_bytes=64 * MiB,
                           tcp_params=GIGE_DEFAULT)
        connect(sim, client)
        node.swapon(client.queue, 64 * MiB)
        aspace = node.vmm.create_address_space((32 * MiB) // 4096, "a")

        def app(sim):
            for start in range(0, aspace.npages, 64):
                stop = min(start + 64, aspace.npages)
                yield from node.vmm.touch_run(aspace, start, stop, write=True)
            yield from node.vmm.quiesce()

        sim.run(until=sim.spawn(app(sim)))
        # GigE is slower than the store stream: memory bottoms out and
        # the hazard window is hit.
        assert node.stats.get("nbd0.deadlock_hazards").count > 0


class TestNBDTimeoutRecovery:
    @pytest.fixture
    def timed(self, sim, fabric):
        node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
        server = NBDServer(
            sim, fabric, "nbdsrv", store_bytes=64 * MiB,
            tcp_params=GIGE_DEFAULT, stats=node.stats,
        )
        client = NBDClient(
            sim, node, server, total_bytes=64 * MiB,
            tcp_params=GIGE_DEFAULT,
            request_timeout_usec=2_000.0, max_retries=3,
        )
        connect(sim, client)
        return node, server, client

    def test_crashed_then_restarted_server_served_by_resend(self, sim, timed):
        """The daemon eats a request while down; the driver's re-send
        after restart completes the I/O instead of blocking forever."""
        _node, server, client = timed
        do_io(sim, client, WRITE, sector=0, nsectors=8)

        def outage(sim):
            server.crash(wipe=False)
            yield sim.timeout(3_000.0)
            server.restart()

        sim.spawn(outage(sim))
        t = do_io(sim, client, READ, sector=0, nsectors=8)
        assert t > 0
        assert client.stats.get("nbd0.retries").count >= 1
        assert server.stats.get("nbdsrv.dropped_requests").count >= 1
        assert server.crashes == 1

    def test_permanent_crash_raises_after_bounded_retries(self, sim, timed):
        from repro.simulator import SimulationError

        _node, server, client = timed
        server.crash()
        done = Event(sim)

        def proc(sim):
            client.queue.submit_bio(
                Bio(op=WRITE, sector=0, nsectors=8, done=done)
            )
            client.queue.unplug()
            yield done

        sim.spawn(proc(sim))
        with pytest.raises(SimulationError, match="timed out after 3 retries"):
            sim.run(until=50_000.0)

    def test_no_timeout_keeps_legacy_blocking(self, sim, setup):
        """Without a timeout the 2.4 driver blocks forever on a dead
        daemon — the simulation just drains (no error, no progress)."""
        _node, server, client = setup
        connect(sim, client)
        server.crash()
        done = Event(sim)

        def proc(sim):
            client.queue.submit_bio(
                Bio(op=WRITE, sector=0, nsectors=8, done=done)
            )
            client.queue.unplug()
            yield done

        sim.spawn(proc(sim))

        def much_later(sim):
            yield sim.timeout(1_000_000.0)

        sim.run(until=sim.spawn(much_later(sim)))
        assert not done.processed  # still blocked, no error raised
