"""Integration tests for the HPBD client driver + memory servers."""

from __future__ import annotations

import pytest

from repro.hpbd import Chunk, ChunkMapDistribution, HPBDClient, HPBDServer
from repro.kernel import Node
from repro.kernel.blockdev import Bio, READ, WRITE
from repro.simulator import Event
from repro.units import KiB, MiB, SECTOR_SIZE


@pytest.fixture
def setup(sim, fabric):
    node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
    servers = [
        HPBDServer(sim, fabric, f"mem{i}", store_bytes=32 * MiB, stats=node.stats)
        for i in range(2)
    ]
    client = HPBDClient(sim, node, servers, total_bytes=64 * MiB)
    return node, servers, client


def connect(sim, client):
    def proc(sim):
        yield from client.connect()

    sim.run(until=sim.spawn(proc(sim)))


def do_io(sim, client, op, sector, nsectors):
    done = Event(sim)
    bio = Bio(op=op, sector=sector, nsectors=nsectors, done=done)

    def proc(sim):
        client.queue.submit_bio(bio)
        client.queue.unplug()
        yield done
        return sim.now

    return sim.run(until=sim.spawn(proc(sim)))


class TestLifecycle:
    def test_connect_registers_pool_and_starts_servers(self, sim, setup):
        _node, servers, client = setup
        connect(sim, client)
        assert client.pool is not None
        assert client.pool.size == MiB  # paper default
        assert all(s.started for s in servers)
        assert all(s.pool is not None for s in servers)

    def test_double_connect_rejected(self, sim, setup):
        _node, _servers, client = setup
        connect(sim, client)
        with pytest.raises(Exception):
            sim.run(until=sim.spawn(client.connect()))

    def test_needs_a_server(self, sim, fabric):
        node = Node(sim, fabric, "c", mem_bytes=16 * MiB)
        with pytest.raises(ValueError):
            HPBDClient(sim, node, [], total_bytes=MiB)

    def test_undersized_server_store_rejected(self, sim, fabric):
        node = Node(sim, fabric, "c", mem_bytes=16 * MiB)
        srv = HPBDServer(sim, fabric, "m", store_bytes=MiB, stats=node.stats)
        with pytest.raises(ValueError):
            HPBDClient(sim, node, [srv], total_bytes=64 * MiB)


class TestDataPath:
    def test_write_read_roundtrip_integrity(self, sim, setup):
        _node, servers, client = setup
        connect(sim, client)
        do_io(sim, client, WRITE, sector=0, nsectors=8)
        stored = servers[0].ramdisk.pages_stored
        assert stored == 1
        do_io(sim, client, READ, sector=0, nsectors=8)
        assert servers[0].ramdisk.bytes_read == 4 * KiB

    def test_write_lands_on_correct_server(self, sim, setup):
        # Blocking distribution: second half of the device -> server 1.
        _node, servers, client = setup
        connect(sim, client)
        half = (32 * MiB) // SECTOR_SIZE
        do_io(sim, client, WRITE, sector=half, nsectors=8)
        assert servers[1].ramdisk.pages_stored == 1
        assert servers[0].ramdisk.pages_stored == 0

    def test_straddling_request_splits_across_servers(self, sim, setup):
        _node, servers, client = setup
        connect(sim, client)
        half = (32 * MiB) // SECTOR_SIZE
        # 64 KiB request centred on the chunk boundary
        do_io(sim, client, WRITE, sector=half - 64, nsectors=128)
        assert servers[0].ramdisk.pages_stored == 8
        assert servers[1].ramdisk.pages_stored == 8
        assert client.stats.get("hpbd0.split_requests").count == 1

    def test_large_write_uses_rdma_read(self, sim, setup):
        # Fig. 4: swap-out -> server pulls with RDMA READ.
        _node, servers, client = setup
        connect(sim, client)
        do_io(sim, client, WRITE, sector=0, nsectors=256)  # 128 KiB
        server_qp = list(servers[0]._qp_by_num.values())[0]
        assert server_qp.rdma_reads == 1
        assert server_qp.rdma_writes == 0

    def test_read_uses_rdma_write(self, sim, setup):
        # Fig. 4: swap-in -> server pushes with RDMA WRITE.
        _node, servers, client = setup
        connect(sim, client)
        do_io(sim, client, WRITE, sector=0, nsectors=64)
        server_qp = list(servers[0]._qp_by_num.values())[0]
        before = server_qp.rdma_writes
        do_io(sim, client, READ, sector=0, nsectors=64)
        assert server_qp.rdma_writes == before + 1

    def test_read_of_never_written_extent_succeeds(self, sim, setup):
        # Swap read-ahead may pull never-used slots: must not error.
        _node, _servers, client = setup
        connect(sim, client)
        t = do_io(sim, client, READ, sector=4096, nsectors=8)
        assert t > 0

    def test_pool_drains_to_zero_after_io(self, sim, setup):
        _node, servers, client = setup
        connect(sim, client)
        for i in range(8):
            do_io(sim, client, WRITE, sector=i * 256, nsectors=256)
        assert client.pool.allocated_bytes == 0
        client.pool.check_invariants()
        for srv in servers:
            assert srv.pool.allocated_bytes == 0

    def test_outstanding_drains(self, sim, setup):
        _node, _servers, client = setup
        connect(sim, client)
        do_io(sim, client, WRITE, sector=0, nsectors=8)
        assert client.outstanding == 0


class TestConcurrencyAndFlowControl:
    def test_many_concurrent_bios(self, sim, setup):
        _node, servers, client = setup
        connect(sim, client)
        done_events = []

        def proc(sim):
            for i in range(64):
                done = Event(sim)
                done_events.append(done)
                client.queue.submit_bio(
                    Bio(op=WRITE, sector=i * 8, nsectors=8, done=done)
                )
            client.queue.unplug()
            for evt in done_events:
                yield evt
            return sim.now

        sim.run(until=sim.spawn(proc(sim)))
        assert sum(s.requests_served for s in servers) >= 1
        assert client.pool.allocated_bytes == 0

    def test_credit_watermark_respected(self, sim, setup):
        """Outstanding physical requests per server never exceed the
        credit water-mark (checked by sampling during a flood)."""
        node, _servers, client = setup
        connect(sim, client)
        violations = []

        def sampler(sim):
            for _ in range(200):
                yield sim.timeout(20.0)
                if client.outstanding > 2 * client.credits_per_server:
                    violations.append(client.outstanding)

        def flood(sim):
            evts = []
            for i in range(256):
                done = Event(sim)
                evts.append(done)
                client.queue.submit_bio(
                    Bio(op=WRITE, sector=i * 8, nsectors=8, done=done)
                )
            client.queue.unplug()
            for evt in evts:
                yield evt

        sim.spawn(sampler(sim))
        p = sim.spawn(flood(sim))
        sim.run(until=p)
        assert not violations

    def test_server_sleeps_when_idle(self, sim, setup):
        _node, servers, client = setup
        connect(sim, client)
        do_io(sim, client, WRITE, sector=0, nsectors=8)

        def idle(sim):
            yield sim.timeout(5000.0)  # well past the 200 µs idle window
            return servers[0].sleeps

        sleeps = sim.run(until=sim.spawn(idle(sim)))
        assert sleeps >= 1

    def test_sleeping_server_woken_by_request(self, sim, setup):
        _node, _servers, client = setup
        connect(sim, client)
        do_io(sim, client, WRITE, sector=0, nsectors=8)

        def later(sim):
            yield sim.timeout(10_000.0)
            return do_io  # noop

        sim.run(until=sim.spawn(later(sim)))
        t = do_io(sim, client, WRITE, sector=256, nsectors=8)
        assert t > 10_000.0  # served after the sleep


class TestPoolExhaustionNack:
    """Satellite audit: a PageRequest that cannot allocate staging pool
    must get a typed NACK (bounded wait queue), never block forever —
    and the client's retry machinery must absorb it."""

    @pytest.fixture
    def tight(self, sim, fabric):
        node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
        # 256 KiB staging pool, 128 KiB requests, at most one parked
        # alloc waiter: a flood drives the pool into exhaustion fast.
        srv = HPBDServer(
            sim, fabric, "mem0", store_bytes=32 * MiB,
            staging_pool_bytes=256 * KiB, max_alloc_waiters=1,
            stats=node.stats,
        )
        client = HPBDClient(
            sim, node, [srv], total_bytes=16 * MiB,
            request_timeout_usec=50_000.0,
            max_retries=50, retry_backoff_usec=100.0,
        )
        return node, srv, client

    def test_flood_nacks_then_recovers(self, sim, tight):
        node, srv, client = tight
        connect(sim, client)

        def flood(sim):
            evts = []
            for i in range(32):
                done = Event(sim)
                evts.append(done)
                client.queue.submit_bio(
                    Bio(op=WRITE, sector=i * 256, nsectors=256, done=done)
                )
            client.queue.unplug()
            for evt in evts:
                yield evt
            return sim.now

        sim.run(until=sim.spawn(flood(sim)))
        nacks = node.stats.get("hpbd0.nacks").count
        exhausted = node.stats.get("mem0.pool_exhausted").count
        assert exhausted > 0
        assert nacks == exhausted
        assert node.stats.get("hpbd0.retries").count >= nacks
        # every write completed despite the NACKs, and nothing leaked
        assert client.outstanding == 0
        assert client.pool.allocated_bytes == 0
        assert srv.pool.allocated_bytes == 0
        assert srv.pool.waiting == 0
        srv.audit_teardown()
        client.audit_teardown()
        assert not sim.monitors.summary()

    def test_no_nacks_below_the_bound(self, sim, fabric):
        # The stock server (32-waiter bound, 8 RDMA slots) never NACKs
        # under a plain flood: the slot limit keeps waiters below the
        # bound, so the NACK path is reserved for true exhaustion.
        node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
        srv = HPBDServer(
            sim, fabric, "mem0", store_bytes=32 * MiB, stats=node.stats
        )
        client = HPBDClient(sim, node, [srv], total_bytes=16 * MiB)
        connect(sim, client)

        def flood(sim):
            evts = []
            for i in range(64):
                done = Event(sim)
                evts.append(done)
                client.queue.submit_bio(
                    Bio(op=WRITE, sector=i * 256, nsectors=256, done=done)
                )
            client.queue.unplug()
            for evt in evts:
                yield evt

        sim.run(until=sim.spawn(flood(sim)))
        assert node.stats.get("mem0.pool_exhausted") is None
        assert node.stats.get("hpbd0.nacks").count == 0


def _interleaved_chunks(total, chunk):
    """Device chunks alternating server 0 / server 1."""
    chunks = []
    offsets = {0: 0, 1: 0}
    pos = 0
    server = 0
    while pos < total:
        chunks.append(Chunk(pos, chunk, server, offsets[server]))
        offsets[server] += chunk
        pos += chunk
        server ^= 1
    return chunks


class TestChunkBoundaryIO:
    """Satellite coverage: requests spanning two servers' chunks under
    a custom chunk map — byte-exact placement on each server's store
    plus correct per-server counters, with and without mirroring."""

    TOTAL = 8 * MiB
    CHUNK = 2 * MiB

    def build(self, sim, fabric, mirror=False):
        node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
        servers = [
            HPBDServer(
                sim, fabric, f"mem{i}", store_bytes=64 * MiB,
                stats=node.stats,
            )
            for i in range(2)
        ]
        dist = ChunkMapDistribution(
            self.TOTAL, 2, _interleaved_chunks(self.TOTAL, self.CHUNK)
        )
        client = HPBDClient(
            sim, node, servers, total_bytes=self.TOTAL,
            distribution=dist, mirror=mirror,
        )
        connect(sim, client)
        return node, servers, client

    def test_write_spanning_chunk_boundary(self, sim, fabric):
        node, servers, client = self.build(sim, fabric)
        # 64 KiB centred on the first server-0 -> server-1 boundary
        boundary = self.CHUNK // SECTOR_SIZE
        do_io(sim, client, WRITE, sector=boundary - 64, nsectors=128)
        assert node.stats.get("hpbd0.split_requests").count == 1
        assert servers[0].ramdisk.bytes_written == 32 * KiB
        assert servers[1].ramdisk.bytes_written == 32 * KiB
        # byte-exact placement: server 0 holds the tail of its chunk,
        # server 1 the head of its own store extent
        tokens0, _ = servers[0].ramdisk.read(self.CHUNK - 32 * KiB, 32 * KiB)
        tokens1, _ = servers[1].ramdisk.read(0, 32 * KiB)
        assert all(t is not None for t in tokens0)
        assert all(t is not None for t in tokens1)

    def test_boundary_into_noncontiguous_extent(self, sim, fabric):
        # The 4 MiB device boundary maps server-1 -> server-0, where
        # server 0's second extent starts at store offset 2 MiB.
        node, servers, client = self.build(sim, fabric)
        boundary = (2 * self.CHUNK) // SECTOR_SIZE
        do_io(sim, client, WRITE, sector=boundary - 64, nsectors=128)
        tokens1, _ = servers[1].ramdisk.read(self.CHUNK - 32 * KiB, 32 * KiB)
        tokens0, _ = servers[0].ramdisk.read(self.CHUNK, 32 * KiB)
        assert all(t is not None for t in tokens1)
        assert all(t is not None for t in tokens0)

    def test_read_reassembles_from_both_servers(self, sim, fabric):
        node, servers, client = self.build(sim, fabric)
        boundary = self.CHUNK // SECTOR_SIZE
        do_io(sim, client, WRITE, sector=boundary - 64, nsectors=128)
        do_io(sim, client, READ, sector=boundary - 64, nsectors=128)
        assert servers[0].ramdisk.bytes_read == 32 * KiB
        assert servers[1].ramdisk.bytes_read == 32 * KiB
        assert servers[0].requests_served == 2  # one write + one read
        assert servers[1].requests_served == 2
        assert node.stats.get("hpbd0.physical_requests").count == 4
        assert client.pool.allocated_bytes == 0

    def test_mirrored_boundary_write_replicates_both_halves(
        self, sim, fabric
    ):
        node, servers, client = self.build(sim, fabric, mirror=True)
        boundary = self.CHUNK // SECTOR_SIZE
        do_io(sim, client, WRITE, sector=boundary - 64, nsectors=128)
        # each server holds its primary half plus the other's replica
        assert servers[0].ramdisk.bytes_written == 64 * KiB
        assert servers[1].ramdisk.bytes_written == 64 * KiB
        assert servers[0].ramdisk.pages_stored == 16
        assert servers[1].ramdisk.pages_stored == 16
        # replica of server i's chunk lives on the peer at base
        # share_of(peer); the split halves sit at their chunk-local
        # offsets inside that replica area
        share = client.dist.share_of(0)
        tokens, _ = servers[0].ramdisk.read(share, 32 * KiB)
        assert all(t is not None for t in tokens)

    def test_mirrored_read_served_from_primaries(self, sim, fabric):
        node, servers, client = self.build(sim, fabric, mirror=True)
        boundary = self.CHUNK // SECTOR_SIZE
        do_io(sim, client, WRITE, sector=boundary - 64, nsectors=128)
        do_io(sim, client, READ, sector=boundary - 64, nsectors=128)
        assert servers[0].ramdisk.bytes_read == 32 * KiB
        assert servers[1].ramdisk.bytes_read == 32 * KiB
        assert node.stats.get("hpbd0.failovers").count == 0


class TestTiming:
    def test_write_latency_reasonable(self, sim, setup):
        """A 128 KiB swap-out should take a few hundred µs (two pool
        memcpys + RDMA read of 128 KiB + control messages)."""
        _node, _servers, client = setup
        connect(sim, client)
        t0 = sim.now
        t1 = do_io(sim, client, WRITE, sector=0, nsectors=256)
        latency = t1 - t0
        assert 150.0 < latency < 2_000.0

    def test_copy_time_accounted(self, sim, setup):
        _node, _servers, client = setup
        connect(sim, client)
        do_io(sim, client, WRITE, sector=0, nsectors=256)
        assert client.copy_usec > 0


class TestPollSkip:
    """The daemon's busy poll skips polls that could see nothing, yet
    sleeps and dispatches at the instants the per-poll loop would."""

    def _server(self, per_poll: bool):
        from repro.ib import CQE, Opcode
        from repro.net import Fabric
        from repro.simulator import Simulator

        sim = Simulator()
        if per_poll:
            # _head refusing every time is the one-event-per-poll loop
            sim._head = lambda: (sim.now, 0, None)
        srv = HPBDServer(sim, Fabric(sim), "mem0", store_bytes=MiB)
        log = []
        arm = srv.recv_cq.request_notify

        def request_notify(*args, **kwargs):  # called right after sleeps += 1
            log.append(("sleep", sim.now, srv.sleeps))
            arm(*args, **kwargs)

        srv.recv_cq.request_notify = request_notify
        srv._dispatch = lambda cqe: log.append(("dispatch", sim.now))
        sim.run(until=sim.spawn(srv.start()))

        def push():
            srv.recv_cq.push(CQE(opcode=Opcode.RECV, wr_id=0, qp_num=0))

        return sim, srv, log, push

    def test_idle_server_posts_o1_polls(self):
        runs = {}
        for per_poll in (False, True):
            sim, srv, log, _push = self._server(per_poll)
            t0, before = sim.now, sim.events_processed
            sim.run(until=t0 + 1_000.0)
            runs[per_poll] = (log, sim.events_processed - before)
        (skip_log, skip_events), (poll_log, poll_events) = runs[False], runs[True]
        assert skip_log == poll_log
        [(_sleep, t_sleep, sleeps)] = skip_log
        assert sleeps == 1 and t0 + 200.0 <= t_sleep < t0 + 205.0
        assert poll_events >= 40  # one per 5 µs poll of the idle window
        assert skip_events <= 3

    def test_request_posted_between_runs_dispatches_on_the_grid(self):
        runs = {}
        for per_poll in (False, True):
            sim, srv, log, push = self._server(per_poll)
            t0 = sim.now
            sim.run(until=t0 + 52.5)  # mid idle window, between two polls
            push()
            sim.run(until=t0 + 1_000.0)
            runs[per_poll] = (t0, log)
        assert runs[False] == runs[True]
        t0, log = runs[False]
        (_d, t_dispatch), (_s, t_sleep, _n) = log
        assert t0 + 52.5 < t_dispatch < t0 + 57.5  # the next 5 µs poll
        assert t_dispatch + 200.0 <= t_sleep < t_dispatch + 205.0
