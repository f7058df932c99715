"""Failure injection: protocol tampering, malformed extents, dead ends.

The paper's §4.1: "Reliability is an important issue for swap device
design.  Failure in page handling can adversely impact system stability
and even crash the system." — these tests check that every corruption we
can inject either surfaces as a validated error or is contained.
"""

from __future__ import annotations

import pytest

from repro import (
    HPBD,
    LocalDisk,
    ScenarioConfig,
    TestswapWorkload,
    build_scenario,
    run_scenario,
)
from repro.config import ClusterScenarioConfig, FaultConfig, TenantSpec
from repro.faults import (
    CreditStarve,
    FaultPlan,
    LinkDegrade,
    LinkFlap,
    ServerCrash,
)
from repro.hpbd import (
    HPBDClient,
    HPBDServer,
    OP_WRITE,
    PageRequest,
    ProtocolError,
    STATUS_ERROR,
)
from repro.ib import RecvWR, SendWR
from repro.kernel import Node
from repro.kernel.blockdev import Bio, READ, WRITE
from repro.simulator import Event, SimulationError
from repro.units import GiB, KiB, MiB


@pytest.fixture
def setup(sim, fabric):
    node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
    srv = HPBDServer(sim, fabric, "mem0", store_bytes=32 * MiB, stats=node.stats)
    client = HPBDClient(sim, node, [srv], total_bytes=32 * MiB)
    sim.run(until=sim.spawn(client.connect()))
    return node, srv, client


class TestServerErrorReplies:
    def test_out_of_bounds_request_gets_error_reply(self, sim, setup):
        """A request beyond the RamDisk must produce a STATUS_ERROR
        acknowledgement, not a crashed daemon.  Injected over a raw,
        driver-independent connection so the reply is observable."""
        node, srv, client = setup
        from repro.ib import connect_endpoints

        raw = {}

        def wire(sim):
            scq = client.hca.create_cq("raw.scq")
            rcq = client.hca.create_cq("raw.rcq")
            qp_c, qp_s = yield from connect_endpoints(
                client.hca, client.pd, scq, rcq,
                srv.hca, srv.pd, srv.send_cq, srv.recv_cq,
            )
            srv.register_client(qp_s)
            raw["qp"], raw["rcq"] = qp_c, rcq

        sim.run(until=sim.spawn(wire(sim)))
        bad = PageRequest(
            op=OP_WRITE,
            offset=srv.ramdisk.size,  # out of bounds
            nbytes=4 * KiB,
            buf_addr=client.pool.base_addr,
            buf_rkey=client.pool.rkey,
        )
        replies = []

        def proc(sim):
            raw["qp"].post_recv(RecvWR(capacity=64))
            raw["qp"].post_send(SendWR(nbytes=64, payload=bad, signaled=False))
            yield sim.timeout(5_000.0)
            for cqe in raw["rcq"].poll():
                replies.append(cqe.payload)

        p = sim.spawn(proc(sim))
        sim.run(until=p)
        err = [r for r in replies if getattr(r, "status", None) == STATUS_ERROR]
        assert err, "server did not acknowledge the bad request with an error"
        assert srv.stats.get("mem0.errors").count == 1
        # Daemon survives: a good request afterwards still works.
        done = Event(sim)

        def good(sim):
            client.queue.submit_bio(
                Bio(op=WRITE, sector=0, nsectors=8, done=done)
            )
            client.queue.unplug()
            yield done

        p = sim.spawn(good(sim))
        sim.run(until=p)

    def test_driver_surfaces_server_error(self, sim, fabric):
        """If the driver itself receives an error reply, it must raise
        loudly (a lost page would corrupt the paging system)."""
        node = Node(sim, fabric, "c2", mem_bytes=16 * MiB)
        srv = HPBDServer(sim, fabric, "m2", store_bytes=MiB, stats=node.stats)
        # Device claims more space than the server store: requests to
        # the tail will be out of bounds server-side.
        client = HPBDClient(
            sim, node, [srv], total_bytes=MiB,
        )
        sim.run(until=sim.spawn(client.connect()))
        # Monkey-size the ramdisk down to force the error path through
        # the real driver.
        srv.ramdisk.size = 64 * KiB
        done = Event(sim)

        def proc(sim):
            client.queue.submit_bio(
                Bio(op=WRITE, sector=256, nsectors=8, done=done)
            )
            client.queue.unplug()
            yield done

        sim.spawn(proc(sim))
        with pytest.raises(SimulationError, match="server error"):
            sim.run(until=50_000.0)


class TestTamperedMessages:
    def test_tampered_request_detected_at_server(self, sim, setup):
        _node, _srv, client = setup
        qp_c = client._qps[0]
        req = PageRequest(
            op=OP_WRITE, offset=0, nbytes=4 * KiB,
            buf_addr=client.pool.base_addr, buf_rkey=client.pool.rkey,
        )
        req.nbytes = 8 * KiB  # corrupt after signing

        def proc(sim):
            qp_c.post_send(SendWR(nbytes=64, payload=req, signaled=False))
            yield sim.timeout(1_000.0)

        sim.spawn(proc(sim))
        with pytest.raises(ProtocolError):
            sim.run(until=50_000.0)

    def test_bad_rkey_caught_by_verbs_layer(self, sim, setup):
        """A request advertising a bogus rkey dies at the RDMA bounds
        check — the HCA protection the paper's design inherits."""
        _node, srv, client = setup
        qp_c = client._qps[0]
        req = PageRequest(
            op=OP_WRITE, offset=0, nbytes=4 * KiB,
            buf_addr=client.pool.base_addr, buf_rkey=999_999,
        )

        def proc(sim):
            qp_c.post_send(SendWR(nbytes=64, payload=req, signaled=False))
            yield sim.timeout(5_000.0)

        from repro.ib import RemoteKeyError

        sim.spawn(proc(sim))
        with pytest.raises(RemoteKeyError):
            sim.run(until=50_000.0)


class TestResourceExhaustionContainment:
    def test_pool_smaller_than_request_flow_still_completes(self, sim, fabric):
        """A pool of exactly one request's size forces total
        serialization through the wait queue — slower, never stuck."""
        node = Node(sim, fabric, "c3", mem_bytes=16 * MiB)
        srv = HPBDServer(sim, fabric, "m3", store_bytes=32 * MiB, stats=node.stats)
        client = HPBDClient(
            sim, node, [srv], total_bytes=32 * MiB, pool_bytes=128 * KiB
        )
        sim.run(until=sim.spawn(client.connect()))
        events = [Event(sim) for _ in range(8)]

        def proc(sim):
            for i, done in enumerate(events):
                client.queue.submit_bio(
                    Bio(op=WRITE, sector=i * 256, nsectors=256, done=done)
                )
            client.queue.unplug()
            for evt in events:
                yield evt

        p = sim.spawn(proc(sim))
        sim.run(until=p)
        assert client.pool.stall_count > 0
        assert client.pool.allocated_bytes == 0

    def test_swap_exhaustion_raises(self, sim, fabric):
        """Writing more unique pages than the swap device holds must be
        reported (OutOfSwap), not silently wrapped."""
        from repro.disk import DiskDevice
        from repro.kernel import OutOfSwap

        node = Node(sim, fabric, "c4", mem_bytes=8 * MiB)
        disk = DiskDevice(sim, swap_partition_bytes=4 * MiB, stats=node.stats)
        node.swapon(disk.queue, 4 * MiB)
        aspace = node.vmm.create_address_space(
            (32 * MiB) // (4 * KiB), "big"
        )

        def proc(sim):
            for start in range(0, aspace.npages, 64):
                stop = min(start + 64, aspace.npages)
                yield from node.vmm.touch_run(aspace, start, stop, write=True)

        sim.spawn(proc(sim))
        with pytest.raises(OutOfSwap):
            sim.run(until=1_000_000.0)


# ---------------------------------------------------------------------------
# Injected faults + the recovery state machine (repro.faults)
# ---------------------------------------------------------------------------

_SCALE = 64

_RECOVERY_KEYS = (
    "retries", "timeouts", "failovers", "write_failovers",
    "disk_fallbacks", "stale_replies", "servers_dead",
)


def _fault_scenario(device, faults: FaultConfig) -> ScenarioConfig:
    return ScenarioConfig(
        [TestswapWorkload(size_bytes=GiB // _SCALE)],
        device,
        mem_bytes=512 * MiB // _SCALE,
        swap_bytes=GiB // _SCALE,
        mem_reserved_bytes=24 * MiB // _SCALE,
        faults=faults,
    )


def _counts(result) -> dict[str, int]:
    out = {}
    for key in _RECOVERY_KEYS:
        c = result.registry.get(f"hpbd0.{key}")
        out[key] = int(c.count) if c is not None else 0
    return out


class TestFaultTargetsCheckedAtBuild:
    """A plan naming a target the scenario lacks fails when the scenario
    is built, not mid-run when the fault comes due."""

    @pytest.mark.parametrize(
        "device, event, match",
        [
            (HPBD(nservers=1), ServerCrash(at=1_000.0, server=3), "server 3"),
            (HPBD(nservers=2), LinkFlap(at=1_000.0, node="mem7", down_for=1.0),
             "'mem7'"),
            (LocalDisk(), ServerCrash(at=1_000.0, server=0), "server 0"),
        ],
    )
    def test_single_node_plan(self, device, event, match):
        cfg = _fault_scenario(device, FaultConfig(plan=FaultPlan(events=(event,))))
        with pytest.raises(ValueError, match=match):
            build_scenario(cfg)

    def test_cluster_credit_starvation_rejected(self):
        tenant = TenantSpec(
            name="t0",
            workload=TestswapWorkload(size_bytes=2 * MiB),
            mem_bytes=2 * MiB,
            swap_bytes=4 * MiB,
        )
        plan = FaultPlan(events=(CreditStarve(at=1_000.0, server=0),))
        with pytest.raises(ValueError, match="credit starvation"):
            ClusterScenarioConfig(
                tenants=[tenant],
                mem_reserved_bytes=MiB,
                faults=FaultConfig(plan=plan),
            )


class TestInjectedServerCrash:
    def test_crash_completes_with_remap(self):
        """A memory server dying mid-run must not abort the workload:
        its segments remap 1:1 onto the local swap disk and the
        monitors stay clean."""
        cfg = _fault_scenario(
            HPBD(nservers=4),
            FaultConfig(
                plan=FaultPlan(events=(ServerCrash(at=60_000.0, server=1),)),
                degraded_mode="disk",
            ),
        )
        result = run_scenario(cfg, trace=True)
        ctrs = _counts(result)
        assert result.invariant_violations == []
        assert ctrs["timeouts"] > 0
        assert ctrs["disk_fallbacks"] > 0
        assert ctrs["servers_dead"] == 1
        # Fault recovery shows up in the blame taxonomy, not "other".
        assert result.blame_usec["fault"] > 0

    def test_crash_completes_with_disk_fallback(self):
        cfg = _fault_scenario(
            HPBD(nservers=4),
            FaultConfig(
                plan=FaultPlan(events=(ServerCrash(at=60_000.0, server=1),)),
                degraded_mode="disk",
            ),
        )
        result = run_scenario(cfg, trace=True)
        ctrs = _counts(result)
        assert result.invariant_violations == []
        assert ctrs["disk_fallbacks"] > 0
        # An unprotected tenant is the degenerate group: no ring copy
        # to fail over to, so the ladder's reroute is the disk alone.
        assert ctrs["failovers"] == 0
        assert ctrs["write_failovers"] == 0

    def test_crash_absorbed_by_mirror(self):
        cfg = _fault_scenario(
            HPBD(nservers=2, mirror=True),
            FaultConfig(
                plan=FaultPlan(events=(ServerCrash(at=60_000.0, server=0),)),
            ),
        )
        result = run_scenario(cfg, trace=True)
        ctrs = _counts(result)
        assert result.invariant_violations == []
        assert ctrs["write_failovers"] > 0

    def test_same_seed_reproduces_identical_counters_and_blame(self):
        def once():
            cfg = _fault_scenario(
                HPBD(nservers=4),
                FaultConfig(
                    plan=FaultPlan(
                        events=(ServerCrash(at=60_000.0, server=1),)
                    ),
                    degraded_mode="disk",
                ),
            )
            result = run_scenario(cfg, trace=True)
            return _counts(result), result.blame_usec

        first, second = once(), once()
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_fallback_bios_target_their_segments_device_offsets(
        self, sim, fabric
    ):
        """A request split over a striped map falls back segment by
        segment: each disk bio covers its own segment's device range,
        not the store range it had on the dead server."""
        from repro.disk import DiskDevice
        from repro.hpbd.striping import ChunkMapDistribution, striped_chunks

        total = 4 * MiB
        node = Node(sim, fabric, "c6", mem_bytes=16 * MiB)
        servers = [
            HPBDServer(
                sim, fabric, f"m6{i}", store_bytes=total // 2,
                stats=node.stats,
            )
            for i in range(2)
        ]
        dist = ChunkMapDistribution(
            total, 2, striped_chunks(total, 2, 32 * KiB)
        )
        disk = DiskDevice(
            sim, name="fb", swap_partition_bytes=total, stats=node.stats
        )
        bios = []
        submit = disk.queue.submit_bio

        def record(bio):
            bios.append((bio.sector, bio.nsectors))
            submit(bio)

        disk.queue.submit_bio = record
        client = HPBDClient(
            sim, node, servers, total_bytes=total, distribution=dist,
            degraded_mode="disk", fallback_queue=disk.queue,
        )
        sim.run(until=sim.spawn(client.connect()))
        client.notify_server_down(1)
        # 128 KiB from 1 MiB + 16 KiB: five segments alternating
        # s0, s1, s0, s1, s0; server 1's two go to the disk.
        start = MiB + 16 * KiB
        assert len(dist.split(start, 128 * KiB)) == 5
        done = Event(sim)

        def proc(sim):
            client.queue.submit_bio(
                Bio(op=WRITE, sector=start // 512, nsectors=256, done=done)
            )
            client.queue.unplug()
            yield done

        sim.run(until=sim.spawn(proc(sim)))
        assert bios == [
            ((MiB + 32 * KiB) // 512, 64),
            ((MiB + 96 * KiB) // 512, 64),
        ]
        assert client.stats.get("hpbd0.disk_fallbacks").count == 2


class TestInjectedLinkTrouble:
    def test_link_degrade_recovers_with_retries(self):
        """A massively degraded link makes requests overshoot their
        timeout; bounded retries must carry the run across the episode
        without condemning the (healthy) server."""
        cfg = _fault_scenario(
            HPBD(nservers=4),
            FaultConfig(
                plan=FaultPlan(events=(
                    # Traffic at this scale runs ~50k-130k us; the
                    # episode must overlap it to bite.
                    LinkDegrade(at=60_000.0, node="mem0", duration=15_000.0,
                                latency_mult=5_000.0),
                )),
                request_timeout_usec=1_000.0,
                max_retries=8,
            ),
        )
        result = run_scenario(cfg, trace=True)
        ctrs = _counts(result)
        assert result.invariant_violations == []
        assert ctrs["retries"] > 0
        assert ctrs["servers_dead"] == 0
        assert result.blame_usec["retry"] > 0

    def test_link_flap_recovers(self):
        """A flapping link stalls traffic outright; queued originals and
        re-sends both land once it returns, and the duplicate answers
        must be discarded as stale, not mistaken for live replies."""
        cfg = _fault_scenario(
            HPBD(nservers=4),
            FaultConfig(
                plan=FaultPlan(events=(
                    LinkFlap(at=60_000.0, node="mem0", down_for=15_000.0),
                )),
                request_timeout_usec=1_000.0,
                max_retries=8,
            ),
        )
        result = run_scenario(cfg, trace=True)
        ctrs = _counts(result)
        assert result.invariant_violations == []
        assert ctrs["timeouts"] > 0
        assert ctrs["stale_replies"] > 0
        assert ctrs["servers_dead"] == 0


class TestControlPlaneCorruption:
    def test_dropped_and_corrupted_ctrl_messages_are_retransmitted(self):
        """With probabilistic drop/corruption on the control plane, the
        CRC validation catches tampered messages, endpoints drop them
        (instead of raising, as they do fault-free), and the timeout
        machinery retransmits until the run completes clean."""
        cfg = _fault_scenario(
            HPBD(nservers=4),
            FaultConfig(
                plan=FaultPlan(
                    ctrl_drop_prob=0.05, ctrl_corrupt_prob=0.05, seed=7,
                ),
                request_timeout_usec=1_000.0,
                max_retries=8,
            ),
        )
        result = run_scenario(cfg, trace=True)
        ctrs = _counts(result)
        assert result.invariant_violations == []
        dropped = result.registry.get("fault.ctrl_dropped")
        corrupted = result.registry.get("fault.ctrl_corrupted")
        assert (dropped.count if dropped else 0) > 0
        assert (corrupted.count if corrupted else 0) > 0
        assert ctrs["timeouts"] > 0
        assert ctrs["servers_dead"] == 0

    def test_fleet_tenants_survive_corrupted_replies(self):
        """Every tenant's client drops a corrupted reply and lets its
        watchdog retransmit, as a single node's client does."""
        from repro.cluster import run_cluster_scenario

        tenants = [
            TenantSpec(
                name=f"t{i}",
                workload=TestswapWorkload(size_bytes=4 * MiB),
                mem_bytes=2 * MiB,
                swap_bytes=8 * MiB,
            )
            for i in range(2)
        ]
        cfg = ClusterScenarioConfig(
            tenants=tenants,
            nservers=2,
            mem_reserved_bytes=MiB,
            faults=FaultConfig(
                plan=FaultPlan(ctrl_corrupt_prob=0.05, seed=3)
            ),
        )
        result = run_cluster_scenario(cfg)
        assert result.registry.get("fault.ctrl_corrupted").count > 0
        assert result.invariant_violations == []

    def test_same_seed_same_corruption(self):
        def once():
            cfg = _fault_scenario(
                HPBD(nservers=4),
                FaultConfig(
                    plan=FaultPlan(ctrl_drop_prob=0.1, seed=3),
                    request_timeout_usec=1_000.0,
                    max_retries=8,
                ),
            )
            result = run_scenario(cfg)
            c = result.registry.get("fault.ctrl_dropped")
            return (int(c.count) if c else 0, result.elapsed_usec)

        assert once() == once()


class TestReplicaFailoverUnderCrash:
    def test_crashed_primary_reads_and_writes_fail_over(self, sim, fabric):
        """White-box: crash the primary of a mirrored pair; reads must
        fail over to the replica and writes must complete on the
        replica alone — with credits and inflight fully reclaimed."""
        node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
        servers = [
            HPBDServer(sim, fabric, f"mem{i}", store_bytes=32 * MiB,
                       stats=node.stats)
            for i in range(2)
        ]
        client = HPBDClient(
            sim, node, servers, total_bytes=32 * MiB, mirror=True,
            request_timeout_usec=500.0, max_retries=1,
        )
        sim.run(until=sim.spawn(client.connect()))

        def do_io(op, sector):
            done = Event(sim)

            def proc(sim):
                client.queue.submit_bio(
                    Bio(op=op, sector=sector, nsectors=8, done=done)
                )
                client.queue.unplug()
                yield done

            sim.run(until=sim.spawn(proc(sim)))

        do_io(WRITE, 0)
        servers[0].crash()  # silent: requests vanish, no error replies
        do_io(READ, 0)      # timeout -> replica read failover
        do_io(WRITE, 8)     # replica-only write completes
        stats = client.stats
        assert stats.get("hpbd0.timeouts").count >= 1
        assert stats.get("hpbd0.failovers").count >= 1
        assert stats.get("hpbd0.write_failovers").count >= 1
        assert client.outstanding == 0
        client.audit_teardown()
        assert sim.monitors.summary() == []
