"""The redundancy subsystem: policies, the GF(256) codec, degraded
reads, and background repair.

Three layers of coverage:

* unit — policy parsing/accounting and the real Reed-Solomon codec
  (the simulator only models its *cost*; here the math itself must
  round-trip);
* component — a standalone client + repair manager over wiped-and-
  restarted servers, checked at page-token granularity (the RamDisk
  write tokens are the data-integrity oracle: a rebuilt shard must
  carry exactly the tokens the lost one did, plus any writes that
  landed during the outage);
* acceptance — the cluster scenario the ISSUE gates on: an rs(4,2)
  tenant survives two staggered mid-run server crashes with zero
  invariant violations, degraded reads while members are down, repair
  traffic within 10% of lost x (k+m)/k, and 1.5x memory overhead
  against 2x for mirroring.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster import run_cluster_scenario
from repro.cluster.runner import build_cluster_scenario
from repro.cluster.migration import ChunkMigrator
from repro.cluster.registry import FleetRegistry
from repro.config import ClusterScenarioConfig, FaultConfig, TenantSpec
from repro.experiments import cluster_redundancy_config, redundancy_points
from repro.faults import FaultPlan, ServerCrash, ServerSlow
from repro.hpbd import HPBDClient, HPBDServer
from repro.kernel import Node
from repro.kernel.blockdev import Bio, READ, WRITE
from repro.net import Fabric
from repro.redundancy import RepairManager
from repro.redundancy.policy import (
    RedundancyPolicy,
    ShardGroup,
    parse_policy,
)
from repro.simulator import Event, SimulationError, Simulator
from repro.units import MiB, PAGE_SIZE
from repro.workloads import QuicksortWorkload


# -- policy units ----------------------------------------------------------


def test_parse_policy():
    assert parse_policy("none").kind == "none"
    p = parse_policy("nway(3)")
    assert (p.kind, p.m, p.width, p.overhead) == ("nway", 2, 3, 3.0)
    p = parse_policy("rs(4,2)")
    assert (p.kind, p.k, p.m, p.width) == ("rs", 4, 2, 6)
    assert p.overhead == 1.5
    assert p.fault_tolerance == 2
    assert parse_policy(p) is p


@pytest.mark.parametrize(
    "bad", ["", "nway", "nway(1)", "rs(1,1)", "rs(4,0)", "raid(5)"]
)
def test_parse_policy_rejects(bad):
    with pytest.raises(ValueError):
        parse_policy(bad)


def test_repair_traffic_model():
    rs = parse_policy("rs(4,2)")
    # aggregated partial-sum regeneration: (k+m)/k per lost byte
    assert rs.repair_traffic_bytes(4 * MiB) == 6 * MiB
    assert rs.repair_traffic_bytes(1) == 2  # ceil
    assert parse_policy("nway(2)").repair_traffic_bytes(4 * MiB) == 4 * MiB


def test_group_roles():
    g = ShardGroup(
        policy=parse_policy("rs(2,1)"), servers=[5, 3, 8],
        share_bytes=MiB,
    )
    assert g.data_servers == [5, 3]
    assert g.parity_servers == [8]
    assert g.shard_index(8) == 2
    assert g.member_need_bytes() == MiB


# -- the real codec --------------------------------------------------------


def test_rs_codec_roundtrip():
    np = pytest.importorskip("numpy")
    from repro.redundancy.gf256 import rs_encode, rs_matrix, rs_reconstruct

    rng = np.random.default_rng(7)
    for k, m in ((2, 1), (4, 2), (5, 3)):
        data = rng.integers(0, 256, size=(k, 2048), dtype=np.uint8)
        matrix = rs_matrix(k, m)
        parity = rs_encode(matrix, data)
        shards = [data[i] for i in range(k)] + [parity[j] for j in range(m)]
        # erase every m-subset's worth: drop the first m shards, then a
        # mixed data+parity set — any k survivors must recover all
        for dead in (list(range(m)), [0, k + m - 1][: m + 1][:m]):
            holed = [
                None if i in dead else shards[i] for i in range(k + m)
            ]
            out = rs_reconstruct(matrix, holed)
            for i in range(k + m):
                assert np.array_equal(out[i], shards[i]), (k, m, dead, i)


def test_rs_codec_needs_k_survivors():
    pytest.importorskip("numpy")
    from repro.redundancy.gf256 import rs_matrix, rs_reconstruct

    matrix = rs_matrix(2, 1)
    with pytest.raises(ValueError):
        rs_reconstruct(matrix, [None, None, None])


# -- standalone client + repair manager ------------------------------------


class Harness:
    """Four 16 MiB servers, an rs(2,1) group on [0, 1, 2], a repair
    manager scanning every 500 us; server 3 is the spare."""

    def __init__(self):
        self.sim = sim = Simulator()
        fabric = Fabric(sim)
        self.node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
        self.servers = [
            HPBDServer(
                sim, fabric, f"mem{i}", store_bytes=16 * MiB,
                stats=self.node.stats,
            )
            for i in range(4)
        ]
        self.registry = FleetRegistry(
            sim, self.servers, capacity_bytes=16 * MiB,
            stats=self.node.stats,
        )
        for i in range(3):
            self.registry.reserve("t0", i, 8 * MiB)
        self.migrator = ChunkMigrator(
            sim, stats=self.node.stats, throttle_mib_s=400.0,
        )
        self.group = ShardGroup(
            policy=RedundancyPolicy("rs", k=2, m=1),
            servers=[0, 1, 2], share_bytes=8 * MiB,
        )
        self.client = HPBDClient(
            sim, self.node, self.servers, total_bytes=16 * MiB,
            redundancy=self.group, request_timeout_usec=2000.0,
            tenant="t0",
        )
        self.repair = RepairManager(
            sim, self.registry, self.migrator, self.servers,
            interval_usec=500.0,
        )
        self.repair.watch("t0", self.client, self.group)
        sim.run(until=sim.spawn(self.client.connect()))
        self.repair.start()

    def io(self, op, sector, nsectors=8):
        done = Event(self.sim)

        def proc(sim):
            self.client.queue.submit_bio(
                Bio(op=op, sector=sector, nsectors=nsectors, done=done)
            )
            self.client.queue.unplug()
            yield done

        self.sim.run(until=self.sim.spawn(proc(self.sim)))

    def wait(self, usec):
        def proc(sim):
            yield sim.timeout(usec)

        self.sim.run(until=self.sim.spawn(proc(self.sim)))

    def counter(self, name):
        c = self.client.stats.get(name)
        return int(c.count) if c is not None else 0


@pytest.fixture
def harness():
    h = Harness()
    # fill the first 1024 rows of both data shards
    for s in range(0, 1024 * 8, 8):
        h.io(WRITE, s)
        h.io(WRITE, 2048 * 8 + s)
    return h


def test_degraded_read_and_inplace_rebuild(harness):
    h = harness
    snap = h.servers[0].ramdisk.peek(0, 8 * MiB)
    h.servers[0].crash(wipe=True)

    def restarter(sim):
        yield sim.timeout(5000.0)
        h.servers[0].restart()

    h.sim.spawn(restarter(h.sim))
    # the repair manager's edge scan dead-marks the member within one
    # interval — no request has to time out first
    h.wait(800.0)
    assert 0 in h.client._dead

    before = h.counter("hpbd0.degraded_reads")
    h.io(READ, 0)
    assert h.counter("hpbd0.degraded_reads") == before + 1
    assert h.counter("hpbd0.reconstructs") >= 1

    # a write during the outage lands parity-only (new row 1500)
    h.io(WRITE, 1500 * 8)
    tok, _ = h.servers[2].ramdisk.read(1500 * PAGE_SIZE, PAGE_SIZE)
    assert tok is not None

    # restart at t+5 ms, 12 MiB of repair at 400 MiB/s ~ 30 ms
    h.wait(50_000.0)
    assert h.repair.pending == 0
    assert h.counter("repair.rebuilds") == 1
    moved = h.client.stats.get("repair.bytes_moved").total
    assert moved == 12 * MiB  # 8 MiB lost x (k+m)/k = 1.5
    assert 0 not in h.client._dead

    # byte-exact: every pre-crash token restored, plus the outage write
    rebuilt = h.servers[0].ramdisk.peek(0, 8 * MiB)
    diffs = [
        i for i, (a, b) in enumerate(zip(snap, rebuilt)) if a != b
    ]
    assert diffs == [1500]
    assert rebuilt[1500] is not None

    # reads are whole again
    before = h.counter("hpbd0.degraded_reads")
    h.io(READ, 0)
    assert h.counter("hpbd0.degraded_reads") == before


def test_spare_rebuild_replaces_member(harness):
    h = harness
    snap2 = h.servers[2].ramdisk.peek(0, 8 * MiB)
    h.repair.spare_after_usec = 1000.0
    h.servers[2].crash(wipe=True)  # parity member, stays down
    h.wait(50_000.0)
    assert h.repair.pending == 0
    assert h.counter("repair.spare_rebuilds") == 1
    assert h.group.servers == [0, 1, 3]

    # the spare carries the exact parity content the dead member held
    base = h.client.server_area_bases[3]
    rebuilt = h.servers[3].ramdisk.peek(base, 8 * MiB)
    assert sum(1 for a, b in zip(snap2, rebuilt) if a != b) == 0

    # new writes land their parity on the spare
    before = h.servers[3].ramdisk.pages_stored
    h.io(WRITE, 1030 * 8)
    assert h.servers[3].ramdisk.pages_stored == before + 1


# -- cluster acceptance ----------------------------------------------------


def run_config(cfg):
    return run_cluster_scenario(cfg)


def test_rs42_survives_two_crashes():
    """The headline gate: rs(4,2) absorbs two staggered crashes with
    zero data loss at 1.5x overhead (mirroring pays 2x)."""
    cfg = cluster_redundancy_config(
        redundancy="rs(4,2)",
        crashes=((120_000.0, 2), (200_000.0, 3)),
    )
    result = run_config(cfg)
    assert result.invariant_violations == []
    red = result.redundancy
    assert red["policies"] == {"t0": "rs(4,2)"}
    assert red["overhead"] <= 1.55
    # degraded reads served while members were down
    assert red["degraded_reads"] > 0
    assert red["reconstructs"] == red["degraded_reads"]
    rep = red["repair"]
    assert rep["rebuilds"] == 2
    assert rep["pending"] == 0
    assert rep["lost_bytes"] == 2 * cfg.tenants[0].swap_bytes // 4
    expect = parse_policy("rs(4,2)").repair_traffic_bytes(rep["lost_bytes"])
    assert abs(rep["bytes_moved"] - expect) <= 0.10 * expect
    # the workload itself completed and verified its data
    assert all(not t.disk_fallback for t in result.tenants)


def test_nway_crash_fails_over_and_recopies():
    cfg = cluster_redundancy_config(
        redundancy="nway(2)", crashes=((90_000.0, 2),)
    )
    result = run_config(cfg)
    assert result.invariant_violations == []
    red = result.redundancy
    assert red["overhead"] == 2.0
    # nway's degraded path is ring failover, not reconstruction
    assert red["read_failovers"] > 0
    assert red["degraded_reads"] == 0
    rep = red["repair"]
    assert rep["rebuilds"] == 1
    assert rep["pending"] == 0
    assert rep["bytes_moved"] == rep["lost_bytes"]  # plain re-copy, 1x


def test_tight_throttle_contends():
    cfg = cluster_redundancy_config(
        redundancy="rs(2,1)",
        crashes=((140_000.0, 1),),
        throttle_mib_s=128.0,
    )
    result = run_config(cfg)
    assert result.invariant_violations == []
    rep = result.redundancy["repair"]
    assert rep["rebuilds"] == 1
    assert rep["pending"] == 0
    assert rep["throttle_waits"] > 0


def test_redundancy_replay_deterministic():
    cfg_a = cluster_redundancy_config()
    cfg_b = cluster_redundancy_config()
    a = run_config(cfg_a).fairness_report()
    b = run_config(cfg_b).fairness_report()
    assert a == b


def test_redundancy_points_shape():
    points = redundancy_points()
    names = [p.name for p in points]
    assert "redundancy/none" in names
    assert "redundancy/rs42-crash2" in names
    for p in points:
        assert isinstance(p.cfg, ClusterScenarioConfig)


# -- config validation -----------------------------------------------------


def _tenant(redundancy="rs(2,1)", swap=8 * MiB):
    return TenantSpec(
        name="t0",
        workload=QuicksortWorkload(nelems=1024, seed=7),
        mem_bytes=2 * MiB,
        swap_bytes=swap,
        redundancy=redundancy,
    )


def test_config_rejects_redundancy_plus_mirror():
    with pytest.raises(ValueError, match="exclusive"):
        ClusterScenarioConfig(
            tenants=[_tenant()], nservers=4, mirror=True,
            mem_reserved_bytes=MiB,
        )


def test_config_rejects_degraded_mode():
    with pytest.raises(ValueError, match="degraded"):
        ClusterScenarioConfig(
            tenants=[_tenant()], nservers=4,
            faults=FaultConfig(degraded_mode="disk"),
            mem_reserved_bytes=MiB,
        )


def test_config_rejects_narrow_fleet():
    with pytest.raises(ValueError, match="needs"):
        ClusterScenarioConfig(
            tenants=[_tenant("rs(4,2)")], nservers=4,
            mem_reserved_bytes=MiB,
        )


def test_config_rejects_unstripeable_swap():
    with pytest.raises(ValueError, match="ring"):
        ClusterScenarioConfig(
            tenants=[_tenant("nway(2)", swap=7 * MiB)], nservers=6,
            mem_reserved_bytes=MiB,
        )


def test_crash_needs_fault_plan_inside_tolerance():
    # the experiments helper never schedules more than m concurrent
    # outages; a plan beyond tolerance is a scenario bug, and the
    # invariant monitors plus SimulationError would surface it
    plan = FaultPlan(events=(
        ServerCrash(at=1000.0, server=0, down_for=5000.0),
    ))
    cfg = ClusterScenarioConfig(
        tenants=[_tenant()], nservers=4,
        faults=FaultConfig(plan=plan),
        mem_reserved_bytes=MiB,
    )
    # a crash in the plan starts background repair for the tenant
    assert build_cluster_scenario(cfg).repair is not None


@pytest.mark.parametrize("faults", [
    None,
    FaultConfig(),
    FaultConfig(plan=FaultPlan(events=(
        ServerSlow(at=1000.0, server=0, duration=5000.0, service_mult=4.0),
    ))),
])
def test_repair_starts_only_with_a_crash(faults):
    # only a ServerCrash flips a server's liveness, so a repair manager
    # over any other plan could never act
    cfg = ClusterScenarioConfig(
        tenants=[_tenant()], nservers=4, faults=faults,
        mem_reserved_bytes=MiB,
    )
    assert build_cluster_scenario(cfg).repair is None


def test_mirror_flag_is_nway2_per_tenant():
    cfg = ClusterScenarioConfig(
        tenants=[_tenant("none")], nservers=4, mirror=True,
        mem_reserved_bytes=MiB,
    )
    assert [t.redundancy for t in cfg.tenants] == ["nway(2)"]
    # re-validating the aliased config (dataclasses.replace) is fine
    assert replace(cfg, seed=7).tenants == cfg.tenants
    scenario = build_cluster_scenario(cfg)
    (tenant,) = scenario.hosts
    assert tenant.admission.policy == "nway(2)"
    assert tenant.client.redundancy.policy.label == "nway(2)"
    assert scenario.repair is None


# -- one failure ladder: no dead-set without timeouts ----------------------


@pytest.mark.parametrize("policy, nservers", [("nway(2)", 2), ("rs(2,1)", 3)])
def test_failed_write_copy_raises_without_timeouts(policy, nservers):
    """With timeouts off there is no dead-set: a member whose copy of a
    write failed would stay in service and serve the next read of that
    page stale.  The write must fail loudly instead of completing on
    the surviving copies (content tokens name a location, not a
    version, so the stale read itself would look correct)."""
    sim = Simulator()
    fabric = Fabric(sim)
    node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
    servers = [
        HPBDServer(sim, fabric, f"mem{i}", store_bytes=16 * MiB,
                   stats=node.stats)
        for i in range(nservers)
    ]
    group = ShardGroup(
        policy=parse_policy(policy), servers=list(range(nservers)),
        share_bytes=8 * MiB,
    )
    client = HPBDClient(
        sim, node, servers, total_bytes=16 * MiB, redundancy=group,
    )
    sim.run(until=sim.spawn(client.connect()))
    servers[0].ramdisk.size = 0  # mem0 errors on its copy of the write
    done = Event(sim)

    def proc(sim):
        client.queue.submit_bio(
            Bio(op=WRITE, sector=0, nsectors=8, done=done)
        )
        client.queue.unplug()
        yield done

    sim.spawn(proc(sim))
    with pytest.raises(SimulationError, match="server error"):
        sim.run(until=50_000.0)
