"""Tests for the limping-server machinery: ``ServerSlow`` injection,
EWMA replica selection, hedged mirror reads, and quarantine.

Unit coverage drives a two-server mirrored driver and a three-copy
nway ring directly (steering, hedging, semi-sync writes, credit
accounting, the watchdog's re-aim fix) and the fleet registry's
quarantine verdicts with synthetic health feeds.  The
acceptance scenario is the ISSUE gate: the seeded three-tenant mirrored
cluster with one fail-slow server costs < 2x the healthy worst tenant
p99 under mitigation, while the unmitigated run breaches that cliff —
with hedge-win time on the critical path and zero conservation
violations, byte-identical under replay.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.faults import FaultInjector, FaultPlan, ServerSlow
from repro.hpbd import HPBDClient, HPBDServer
from repro.hpbd.client import _Attempt
from repro.kernel import Node
from repro.kernel.blockdev import Bio, READ, WRITE
from repro.obs.health import HealthConfig, HealthHub
from repro.redundancy.policy import ShardGroup, parse_policy
from repro.simulator import Event
from repro.units import MiB

CLUSTER_SCALE = 64
P99_RATIO = 2.0


# -- fault-plan / injector unit coverage ---------------------------------


class TestServerSlowEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServerSlow(at=-1.0)
        with pytest.raises(ValueError):
            ServerSlow(at=0.0, duration=0.0)
        with pytest.raises(ValueError):
            ServerSlow(at=0.0, service_mult=0.5)
        with pytest.raises(ValueError):
            ServerSlow(at=0.0, extra_rtt_usec=-1.0)

    def test_injector_applies_and_restores(self, sim, fabric):
        from repro.simulator import StatsRegistry

        srv = HPBDServer(sim, fabric, "mem0", store_bytes=MiB)
        plan = FaultPlan(events=(
            ServerSlow(at=10.0, server=0, duration=100.0,
                       service_mult=4.0, extra_rtt_usec=50.0),
        ))
        inj = FaultInjector(
            sim, plan, stats=StatsRegistry(), hpbd_servers=[srv]
        )

        def probe(sim):
            inj.start()
            yield sim.timeout(50.0)
            assert srv.slow_mult == 4.0
            assert srv.slow_extra_usec == 50.0
            yield sim.timeout(200.0)
            assert srv.slow_mult == 1.0
            assert srv.slow_extra_usec == 0.0

        sim.run(until=sim.spawn(probe(sim)))
        assert inj.stats.get("fault.server_slowdowns").count == 1
        assert inj.stats.get("fault.server_slow_restores").count == 1
        assert srv.slowdowns == 1

    def test_injector_event_log_deterministic(self, sim, fabric):
        """Same plan, two runs: identical (time, event) sequences."""
        from repro.net import Fabric
        from repro.simulator import Simulator, StatsRegistry

        plan = FaultPlan(events=(
            ServerSlow(at=5.0, server=1, duration=20.0, service_mult=2.0),
            ServerSlow(at=40.0, server=0, duration=10.0, service_mult=8.0,
                       extra_rtt_usec=7.0),
        ))

        def one_run():
            sim2 = Simulator()
            sim2.enable_tracing()
            fab = Fabric(sim2)
            servers = [
                HPBDServer(sim2, fab, f"mem{i}", store_bytes=MiB)
                for i in range(2)
            ]
            inj = FaultInjector(
                sim2, plan, stats=StatsRegistry(), hpbd_servers=servers
            )

            def main(sim2):
                inj.start()
                yield sim2.timeout(100.0)

            sim2.run(until=sim2.spawn(main(sim2)))
            log = [
                (t, name, tuple(sorted((args or {}).items())))
                for comp, _track, name, t, args in sim2.trace.instants
                if comp == "faults"
            ]
            log += [
                (s.start, s.name, s.dur)
                for s in sim2.trace.spans
                if s.cat.startswith("fault")
            ]
            return log

        assert one_run() == one_run()


# -- driver countermeasures (two-server mirror) --------------------------


@pytest.fixture
def mitigating(sim, fabric):
    node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
    servers = [
        HPBDServer(sim, fabric, f"mem{i}", store_bytes=32 * MiB,
                   stats=node.stats)
        for i in range(2)
    ]
    client = HPBDClient(
        sim, node, servers, total_bytes=32 * MiB, mirror=True,
        ewma_select=True, hedge_reads=True,
    )
    sim.run(until=sim.spawn(client.connect()))
    return node, servers, client


def do_io(sim, client, op, sector, nsectors):
    done = Event(sim)

    def proc(sim):
        client.queue.submit_bio(
            Bio(op=op, sector=sector, nsectors=nsectors, done=done)
        )
        client.queue.unplug()
        yield done
        return sim.now

    return sim.run(until=sim.spawn(proc(sim)))


def counter(client, name: str) -> int:
    c = client.stats.get(f"hpbd0.{name}")
    return int(c.total) if c is not None else 0


class TestCountermeasures:
    def test_requires_mirror(self, sim, fabric):
        node = Node(sim, fabric, "c", mem_bytes=16 * MiB)
        servers = [
            HPBDServer(sim, fabric, f"m{i}", store_bytes=32 * MiB)
            for i in range(2)
        ]
        with pytest.raises(ValueError, match="mirror"):
            HPBDClient(sim, node, servers, total_bytes=32 * MiB,
                       ewma_select=True)

    def test_ewma_steers_reads_off_slow_primary(self, sim, mitigating):
        _node, servers, client = mitigating
        # Warm both estimators past SELECT_MIN_SAMPLES (mirrored writes
        # observe an RTT on each copy).
        for i in range(12):
            do_io(sim, client, WRITE, sector=i * 8, nsectors=8)
        servers[0].slow(service_mult=8.0, extra_usec=500.0)
        for _ in range(20):
            do_io(sim, client, READ, sector=0, nsectors=8)
        assert counter(client, "steered_reads") > 0
        # Steered reads land on the replica's copy of chunk 0.
        assert servers[1].requests_served > 12

    def test_hedge_wins_and_reclaims_credits(self, sim, mitigating):
        """A stalled primary read is rescued by the tied request at the
        mirror; when the loser's late reply finally arrives, its credit
        is already back and nothing leaks."""
        _node, servers, client = mitigating
        for i in range(8):
            do_io(sim, client, WRITE, sector=i * 8, nsectors=8)
        for _ in range(6):
            do_io(sim, client, READ, sector=0, nsectors=8)
        # Stall every op on the primary far past the hedge deadline.
        servers[0].slow(service_mult=1.0, extra_usec=20_000.0)
        t = do_io(sim, client, READ, sector=0, nsectors=8)
        # The read completed on the mirror's timescale, not the stall's.
        assert t < 20_000.0
        assert counter(client, "hedges") >= 1
        assert counter(client, "hedge_wins") >= 1

        def settle(sim):
            # Outlive the loser's stalled reply, then drain stragglers.
            yield sim.timeout(50_000.0)
            yield from client.drain()

        sim.run(until=sim.spawn(settle(sim)))
        assert counter(client, "stale_replies") >= 1
        client.audit_teardown()
        client.pool.check_invariants()
        assert sim.monitors.summary() == []

    def test_watchdog_reaims_for_shorter_deadline(self, sim, fabric):
        """Regression: an attempt posted mid-sleep with an earlier
        deadline than the watchdog's current target must still expire on
        time (the old dog slept to the first attempt's deadline)."""
        node = Node(sim, fabric, "c", mem_bytes=16 * MiB)
        servers = [
            HPBDServer(sim, fabric, f"m{i}", store_bytes=32 * MiB)
            for i in range(2)
        ]
        client = HPBDClient(
            sim, node, servers, total_bytes=32 * MiB, mirror=True,
            request_timeout_usec=10_000.0,
        )
        sim.run(until=sim.spawn(client.connect()))
        expired = []
        client._fail_attempt = (
            lambda att, cause: expired.append((att.server, sim.now))
        )

        def fake_attempt(server, deadline):
            entry = SimpleNamespace(op=WRITE, live_rids=set())
            return _Attempt(entry=entry, server=server, offset=0,
                            sent_at=sim.now, deadline=deadline)

        posted = {}

        def proc(sim):
            yield client._credits[0].acquire()
            client._inflight[1] = fake_attempt(0, sim.now + 10_000.0)
            client._arm_watchdog(sim.now + 10_000.0, None)
            yield sim.timeout(100.0)
            # Watchdog is now asleep aiming 10 ms out; undercut it.
            yield client._credits[1].acquire()
            posted["short"] = sim.now
            client._inflight[2] = fake_attempt(1, sim.now + 200.0)
            client._arm_watchdog(sim.now + 200.0, None)
            yield sim.timeout(5_000.0)

        sim.run(until=sim.spawn(proc(sim)))
        assert expired == [(1, pytest.approx(posted["short"] + 200.0))]


# -- driver countermeasures (three-copy ring) ---------------------------


def _ring3(sim, fabric, health=None, **kw):
    """An nway(3) client over three 48 MiB servers (16 MiB share each:
    copy j of server i's chunk on server i+j at store offset j * 16 MiB)."""
    node = Node(sim, fabric, "client", mem_bytes=16 * MiB)
    servers = [
        HPBDServer(sim, fabric, f"mem{i}", store_bytes=48 * MiB,
                   stats=node.stats)
        for i in range(3)
    ]
    group = ShardGroup(
        policy=parse_policy("nway(3)"), servers=[0, 1, 2],
        share_bytes=16 * MiB,
    )
    client = HPBDClient(
        sim, node, servers, total_bytes=48 * MiB, redundancy=group,
        health=health, **kw,
    )
    sim.run(until=sim.spawn(client.connect()))
    return servers, client


class _SlowSet:
    """Health stub: the fail-slow verdict is whatever the test says."""

    def __init__(self, slow):
        self.slow = set(slow)

    def server_is_slow(self, server):
        return server in self.slow

    def record_server_rtt(self, server, rtt):
        pass

    def record_request(self, tenant, latency):
        pass

    def record_error(self, tenant, server):
        pass


class TestRingCountermeasures:
    def test_reads_steer_to_fastest_alive_copy(self, sim, fabric):
        servers, client = _ring3(sim, fabric, ewma_select=True)
        for i in range(12):
            do_io(sim, client, WRITE, sector=i * 8, nsectors=8)
        # sector 0's first copy limps badly, its second a little
        servers[0].slow(service_mult=8.0, extra_usec=500.0)
        servers[1].slow(service_mult=4.0, extra_usec=200.0)
        for i in range(12):  # the writes feed every copy's estimator
            do_io(sim, client, WRITE, sector=i * 8, nsectors=8)
        for _ in range(20):
            do_io(sim, client, READ, sector=0, nsectors=8)
        steered = counter(client, "steered_reads")
        assert steered > 0
        # every steered read went to the third (fastest) copy
        assert servers[1].ramdisk.bytes_read == 0
        assert servers[2].ramdisk.bytes_read == steered * 4096

    def test_hedge_fires_at_alive_untried_copy(self, sim, fabric):
        servers, client = _ring3(sim, fabric, hedge_reads=True)
        for i in range(8):
            do_io(sim, client, WRITE, sector=i * 8, nsectors=8)
        for _ in range(6):
            do_io(sim, client, READ, sector=0, nsectors=8)
        client.notify_server_down(1)  # the second copy is gone
        servers[0].slow(service_mult=1.0, extra_usec=20_000.0)
        t0 = sim.now
        t = do_io(sim, client, READ, sector=0, nsectors=8)
        assert t - t0 < 20_000.0
        assert counter(client, "hedges") == 1
        assert counter(client, "hedge_wins") == 1
        # the tie skipped the attempt's own copy and the dead one
        assert servers[1].ramdisk.bytes_read == 0
        assert servers[2].ramdisk.bytes_read == 4096

        def settle(sim):
            yield sim.timeout(50_000.0)
            yield from client.drain()

        sim.run(until=sim.spawn(settle(sim)))
        client.audit_teardown()
        assert sim.monitors.summary() == []

    def test_quarantined_copy_does_not_gate_writes(self, sim, fabric):
        servers, client = _ring3(
            sim, fabric, health=_SlowSet({2}), ewma_select=True
        )
        servers[1].slow(service_mult=1.0, extra_usec=2_000.0)
        servers[2].slow(service_mult=1.0, extra_usec=20_000.0)
        t0 = sim.now
        t = do_io(sim, client, WRITE, sector=0, nsectors=8)
        # completes on the two healthy copies' acks: after the slower
        # of them, long before the quarantined straggler
        assert 2_000.0 < t - t0 < 20_000.0
        assert counter(client, "semisync_writes") == 1
        assert counter(client, "quarantines") == 1

        def settle(sim):
            yield sim.timeout(50_000.0)
            yield from client.drain()

        sim.run(until=sim.spawn(settle(sim)))
        assert servers[2].ramdisk.pages_stored == 1  # it still landed
        client.audit_teardown()
        assert sim.monitors.summary() == []

    def test_rs_group_rejects_countermeasures(self, sim, fabric):
        node = Node(sim, fabric, "c", mem_bytes=16 * MiB)
        servers = [
            HPBDServer(sim, fabric, f"m{i}", store_bytes=16 * MiB)
            for i in range(3)
        ]
        group = ShardGroup(
            policy=parse_policy("rs(2,1)"), servers=[0, 1, 2],
            share_bytes=8 * MiB,
        )
        with pytest.raises(ValueError, match="mirror"):
            HPBDClient(sim, node, servers, total_bytes=16 * MiB,
                       redundancy=group, ewma_select=True)


# -- quarantine (health hub -> registry -> placement) --------------------


def _drive(sim, hub: HealthHub, feed, steps: int, dt: float = 1_000.0):
    def proc():
        for i in range(steps):
            feed(i)
            yield sim.timeout(dt)

    hub.start()
    sim.run(until=sim.spawn(proc()))


class TestQuarantine:
    def _fleet(self, sim, fabric):
        from repro.cluster.registry import FleetRegistry

        servers = [
            HPBDServer(sim, fabric, f"mem{i}", store_bytes=4 * MiB)
            for i in range(3)
        ]
        registry = FleetRegistry(sim, servers, capacity_bytes=4 * MiB)
        hub = HealthHub(
            sim, [s.name for s in servers], ["t"],
            cfg=HealthConfig(min_samples=5),
        )
        registry.health = hub
        return servers, registry, hub

    def test_flag_quarantines_and_recovery_lifts(self, sim, fabric):
        from repro.cluster.placement import _alive_with_room

        _servers, registry, hub = self._fleet(sim, fabric)

        def slow_feed(i):
            hub.record_server_rtt(0, 100.0)
            hub.record_server_rtt(1, 110.0)
            hub.record_server_rtt(2, 100.0 if i < 20 else 900.0)

        _drive(sim, hub, slow_feed, steps=40)
        registry.poll()
        assert registry.quarantined == [False, False, True]
        assert registry.stats.get("cluster.quarantines").count == 1
        # Placement avoids the limping server while alternatives exist.
        assert _alive_with_room(registry) == [0, 1]

        def recovered_feed(i):
            hub.record_server_rtt(0, 100.0)
            hub.record_server_rtt(1, 110.0)
            hub.record_server_rtt(2, 100.0)

        _drive(sim, hub, recovered_feed, steps=200)
        registry.poll()
        assert registry.quarantined == [False, False, False]
        assert registry.stats.get("cluster.quarantine_lifts").count == 1
        assert _alive_with_room(registry) == [0, 1, 2]

    def test_all_quarantined_falls_back_to_alive(self, sim, fabric):
        from repro.cluster.placement import _alive_with_room

        _servers, registry, _hub = self._fleet(sim, fabric)
        registry.quarantined = [True, True, True]
        # A limping server still beats a NACK.
        assert _alive_with_room(registry) == [0, 1, 2]


class TestHealthRestartReset:
    def test_dead_to_alive_resets_service_stats(self, sim):
        hub = HealthHub(
            sim, ["s0", "s1", "s2"], ["t"],
            cfg=HealthConfig(min_samples=5),
        )

        def feed(i):
            hub.record_server_rtt(0, 100.0)
            hub.record_server_rtt(1, 110.0)
            hub.record_server_rtt(2, 900.0)

        _drive(sim, hub, feed, steps=40)
        s2 = hub.servers[2]
        assert s2.samples > 0 and s2.ewma.count > 0
        hub.set_server_alive(2, False)
        hub.set_server_alive(2, True)
        # A restarted server must not inherit its pre-crash EWMA/streak
        # (it would be flagged slow, or exonerated, on stale evidence).
        assert s2.samples == 0
        assert s2.streak == 0
        assert s2.ewma.count == 0


# -- acceptance: the mitigation gate -------------------------------------


@pytest.fixture(scope="module")
def failslow_runs():
    """Healthy baseline, unmitigated cliff, and mitigated run of the
    seeded mirrored fleet (mitigated traced for blame)."""
    from repro.experiments import cluster_failslow_mitigated_config
    from repro.runner import run_scenario

    out = {}
    for name, slow, mitigate in (
        ("healthy", False, True),
        ("unmitigated", True, False),
        ("mitigated", True, True),
    ):
        cfg = cluster_failslow_mitigated_config(
            CLUSTER_SCALE, slow=slow, mitigate=mitigate
        )
        out[name] = run_scenario(cfg, trace=(name == "mitigated"))
    return out


def worst_p99(result) -> float:
    return max(
        t["p99_usec"] or 0.0 for t in result.health["tenants"].values()
    )


class TestMitigationGate:
    def test_unmitigated_run_breaches(self, failslow_runs):
        healthy = worst_p99(failslow_runs["healthy"])
        assert worst_p99(failslow_runs["unmitigated"]) >= (
            P99_RATIO * healthy
        )

    def test_mitigated_run_stays_under_gate(self, failslow_runs):
        healthy = worst_p99(failslow_runs["healthy"])
        assert worst_p99(failslow_runs["mitigated"]) < P99_RATIO * healthy

    def test_countermeasures_engaged(self, failslow_runs):
        stats = failslow_runs["mitigated"].registry

        def total(key):
            return sum(
                int(stats.get(f"t{i}-hpbd.{key}").total)
                for i in range(3)
                if stats.get(f"t{i}-hpbd.{key}") is not None
            )

        assert total("hedges") > 0
        assert total("hedge_wins") > 0
        assert total("steered_reads") > 0
        assert int(stats.get("fault.server_slowdowns").total) == 1

    def test_hedge_win_time_on_critical_path(self, failslow_runs):
        from repro.analysis.critpath import aggregate_blame, request_paths

        blame = aggregate_blame(
            request_paths(failslow_runs["mitigated"].trace)
        )
        assert blame.get("hedge_win", 0.0) > 0.0
        assert blame.get("server_slow", 0.0) > 0.0

    def test_no_conservation_violations(self, failslow_runs):
        for name, result in failslow_runs.items():
            assert result.invariant_violations == [], name

    def test_mitigated_replay_byte_identical(self, failslow_runs):
        from repro.experiments import cluster_failslow_mitigated_config
        from repro.runner import run_scenario

        cfg = cluster_failslow_mitigated_config(CLUSTER_SCALE)
        second = run_scenario(cfg)
        a = json.dumps(failslow_runs["mitigated"].health, sort_keys=True)
        b = json.dumps(second.health, sort_keys=True)
        assert a == b
