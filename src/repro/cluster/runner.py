"""Cluster scenario runner: N tenant nodes over one shared fleet.

The cluster analogue of :mod:`repro.runner`: build the server fleet
once, admit every tenant through placement + admission control, give
each tenant its own full compute node (VM, CPUs, HPBD driver tagged
with its tenant identity), run all workloads concurrently over the
shared fabric, and collect a :class:`ClusterResult` with per-tenant
completion times and fairness metrics.
"""

from __future__ import annotations

import numpy as np

from ..config import ClusterScenarioConfig, TenantSpec
from ..disk.driver import DiskDevice
from ..disk.model import ST340014A
from ..faults import FaultInjector, ServerCrash
from ..hpbd.client import HPBDClient
from ..hpbd.server import HPBDServer
from ..hpbd.striping import ChunkMapDistribution
from ..kernel.node import Node
from ..net.link import Fabric
from ..obs.health import HealthHub
from ..obs.metrics import MetricsHub
from ..results import InstanceResult
from ..runner import hpbd_recovery, watch_utilization
from ..simulator import Simulator, StatsRegistry, all_of
from ..units import MiB, PAGE_SIZE
from ..workloads.base import execute
from ..redundancy.repair import RepairManager
from .admission import AdmissionController, AdmissionNack
from .migration import ChunkMigrator
from .qos import WeightedFairScheduler, partition_credits
from .registry import FleetRegistry
from .results import ClusterResult, TenantResult

__all__ = ["run_cluster_scenario", "build_cluster_scenario"]


def _default_capacity(cfg: ClusterScenarioConfig) -> int:
    """Advertised per-server capacity when the config leaves it out:
    an even split of total demand — scaled by each tenant's redundancy
    overhead (nway(r) rx, mirror included, rs(k,m) (k+m)/k) — rounded
    up to MiB, plus a MiB of slack for allocator rounding.

    Redundant groups concentrate on k+m members rather than spreading
    fleet-wide, so the even split is a floor; explicit capacity is the
    knob for tight-packing experiments."""
    demand = 0.0
    for t in cfg.tenants:
        demand += t.swap_bytes * t.redundancy_policy.overhead
    pol_max = max(
        (t.redundancy_policy for t in cfg.tenants),
        key=lambda p: p.width if p.kind == "rs" else 0,
    )
    if pol_max.kind == "rs":
        # An rs group packs each member's whole share onto k+m servers;
        # every member must fit the largest single share.
        biggest_share = max(
            t.swap_bytes // t.redundancy_policy.k
            for t in cfg.tenants
            if t.redundancy_policy.kind == "rs"
        )
        demand = max(demand, float(biggest_share * cfg.nservers))
    share = -(-int(demand) // cfg.nservers)
    return -(-share // MiB) * MiB + MiB


class _Tenant:
    """Everything built for one tenant node."""

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.node: Node | None = None
        self.client: HPBDClient | None = None
        self.disk: DiskDevice | None = None
        self.fallback_disk: DiskDevice | None = None
        self.queue = None
        self.admission = None
        self.disk_fallback = False
        self.metrics: MetricsHub | None = None


class _ClusterScenario:
    """One cluster run's full object graph (exposed for white-box tests)."""

    def __init__(self, cfg: ClusterScenarioConfig, trace: bool = False) -> None:
        self.cfg = cfg
        self.sim = Simulator()
        if trace:
            self.sim.enable_tracing()
        self.stats = StatsRegistry()
        self.fabric = Fabric(self.sim, stats=self.stats)
        capacity = (
            cfg.server_capacity_bytes
            if cfg.server_capacity_bytes is not None
            else _default_capacity(cfg)
        )
        limit = int(capacity * cfg.overcommit)
        store = -(-limit // MiB) * MiB
        resident = None
        if cfg.overcommit > 1.0:
            resident = capacity - capacity % PAGE_SIZE
        self.servers: list[HPBDServer] = [
            HPBDServer(
                self.sim,
                self.fabric,
                f"mem{i}",
                store_bytes=store,
                ib_params=cfg.ib,
                staging_pool_bytes=cfg.staging_pool_bytes,
                max_outstanding_rdma=cfg.max_outstanding_rdma,
                stats=self.stats,
                resident_bytes=resident,
                scheduler=WeightedFairScheduler() if cfg.qos else None,
            )
            for i in range(cfg.nservers)
        ]
        self.registry = FleetRegistry(
            self.sim,
            self.servers,
            capacity_bytes=capacity,
            overcommit=cfg.overcommit,
            heartbeat_interval_usec=cfg.heartbeat_interval_usec,
            stats=self.stats,
        )
        self.admission = AdmissionController(
            self.registry, policy=cfg.placement, stats=self.stats
        )
        self.health: HealthHub | None = None
        if cfg.health is not None:
            self.health = HealthHub(
                self.sim,
                [srv.name for srv in self.servers],
                [t.name for t in cfg.tenants],
                cfg=cfg.health,
                stats=self.stats,
            )
            # Heartbeat liveness edges feed the same health model the
            # data-path hooks do — crash, flap, degrade, and slow all
            # land in one per-server status.
            self.registry.health = self.health
        if cfg.qos:
            credits = partition_credits(
                cfg.credit_pool, {t.name: t.weight for t in cfg.tenants}
            )
        else:
            credits = {t.name: cfg.credits_per_server for t in cfg.tenants}
        self.tenants: list[_Tenant] = []
        for spec in cfg.tenants:
            self.tenants.append(self._build_tenant(spec, credits[spec.name]))
        self.migrator: ChunkMigrator | None = None
        self.repair: RepairManager | None = None
        redundant = [
            t
            for t in self.tenants
            if t.admission is not None and t.admission.group is not None
        ]
        plan = cfg.faults.plan if cfg.faults is not None else None
        # Only a crash flips a server's liveness, so without one the
        # repair manager's scans could never act.
        crashes = plan is not None and any(
            isinstance(e, ServerCrash) for e in plan.events
        )
        if redundant and crashes:
            self.migrator = ChunkMigrator(
                self.sim,
                self.registry,
                stats=self.stats,
                throttle_mib_s=cfg.migration_throttle_mib_s,
            )
            self.repair = RepairManager(
                self.sim,
                self.registry,
                self.migrator,
                self.servers,
                interval_usec=cfg.repair_interval_usec,
                spare_after_usec=cfg.repair_spare_after_usec,
                stats=self.stats,
            )
            for t in redundant:
                self.repair.watch(t.spec.name, t.client, t.admission.group)
        self.fault_injector: FaultInjector | None = None
        if cfg.faults is not None and cfg.faults.plan is not None:
            self.fault_injector = FaultInjector(
                self.sim,
                cfg.faults.plan,
                stats=self.stats,
                fabric=self.fabric,
                hpbd_servers=self.servers,
            )

    def _build_tenant(self, spec: TenantSpec, credits: int) -> _Tenant:
        cfg = self.cfg
        tenant = _Tenant(spec)
        tenant.node = Node(
            self.sim,
            self.fabric,
            spec.name,
            mem_bytes=spec.mem_bytes - cfg.mem_reserved_bytes,
            ncpus=spec.ncpus,
            vm_params=cfg.vm_params,
            stats=self.stats,
        )
        try:
            tenant.admission = self.admission.admit(
                spec.name,
                spec.swap_bytes,
                redundancy=(
                    spec.redundancy if spec.redundancy != "none" else None
                ),
            )
        except AdmissionNack:
            if cfg.admission_fallback != "disk":
                raise
            # NACKed tenants keep running — on their own local disk,
            # the same degradation the per-request recovery ladder ends
            # in (PR 4's disk fallback, applied at admission time).
            tenant.disk_fallback = True
            tenant.disk = DiskDevice(
                self.sim,
                name=f"{spec.name}-hda",
                params=(
                    cfg.faults.fallback_disk
                    if cfg.faults is not None
                    else ST340014A
                ),
                swap_partition_bytes=spec.swap_bytes,
                stats=self.stats,
            )
            tenant.queue = tenant.disk.queue
            return tenant
        recovery, tenant.fallback_disk = hpbd_recovery(
            self.sim, cfg.faults, f"{spec.name}-fallback", spec.swap_bytes,
            self.stats,
        )
        tenant.client = HPBDClient(
            self.sim,
            tenant.node,
            self.servers,
            total_bytes=spec.swap_bytes,
            ib_params=cfg.ib,
            pool_bytes=cfg.pool_bytes,
            credits_per_server=credits,
            name=f"{spec.name}-hpbd",
            stats=self.stats,
            server_area_bases=tenant.admission.area_bases,
            tenant=spec.name,
            qos_weight=spec.weight,
            # The grant's data chunk map, plus a redundant tenant's
            # replica / parity extents.
            distribution=ChunkMapDistribution(
                spec.swap_bytes,
                cfg.nservers,
                tenant.admission.chunks,
                tenant.admission.parity_chunks or None,
            ),
            redundancy=tenant.admission.group,
            health=self.health,
            **recovery,
        )
        tenant.queue = tenant.client.queue
        return tenant

    def _register_tenant_metrics(self) -> None:
        """Per-tenant MetricsHub + utilization gauges (traced runs only,
        matching the single-node runner): tenant-prefixed names keep the
        shared registry collision-free; fleet-level server gauges ride
        on the first tenant's hub."""
        for i, tenant in enumerate(self.tenants):
            name = tenant.spec.name
            tenant.metrics = MetricsHub(
                tenant.node, stats=self.stats, prefix=f"obs.vmstat.{name}"
            )
            watch_utilization(
                tenant.metrics, f"{name}.", tenant.node, tenant.queue,
                tenant.client, () if i else self.servers,
            )

    # -- execution ----------------------------------------------------------

    def run(self) -> ClusterResult:
        cfg = self.cfg
        sim = self.sim
        instances: list[InstanceResult] = []
        tenant_elapsed: dict[str, float] = {}
        tenant_faults: dict[str, tuple[int, int, float]] = {}

        def tenant_main(tenant: _Tenant):
            spec = tenant.spec
            aspace = tenant.node.vmm.create_address_space(
                spec.workload.npages, name=f"{spec.name}.ws"
            )
            elapsed = yield from execute(
                spec.workload, tenant.node, aspace
            )
            tenant_elapsed[spec.name] = elapsed
            tenant_faults[spec.name] = (
                aspace.major_faults, aspace.minor_faults, aspace.stall_usec
            )
            return elapsed

        def main(sim):
            # Fleet + tenant bring-up, outside the measured window.
            for tenant in self.tenants:
                if tenant.client is not None:
                    yield from tenant.client.connect()
                tenant.node.swapon(tenant.queue, tenant.spec.swap_bytes)
            self.registry.start_heartbeat()
            if self.health is not None:
                self.health.start()
            if sim.trace.enabled:
                self._register_tenant_metrics()
                for tenant in self.tenants:
                    tenant.metrics.start()
            if self.fault_injector is not None:
                self.fault_injector.start()
            if self.repair is not None:
                self.repair.start()
            t_start = sim.now
            procs = [
                sim.spawn(tenant_main(tenant), name=tenant.spec.name)
                for tenant in self.tenants
            ]
            yield all_of(sim, procs)
            wall = sim.now - t_start
            for tenant in self.tenants:
                if tenant.metrics is not None:
                    tenant.metrics.stop()
            if self.repair is not None:
                # Finish (or give up on) outstanding rebuilds before the
                # drains: repair's catch-up posts ride the data path.
                yield from self.repair.drain()
                self.repair.stop()
            for tenant in self.tenants:
                yield from tenant.node.vmm.quiesce()
                if tenant.client is not None:
                    # Semi-sync mirrored writes may still have straggler
                    # acks in flight; let them land before the audits.
                    yield from tenant.client.drain()
                tenant.node.vmm.check_frame_accounting()
                tenant.queue.audit_teardown()
                if tenant.fallback_disk is not None:
                    tenant.fallback_disk.queue.audit_teardown()
                if tenant.client is not None:
                    tenant.client.pool.check_invariants()
                    tenant.client.audit_teardown()
            for srv in self.servers:
                srv.audit_teardown()
            self.registry.audit_teardown()
            return wall

        proc = sim.spawn(main(sim), name="cluster")
        wall = sim.run(until=proc)
        for tenant in self.tenants:
            spec = tenant.spec
            major, minor, stall = tenant_faults[spec.name]
            instances.append(
                InstanceResult(
                    workload=spec.workload.name,
                    elapsed_usec=tenant_elapsed[spec.name],
                    major_faults=major,
                    minor_faults=minor,
                    stall_usec=stall,
                )
            )
        return self._collect(instances, tenant_elapsed, tenant_faults, wall)

    def _collect(
        self,
        instances: list[InstanceResult],
        tenant_elapsed: dict[str, float],
        tenant_faults: dict[str, tuple[int, int, float]],
        wall: float,
    ) -> ClusterResult:
        cfg = self.cfg
        stats = self.stats

        def counter_total(name: str) -> int:
            c = stats.get(name)
            return int(c.total) if c is not None else 0

        swapout = sum(
            counter_total(f"{t.spec.name}.vm.swapout_pages")
            for t in self.tenants
        )
        swapin = sum(
            counter_total(f"{t.spec.name}.vm.swapin_pages")
            for t in self.tenants
        )
        reads, writes = [], []
        request_trace: list[tuple[float, str, int]] = []
        for tenant in self.tenants:
            rt = stats.get(f"{tenant.queue.name}.req_bytes.read")
            wt = stats.get(f"{tenant.queue.name}.req_bytes.write")
            if rt is not None:
                reads.append(rt.values())
            if wt is not None:
                writes.append(wt.values())
            request_trace.extend(tenant.queue.request_trace())
        request_trace.sort(key=lambda item: item[0])
        network_bytes: dict[str, int] = {}
        for name in stats.names():
            if name.startswith("fabric.bytes."):
                network_bytes[name.removeprefix("fabric.bytes.")] = int(
                    stats.get(name).total
                )
        blame_usec: dict[str, float] = {}
        if self.sim.trace.enabled:
            from ..analysis.critpath import aggregate_blame, request_paths

            blame_usec = aggregate_blame(request_paths(self.sim.trace))
        redundancy = self._redundancy_report(counter_total)
        tenant_results = []
        for tenant in self.tenants:
            spec = tenant.spec
            major, minor, stall = tenant_faults[spec.name]
            tenant_results.append(
                TenantResult(
                    name=spec.name,
                    workload=spec.workload.name,
                    elapsed_usec=tenant_elapsed[spec.name],
                    major_faults=major,
                    minor_faults=minor,
                    stall_usec=stall,
                    weight=spec.weight,
                    swap_bytes=spec.swap_bytes,
                    bytes_served=sum(
                        srv.tenant_bytes.get(spec.name, 0)
                        for srv in self.servers
                    ),
                    disk_fallback=tenant.disk_fallback,
                    placement=(
                        tenant.admission.policy
                        if tenant.admission is not None
                        else "disk"
                    ),
                )
            )
        monitors = self.sim.monitors
        return ClusterResult(
            label=cfg.label,
            instances=instances,
            elapsed_usec=wall,
            swapout_pages=swapout,
            swapin_pages=swapin,
            read_request_bytes=(
                np.concatenate(reads)
                if reads
                else np.array([], dtype=np.float64)
            ),
            write_request_bytes=(
                np.concatenate(writes)
                if writes
                else np.array([], dtype=np.float64)
            ),
            request_trace=request_trace,
            network_bytes=network_bytes,
            client_copy_usec=sum(
                t.client.copy_usec
                for t in self.tenants
                if t.client is not None
            ),
            blame_usec=blame_usec,
            invariant_violations=monitors.summary(),
            monitor_watermarks=dict(monitors.watermarks),
            registry=stats,
            trace=self.sim.trace if self.sim.trace.enabled else None,
            health=self.health.report() if self.health is not None else {},
            tenants=tenant_results,
            placement=cfg.placement,
            qos=cfg.qos,
            nservers=cfg.nservers,
            admission_nacks=counter_total("cluster.admission_nacks"),
            redundancy=redundancy,
        )

    def _redundancy_report(self, counter_total) -> dict:
        """Durability summary: policies, memory overhead vs demand, the
        degraded-read/reconstruct counters and the repair ledger."""
        redundant = [
            t
            for t in self.tenants
            if t.admission is not None and t.admission.group is not None
        ]
        if not redundant:
            return {}
        stats = self.stats

        def counter_count(name: str) -> int:
            c = stats.get(name)
            return int(c.count) if c is not None else 0

        demand = sum(t.spec.swap_bytes for t in redundant)
        reserved = sum(sum(t.admission.share_bytes) for t in redundant)
        degraded = sum(
            counter_count(f"{t.spec.name}-hpbd.degraded_reads")
            for t in redundant
        )
        reconstructs = sum(
            counter_count(f"{t.spec.name}-hpbd.reconstructs")
            for t in redundant
        )
        write_failovers = sum(
            counter_count(f"{t.spec.name}-hpbd.write_failovers")
            for t in redundant
        )
        # nway reads don't reconstruct — they fail over to a ring
        # replica; that's its "degraded read" equivalent.
        read_failovers = sum(
            counter_count(f"{t.spec.name}-hpbd.failovers")
            for t in redundant
        )
        report = {
            "policies": {
                t.spec.name: t.admission.group.policy.label
                for t in redundant
            },
            "demand_bytes": demand,
            "reserved_bytes": reserved,
            "overhead": reserved / demand if demand else 0.0,
            "degraded_reads": degraded,
            "reconstructs": reconstructs,
            "read_failovers": read_failovers,
            "write_failovers": write_failovers,
        }
        if self.repair is not None:
            report["repair"] = {
                "rebuilds": counter_count("repair.rebuilds"),
                "spare_rebuilds": counter_count("repair.spare_rebuilds"),
                "aborts": counter_count("repair.aborts"),
                "bytes_moved": counter_total("repair.bytes_moved"),
                "lost_bytes": counter_total("repair.lost_bytes"),
                "pending": self.repair.pending,
                "throttle_waits": counter_count("mig.throttle_waits"),
            }
        return report


def build_cluster_scenario(
    cfg: ClusterScenarioConfig, trace: bool = False
) -> _ClusterScenario:
    """Construct without running (white-box tests poke at the pieces)."""
    return _ClusterScenario(cfg, trace=trace)


def run_cluster_scenario(
    cfg: ClusterScenarioConfig, trace: bool = False
) -> ClusterResult:
    """Build and run one cluster scenario to completion."""
    return _ClusterScenario(cfg, trace=trace).run()
