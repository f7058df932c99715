"""Scenario runner: build the hosts, run the workloads, collect results.

``run_scenario`` is the single entry point the examples, tests,
benchmarks and the cluster layer share.  A run is a list of *hosts* —
compute nodes, each with its swap device and its workload instances —
plus, for a :class:`~repro.config.ClusterScenarioConfig`, the fleet
they share: memory servers, registry, admission, health, QoS credits
and repair.  A :class:`~repro.config.ScenarioConfig` is one host and no
fleet; its device config builds its own servers, NBD server or disk.

Every workload instance runs as its own process; once all finish, each
host's VM quiesces and its ledgers are audited, and the run returns a
:class:`~repro.results.ScenarioResult` (a
:class:`~repro.cluster.results.ClusterResult` for a cluster, with
per-tenant completion times and fairness metrics).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .cluster.admission import Admission, AdmissionController, AdmissionNack
from .cluster.migration import ChunkMigrator
from .cluster.qos import WeightedFairScheduler, partition_credits
from .cluster.registry import FleetRegistry
from .cluster.results import ClusterResult, TenantResult
from .config import (
    HPBD,
    ClusterScenarioConfig,
    DeviceConfig,
    LocalDisk,
    LocalMemory,
    NBD,
    ScenarioConfig,
    TenantSpec,
)
from .disk.driver import DiskDevice
from .disk.model import ST340014A
from .faults import FaultInjector, ServerCrash
from .hpbd.client import HPBDClient
from .hpbd.server import HPBDServer
from .hpbd.striping import ChunkMapDistribution, striped_chunks
from .kernel.blockdev import RequestQueue
from .kernel.node import Node
from .nbd.client import NBDClient
from .nbd.server import NBDServer
from .net.link import Fabric
from .obs.health import HealthHub
from .obs.metrics import MetricsHub
from .redundancy.repair import RepairManager
from .results import InstanceResult, ScenarioResult
from .simulator import Simulator, StatsRegistry, all_of
from .units import MiB, PAGE_SIZE, bytes_to_pages, pages_to_bytes
from .workloads.base import Workload, execute

__all__ = ["run_scenario", "build_scenario"]


def watch_utilization(
    metrics: MetricsHub,
    prefix: str,
    node: Node,
    queue,
    client: HPBDClient | None,
    servers: Sequence[HPBDServer] = (),
) -> None:
    """Utilization/queue-depth gauges sampled each metrics tick: the
    node's CPUs, its request queue, the HPBD client's credits and pool,
    then each server's RDMA slots.  ``prefix`` namespaces the node's
    gauge names (a cluster tenant's ``"t0."``)."""
    metrics.watch(f"{prefix}cpus", lambda: {"busy": float(node.cpus.in_use)})
    if queue is not None:
        metrics.watch(
            f"{prefix}rq",
            lambda: {
                "in_flight": float(queue.in_flight),
                "ready": float(queue.dispatch_depth),
            },
        )
    if client is not None:
        metrics.watch(
            f"{prefix}credits",
            lambda: {
                "tokens": float(sum(b.tokens for b in client._credits)),
                "waiting": float(sum(b.queue_length for b in client._credits)),
            },
        )
        metrics.watch(
            f"{prefix}pool",
            lambda: {
                "free_bytes": float(client.pool.free_bytes),
                "waiting": float(client.pool.waiting),
            }
            if client.pool is not None
            else {},
        )
    for srv in servers:
        metrics.watch(
            f"{srv.name}.rdma",
            lambda srv=srv: {"slots_in_use": float(srv._rdma_slots.in_use)},
        )


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


@dataclass(eq=False)
class _Host:
    """One compute node: its swap device and its workload instances."""

    node: Node
    swap_bytes: int
    #: (instance name, workload) per workload instance
    workloads: list[tuple[str, Workload]]
    queue: RequestQueue | None = None
    client: HPBDClient | None = None
    nbd_client: NBDClient | None = None
    disk: DiskDevice | None = None
    fallback_disk: DiskDevice | None = None
    metrics: MetricsHub | None = None
    #: a cluster tenant's spec and admission grant (``None`` when
    #: NACKed onto its local disk); both unset on a single node
    spec: TenantSpec | None = None
    admission: Admission | None = None


class _Scenario:
    """Everything constructed for one run (exposed for white-box tests):
    the hosts, and the fleet they share when the config is a cluster."""

    def __init__(
        self, cfg: ScenarioConfig | ClusterScenarioConfig, trace: bool = False
    ) -> None:
        self.cfg = cfg
        self.sim = Simulator()
        if trace:
            self.sim.enable_tracing()
        self.stats = StatsRegistry()
        self.fabric = Fabric(self.sim, stats=self.stats)
        self.hosts: list[_Host] = []
        self.servers: list[HPBDServer] = []
        self.nbd_server: NBDServer | None = None
        self.registry: FleetRegistry | None = None
        self.admission: AdmissionController | None = None
        self.health: HealthHub | None = None
        self.migrator: ChunkMigrator | None = None
        self.repair: RepairManager | None = None
        if isinstance(cfg, ClusterScenarioConfig):
            self._build_fleet(cfg)
        else:
            # Node before device: the node starts kswapd, a disk or NBD
            # server its own process, and the post order is the run's.
            host = _Host(
                Node(
                    self.sim,
                    self.fabric,
                    "compute",
                    mem_bytes=cfg.usable_mem_bytes,
                    ncpus=cfg.ncpus,
                    vm_params=cfg.vm_params,
                    stats=self.stats,
                ),
                cfg.swap_bytes,
                [(f"{w.name}#{i}", w) for i, w in enumerate(cfg.workloads)],
            )
            self._attach_device(host, cfg.device)
            self.hosts = [host]
        self.fault_injector: FaultInjector | None = None
        if cfg.faults is not None and cfg.faults.plan is not None:
            self.fault_injector = FaultInjector(
                self.sim,
                cfg.faults.plan,
                stats=self.stats,
                fabric=self.fabric,
                hpbd_servers=self.servers,
                hpbd_clients=[
                    host.client for host in self.hosts
                    if host.client is not None
                ],
                nbd_server=self.nbd_server,
            )

    # -- the single node's device -------------------------------------------

    def _attach_device(self, host: _Host, dev: DeviceConfig) -> None:
        cfg = self.cfg
        if isinstance(dev, LocalMemory):
            need = sum(w.npages for w in cfg.workloads)
            have = bytes_to_pages(cfg.usable_mem_bytes)
            # The whole working set must stay resident above the high
            # watermark, or kswapd would (pointlessly) run with no swap.
            capacity = int(have * (1.0 - cfg.vm_params.frac_high))
            if need >= capacity:
                raise ValueError(
                    f"local-memory scenario needs {pages_to_bytes(need)} B "
                    f"resident but only {pages_to_bytes(capacity)} B fit "
                    f"above the watermarks"
                )
            return
        if cfg.swap_bytes <= 0:
            raise ValueError(f"{dev.label} scenario needs swap_bytes > 0")
        if isinstance(dev, HPBD):
            store = dev.server_store_bytes
            if store is None:
                # An equal share of the swap area, rounded up to MiB
                # (doubled when mirroring: share + a replica area).
                share = -(-cfg.swap_bytes // dev.nservers)
                store = -(-share // MiB) * MiB
                if dev.mirror:
                    store *= 2
            self.servers = [
                HPBDServer(
                    self.sim,
                    self.fabric,
                    f"mem{i}",
                    store_bytes=store,
                    ib_params=dev.ib,
                    staging_pool_bytes=dev.staging_pool_bytes,
                    max_outstanding_rdma=dev.max_outstanding_rdma,
                    stats=self.stats,
                )
                for i in range(dev.nservers)
            ]
            self._attach_hpbd(
                host,
                "fallback_hda",
                ib_params=dev.ib,
                pool_bytes=dev.pool_bytes,
                credits_per_server=dev.credits_per_server,
                register_on_fly=dev.register_on_fly,
                mirror=dev.mirror,
                # ablation (§4.2.5): the striped layout the paper rejects
                distribution=None
                if dev.stripe_bytes is None
                else ChunkMapDistribution(
                    cfg.swap_bytes,
                    dev.nservers,
                    striped_chunks(cfg.swap_bytes, dev.nservers, dev.stripe_bytes),
                ),
            )
        elif isinstance(dev, NBD):
            params = dev.params()
            faults = cfg.faults
            self.nbd_server = NBDServer(
                self.sim,
                self.fabric,
                "nbdsrv",
                store_bytes=cfg.swap_bytes,
                tcp_params=params,
                stats=self.stats,
            )
            host.nbd_client = NBDClient(
                self.sim,
                host.node,
                self.nbd_server,
                total_bytes=cfg.swap_bytes,
                tcp_params=params,
                stats=self.stats,
                request_timeout_usec=(
                    faults.request_timeout_usec if faults is not None else None
                ),
                max_retries=faults.max_retries if faults is not None else 2,
            )
            host.queue = host.nbd_client.queue
        elif isinstance(dev, LocalDisk):
            host.disk = DiskDevice(
                self.sim,
                name="hda",
                params=dev.params,
                swap_partition_bytes=cfg.swap_bytes,
                stats=self.stats,
            )
            host.queue = host.disk.queue
        else:  # pragma: no cover - DeviceConfig is closed
            raise TypeError(f"unknown device config {dev!r}")

    def _attach_hpbd(self, host: _Host, fallback_name: str, **kwargs) -> None:
        """Give ``host`` an HPBD client over the scenario's servers, with
        the fault config's recovery knobs and, for
        ``degraded_mode="disk"``, a local fallback disk named
        ``fallback_name``."""
        faults = self.cfg.faults
        if faults is not None:
            if faults.degraded_mode == "disk":
                host.fallback_disk = DiskDevice(
                    self.sim,
                    name=fallback_name,
                    params=faults.fallback_disk,
                    swap_partition_bytes=host.swap_bytes,
                    stats=self.stats,
                )
                kwargs["fallback_queue"] = host.fallback_disk.queue
            kwargs.update(
                request_timeout_usec=faults.request_timeout_usec,
                max_retries=faults.max_retries,
                retry_backoff_usec=faults.retry_backoff_usec,
                backoff_mult=faults.backoff_mult,
                degraded_mode=faults.degraded_mode,
                ewma_select=faults.ewma_select,
                hedge_reads=faults.hedge_reads,
                hedge_k=faults.hedge_k,
                hedge_min_usec=faults.hedge_min_usec,
            )
        host.client = HPBDClient(
            self.sim,
            host.node,
            self.servers,
            total_bytes=host.swap_bytes,
            stats=self.stats,
            **kwargs,
        )
        host.queue = host.client.queue

    # -- the cluster's fleet -------------------------------------------------

    def _build_fleet(self, cfg: ClusterScenarioConfig) -> None:
        """The shared servers, registry, admission control and health
        model, one admitted host per tenant, then repair."""
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
        self.servers = [
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
        self.hosts = [self._admit(t, credits[t.name]) for t in cfg.tenants]
        plan = cfg.faults.plan if cfg.faults is not None else None
        # Only a crash flips a server's liveness, so without one the
        # repair manager's scans could never act.
        crashes = plan is not None and any(
            isinstance(e, ServerCrash) for e in plan.events
        )
        redundant = self._redundant()
        if redundant and crashes:
            self.migrator = ChunkMigrator(
                self.sim,
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
            for h in redundant:
                self.repair.watch(h.spec.name, h.client, h.admission.group)

    def _admit(self, spec: TenantSpec, credits: int) -> _Host:
        """One tenant node, swapping to its admitted share of the fleet
        (or to its own disk when NACKed under ``admission_fallback``)."""
        cfg = self.cfg
        host = _Host(
            Node(
                self.sim,
                self.fabric,
                spec.name,
                mem_bytes=spec.mem_bytes - cfg.mem_reserved_bytes,
                ncpus=spec.ncpus,
                vm_params=cfg.vm_params,
                stats=self.stats,
            ),
            spec.swap_bytes,
            [(f"{spec.name}.ws", spec.workload)],
            spec=spec,
        )
        try:
            grant = self.admission.admit(
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
            # in (the disk fallback, applied at admission time).
            host.disk = DiskDevice(
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
            host.queue = host.disk.queue
            return host
        host.admission = grant
        self._attach_hpbd(
            host,
            f"{spec.name}-fallback",
            ib_params=cfg.ib,
            pool_bytes=cfg.pool_bytes,
            credits_per_server=credits,
            name=f"{spec.name}-hpbd",
            server_area_bases=grant.area_bases,
            tenant=spec.name,
            qos_weight=spec.weight,
            # The grant's data chunk map, plus a redundant tenant's
            # replica / parity extents.
            distribution=ChunkMapDistribution(
                spec.swap_bytes,
                cfg.nservers,
                grant.chunks,
                grant.parity_chunks or None,
            ),
            redundancy=grant.group,
            health=self.health,
        )
        return host

    def _redundant(self) -> list[_Host]:
        """Tenants admitted with a redundancy group."""
        return [
            h
            for h in self.hosts
            if h.admission is not None and h.admission.group is not None
        ]

    # -- execution ----------------------------------------------------------

    def _start_metrics(self) -> None:
        """One MetricsHub per host plus its utilization gauges (traced
        runs only): a tenant's names carry its own prefix so the shared
        registry stays collision-free; the servers' gauges ride on the
        first host's hub."""
        for i, host in enumerate(self.hosts):
            name = host.node.name
            tenant = host.spec is not None
            host.metrics = MetricsHub(
                host.node,
                stats=self.stats,
                prefix=f"obs.vmstat.{name}" if tenant else "obs.vmstat",
            )
            watch_utilization(
                host.metrics, f"{name}." if tenant else "", host.node,
                host.queue, host.client, () if i else self.servers,
            )
            host.metrics.start()

    def run(self) -> ScenarioResult:
        sim = self.sim
        instances: list[InstanceResult] = []

        def main(sim):
            # Device bring-up (outside the measured window, as in §6.1:
            # the swap device is configured before the runs start).
            for host in self.hosts:
                if host.client is not None:
                    yield from host.client.connect()
                if host.nbd_client is not None:
                    yield from host.nbd_client.connect()
                if host.queue is not None:
                    host.node.swapon(host.queue, host.swap_bytes)
            if self.registry is not None:
                self.registry.start_heartbeat()
            if self.health is not None:
                self.health.start()
            if sim.trace.enabled:
                self._start_metrics()
            if self.fault_injector is not None:
                self.fault_injector.start()
            if self.repair is not None:
                self.repair.start()
            t_start = sim.now
            procs = []
            for host in self.hosts:
                for name, workload in host.workloads:
                    aspace = host.node.vmm.create_address_space(
                        workload.npages, name=name
                    )
                    proc = sim.spawn(
                        execute(workload, host.node, aspace), name=name
                    )
                    procs.append((workload, aspace, proc))
            elapsed_list = yield all_of(sim, [p for (_w, _a, p) in procs])
            for (workload, aspace, _proc), elapsed in zip(procs, elapsed_list):
                instances.append(
                    InstanceResult(
                        workload=workload.name,
                        elapsed_usec=elapsed,
                        major_faults=aspace.major_faults,
                        minor_faults=aspace.minor_faults,
                        stall_usec=aspace.stall_usec,
                    )
                )
            wall = sim.now - t_start
            for host in self.hosts:
                if host.metrics is not None:
                    host.metrics.stop()
            if self.repair is not None:
                # Finish (or give up on) outstanding rebuilds before the
                # drains: repair's catch-up posts ride the data path.
                yield from self.repair.drain()
                self.repair.stop()
            for host in self.hosts:
                yield from host.node.vmm.quiesce()
                client = host.client
                if client is not None:
                    # Semi-sync mirrored writes may still have straggler
                    # acks in flight; let them land before the audits.
                    yield from client.drain()
                # Post-run integrity: ledgers must balance, and every
                # quiesced component reports its conservation
                # invariants to sim.monitors.
                host.node.vmm.check_frame_accounting()
                if host.queue is not None:
                    host.queue.audit_teardown()
                if host.fallback_disk is not None:
                    host.fallback_disk.queue.audit_teardown()
                if client is not None:
                    if client.pool is not None:
                        client.pool.check_invariants()
                    client.audit_teardown()
            for srv in self.servers:
                srv.audit_teardown()
            if self.registry is not None:
                self.registry.audit_teardown()
            return wall

        proc = sim.spawn(main(sim), name="scenario")
        wall = sim.run(until=proc)
        return self._collect(instances, wall)

    def _collect(
        self, instances: list[InstanceResult], wall: float
    ) -> ScenarioResult:
        cfg = self.cfg
        stats = self.stats

        def counter_total(name: str) -> int:
            c = stats.get(name)
            return int(c.total) if c is not None else 0

        reads, writes = [], []
        request_trace: list[tuple[float, str, int]] = []
        for host in self.hosts:
            if host.queue is None:
                continue
            rt = stats.get(f"{host.queue.name}.req_bytes.read")
            wt = stats.get(f"{host.queue.name}.req_bytes.write")
            if rt is not None:
                reads.append(rt.values())
            if wt is not None:
                writes.append(wt.values())
            request_trace.extend(host.queue.request_trace())
        # Stable: one host's trace is already in dispatch order.
        request_trace.sort(key=lambda item: item[0])
        network_bytes: dict[str, int] = {}
        for name in stats.names():
            if name.startswith("fabric.bytes."):
                network_bytes[name.removeprefix("fabric.bytes.")] = int(
                    stats.get(name).total
                )
        blame_usec: dict[str, float] = {}
        if self.sim.trace.enabled:
            from .analysis.critpath import aggregate_blame, request_paths

            blame_usec = aggregate_blame(request_paths(self.sim.trace))
        monitors = self.sim.monitors
        result = dict(
            label=cfg.label,
            instances=instances,
            elapsed_usec=wall,
            swapout_pages=sum(
                counter_total(f"{h.node.name}.vm.swapout_pages")
                for h in self.hosts
            ),
            swapin_pages=sum(
                counter_total(f"{h.node.name}.vm.swapin_pages")
                for h in self.hosts
            ),
            read_request_bytes=(
                np.concatenate(reads) if reads else np.array([], dtype=np.float64)
            ),
            write_request_bytes=(
                np.concatenate(writes)
                if writes
                else np.array([], dtype=np.float64)
            ),
            request_trace=request_trace,
            network_bytes=network_bytes,
            client_copy_usec=sum(
                (h.client.copy_usec for h in self.hosts if h.client is not None),
                0.0,
            ),
            blame_usec=blame_usec,
            invariant_violations=monitors.summary(),
            monitor_watermarks=dict(monitors.watermarks),
            health=self.health.report() if self.health is not None else {},
            registry=stats,
            trace=self.sim.trace if self.sim.trace.enabled else None,
        )
        if self.registry is None:
            return ScenarioResult(**result)
        return ClusterResult(
            **result,
            tenants=[
                TenantResult(
                    name=h.spec.name,
                    workload=inst.workload,
                    elapsed_usec=inst.elapsed_usec,
                    major_faults=inst.major_faults,
                    minor_faults=inst.minor_faults,
                    stall_usec=inst.stall_usec,
                    weight=h.spec.weight,
                    swap_bytes=h.spec.swap_bytes,
                    bytes_served=sum(
                        srv.tenant_bytes.get(h.spec.name, 0)
                        for srv in self.servers
                    ),
                    disk_fallback=h.admission is None,
                    placement=(
                        h.admission.policy if h.admission is not None else "disk"
                    ),
                )
                for h, inst in zip(self.hosts, instances)
            ],
            placement=cfg.placement,
            qos=cfg.qos,
            nservers=cfg.nservers,
            admission_nacks=counter_total("cluster.admission_nacks"),
            redundancy=self._redundancy_report(counter_total),
        )

    def _redundancy_report(self, counter_total) -> dict:
        """Durability summary: policies, memory overhead vs demand, the
        degraded-read/reconstruct counters and the repair ledger."""
        redundant = self._redundant()
        if not redundant:
            return {}
        stats = self.stats

        def counter_count(name: str) -> int:
            c = stats.get(name)
            return int(c.count) if c is not None else 0

        demand = sum(h.spec.swap_bytes for h in redundant)
        reserved = sum(sum(h.admission.share_bytes) for h in redundant)

        def client_count(counter: str) -> int:
            return sum(
                counter_count(f"{h.spec.name}-hpbd.{counter}") for h in redundant
            )

        report = {
            "policies": {
                h.spec.name: h.admission.group.policy.label for h in redundant
            },
            "demand_bytes": demand,
            "reserved_bytes": reserved,
            "overhead": reserved / demand if demand else 0.0,
            "degraded_reads": client_count("degraded_reads"),
            "reconstructs": client_count("reconstructs"),
            # nway reads don't reconstruct — they fail over to a ring
            # replica; that's its "degraded read" equivalent.
            "read_failovers": client_count("failovers"),
            "write_failovers": client_count("write_failovers"),
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


def build_scenario(
    cfg: ScenarioConfig | ClusterScenarioConfig, trace: bool = False
) -> _Scenario:
    """Construct without running (white-box tests poke at the pieces)."""
    return _Scenario(cfg, trace=trace)


def run_scenario(
    cfg: ScenarioConfig | ClusterScenarioConfig, trace: bool = False
) -> ScenarioResult:
    """Build and run one scenario to completion.

    With ``trace=True`` the run records a full cross-layer span tree
    (``result.trace``) and samples vmstat counters, at some simulation
    overhead; exporting is up to the caller (see :mod:`repro.obs`).

    A :class:`~repro.config.ClusterScenarioConfig` returns a
    :class:`~repro.cluster.results.ClusterResult`, so the sweep engine
    and every CLI entry point run multi-tenant scenarios unchanged.
    """
    return _Scenario(cfg, trace=trace).run()
