"""Scenario runner: build the cluster, run the workloads, collect results.

``run_scenario`` is the single entry point the examples, tests and
benchmarks share.  It assembles one compute node plus whatever the
device config asks for (memory servers, an NBD server, a disk), runs
every workload instance as its own process, waits for all of them,
quiesces the VM, checks the ledgers, and returns a
:class:`~repro.results.ScenarioResult`.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .config import HPBD, DeviceConfig, LocalDisk, LocalMemory, NBD, ScenarioConfig
from .disk.driver import DiskDevice
from .faults import FaultInjector
from .hpbd.client import HPBDClient
from .hpbd.server import HPBDServer
from .kernel.node import Node
from .nbd.client import NBDClient
from .nbd.server import NBDServer
from .net.link import Fabric
from .results import InstanceResult, ScenarioResult
from .simulator import Simulator, StatsRegistry, all_of
from .units import MiB, bytes_to_pages, pages_to_bytes
from .workloads.base import execute

if TYPE_CHECKING:  # pragma: no cover
    from .config import FaultConfig
    from .obs.metrics import MetricsHub

__all__ = ["run_scenario", "build_scenario"]


def hpbd_recovery(
    sim: Simulator,
    faults: FaultConfig | None,
    disk_name: str,
    swap_bytes: int,
    stats: StatsRegistry,
) -> tuple[dict, DiskDevice | None]:
    """The HPBD client's recovery keyword arguments for ``faults`` (none
    without a fault config), plus the local fallback disk, named
    ``disk_name``, that ``degraded_mode="disk"`` swaps to."""
    if faults is None:
        return {}, None
    recovery: dict = {}
    fallback = None
    if faults.degraded_mode == "disk":
        fallback = DiskDevice(
            sim,
            name=disk_name,
            params=faults.fallback_disk,
            swap_partition_bytes=swap_bytes,
            stats=stats,
        )
        recovery["fallback_queue"] = fallback.queue
    recovery.update(
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
    return recovery, fallback


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


class _Scenario:
    """Everything constructed for one run (exposed for white-box tests)."""

    def __init__(self, cfg: ScenarioConfig, trace: bool = False) -> None:
        self.cfg = cfg
        self.sim = Simulator()
        if trace:
            self.sim.enable_tracing()
        self.stats = StatsRegistry()
        self.fabric = Fabric(self.sim, stats=self.stats)
        self.node = Node(
            self.sim,
            self.fabric,
            "compute",
            mem_bytes=cfg.usable_mem_bytes,
            ncpus=cfg.ncpus,
            vm_params=cfg.vm_params,
            stats=self.stats,
        )
        self.metrics: "MetricsHub | None" = None
        if trace:
            from .obs import MetricsHub

            self.metrics = MetricsHub(self.node, stats=self.stats)
        self.hpbd_client: HPBDClient | None = None
        self.hpbd_servers: list[HPBDServer] = []
        self.nbd_client: NBDClient | None = None
        self.nbd_server: NBDServer | None = None
        self.disk: DiskDevice | None = None
        self.fallback_disk: DiskDevice | None = None
        self.queue = None
        self._build_device(cfg.device)
        self.fault_injector: FaultInjector | None = None
        if cfg.faults is not None and cfg.faults.plan is not None:
            self.fault_injector = FaultInjector(
                self.sim,
                cfg.faults.plan,
                stats=self.stats,
                fabric=self.fabric,
                hpbd_servers=self.hpbd_servers,
                hpbd_client=self.hpbd_client,
                nbd_server=self.nbd_server,
            )

    def _build_device(self, dev: DeviceConfig) -> None:
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
        faults = cfg.faults
        if isinstance(dev, HPBD):
            store = dev.server_store_bytes
            if store is None:
                # An equal share of the swap area, rounded up to MiB
                # (doubled when mirroring: share + a replica area).
                share = -(-cfg.swap_bytes // dev.nservers)
                store = -(-share // MiB) * MiB
                if dev.mirror:
                    store *= 2
            for i in range(dev.nservers):
                self.hpbd_servers.append(
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
                )
            recovery, self.fallback_disk = hpbd_recovery(
                self.sim, faults, "fallback_hda", cfg.swap_bytes, self.stats
            )
            self.hpbd_client = HPBDClient(
                self.sim,
                self.node,
                self.hpbd_servers,
                total_bytes=cfg.swap_bytes,
                ib_params=dev.ib,
                pool_bytes=dev.pool_bytes,
                credits_per_server=dev.credits_per_server,
                stats=self.stats,
                register_on_fly=dev.register_on_fly,
                stripe_bytes=dev.stripe_bytes,
                mirror=dev.mirror,
                **recovery,
            )
            self.queue = self.hpbd_client.queue
        elif isinstance(dev, NBD):
            params = dev.params()
            self.nbd_server = NBDServer(
                self.sim,
                self.fabric,
                "nbdsrv",
                store_bytes=cfg.swap_bytes,
                tcp_params=params,
                stats=self.stats,
            )
            self.nbd_client = NBDClient(
                self.sim,
                self.node,
                self.nbd_server,
                total_bytes=cfg.swap_bytes,
                tcp_params=params,
                stats=self.stats,
                request_timeout_usec=(
                    faults.request_timeout_usec if faults is not None else None
                ),
                max_retries=faults.max_retries if faults is not None else 2,
            )
            self.queue = self.nbd_client.queue
        elif isinstance(dev, LocalDisk):
            self.disk = DiskDevice(
                self.sim,
                name="hda",
                params=dev.params,
                swap_partition_bytes=cfg.swap_bytes,
                stats=self.stats,
            )
            self.queue = self.disk.queue
        else:  # pragma: no cover - DeviceConfig is closed
            raise TypeError(f"unknown device config {dev!r}")

    # -- execution ----------------------------------------------------------

    def run(self) -> ScenarioResult:
        cfg = self.cfg
        sim = self.sim
        results: list[InstanceResult] = []

        def main(sim):
            # Device bring-up (outside the measured window, as in §6.1:
            # the swap device is configured before the runs start).
            if self.hpbd_client is not None:
                yield from self.hpbd_client.connect()
            if self.nbd_client is not None:
                yield from self.nbd_client.connect()
            if self.queue is not None:
                self.node.swapon(self.queue, cfg.swap_bytes)
            if self.fault_injector is not None:
                self.fault_injector.start()
            if self.metrics is not None:
                watch_utilization(
                    self.metrics, "", self.node, self.queue,
                    self.hpbd_client, self.hpbd_servers,
                )
                self.metrics.start()
            t_start = sim.now
            procs = []
            for i, workload in enumerate(cfg.workloads):
                aspace = self.node.vmm.create_address_space(
                    workload.npages, name=f"{workload.name}#{i}"
                )
                procs.append(
                    (
                        workload,
                        aspace,
                        sim.spawn(
                            execute(workload, self.node, aspace),
                            name=f"{workload.name}#{i}",
                        ),
                    )
                )
            elapsed_list = yield all_of(sim, [p for (_w, _a, p) in procs])
            for (workload, aspace, _proc), elapsed in zip(procs, elapsed_list):
                results.append(
                    InstanceResult(
                        workload=workload.name,
                        elapsed_usec=elapsed,
                        major_faults=aspace.major_faults,
                        minor_faults=aspace.minor_faults,
                        stall_usec=aspace.stall_usec,
                    )
                )
            wall = sim.now - t_start
            if self.metrics is not None:
                self.metrics.stop()
            yield from self.node.vmm.quiesce()
            if self.hpbd_client is not None:
                # Semi-sync mirrored writes may still have straggler
                # acks in flight; let them land before the audits.
                yield from self.hpbd_client.drain()
            # Post-run integrity: ledgers must balance.
            self.node.vmm.check_frame_accounting()
            if self.hpbd_client is not None and self.hpbd_client.pool is not None:
                self.hpbd_client.pool.check_invariants()
            # Teardown audits: every quiesced component reports its
            # conservation invariants to sim.monitors.
            if self.queue is not None:
                self.queue.audit_teardown()
            if self.fallback_disk is not None:
                self.fallback_disk.queue.audit_teardown()
            if self.hpbd_client is not None:
                self.hpbd_client.audit_teardown()
            for srv in self.hpbd_servers:
                srv.audit_teardown()
            return wall

        proc = sim.spawn(main(sim), name="scenario")
        wall = sim.run(until=proc)
        return self._collect(results, wall)

    def _collect(
        self, instances: list[InstanceResult], wall: float
    ) -> ScenarioResult:
        stats = self.stats
        label = self.cfg.label

        def counter_total(name: str) -> int:
            c = stats.get(name)
            return int(c.total) if c is not None else 0

        read_sizes = np.array([], dtype=np.float64)
        write_sizes = np.array([], dtype=np.float64)
        trace: list[tuple[float, str, int]] = []
        if self.queue is not None:
            rt = stats.get(f"{self.queue.name}.req_bytes.read")
            wt = stats.get(f"{self.queue.name}.req_bytes.write")
            read_sizes = rt.values().copy() if rt is not None else read_sizes
            write_sizes = wt.values().copy() if wt is not None else write_sizes
            trace = self.queue.request_trace()
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
        return ScenarioResult(
            label=label,
            instances=instances,
            elapsed_usec=wall,
            swapout_pages=counter_total("compute.vm.swapout_pages"),
            swapin_pages=counter_total("compute.vm.swapin_pages"),
            read_request_bytes=read_sizes,
            write_request_bytes=write_sizes,
            request_trace=trace,
            network_bytes=network_bytes,
            client_copy_usec=(
                self.hpbd_client.copy_usec if self.hpbd_client is not None else 0.0
            ),
            blame_usec=blame_usec,
            invariant_violations=monitors.summary(),
            monitor_watermarks=dict(monitors.watermarks),
            registry=stats,
            trace=self.sim.trace if self.sim.trace.enabled else None,
        )


def build_scenario(cfg: ScenarioConfig, trace: bool = False) -> _Scenario:
    """Construct without running (white-box tests poke at the pieces)."""
    return _Scenario(cfg, trace=trace)


def run_scenario(cfg: ScenarioConfig, trace: bool = False) -> ScenarioResult:
    """Build and run one scenario to completion.

    With ``trace=True`` the run records a full cross-layer span tree
    (``result.trace``) and samples vmstat counters, at some simulation
    overhead; exporting is up to the caller (see :mod:`repro.obs`).

    Also accepts a :class:`~repro.config.ClusterScenarioConfig` —
    dispatching here keeps the sweep engine and every CLI entry point
    working unchanged for multi-tenant runs.
    """
    from .config import ClusterScenarioConfig

    if isinstance(cfg, ClusterScenarioConfig):
        from .cluster.runner import run_cluster_scenario

        return run_cluster_scenario(cfg, trace=trace)
    return _Scenario(cfg, trace=trace).run()
